"""Independent reference implementations used only as test oracles.

These deliberately avoid the package's own code paths: max-flow for edge
connectivity, BFS for girth, exhaustive subset scans for minimum 2EC, a
row-by-row graph6 encoder, an edge scan per shore for cut crossing sets,
Fraction-by-Fraction weight sums for edge occurrences, and a canonical
form that visits every leaf of its search tree.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from types import SimpleNamespace


def maxflow_edge_connectivity(g) -> int:
    """Min over t of unit-capacity max-flow from vertex 0 to t."""
    n = g.n
    if n < 2:
        raise ValueError("need n >= 2")

    def maxflow(s, t):
        # residual capacities on directed arcs, 1 each way per edge
        cap = {}
        for u, v in g.edges:
            cap[(u, v)] = cap.get((u, v), 0) + 1
            cap[(v, u)] = cap.get((v, u), 0) + 1
        flow = 0
        while True:
            parent = {s: None}
            queue = deque([s])
            while queue and t not in parent:
                u = queue.popleft()
                for (a, b), c in cap.items():
                    if a == u and c > 0 and b not in parent:
                        parent[b] = (a, b)
                        queue.append(b)
            if t not in parent:
                return flow
            v = t
            while parent[v] is not None:
                a, b = parent[v]
                cap[(a, b)] -= 1
                cap[(b, a)] += 1
                v = a
            flow += 1

    return min(maxflow(0, t) for t in range(1, n))


def girth(g) -> int:
    """Length of the shortest cycle via BFS from every vertex."""
    best = g.n + 1
    for s in range(g.n):
        dist = {s: 0}
        par = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in g.incident(u):
                w = g.other_end(e, u)
                if w not in dist:
                    dist[w] = dist[u] + 1
                    par[w] = e
                    queue.append(w)
                elif par[u] != e:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def connected_spanning(g, edge_ids) -> bool:
    adj = [[] for _ in range(g.n)]
    for e in edge_ids:
        u, v = g.endpoints(e)
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def bridgeless(g, edge_ids) -> bool:
    """Every edge sits on a cycle: removal keeps its endpoints connected."""
    ids = list(edge_ids)
    for e in ids:
        u, v = g.endpoints(e)
        rest = [f for f in ids if f != e]
        adj = [[] for _ in range(g.n)]
        for f in rest:
            a, b = g.endpoints(f)
            adj[a].append(b)
            adj[b].append(a)
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if v not in seen:
            return False
    return True


def reference_is_2ec(g, edge_ids) -> bool:
    return connected_spanning(g, edge_ids) and bridgeless(g, edge_ids)


def brute_force_min_2ec(g) -> int:
    """Smallest spanning 2EC subset by scanning all subsets (m <= ~14)."""
    best = g.m + 1
    for mask in range(1 << g.m):
        size = mask.bit_count()
        if size >= best or size < g.n:
            continue
        ids = [e for e in range(g.m) if (mask >> e) & 1]
        if reference_is_2ec(g, ids):
            best = size
    return best if best <= g.m else brute_force_min_2ec_full(g)


def brute_force_min_2ec_full(g) -> int:
    ids = list(range(g.m))
    return g.m if reference_is_2ec(g, ids) else -1


def reference_graph6(g) -> str:
    """Row-scan encoder: builds the adjacency matrix first."""
    adj = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = 1
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(adj[i][j])
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val * 2 + b
        chars.append(chr(63 + val))
    return "".join(chars)


def piecewise_pivot_occurrences(g, uv) -> list[Fraction]:
    """The expected per-edge occurrence of a single pivot combination."""
    u, v = g.endpoints(uv)
    around = set()
    for w in (u, v):
        for e in g.incident(w):
            if e != uv:
                around.add(e)
    out = []
    for e in range(g.m):
        if e == uv:
            out.append(Fraction(1))
            continue
        if e in around:
            out.append(Fraction(1, 2))
            continue
        x, y = g.endpoints(e)
        touches = 0
        for h in around:
            a, b = g.endpoints(h)
            if x in (a, b) or y in (a, b):
                touches += 1
        if touches >= 2:
            out.append(Fraction(1))
        elif touches == 1:
            out.append(Fraction(8, 9))
        else:
            out.append(Fraction(7, 9))
    return out


def pattern_weights_at_vertex(comb, v):
    """Weights of members omitting each incident edge, plus the rest."""
    g = comb.host
    incident = g.incident(v)
    omit = {e: Fraction(0) for e in incident}
    full = Fraction(0)
    for w, es in comb.entries:
        missing = [e for e in incident if e not in es]
        if not missing:
            full += w
        else:
            assert len(missing) == 1, "a 2EC member omits two edges at a vertex"
            omit[missing[0]] += w
    return omit, full


def reference_crossing_mask(g, shore_mask: int) -> int:
    """Crossing edge mask of one shore by a scan over every edge."""
    out = 0
    for e, (u, v) in enumerate(g.edges):
        if ((shore_mask >> u) ^ (shore_mask >> v)) & 1:
            out |= 1 << e
    return out


def reference_shore_scan(g) -> list[tuple[int, int]]:
    """(shore, crossing mask) of every canonical shore (vertex 0 outside),
    in ascending shore order, one edge scan per shore."""
    return [
        (mask << 1, reference_crossing_mask(g, mask << 1))
        for mask in range(1, 1 << (g.n - 1))
    ]


def reference_edge_occurrences(comb) -> tuple[Fraction, ...]:
    """Per-edge weight sums, adding one Fraction per member and edge."""
    occ = [Fraction(0)] * comb.host.m
    for w, es in comb.entries:
        for e in es:
            occ[e] += w
    return tuple(occ)


def _reference_refine(cells, nbrs):
    cells = list(cells)
    while True:
        pos = {}
        for ci, cell in enumerate(cells):
            for v in cell:
                pos[v] = ci
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig = {}
            for v in cell:
                counts = [0] * len(cells)
                for w in nbrs[v]:
                    counts[pos[w]] += 1
                sig.setdefault(tuple(counts), []).append(v)
            if len(sig) > 1:
                changed = True
            for key in sorted(sig):
                new_cells.append(tuple(sig[key]))
        cells = new_cells
        if not changed:
            return tuple(cells)


def _reference_encode(g, order) -> bytes:
    """Upper-triangle adjacency bits of g relabeled by position in order."""
    bits = []
    for col in range(1, g.n):
        vc = order[col]
        for row in range(col):
            bits.append(1 if g.has_edge(order[row], vc) else 0)
    while len(bits) % 8:
        bits.append(0)
    return bytes(
        sum(b << (7 - k) for k, b in enumerate(bits[i : i + 8]))
        for i in range(0, len(bits), 8)
    )


def reference_canonical_form(g) -> tuple[str, tuple[int, ...]]:
    """(key, perm) from the full individualization-refinement tree: every
    leaf is visited and encoded as bytes, and the first least leaf wins."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    best = [None, None]

    def search(cells):
        cells = _reference_refine(cells, nbrs)
        target = next((ci for ci, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = tuple(cell[0] for cell in cells)
            enc = _reference_encode(g, order)
            if best[0] is None or enc < best[0]:
                best[0], best[1] = enc, order
            return
        cell = cells[target]
        for v in cell:
            search(
                cells[:target]
                + ((v,), tuple(u for u in cell if u != v))
                + cells[target + 1 :]
            )

    search((tuple(range(n)),))
    perm = [0] * n
    for position, old in enumerate(best[1]):
        perm[old] = position
    relabeled = SimpleNamespace(
        n=n, edges=[(perm[u], perm[v]) for u, v in g.edges]
    )
    return reference_graph6(relabeled), tuple(perm)
