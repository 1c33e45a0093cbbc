"""Independent reference implementations used only as test oracles.

These deliberately avoid the package's own code paths: max-flow for edge
connectivity, BFS for girth, exhaustive subset scans for minimum 2EC, a
row-by-row graph6 encoder, an edge scan per shore for cut crossing sets,
the small cuts as the edge subsets of at most four edges that a parity
search splits the vertices along, essential-cut queries that rescan
every small cut on each call,
Fraction-by-Fraction weight sums for edge occurrences, a canonical
form that visits every leaf of its search tree, a census of small cubic
graphs over the edge subsets of K_n, the base-case combinations by
exact feasibility search over every 2EC spanning subgraph, and the
Carathéodory compaction with a Fraction inverse of its basis.

Five oracles keep a construction the package replaced: the case-1 node
as a merge per pivot (``reference_pivot``, built from the certifier's
cached children, the package's safe pairs and smoothing, and the
reference lift and average), averaged over the pivots and padded; the
relabeling of a combination rebuilt through ``reference_combination``;
lift and glue with a set per mapped member, lift rebuilt through
``reference_combination`` and glue classing members by their
pseudo-vertex edges in child space; and the case-1 smoothing that walks
each path outwards from a suppressed vertex in both directions.  Some
keep a replaced kernel whole: the canonical lookup that stopped at the
least leaf encoding of a held class (``reference_stopped_search``), the
Gray-code walk over every shore that
listed every cut (``reference_walk_cuts``), the 2EC check as Tarjan's
low-link bridge search, the branch and bound that asked ``is_2ec`` before every exclusion
(``reference_exact_opt``), the Lemma 3 check that answered every
configuration and pivot by a rescan of its own
(``reference_verify_lemma3``, with ``reference_safe_pair``), the combination plumbing on (Fraction, edge tuple) entries
(``reference_combination``, ``reference_average`` and
``reference_occurrences``) that the certifier's edge masks and integer
numerators replaced, and the two Fraction simplexes that the integer
engine of ``exact_lp`` replaced: the dense phase-1 tableau
(``reference_feasible_basic_solution``, which also rebuilds the base-case
table) and the revised dual simplex of the cut LP
(``reference_solve_cut_lp``).
"""

from __future__ import annotations

import math
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from cubic2ec import canon, connectivity
from cubic2ec.canon import canonical_form
from cubic2ec.combine import TARGET, ConvexCombination, Subgraph, _public, pad_to_uniform
from cubic2ec.connectivity import Cut, Lemma3Report, find_safe_pair
from cubic2ec.errors import InvariantViolation, Lemma3Violation, StructuralViolation
from cubic2ec.oracle import _guard
from cubic2ec.graphs import Graph, Reduction, graph6_bits, remove_edges_and_smooth


@contextmanager
def time_limit(seconds: float):
    """Fail the code inside with ``pytest.fail`` once ``seconds`` of wall
    time have passed.

    SIGALRM from ``setitimer(ITIMER_REAL)`` interrupts the main thread
    wherever it is, so the limit needs POSIX and the main thread; anywhere
    else it does nothing.  An enclosing limit gets its remaining time
    back on exit.
    """
    if not hasattr(signal, "setitimer") or (
        threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"time limit of {seconds} s exceeded", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 0.001))


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


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def natural_mask(x: int, m: int) -> int:
    """Certifier mask x (edge e at bit m - 1 - e) with edge e at bit e, as
    ``connectivity.is_2ec`` reads one: the bytes in reverse order, each
    with its bits reversed."""
    size = (m + 7) // 8
    flipped = x.to_bytes(size, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(flipped, "big") >> (8 * size - m)


def reference_is_2ec(g, edge_ids) -> bool:
    return connected_spanning(g, edge_ids) and bridgeless(g, edge_ids)


def reference_tarjan_is_2ec(g, sub) -> bool:
    """is_2ec by Tarjan's low-link bridge search over a per-call adjacency
    list, with an explicit DFS stack: same contract, same errors."""
    n = g.n
    if isinstance(sub, int):
        if sub < 0 or sub >> g.m:
            raise ValueError(f"edge mask {sub:#x} has bits outside [0, {g.m})")
        sub = [e for e in range(g.m) if sub >> e & 1]
    edges = g.edges
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    try:
        for e in sub:
            if e < 0:  # would index from the end; e >= m fails the indexing
                raise IndexError
            u, v = edges[e]
            adj[u].append((v, e))
            adj[v].append((u, e))
    except IndexError:
        raise ValueError(f"edge id {e} must lie in [0, {g.m})") from None
    if n <= 1:
        return True

    disc = [-1] * n
    low = [0] * n
    parent_edge = [-1] * n
    ptr = [0] * n
    stack = [0]
    disc[0] = low[0] = 0
    timer = 1
    visited = 1
    while stack:
        v = stack[-1]
        if ptr[v] < len(adj[v]):
            w, e = adj[v][ptr[v]]
            ptr[v] += 1
            if e == parent_edge[v]:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                visited += 1
                parent_edge[w] = e
                stack.append(w)
            elif disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1]
                if low[v] > disc[p]:
                    return False  # tree edge into v is a bridge
                if low[v] < low[p]:
                    low[p] = low[v]
    return visited == n


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


def reference_exact_opt(g) -> tuple[int, Subgraph]:
    """The branch and bound ``oracle.exact_opt`` replaced: the same
    include-first search in ascending edge order, seeded by the same greedy
    bound, but every exclusion and every greedy drop asks ``is_2ec``, and
    each node counts its included edges and deficiency over every vertex."""
    _guard(g)
    if not connectivity.is_2ec(g, (1 << g.m) - 1):
        raise ValueError("exact_opt requires a 2-edge-connected graph")
    n, m = g.n, g.m
    inc = [0] * n
    for e, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << e
        inc[v] |= 1 << e
    full = (1 << m) - 1
    cur = full
    for e in range(m - 1, -1, -1):
        trial = cur & ~(1 << e)
        if connectivity.is_2ec(g, trial):
            cur = trial
    best_size = cur.bit_count()
    best_set = None

    def rec(pos, in_mask, avail_mask):
        nonlocal best_size, best_set
        in_count = in_mask.bit_count()
        deficiency = 0
        for v in range(n):
            d = (in_mask & inc[v]).bit_count()
            if d < 2:
                deficiency += 2 - d
        lb = max(n, in_count + (deficiency + 1) // 2)
        if best_set is None:
            if lb > best_size:
                return
        elif lb >= best_size:
            return
        if pos == m:
            if connectivity.is_2ec(g, in_mask):
                size = in_mask.bit_count()
                if size < best_size or best_set is None:
                    best_size = size
                    best_set = in_mask
            return
        bit = 1 << pos
        rec(pos + 1, in_mask | bit, avail_mask)
        reduced = avail_mask & ~bit
        if connectivity.is_2ec(g, reduced):
            rec(pos + 1, in_mask, reduced)

    rec(0, 0, full)
    if best_set is None:
        raise InvariantViolation("2EC input must admit a solution")
    witness = tuple(e for e in range(m) if best_set >> e & 1)
    return best_size, Subgraph(g, witness)


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


def recheck_cut_lp_point(g, value, x) -> None:
    """Check a cut-LP answer on g against every cut: x in the unit box,
    every cut covered at least twice (one Fraction sum per shore), and
    value the sum of x.  Raises AssertionError on the first failure."""
    if not all(0 <= xe <= 1 for xe in x):
        raise AssertionError("LP point leaves the unit box")
    for _, cross in reference_shore_scan(g):
        if sum((x[e] for e in connectivity._iter_bits(cross)), Fraction(0)) < 2:
            raise AssertionError("LP point violates a cut constraint")
    if sum(x, Fraction(0)) != value:
        raise AssertionError("LP value differs from the sum of its point")


def reference_walk_cuts(g, max_size: int) -> tuple[int, list[tuple[int, int]]]:
    """One Gray-code walk over every canonical shore, the body the package
    replaced by its cycle-space index and augmenting-path λ.

    Returns the min cut size (0 on a disconnected graph), and every cut
    with |crossing| <= max_size as (shore, crossing) in ascending shore
    order.  The shore >> 1 code runs through the Gray code i ^ (i >> 1):
    step i flips bit (i & -i) of the code, i.e. vertex
    (i & -i).bit_length(), never vertex 0, and the edges whose crossing
    status changes are exactly those at the flipped vertex.  2^(n-1)
    steps, so keep n small.
    """
    inc = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        inc[u] ^= 1 << e
        inc[v] ^= 1 << e
    best = g.m + 1
    found = []
    code = cross = 0
    for i in range(1, 1 << (g.n - 1)):
        low = i & -i
        code ^= low
        cross ^= inc[low.bit_length()]
        size = cross.bit_count()
        if size < best:
            best = size
        if size <= max_size:
            found.append((code, cross))
    found.sort()
    return best, [(code << 1, cross) for code, cross in found]


def _reference_parity_sides(nbrs, cross: int) -> list[int] | None:
    """Side 0 or 1 of each vertex, vertex 0 on side 0, such that exactly
    the edges in ``cross`` join unlike sides, by a search that fixes each
    vertex from the first edge that reaches it; None if an edge disagrees,
    and -1 for a vertex the search never reaches."""
    side = [0] + [-1] * (len(nbrs) - 1)
    stack = [0]
    while stack:
        u = stack.pop()
        for v, e in nbrs[u]:
            s = side[u] ^ ((cross >> e) & 1)
            if side[v] < 0:
                side[v] = s
                stack.append(v)
            elif side[v] != s:
                return None
    return side


def reference_small_cuts(g) -> list[tuple[int, int, int]]:
    """(shore, crossing mask, size) of every canonical cut with at most 4
    crossing edges of a connected graph, in ascending shore order: every
    edge subset of at most four edges, kept when a parity search splits
    the vertices along it.  Needs no walk over the shores, so any n."""
    nbrs = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        nbrs[u].append((v, e))
        nbrs[v].append((u, e))
    if -1 in _reference_parity_sides(nbrs, 0):
        raise ValueError("reference_small_cuts needs a connected graph")
    found = []
    for k in range(1, 5):
        for es in combinations(range(g.m), k):
            cross = sum(1 << e for e in es)
            side = _reference_parity_sides(nbrs, cross)
            if side is not None:
                found.append((sum(s << v for v, s in enumerate(side)), cross, k))
    return sorted(found)


def _reference_has_internal_edge(g, vmask: int) -> bool:
    return any((vmask >> u) & 1 and (vmask >> v) & 1 for u, v in g.edges)


def reference_is_essential(g, shore_mask: int) -> bool:
    """Both sides have at least two vertices and an edge inside."""
    comp = ((1 << g.n) - 1) ^ shore_mask
    if shore_mask.bit_count() < 2 or comp.bit_count() < 2:
        return False
    return _reference_has_internal_edge(g, shore_mask) and _reference_has_internal_edge(
        g, comp
    )


def _reference_cut(g, shore_mask: int, cross_mask: int) -> Cut:
    return Cut(
        tuple(v for v in range(g.n) if (shore_mask >> v) & 1),
        tuple(e for e in range(g.m) if (cross_mask >> e) & 1),
    )


def reference_essential_3cut(g, small) -> Cut | None:
    """The essential 3-cut with the least (|shore|, shore), found by a
    rescan of ``small`` (from :func:`reference_small_cuts`) that tests
    each candidate's essentiality on the spot."""
    best = None
    for shore, cross, size in small:
        if size == 3 and reference_is_essential(g, shore):
            key = (shore.bit_count(), shore)
            if best is None or key < best[0]:
                best = (key, shore, cross)
    if best is None:
        return None
    return _reference_cut(g, best[1], best[2])


def reference_is_essentially_4ec(g) -> bool:
    """No essential 3-cut in the rescan of every small cut."""
    return reference_essential_3cut(g, reference_small_cuts(g)) is None


def reference_essential_4cut_with_pair(
    g, small, e1: int, e2: int, excluded_shore=None
) -> Cut | None:
    """The essential 4-cut with the least (|shore|, shore) whose crossing
    holds both edges and whose shore is not ``excluded_shore`` (either
    side), found by the same rescan of ``small``."""
    excl = -1
    if excluded_shore is not None:
        vs = set(excluded_shore)
        if 0 in vs:
            vs = set(range(g.n)) - vs
        excl = sum(1 << v for v in vs)
    want = (1 << e1) | (1 << e2)
    best = None
    for shore, cross, size in small:
        if size != 4 or shore == excl or cross & want != want:
            continue
        if not reference_is_essential(g, shore):
            continue
        key = (shore.bit_count(), shore)
        if best is None or key < best[0]:
            best = (key, shore, cross)
    if best is None:
        return None
    return _reference_cut(g, best[1], best[2])


def reference_safe_pair(g, small, uv: int) -> tuple[tuple, tuple, int, Cut | None]:
    """(pair_a, pair_b, orientation, witness_cut) around pivot uv as
    ``find_safe_pair`` decides it, every essential 4-cut query answered by
    a rescan of ``small``; Lemma3Violation if both orientations are
    blocked."""
    u, v = g.endpoints(uv)
    a, b = sorted(w for w in g.neighbors(u) if w != v)
    c, d = sorted(w for w in g.neighbors(v) if w != u)
    au, bu = g.edge_id(a, u), g.edge_id(b, u)
    vc, vd = g.edge_id(v, c), g.edge_id(v, d)

    def blocked(e1, e2):
        return reference_essential_4cut_with_pair(g, small, e1, e2, (u, v))

    w1 = blocked(au, vc) or blocked(bu, vd)
    if w1 is None:
        return (au, vc), (bu, vd), 1, None
    w2 = blocked(au, vd) or blocked(bu, vc)
    if w2 is None:
        return (au, vd), (bu, vc), 2, w1
    raise Lemma3Violation(
        f"both removal orientations around edge {uv} are blocked", witnesses=(w1, w2)
    )


def reference_verify_lemma3(g, small=None) -> Lemma3Report:
    """The ``verify_lemma3`` body the package replaced, built on the rescan
    queries: the graph checked from ``small`` (default
    :func:`reference_small_cuts`), then every configuration answered by
    :func:`reference_essential_4cut_with_pair` and every pivot decided by
    :func:`reference_safe_pair`, each on its own."""
    small = reference_small_cuts(g) if small is None else small
    if not g.is_cubic:
        raise ValueError("verify_lemma3 requires a cubic graph")
    if g.n <= 6:
        raise ValueError("verify_lemma3 requires n > 6")
    if any(size < 3 for *_, size in small) or reference_essential_3cut(g, small):
        raise ValueError("verify_lemma3 requires an essentially 4-edge-connected graph")
    configurations = flips = 0
    violations, divergences = [], []
    literal_ok_everywhere = True
    for uv, (x, y) in enumerate(g.edges):
        for u, v in ((x, y), (y, x)):
            c, d = sorted(w for w in g.neighbors(v) if w != u)
            vc, vd = g.edge_id(v, c), g.edge_id(v, d)
            for a in sorted(w for w in g.neighbors(u) if w != v):
                au = g.edge_id(a, u)
                configurations += 1
                s1 = reference_essential_4cut_with_pair(g, small, au, vd, (u, v))
                s2 = reference_essential_4cut_with_pair(g, small, au, vc, (u, v))
                if s1 is not None and s2 is not None:
                    literal_ok_everywhere = False
                    violations.append(
                        {
                            "pivot": uv,
                            "path": (a, u, v),
                            "others": (c, d),
                            "cut_with_vd": s1,
                            "cut_with_vc": s2,
                        }
                    )
        try:
            flips += reference_safe_pair(g, small, uv)[2] == 2
        except Lemma3Violation as exc:
            found = divergences if literal_ok_everywhere else violations
            found.append({"pivot": uv, "witnesses": exc.witnesses})
    return Lemma3Report(
        configurations=configurations,
        pivots=g.m,
        violations=tuple(violations),
        orientation_flips=flips,
        divergences=tuple(divergences),
    )


def reference_edge_occurrences(comb) -> tuple[Fraction, ...]:
    """Per-edge weight sums, adding one Fraction per member and edge."""
    occ = [Fraction(0)] * comb.host.m
    for w, es in comb.entries:
        for e in es:
            occ[e] += w
    return tuple(occ)


def _reference_numerators(weights) -> tuple[list[int], int]:
    den = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def reference_combination(host, raw_entries, check: bool = True):
    """combination() on (weight, edge ids) entries with one Fraction per
    entry: deduplicated over integer numerators, members as sorted tuples
    in ascending order; ``check`` tests each member with reference_is_2ec."""
    weights: list[Fraction] = []
    keys: list[tuple[int, ...]] = []
    for weight, edge_ids in raw_entries:
        w = weight if type(weight) is Fraction else Fraction(weight)
        if w < 0:
            raise ValueError("weights must be nonnegative")
        if w == 0:
            continue
        key = tuple(sorted(set(edge_ids)))
        if key and not (0 <= key[0] and key[-1] < host.m):
            raise ValueError(f"edge id out of range in entry {key}")
        weights.append(w)
        keys.append(key)
    if not keys:
        raise ValueError("a convex combination needs at least one entry")
    nums, den = _reference_numerators(weights)
    acc: dict[tuple[int, ...], int] = {}
    for key, num in zip(keys, nums):
        acc[key] = acc.get(key, 0) + num
    total = sum(acc.values())
    if total != den:
        raise ValueError(f"weights must sum to 1 exactly (got {Fraction(total, den)})")
    entries = tuple((Fraction(num, den), k) for k, num in sorted(acc.items()))
    if check:
        for _, es in entries:
            if not reference_is_2ec(host, es):
                raise ValueError(f"entry {es} is not a spanning 2-edge-connected subgraph")
    return ConvexCombination(host, entries)


def reference_average(parts):
    """average() with one Fraction product per entry, merged through
    reference_combination."""
    parts = list(parts)
    if not parts:
        raise ValueError("average needs at least one part")
    total = sum(Fraction(w) for w, _ in parts)
    if total != 1:
        raise ValueError(f"part weights must sum to 1 exactly (got {total})")
    host = parts[0][1].host
    raw = []
    for w, comb in parts:
        if comb.host != host:
            raise ValueError("all combinations must share one host graph")
        raw.extend((Fraction(w) * ew, es) for ew, es in comb.entries)
    return reference_combination(host, raw, check=False)


def reference_occurrences(m: int, entries) -> tuple[Fraction, ...]:
    """Per-edge weight sums of (weight, edge ids) entries, over integer
    numerators on the weights' common denominator."""
    nums, den = _reference_numerators([w for w, _ in entries])
    occ = [0] * m
    for num, (_, es) in zip(nums, entries):
        for e in es:
            occ[e] += num
    return tuple(Fraction(x, den) for x in occ)


def reference_refine(cells, nbrs):
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


def _reference_leaves(g):
    """(encoding, order) of every leaf of the full individualization-
    refinement tree, in search order, each encoded as bytes."""
    nbrs = [g.neighbors(v) for v in range(g.n)]

    def search(cells):
        cells = reference_refine(cells, nbrs)
        target = next((ci for ci, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = tuple(cell[0] for cell in cells)
            yield _reference_encode(g, order), order
            return
        cell = cells[target]
        for v in cell:
            yield from search(
                cells[:target]
                + ((v,), tuple(u for u in cell if u != v))
                + cells[target + 1 :]
            )

    yield from search((tuple(range(g.n)),))


def reference_canonical_form(g) -> tuple[str, tuple[int, ...]]:
    """(key, perm) from the full individualization-refinement tree: every
    leaf is visited and encoded as bytes, and the first least leaf wins."""
    best = None
    for enc, order in _reference_leaves(g):
        if best is None or enc < best[0]:
            best = enc, order
    perm = [0] * g.n
    for position, old in enumerate(best[1]):
        perm[old] = position
    relabeled = SimpleNamespace(
        n=g.n, edges=[(perm[u], perm[v]) for u, v in g.edges]
    )
    return reference_graph6(relabeled), tuple(perm)


def reference_least_leaves(g) -> int:
    """The number of leaves of the full tree with the least encoding, which
    is the order of g's automorphism group."""
    encs = [enc for enc, _ in _reference_leaves(g)]
    return encs.count(min(encs))


def reference_stopped_search(g, known) -> tuple[tuple[int, ...], int, int]:
    """``(order, enc, leaves)`` of the search that stops at the first leaf
    whose encoding is in ``known``, the least leaf encodings of the classes
    a Certifier held for g.n: the canonical lookup that the index of leaf
    encodings and automorphisms replaced.  The least encoding of a class
    sorts below every other leaf of it, so that leaf is the first least
    one; with no known class it is the whole search, as in ``canon``."""
    n = g.n
    nbrs, weight = canon._tables(g)
    best = [-1, ()]
    leaves = 0
    autos: list[list[int]] = []
    path: list[int] = []
    seen: dict[int, tuple] = {}
    back = n

    def leaf(cells) -> bool:
        nonlocal back, leaves
        leaves += 1
        order = tuple(cell[0] for cell in cells)
        at = [0] * n
        for position, old in enumerate(order):
            at[old] = position
        enc = graph6_bits(n, g.edges, at)
        if enc in seen:
            earlier, earlier_path = seen[enc]
            gamma = [0] * n
            for a, b in zip(earlier, order):
                gamma[a] = b
            autos.append(gamma)
            back = 0
            while path[back] == earlier_path[back]:
                back += 1
        else:
            seen[enc] = (order, path[:])
            if best[0] < 0 or enc < best[0]:
                best[:] = enc, order
        return enc in known

    def search(cells) -> bool:
        nonlocal back
        target = canon._first_split(cells)
        if target is None:
            return leaf(cells)
        depth = len(path)
        cell = cells[target]
        orbit = list(range(n))
        used = 0
        explored: list[int] = []

        def find(u: int) -> int:
            while orbit[u] != u:
                u = orbit[u]
            return u

        for u in cell:
            for gamma in autos[used:]:
                if all(gamma[p] == p for p in path):
                    for a in cell:
                        ra, rb = find(a), find(gamma[a])
                        orbit[max(ra, rb)] = min(ra, rb)
            used = len(autos)
            if any(find(x) == find(u) for x in explored):
                continue
            explored.append(u)
            path.append(u)
            child = canon._individualize(cells, target, u)
            found = search(canon._refine(child, nbrs, weight, u))
            path.pop()
            if found:
                return True
            if back < depth:
                return False
            back = n
        return False

    search(canon._refine((tuple(range(n)),), nbrs, weight))
    return best[1], best[0], leaves


_REFERENCE_MAX_PIVOTS = 100_000


def reference_feasible_basic_solution(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with ``rows @ x == rhs`` (rhs >= 0), or None.

    The dense phase-1 Fraction tableau the integer engine replaced:
    artificial variables and Bland's rule; returns the basic feasible
    solution reached, deterministic in the column order.
    """
    r = len(rows)
    if r == 0:
        return []
    k = len(rows[0])
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be nonnegative")
    tab = [list(map(Fraction, rows[i])) + [rhs[i]] for i in range(r)]
    basis = [k + i for i in range(r)]  # artificial ids k..k+r-1

    def artificial_rows():
        return [i for i in range(r) if basis[i] >= k]

    for _ in range(_REFERENCE_MAX_PIVOTS):
        arts = artificial_rows()
        if not arts:
            break
        # price original columns against the artificial objective
        enter = -1
        for j in range(k):
            price = sum(tab[i][j] for i in arts)
            if price > 0:
                enter = j
                break
        if enter < 0:
            break
        # ratio test (Bland tie-break on basis variable index)
        leave = -1
        best = None
        for i in range(r):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            break
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(r):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        basis[leave] = enter
    else:  # pragma: no cover
        raise RuntimeError("phase-1 simplex exceeded the pivot limit")

    if any(tab[i][-1] != 0 for i in artificial_rows()):
        return None
    x = [Fraction(0)] * k
    for i in range(r):
        if basis[i] < k:
            x[basis[i]] = tab[i][-1]
    return x


def reference_solve_cut_lp(m: int, cut_masks: list[int]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact optimum of ``min sum x : x(delta(S)) >= 2, 0 <= x <= 1``.

    The revised dual simplex on a Fraction B^-1 that the integer engine
    replaced.  ``cut_masks[j]`` is the edge bitmask of the j-th cut; every
    cut is a column of the dual from the start (no separation).  Returns
    ``(value, x)`` where ``x`` are the simplex multipliers of the optimal
    dual basis, i.e. the exact primal solution.
    """
    if m <= 0:
        raise ValueError("need at least one edge")
    K = len(cut_masks)
    # dual variables: y_j (j < K, cost 2), w_e (K..K+m-1, cost -1),
    # slack t_e (K+m.., cost 0); rows are edges, rhs 1.
    basis = list(range(K + m, K + m + m))
    binv = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    xb = [Fraction(1)] * m

    def cost(var: int) -> Fraction:
        if var < K:
            return Fraction(2)
        if var < K + m:
            return Fraction(-1)
        return Fraction(0)

    def column(var: int) -> list[tuple[int, int]]:
        if var < K:
            out = []
            mask = cut_masks[var]
            while mask:
                low = mask & -mask
                out.append((low.bit_length() - 1, 1))
                mask ^= low
            return out
        if var < K + m:
            return [(var - K, -1)]
        return [(var - K - m, 1)]

    pi = [Fraction(0)] * m
    for _ in range(_REFERENCE_MAX_PIVOTS):
        cb = [cost(b) for b in basis]
        pi = [
            sum(cb[r] * binv[r][col] for r in range(m) if cb[r] != 0)
            for col in range(m)
        ]
        den = math.lcm(*(f.denominator for f in pi)) if m else 1
        p = [int(f * den) for f in pi]
        two_den = 2 * den
        # Bland: scan y columns, then w, then t, for positive reduced cost
        enter = -1
        for j, mask in enumerate(cut_masks):
            s = 0
            mm = mask
            while mm:
                low = mm & -mm
                s += p[low.bit_length() - 1]
                mm ^= low
            if s < two_den:  # rc = 2 - pi . a_j > 0
                enter = j
                break
        if enter < 0:
            for e in range(m):
                if p[e] > den:  # rc(w_e) = -1 + pi_e > 0
                    enter = K + e
                    break
        if enter < 0:
            for e in range(m):
                if p[e] < 0:  # rc(t_e) = -pi_e > 0
                    enter = K + m + e
                    break
        if enter < 0:
            value = sum(cb[r] * xb[r] for r in range(m))
            return value, tuple(pi)
        d = [Fraction(0)] * m
        for row, coeff in column(enter):
            for i in range(m):
                if binv[i][row] != 0:
                    d[i] += coeff * binv[i][row]
        leave = -1
        best = None
        for i in range(m):
            if d[i] > 0:
                ratio = xb[i] / d[i]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError(
                "cut LP dual is unbounded (primal infeasible: not 2-edge-connected?)"
            )
        piv = d[leave]
        binv[leave] = [x / piv for x in binv[leave]]
        xb[leave] /= piv
        for i in range(m):
            if i != leave and d[i] != 0:
                f = d[i]
                binv[i] = [x - f * y for x, y in zip(binv[i], binv[leave])]
                xb[i] -= f * xb[leave]
        basis[leave] = enter
    raise RuntimeError("cut LP simplex exceeded the pivot limit")  # pragma: no cover


def reference_two_ec_spanning_subgraphs(g) -> list[tuple[int, ...]]:
    """All spanning 2EC edge subsets, ascending by edge bitmask (2^m scan)."""
    out = []
    for mask in range(1 << g.m):
        if mask.bit_count() < g.n:
            continue
        ids = tuple(e for e in range(g.m) if (mask >> e) & 1)
        if reference_is_2ec(g, ids):
            out.append(ids)
    return out


def two_ec_system(g, target: Fraction):
    """(subgraphs, rows, rhs): every 2EC spanning subgraph of g as a
    column, in bitmask order, with a row per edge at rhs ``target`` and a
    last row of ones at rhs 1."""
    subgraphs = reference_two_ec_spanning_subgraphs(g)
    rows = [[Fraction(int(e in sub)) for sub in subgraphs] for e in range(g.m)]
    rows.append([Fraction(1)] * len(subgraphs))
    return subgraphs, rows, [target] * g.m + [Fraction(1)]


def reference_base_case(g) -> tuple[tuple[Fraction, tuple[int, ...]], ...] | None:
    """Uniform-7/9 (weight, edge ids) entries for a small graph: the first
    basic solution of the phase-1 simplex over all 2EC spanning subgraphs
    (in bitmask order), ascending by edge tuple; None if infeasible."""
    subgraphs, rows, rhs = two_ec_system(g, Fraction(7, 9))
    lam = reference_feasible_basic_solution(rows, rhs)
    if lam is None:
        return None
    return tuple(sorted(((w, sub) for w, sub in zip(lam, subgraphs) if w > 0),
                        key=lambda t: t[1]))


def valid_matching_system(g) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The least-support system of g: one column per valid matching M,
    ascending by edge bitmask, where M is valid iff G - M is spanning 2EC;
    a row per edge e reading [e in M] at rhs 2/9, and a last row of ones
    at rhs 1.  A solution is a uniform-7/9 combination: a distribution on
    spanning 2EC subgraphs that omits each edge with probability 2/9."""
    matchings = []

    def grow(e, mask, used):
        if e == g.m:
            matchings.append(mask)
            return
        grow(e + 1, mask, used)
        u, v = g.edges[e]
        if not (used >> u) & 1 and not (used >> v) & 1:
            grow(e + 1, mask | 1 << e, used | 1 << u | 1 << v)

    grow(0, 0, 0)
    valid = sorted(
        x for x in matchings
        if reference_is_2ec(g, [e for e in range(g.m) if not (x >> e) & 1])
    )
    rows = [[Fraction((x >> e) & 1) for x in valid] for e in range(g.m)]
    rows.append([Fraction(1)] * len(valid))
    return rows, [Fraction(2, 9)] * g.m + [Fraction(1)]


def reference_small_cubic_graphs(n: int) -> list:
    """One connected cubic graph per isomorphism class on n vertices, from
    the edge subsets of K_n with 3n/2 edges, deduplicated by
    :func:`reference_canonical_form` and sorted by its key."""
    pairs = list(combinations(range(n), 2))
    found = {}
    for chosen in combinations(pairs, 3 * n // 2):
        deg = [0] * n
        for u, v in chosen:
            deg[u] += 1
            deg[v] += 1
        if any(d != 3 for d in deg):
            continue
        g = Graph(n, chosen)
        if connected_spanning(g, range(g.m)):
            found.setdefault(reference_canonical_form(g)[0], g)
    return [found[key] for key in sorted(found)]


def reference_caratheodory(comb) -> list[tuple[Fraction, tuple[int, ...]]]:
    """The compaction's basis crash with Fractions: B^-1 as a dense
    Fraction matrix updated by the product-form pivot, and the basis
    weights as Fractions.

    The pivot rule is the integer one's: columns (x_M, 1) of the omitted
    edges M, starting from the unit columns at weight 0; the smallest
    member (least (|S|, edges)) first, then descending weight, ties in
    entry order; a member enters at the first unit column with
    alpha_i != 0, else folds (weights += w·alpha) when every weight stays
    nonnegative and the smallest member's positive, else enters at the
    first least lambda_i / alpha_i over alpha_i > 0, or, when that zeroes
    the smallest member, at the first least lambda_i / -alpha_i over
    alpha_i < 0.  Returns (weight, edges) in basis-position order.
    """
    m = comb.host.m
    size = m + 1
    entries = list(comb.entries)
    first = min(range(len(entries)), key=lambda j: (len(entries[j][1]), entries[j][1]))
    rest = sorted(
        (j for j in range(len(entries)) if j != first), key=lambda j: -entries[j][0]
    )
    inverse = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    lam = [Fraction(0)] * size
    at = [None] * size
    p = None

    def least(sign):
        best = None
        for i in range(size):
            if sign * alpha[i] > 0:
                ratio = lam[i] / (sign * alpha[i])
                if best is None or ratio < best[0]:
                    best = (ratio, i)
        return best[1]

    for j in [first] + rest:
        w, es = entries[j]
        ones = sorted(set(range(size)).difference(es))
        alpha = [sum(row[c] for c in ones) for row in inverse]
        k = next((i for i in range(size) if at[i] is None and alpha[i] != 0), None)
        if k is not None:
            t = Fraction(0)
            if p is None:
                p = k
        else:
            folded = [lam[i] + w * alpha[i] for i in range(size)]
            if min(folded) >= 0 and folded[p] > 0:
                lam = folded
                continue
            k = least(1)
            if alpha[p] > 0 and lam[p] / alpha[p] == lam[k] / alpha[k]:
                k = least(-1)
            t = -lam[k] / alpha[k]
        # the point keeps lam·B + w·a = (lam + t·alpha)·B + (w - t)·a
        lam = [lam[i] + t * alpha[i] for i in range(size)]
        lam[k] = w - t
        pivot = [x / alpha[k] for x in inverse[k]]
        inverse = [
            pivot
            if i == k
            else row
            if alpha[i] == 0
            else [x - alpha[i] * y for x, y in zip(row, pivot)]
            for i, row in enumerate(inverse)
        ]
        at[k] = j
    return [
        (lam[i], entries[at[i]][1])
        for i in range(size)
        if at[i] is not None and lam[i] != 0
    ]


def reference_pivot(g, uv, certifier):
    """``(comb, t, r)`` for pivot uv of g: ½·lift(C1) + ½·lift(C2) by the
    reference plumbing, each member checked spanning 2EC, and the pivot's
    placement counts.

    The two children come from ``find_safe_pair`` and
    ``remove_edges_and_smooth``.  Each child's combination is the one
    certifier caches for its canonical key (certified first if it holds
    none), carried to the child by ``reference_map_combination`` and
    lifted by ``reference_lift``; nothing else of the certifier is read.
    t and r are read off ``piecewise_pivot_occurrences``: an essentially
    4-edge-connected graph with n > 6, which ``find_safe_pair`` requires,
    has no triangle, so every other edge at 1 shares a 4-cycle with the
    pivot and every edge at 8/9 is one edge away without one.
    """
    decision = find_safe_pair(g, uv)
    parts = []
    for pair in (decision.pair_a, decision.pair_b):
        red = remove_edges_and_smooth(g, *pair)
        key, perm = canonical_form(red.child)
        if key not in certifier._cache:
            certifier.certify(red.child)
        cached = _public(certifier._cache[key][0])
        child = reference_map_combination(cached, red.child, perm)
        parts.append((Fraction(1, 2), reference_lift(child, red)))
    comb = reference_average(parts)
    reference_combination(g, comb.entries)  # raises at a member not 2EC
    occ = piecewise_pivot_occurrences(g, uv)
    return comb, occ.count(Fraction(1)) - 1, occ.count(Fraction(8, 9))


def reference_case1_combination(K, certifier):
    """A case-1 node built per pivot: the average over the m pivots of
    each pivot's ``reference_pivot`` combination, padded up to 7/9."""
    m = K.m
    parts = [(Fraction(1, m), reference_pivot(K, uv, certifier)[0]) for uv in range(m)]
    return pad_to_uniform(reference_average(parts), TARGET)


def reference_map_combination(comb_k, g, perm):
    """comb_k on g's labeling, rebuilt through ``reference_combination``."""
    K = comb_k.host
    back = [0] * g.m
    for e, (u, v) in enumerate(g.edges):
        back[K.edge_id(perm[u], perm[v])] = e
    raw = [(w, tuple(sorted(back[ke] for ke in es))) for w, es in comb_k.entries]
    return reference_combination(g, raw, check=False)


def reference_lift(child_combination, red):
    """lift with a set per member: the provenance paths, plus
    forced_include, minus forced_exclude, rebuilt through
    ``reference_combination``."""
    if red.kind != "case1_removal":
        raise ValueError("lift applies to removal reductions only")
    if child_combination.host != red.child:
        raise ValueError("combination host does not match the reduction child")
    raw = []
    for w, es in child_combination.entries:
        parent_edges = set()
        for ce in es:
            parent_edges.update(red.edge_provenance[ce])
        parent_edges |= red.forced_include
        parent_edges -= red.forced_exclude
        raw.append((w, tuple(sorted(parent_edges))))
    return reference_combination(red.parent, raw, check=False)


def _reference_pattern_classes(comb, red):
    """A child's entries grouped by the pseudo-vertex edge they omit, keyed
    by its parent cut edge (None: all present), each class weight checked."""
    corr = dict(red.cut_correspondence)
    pseudo_edges = sorted(corr)
    classes = {corr[pe]: [] for pe in pseudo_edges}
    classes[None] = []
    for w, es in comb.entries:
        omitted = [pe for pe in pseudo_edges if pe not in es]
        if len(omitted) > 1:
            raise InvariantViolation(f"member {es} omits {len(omitted)} cut edges")
        classes[corr[omitted[0]] if omitted else None].append((w, es))
    for key, entries in classes.items():
        want = Fraction(1, 3) if key is None else Fraction(2, 9)
        if sum((w for w, _ in entries), Fraction(0)) != want:
            raise InvariantViolation(f"pattern weight for {key} is not {want}")
    return classes


def reference_glue(c1, c2, red1, red2):
    """glue with the pattern classes taken in child space and each
    refinement piece's two members mapped to parent edges as it is made."""
    for red in (red1, red2):
        if red.kind != "case2_contraction":
            raise ValueError("glue applies to contraction reductions only")
    if red1.parent != red2.parent:
        raise ValueError("the reductions must contract the same parent graph")
    if c1.host != red1.child or c2.host != red2.child:
        raise ValueError("combination hosts do not match the reduction children")
    cut = sorted(pe for _, pe in red1.cut_correspondence)
    if cut != sorted(pe for _, pe in red2.cut_correspondence):
        raise ValueError("children come from different cuts")
    kept1 = {v for v in range(red1.parent.n) if red1.vertex_map[v] is not None}
    kept2 = {v for v in range(red2.parent.n) if red2.vertex_map[v] is not None}
    if kept1 & kept2 or kept1 | kept2 != set(range(red1.parent.n)):
        raise ValueError("the reductions must contract complementary shores")

    def to_parent(red, es):
        out = set()
        for ce in es:
            out.update(red.edge_provenance[ce])
        return out

    classes1 = _reference_pattern_classes(c1, red1)
    classes2 = _reference_pattern_classes(c2, red2)
    raw = []
    for key in cut + [None]:
        lst1 = [list(t) for t in classes1[key]]
        lst2 = [list(t) for t in classes2[key]]
        i = j = 0
        while i < len(lst1) and j < len(lst2):
            w = min(lst1[i][0], lst2[j][0])
            if w > 0:
                glued = to_parent(red1, lst1[i][1]) | to_parent(red2, lst2[j][1])
                if glued & set(cut) != set(cut) - {key}:
                    raise InvariantViolation("glued member breaks its cut pattern")
                raw.append((w, tuple(sorted(glued))))
            lst1[i][0] -= w
            lst2[j][0] -= w
            if lst1[i][0] == 0:
                i += 1
            if lst2[j][0] == 0:
                j += 1
        if any(t[0] != 0 for t in lst1[i:]) or any(t[0] != 0 for t in lst2[j:]):
            raise InvariantViolation("pattern class weights fell out of alignment")
    out = reference_combination(red1.parent, raw, check=False)
    if set(reference_edge_occurrences(out)) != {TARGET}:
        raise InvariantViolation("glued combination is not uniform 7/9")
    return out


def reference_remove_edges_and_smooth(g: Graph, e1: int, e2: int) -> Reduction:
    """remove_edges_and_smooth walking each smoothed path outwards from
    its first suppressed vertex in both directions: a done set skips
    revisits, chains are reversed to run from the smaller end, merged
    pairs are scanned for duplicates and the path edges recounted."""
    if not g.is_cubic:
        raise ValueError("remove_edges_and_smooth requires a cubic graph")
    for e in (e1, e2):
        if not 0 <= e < g.m:
            raise ValueError(f"edge id {e} must lie in [0, {g.m})")
    if e1 == e2:
        raise ValueError("the two removed edges must be distinct")
    p1 = set(g.endpoints(e1))
    p2 = set(g.endpoints(e2))
    if p1 & p2:
        raise ValueError("the two removed edges must not share an endpoint")
    removed = {e1, e2}
    deg2 = sorted(p1 | p2)
    deg2set = set(deg2)

    survivors = [v for v in range(g.n) if v not in deg2set]
    vmap = {old: new for new, old in enumerate(survivors)}

    child_edges: list[tuple[int, int]] = []
    provenance: list[tuple[int, ...]] = []
    for pe, (u, v) in enumerate(g.edges):
        if pe in removed or u in deg2set or v in deg2set:
            continue
        child_edges.append((vmap[u], vmap[v]))
        provenance.append((pe,))

    # Walk the maximal paths through suppressed vertices.  Each path is
    # replaced by a single child edge between its surviving endpoints.
    def walk(start: int, first_edge: int) -> tuple[int, list[int]]:
        path = [first_edge]
        prev, cur = start, g.other_end(first_edge, start)
        while cur in deg2set:
            nxt = [
                f
                for f in g.incident(cur)
                if f not in removed and g.other_end(f, cur) != prev
            ]
            if not nxt:  # pragma: no cover - impossible in a simple cubic graph
                raise StructuralViolation("smoothing walk dead-ends")
            path.append(nxt[0])
            prev, cur = cur, g.other_end(nxt[0], cur)
            if cur == start:
                raise StructuralViolation("smoothing would contract a cycle of degree-2 vertices")
        return cur, path

    merged: list[tuple[tuple[int, int], tuple[int, ...]]] = []
    done: set[int] = set()
    for s in deg2:
        if s in done:
            continue
        rem = [f for f in g.incident(s) if f not in removed]
        if len(rem) != 2:
            raise InvariantViolation(
                f"suppressed vertex {s} keeps {len(rem)} edges, expected 2"
            )
        end_a, path_a = walk(s, rem[0])
        end_b, path_b = walk(s, rem[1])
        chain = list(reversed(path_a)) + path_b
        # mark every suppressed vertex on the chain as handled
        for f in chain:
            for w in g.endpoints(f):
                if w in deg2set:
                    done.add(w)
        if end_a == end_b:
            raise StructuralViolation(
                f"smoothing would create a loop at vertex {end_a}"
            )
        x, y = (end_a, end_b) if end_a < end_b else (end_b, end_a)
        if x == end_a:
            ordered = tuple(chain)
        else:
            ordered = tuple(reversed(chain))
        if g.has_edge(x, y):
            raise StructuralViolation(
                f"smoothing would create an edge parallel to existing ({x}, {y})"
            )
        if any(pair == (vmap[x], vmap[y]) for pair, _ in merged):
            raise StructuralViolation(
                f"two smoothed paths both produce edge ({x}, {y})"
            )
        merged.append(((vmap[x], vmap[y]), ordered))

    merged.sort(key=lambda t: t[0])
    for pair, path in merged:
        child_edges.append(pair)
        provenance.append(path)

    forced_include = frozenset(
        f
        for v in deg2
        for f in g.incident(v)
        if f not in removed
    )
    if forced_include != {f for _, path in merged for f in path}:
        raise InvariantViolation(
            "forced edges differ from the smoothed path edges"
        )

    child = Graph(len(survivors), tuple(child_edges))
    if not child.is_cubic:
        raise InvariantViolation("smoothing must yield a cubic child")
    if child.n != g.n - 4 or child.m != g.m - 6:
        raise InvariantViolation(
            f"smoothing must remove 4 vertices and 6 edges "
            f"(got n={child.n}, m={child.m} from n={g.n}, m={g.m})"
        )

    return Reduction(
        kind="case1_removal",
        parent=g,
        child=child,
        edge_provenance=tuple(provenance),
        forced_include=forced_include,
        forced_exclude=frozenset(removed),
        vertex_map=tuple(vmap.get(v) for v in range(g.n)),
    )
