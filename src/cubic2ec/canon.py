"""Canonical labeling by iterative refinement with backtracking.

Desk-scale individualization-refinement: refine the vertex partition by
neighbor-cell counts, branch on the first non-singleton cell, and take the
minimum adjacency encoding over all discrete leaves.  A leaf's encoding is
one integer holding the upper-triangle adjacency bits in graph6 order, built
with one shift per edge.  Children of the root that lie in the orbit of an
explored child under automorphisms found so far are skipped.  Adequate for
the n <= 20 graphs this package handles.

Two entry points share one search.  :func:`canonical_form` walks the whole
tree.  :func:`canonical_lookup` is given the encodings of keys already
known for ``g.n`` and stops at the first leaf whose encoding is one of
them, which is the leaf the whole search returns.
"""

from __future__ import annotations

from collections.abc import Container
from functools import lru_cache

from .graphs import Graph, parse_graph6, to_graph6


def _refine(cells: tuple[tuple[int, ...], ...], nbrs) -> tuple[tuple[int, ...], ...]:
    cells = list(cells)
    pos = [0] * len(nbrs)
    while True:
        for ci, cell in enumerate(cells):
            for v in cell:
                pos[v] = ci
        k = len(cells)
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                counts = [0] * k
                for w in nbrs[v]:
                    counts[pos[w]] += 1
                sig.setdefault(tuple(counts), []).append(v)
            if len(sig) == 1:
                new_cells.append(cell)
                continue
            changed = True
            for key in sorted(sig):
                new_cells.append(tuple(sig[key]))
        cells = new_cells
        if not changed:
            return tuple(cells)


def _individualize(cells, target: int, v: int):
    cell = cells[target]
    return (
        cells[:target]
        + ((v,), tuple(u for u in cell if u != v))
        + cells[target + 1 :]
    )


def _first_split(cells) -> int | None:
    for ci, cell in enumerate(cells):
        if len(cell) > 1:
            return ci
    return None


def _encoding(edges, at, top: int) -> int:
    """Edge {u, v} at positions p < q sets bit ``top - (q(q-1)/2 + p)``."""
    enc = 0
    for u, v in edges:
        p, q = at[u], at[v]
        if p > q:
            p, q = q, p
        enc |= 1 << (top - (q * (q - 1) // 2 + p))
    return enc


def encoding(g: Graph) -> int:
    """The leaf encoding of g under its own labeling.  For the graph of a
    canonical key this is the least leaf encoding of the key's class."""
    return _encoding(g.edges, range(g.n), g.n * (g.n - 1) // 2 - 1)


def _search(g: Graph, known: Container[int] = ()) -> tuple[tuple[int, ...], int, int]:
    """``(order, enc, leaves)``: the first least leaf of g's tree in search
    order, its encoding, and the number of leaves visited.

    The search stops at the first leaf whose encoding is in ``known``.  When
    ``known`` holds only keys' encodings, the least of their classes, that
    leaf is the one the whole search returns: its encoding shows that g lies
    in that class, so no leaf of g encodes lower, and ties never replace the
    best.  Up to that leaf both searches visit the same leaves and record
    the same automorphisms, so they prune alike.
    """
    n = g.n
    if n < 1:
        raise ValueError("canonical_form requires n >= 1")
    nbrs = [g.neighbors(v) for v in range(n)]
    edges = g.edges
    top = n * (n - 1) // 2 - 1
    best_enc = -1
    best_order: tuple[int, ...] = ()
    leaves = 0
    orbit = list(range(n))  # union-find over the automorphisms found

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    def leaf(cells) -> bool:
        """Visit a leaf; True when its encoding is known."""
        nonlocal best_enc, best_order, leaves
        leaves += 1
        order = tuple(cell[0] for cell in cells)
        at = [0] * n
        for position, old in enumerate(order):
            at[old] = position
        enc = _encoding(edges, at, top)
        if best_enc < 0 or enc < best_enc:
            best_enc, best_order = enc, order
        elif enc == best_enc:
            # best_order[i] -> order[i] maps g onto itself: an automorphism
            for a, b in zip(best_order, order):
                ra, rb = find(a), find(b)
                if ra != rb:
                    orbit[max(ra, rb)] = min(ra, rb)
        return enc in known

    def search(cells) -> bool:
        cells = _refine(cells, nbrs)
        target = _first_split(cells)
        if target is None:
            return leaf(cells)
        for v in cells[target]:
            if search(_individualize(cells, target, v)):
                return True
        return False

    root = _refine((tuple(range(n)),), nbrs)
    target = _first_split(root)
    if target is None:
        leaf(root)
    else:
        # Root-orbit pruning.  The root partition is invariant under every
        # automorphism and refinement is equivariant, so for an automorphism
        # gamma the subtree below gamma(u) is gamma's image of the subtree
        # below u, with the same leaf encodings.  A child in the orbit of an
        # explored child (under the group the recorded automorphisms
        # generate) therefore holds no leaf strictly below the current best.
        # Ties never replace the best, so perm stays the first least leaf in
        # search order; _map_combination pulls cached combinations back
        # through perm, and another tied leaf would change the certificate.
        explored: set[int] = set()
        for v in root[target]:
            if any(find(v) == find(u) for u in explored):
                continue
            explored.add(v)
            if search(_individualize(root, target, v)):
                break
    return best_order, best_enc, leaves


def _labeling(g: Graph, order: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """``(key, perm)`` of the leaf ``order``."""
    perm = [0] * g.n
    for position, old in enumerate(order):
        perm[old] = position
    canon = Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))
    return to_graph6(canon), tuple(perm)


@lru_cache(maxsize=4096)
def canonical_form(g: Graph) -> tuple[str, tuple[int, ...]]:
    """Return ``(key, perm)``: a canonical graph6 string and the relabeling.

    ``perm[v]`` is the canonical index of vertex ``v``.  Isomorphic graphs
    produce identical keys, and applying ``perm`` to ``g`` reproduces
    ``parse_graph6(key)`` exactly.

    The key is the least leaf encoding of the individualization-refinement
    tree.  Edge {u, v} at leaf positions p < q sets bit
    ``n(n-1)/2 - 1 - (q(q-1)/2 + p)`` of the encoding, the graph6 bit order,
    so comparing the integers compares the graph6 adjacency strings.
    ``perm`` is the first least leaf in search order (ties never replace the
    best), which root-orbit pruning preserves.
    """
    return _labeling(g, _search(g)[0])


def canonical_lookup(g: Graph, known: Container[int]) -> tuple[str, tuple[int, ...]]:
    """``canonical_form(g)``, found sooner when g's class is known.

    ``known`` holds the :func:`encoding` of the graph of each known key with
    ``g.n`` vertices.  The search stops at the first leaf whose encoding is
    one of them, and that leaf's key and perm equal what
    :func:`canonical_form` returns; with no known class it is the whole
    search.  Uncached, so that each caller keeps its own index.
    """
    return _labeling(g, _search(g, known)[0])


def canonical_graph(key: str) -> Graph:
    """Decode a canonical key back into its graph."""
    return parse_graph6(key)
