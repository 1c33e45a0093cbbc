"""Canonical labeling by iterative refinement with backtracking.

Desk-scale individualization-refinement: refine the vertex partition by
neighbor-cell counts, branch on the first non-singleton cell, and take the
minimum adjacency encoding over all discrete leaves.  A leaf's encoding is
one integer holding the upper-triangle adjacency bits in graph6 order, and
a key is the graph6 rendering of the least one; ``graphs`` owns that bit
order (``graph6_bits`` and ``render_graph6``), so this module holds no
graph6 code.  Adequate for the n <= 20 graphs this package handles.

A vertex's refinement signature is one integer: the sum over its neighbors
of their cells' weights, where a cell starting at position p weighs
``1 << width * (n - 1 - p)`` and ``width`` is the bit length of the largest
degree.  No count exceeds the largest degree, so these integers sort the
way the vectors of neighbor counts per cell do, and the cells and their
order are those of the count vectors.

At every node, a child in the orbit of an explored sibling is skipped,
under the automorphisms found so far that fix every vertex individualized
on the node's path.  An automorphism is found when a leaf repeats an
earlier leaf's encoding, and the search then leaves the subtree it is in
for the deepest node the two leaves share, whose current child that
automorphism maps onto an explored one.

Two entry points share one search.  :func:`canonical_form` walks the whole
tree.  :func:`canonical_lookup` is given an index of the trees its caller
already searched in full for ``g.n``: every leaf encoding each one met,
and the automorphisms it recorded.  A graph of a held class has its first
leaf in that index, which maps it onto the searched graph, and the held
automorphisms then give the first least leaf the whole search would
return.  Any other graph gets the whole search, in the same walk, and its
tree is handed back for the caller to index.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache

from .graphs import Graph, graph6_bits, render_graph6


def _tables(g: Graph) -> tuple[list[list[int]], list[int]]:
    """``(nbrs, weight)`` for :func:`_refine` on g: each vertex's
    neighbors, and ``weight[p]``, the weight of a cell starting at
    position p."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    width = max(map(len, nbrs), default=0).bit_length()
    return nbrs, [1 << width * (g.n - 1 - p) for p in range(g.n)]


def _refine(cells, nbrs, weight, v: int | None = None):
    """The ordered partition that rounds of refinement reach from ``cells``.

    Each round splits every cell by its vertices' signatures against the
    previous round's cells, the parts in ascending order of signature and
    each in cell order; refinement stops after a round that splits
    nothing.  The cell starting at position p weighs ``weight[p]``, so a
    cell keeps its weight until it splits.

    ``v`` says that ``cells`` is an equitable partition with ``v`` just
    individualized.  A vertex's counts then change only towards ``{v}``,
    so when no cell of two or more vertices holds a neighbor of ``v``,
    ``cells`` is already equitable.
    """
    n = len(nbrs)
    if len(cells) == n:
        return cells
    if v is not None:
        crowded = set()
        for cell in cells:
            if len(cell) > 1:
                crowded.update(cell)
        if crowded.isdisjoint(nbrs[v]):
            return cells
    at = [0] * n  # each vertex's cell weight
    p = 0
    for cell in cells:
        w = weight[p]
        for u in cell:
            at[u] = w
        p += len(cell)
    while True:
        new = []
        split = []  # (position, part) of each part that may change weight
        p = 0
        for cell in cells:
            if len(cell) == 1:
                new.append(cell)
                p += 1
                continue
            if len(cell) == 2:  # the commonest split, without a dict
                a, b = cell
                sa = sb = 0
                for w in nbrs[a]:
                    sa += at[w]
                for w in nbrs[b]:
                    sb += at[w]
                if sa != sb:
                    if sa > sb:
                        a, b = b, a
                    new += ((a,), (b,))
                    split.append((p + 1, (b,)))
                else:
                    new.append(cell)
                p += 2
                continue
            parts: dict[int, list[int]] = {}
            for u in cell:
                s = 0
                for w in nbrs[u]:
                    s += at[w]
                if s in parts:
                    parts[s].append(u)
                else:
                    parts[s] = [u]
            if len(parts) == 1:
                new.append(cell)
                p += len(cell)
                continue
            for s in sorted(parts):
                part = parts[s]
                new.append(tuple(part))
                split.append((p, part))
                p += len(part)
        if not split:
            return tuple(cells)
        cells = new
        if len(cells) == n:
            return tuple(cells)
        for p, part in split:
            w = weight[p]
            for u in part:
                at[u] = w


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


class _Tree:
    """What the whole search of a graph's tree holds at its end, kept so
    that a graph of the same class is placed from its first leaf.

    All in the searched graph's labels: ``seen`` maps every leaf encoding
    of the tree to ``(order, path)`` of the first leaf that had it, ``enc``
    is the least of them, and ``autos`` are the automorphisms the search
    recorded.  ``least()`` is built at the first lookup that needs it.
    """

    __slots__ = ("enc", "seen", "autos", "_least")

    def __init__(self, enc: int, seen: dict, autos: list[list[int]]):
        self.enc = enc
        self.seen = seen
        self.autos = autos
        self._least = None

    def least(self) -> dict:
        """Every least leaf of the tree, as a trie keyed by the vertices
        individualized on its path, in order; the bottom level maps the last
        one to the leaf's order.

        The least leaves are the images of the first least leaf L0 under
        Aut, and the recorded automorphisms generate Aut (McKay, 1981).
        Were some alpha in Aut outside the group R they generate, take the
        one whose leaf alpha(L0) has the lexicographically least path.
        Visited, that leaf would have been recorded as the automorphism
        L0 -> alpha(L0), alpha itself, since L0 is the first leaf with its
        encoding.  So the search skipped it, and a skip is always under
        some gamma in R that maps the skipped subtree onto an explored one
        with a smaller path; gamma * alpha, outside R too, would have the
        smaller path.  Only the identity fixes every vertex of a leaf's
        path, since refinement then gives the same discrete partition, so
        the images of the path tell the group's elements apart.
        """
        if self._least is None:
            order0, path0 = self.seen[self.enc]
            self._least = {}
            group = [list(range(len(order0)))]
            images = {tuple(path0)}
            for beta in group:  # grows to the closure
                node = self._least
                for p in path0[:-1]:
                    node = node.setdefault(beta[p], {})
                node[beta[path0[-1]]] = tuple(beta[v] for v in order0)
                for gamma in self.autos:
                    image = [gamma[v] for v in beta]
                    at = tuple(image[p] for p in path0)
                    if at not in images:
                        images.add(at)
                        group.append(image)
        return self._least


def _place(tree: _Tree, enc: int, order: tuple[int, ...]) -> tuple[int, ...]:
    """The first least leaf of a graph h of ``tree``'s class, from h's first
    leaf ``order`` with encoding ``enc``.

    Two leaves with one encoding give an isomorphism psi from h onto the
    searched graph, psi(order[i]) = seen[enc][0][i], which maps h's tree
    onto its tree, leaf for leaf and encoding for encoding.  So h's least
    leaves are psi^-1 of the tree's least leaves.  Every cell lists its
    vertices in ascending order (the root is 0..n-1, and neither refinement
    nor individualization reorders a cell), so the search takes children
    in ascending order and meets leaves in lexicographic order of their
    paths; the first least leaf, the one the whole search of h returns, is
    the one whose path psi^-1 makes least.  Orbit pruning keeps it, as any
    leaf it skips has an image under a path-fixing automorphism in an
    explored subtree, with a lexicographically smaller path.
    """
    if enc == tree.enc:  # the first leaf is least
        return order
    back = [0] * len(order)  # psi^-1
    for a, b in zip(tree.seen[enc][0], order):
        back[a] = b
    node = tree.least()
    while type(node) is dict:
        node = node[min(node, key=back.__getitem__)]
    return tuple(back[v] for v in node)


def _search(
    g: Graph, index: Mapping[int, _Tree] | None = None
) -> tuple[tuple[int, ...], int, int, _Tree | None]:
    """``(order, enc, leaves, tree)``: the first least leaf of g's tree in
    search order, its encoding, the number of leaves visited, and the
    :class:`_Tree` of the whole search, or None when ``index`` held g's
    class.

    ``index`` maps leaf encodings of graphs with g.n vertices to the trees
    they came from.  The whole search meets every leaf encoding of its
    tree, and an isomorphism maps trees onto each other, so g's class is
    held exactly when g's first leaf is in ``index``: the search stops
    there and :func:`_place` reads the answer off the held tree.  Otherwise
    no later leaf is in ``index`` either, and the walk goes on as the whole
    search.

    Orbit pruning.  Let gamma be an automorphism that fixes every vertex
    individualized on a node's path.  The root partition is invariant under
    gamma and refinement is equivariant, so gamma maps the node onto itself
    and the subtree below child u onto the subtree below child gamma(u),
    with the same leaf encodings.  A child in the orbit of an explored
    sibling, under the group that the recorded automorphisms fixing the
    path generate, therefore holds no leaf encoding that the search has not
    met.  A leaf that repeats an earlier leaf's encoding gives such an
    automorphism (earlier[i] -> order[i]) for the deepest node on both
    leaves' paths: it maps that node's explored child towards the earlier
    leaf onto its current child, so the search returns to that node and
    goes on with the next child.  Ties never replace the best, so perm
    stays the first least leaf in search order; _map_combination pulls
    cached combinations back through perm, and another tied leaf would
    change the certificate.
    """
    n = g.n
    if n < 1:
        raise ValueError("canonical_form requires n >= 1")
    nbrs, weight = _tables(g)
    edges = g.edges
    best_enc = -1
    best_order: tuple[int, ...] = ()
    leaves = 0
    autos: list[list[int]] = []  # automorphisms found, as vertex maps
    path: list[int] = []  # the vertices individualized above the node
    seen: dict[int, tuple] = {}  # encoding -> (order, path) of its first leaf
    back = n  # the depth to return to after an automorphism; n for none

    def leaf(cells) -> bool:
        """Visit a leaf; True when it is the first and index holds it."""
        nonlocal best_enc, best_order, back, leaves
        leaves += 1
        order = tuple(cell[0] for cell in cells)
        at = [0] * n
        for position, old in enumerate(order):
            at[old] = position
        enc = graph6_bits(n, edges, at)
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
            if best_enc < 0 or enc < best_enc:
                best_enc, best_order = enc, order
        return leaves == 1 and index is not None and enc in index

    def search(cells) -> bool:
        """Search below the equitable partition ``cells``; True once the
        first leaf is found in index."""
        nonlocal back
        target = _first_split(cells)
        if target is None:
            return leaf(cells)
        depth = len(path)
        cell = cells[target]
        orbit = None  # union-find over the automorphisms that fix path
        used = 0  # automorphisms looked at

        def find(u: int) -> int:
            while orbit[u] != u:
                orbit[u] = orbit[orbit[u]]
                u = orbit[u]
            return u

        explored: list[int] = []
        for u in cell:
            if explored and used < len(autos):
                for gamma in autos[used:]:
                    if all(gamma[p] == p for p in path):
                        if orbit is None:
                            orbit = list(range(n))
                        for a in cell:
                            ra, rb = find(a), find(gamma[a])
                            if ra != rb:
                                orbit[max(ra, rb)] = min(ra, rb)
                used = len(autos)
            if orbit is not None:
                ru = find(u)
                if any(find(x) == ru for x in explored):
                    continue
            explored.append(u)
            path.append(u)
            found = search(_refine(_individualize(cells, target, u), nbrs, weight, u))
            path.pop()
            if found:
                return True
            if back < depth:
                return False
            back = n
        return False

    root = (tuple(range(n)),)
    if len(set(map(len, nbrs))) > 1:  # on a regular graph it is equitable
        root = _refine(root, nbrs, weight)
    if search(root):  # stopped at the first leaf, so best is that leaf
        tree = index[best_enc]
        return _place(tree, best_enc, best_order), tree.enc, leaves, None
    return best_order, best_enc, leaves, _Tree(best_enc, seen, autos)


def _labeling(n: int, order: tuple[int, ...], enc: int) -> tuple[str, tuple[int, ...]]:
    """``(key, perm)`` of the leaf ``order`` with encoding ``enc``."""
    perm = [0] * n
    for position, old in enumerate(order):
        perm[old] = position
    return render_graph6(n, enc), tuple(perm)


@lru_cache(maxsize=4096)
def canonical_form(g: Graph) -> tuple[str, tuple[int, ...]]:
    """Return ``(key, perm)``: a canonical graph6 string and the relabeling.

    ``perm[v]`` is the canonical index of vertex ``v``.  Isomorphic graphs
    produce identical keys, and applying ``perm`` to ``g`` reproduces
    ``parse_graph6(key)`` exactly.

    The key is the graph6 rendering of the least leaf encoding of the
    individualization-refinement tree.  A leaf's encoding is
    ``graphs.graph6_bits`` of g at the leaf's positions, whose order on
    integers is the order of the graph6 adjacency strings.  ``perm`` is the
    first least leaf in search order (ties never replace the best), which
    orbit pruning preserves.
    """
    order, enc, _, _ = _search(g)
    return _labeling(g.n, order, enc)


def canonical_lookup(
    g: Graph, index: Mapping[int, _Tree]
) -> tuple[str, tuple[int, ...], _Tree | None]:
    """``canonical_form(g)`` plus a tree: found from g's first leaf when
    ``index`` holds g's class, else by the whole search, whose
    :class:`_Tree` comes third.

    ``index`` maps every leaf encoding of each tree held for ``g.n`` to its
    tree; a caller adds a miss's tree under all its ``seen`` encodings.
    Uncached, so that each caller keeps its own index.
    """
    order, enc, _, tree = _search(g, index)
    return (*_labeling(g.n, order, enc), tree)
