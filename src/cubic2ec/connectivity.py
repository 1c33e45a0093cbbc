"""Edge-connectivity queries, essential-cut detection, and safe pairs.

Cut queries answer "does ANY cut with these properties exist" exactly,
from a list of every small cut (a min-cut algorithm only exhibits one
minimizer).  Shores are canonical: always the side not containing vertex
0, and every output is in ascending shore order.

The cuts are indexed once per graph: one cached :class:`CutIndex`, read
only in this module, holds the min cut size, the cuts of size <= 4 and
the essential 3- and 4-cuts, so every cut query up to size 4 reads it.
The index comes from the cycle space (Pritchard & Thurimella, *Fast
computation of small cuts via cycle space sampling*, 2011, with one bit
per non-tree edge instead of random labels): an edge set is a cut iff
the XOR of its edges' labels is 0, so the cuts of at most four edges are
found from pairs of labels at any n.  The index's breadth-first tree finds
a disconnected graph (λ = 0), and a connected graph with no cut of at
most four edges (λ >= 5, never cubic) gets its exact λ from unit-capacity
augmenting paths.  No query lists cuts of more than four edges, so
nothing here walks the 2^(n-1) shores.

Safe pairs (Lemma 3) are read off the essential 4-cuts of the index:
``find_safe_pair`` checks its graph and decides one pivot; ``safe_pairs``
and ``verify_lemma3`` check their graph once and decide every pivot,
through one shared decision body.

Spanning 2-edge-connectivity is checked two ways.  ``is_2ec`` decides one
member, given as edge ids or as a mask with edge e at bit e, from a
breadth-first tree.  ``first_non_2ec`` decides a whole list of members
at once, given as masks in the certifier's order (edge e at bit m - 1 - e,
so the binary digits read left to right are edges 0..m-1).  It rests on
this: for n >= 2, H is spanning 2EC iff H - e is connected for every edge
e of G.  One bit lane per (edge e, member k) stands for H_k - e, and
reachability from vertex 0 spreads through all lanes at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import Lemma3Violation
from .graphs import Graph


@dataclass(frozen=True)
class Cut:
    """A vertex shore and its crossing edge set.

    The shore is the side not containing vertex 0, sorted ascending;
    ``crossing`` holds the edge ids with exactly one endpoint in it.
    """

    shore: tuple[int, ...]
    crossing: tuple[int, ...]


@dataclass(frozen=True)
class SafePairDecision:
    """Removal pairs chosen around a pivot edge.

    ``pair_a`` and ``pair_b`` are the edge pairs removed to build the two
    children.  ``orientation`` is 1 for the (au,vc)/(bu,vd) pairing with
    neighbors sorted by index, 2 for the crossed pairing; ``witness_cut``
    is the essential 4-cut that ruled orientation 1 out, if any.
    """

    pivot_edge: int
    pair_a: tuple[int, int]
    pair_b: tuple[int, int]
    orientation: int
    witness_cut: Cut | None


@dataclass(frozen=True)
class Lemma3Report:
    """Outcome of the exhaustive safe-pair verification on one graph."""

    configurations: int
    pivots: int
    violations: tuple
    orientation_flips: int
    divergences: tuple

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergences


# ---------------------------------------------------------------------------
# mask plumbing
# ---------------------------------------------------------------------------


_DIGIT_BYTE = bytes.maketrans(b"01", b"\x00\x01")


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _crossing_mask(g: Graph, shore_mask: int) -> int:
    out = 0
    for e, (u, v) in enumerate(g.edges):
        if ((shore_mask >> u) ^ (shore_mask >> v)) & 1:
            out |= 1 << e
    return out


def _degree_classes(g: Graph) -> tuple[tuple[int, int], ...]:
    """(degree, mask of the vertices of that degree) for each degree in g:
    one class, (3, every vertex), on a cubic graph."""
    classes: dict[int, int] = {}
    for v in range(g.n):
        d = g.degree(v)
        classes[d] = classes.get(d, 0) | 1 << v
    return tuple(classes.items())


def _is_essential_mask(g: Graph, classes, shore_mask: int, cross_mask: int) -> bool:
    """Both sides of the cut have at least two vertices and an edge inside.

    A side's degree sum counts each edge inside it twice and each crossing
    edge once, so the side has an edge inside iff the sum exceeds the cut
    size.  The shore's degree sum is one popcount per degree class
    (``_degree_classes``): 3·|S| on a cubic graph.
    """
    count = shore_mask.bit_count()
    if count < 2 or g.n - count < 2:
        return False
    size = cross_mask.bit_count()
    degrees = sum(d * (shore_mask & vs).bit_count() for d, vs in classes)
    return degrees > size and 2 * g.m - degrees > size


def _shore_mask(g: Graph, shore: Iterable[int]) -> int:
    """Bitmask of the canonical side of a vertex set: the set itself, or
    its complement when it holds vertex 0."""
    mask = 0
    for v in shore:
        if not 0 <= v < g.n:
            raise ValueError(f"shore vertex {v} must lie in [0, {g.n})")
        mask |= 1 << v
    if mask == 0 or mask == (1 << g.n) - 1:
        raise ValueError("shore must be a proper nonempty vertex subset")
    if mask & 1:
        mask ^= (1 << g.n) - 1
    return mask


def _mask_cut(shore_mask: int, cross_mask: int) -> Cut:
    return Cut(tuple(_iter_bits(shore_mask)), tuple(_iter_bits(cross_mask)))


def make_cut(g: Graph, shore: Iterable[int]) -> Cut:
    """Build the canonical Cut for a vertex subset (crossing recomputed)."""
    mask = _shore_mask(g, shore)
    return _mask_cut(mask, _crossing_mask(g, mask))


def is_essential_cut(g: Graph, cut: Cut) -> bool:
    mask = _shore_mask(g, cut.shore)
    return _is_essential_mask(g, _degree_classes(g), mask, _crossing_mask(g, mask))


def _index_cuts(g: Graph) -> list[tuple[int, int]] | None:
    """Every cut of a connected graph with |crossing| <= 4, as (shore,
    crossing) in ascending shore order; None if g is disconnected.

    A breadth-first tree from vertex 0 labels non-tree edge j with bit j,
    and a tree edge with the XOR of the labels of the non-tree edges with
    exactly one end below it.  An edge set F is a cut iff its labels XOR
    to 0, and its shore is then the XOR of the vertex sets below F's tree
    edges.  Pairs come in lexicographic order, and each joins the earlier
    pairs of equal XOR, so a quadruple a < b < c < d is found once, as
    (a, b) and then (c, d); a triple looks up the label equal to a pair's
    XOR.  The work is O(m^2) plus the number of cuts.
    """
    n, m, edges = g.n, g.m, g.edges
    parent_edge = [-1] * n
    order = [0]
    for v in order:  # the list grows while it is read: a FIFO queue
        for e in g.incident(v):
            a, b = edges[e]
            w = b if a == v else a
            if w and parent_edge[w] < 0:
                parent_edge[w] = e
                order.append(w)
    if len(order) < n:
        return None
    label = [0] * m
    up = [0] * n  # up[v]: XOR of the labels at v, then of those leaving v's subtree
    bit = 1
    for e, (u, v) in enumerate(edges):
        if parent_edge[u] != e and parent_edge[v] != e:
            label[e] = bit
            up[u] ^= bit
            up[v] ^= bit
            bit <<= 1
    below = [1 << v for v in range(n)]
    side = [0] * m  # side[e]: the vertices below tree edge e
    for v in reversed(order[1:]):  # children before parents
        e = parent_edge[v]
        label[e], side[e] = up[v], below[v]
        a, b = edges[e]
        p = a if b == v else b
        up[p] ^= up[v]
        below[p] |= below[v]

    by_label: dict[int, list[int]] = {}
    for e, x in enumerate(label):
        by_label.setdefault(x, []).append(e)
    found = [(e,) for e in by_label.get(0, ())]
    by_xor: dict[int, list[tuple[int, int]]] = {}
    for c, d in combinations(range(m), 2):  # in lexicographic order
        x = label[c] ^ label[d]
        pairs = by_xor.get(x)
        if pairs is None:
            by_xor[x] = [(c, d)]
            continue
        for a, b in pairs:
            if b < c:
                found.append((a, b, c, d))
        pairs.append((c, d))
    found += by_xor.get(0, ())
    for x in by_xor.keys() & by_label.keys():
        found += [(a, b, c) for a, b in by_xor[x] for c in by_label[x] if b < c]
    cuts = []
    for f in found:
        shore = cross = 0
        for e in f:
            shore ^= side[e]
            cross |= 1 << e
        cuts.append((shore, cross))
    cuts.sort()
    return cuts


def _flow_connectivity(g: Graph) -> int:
    """λ of a connected graph, by Menger: the fewest edge-disjoint paths
    from vertex 0 to another vertex.  Each sink takes unit-capacity
    augmenting paths, found breadth-first, until there is none or there
    are as many as the least count so far, at first the minimum degree;
    O(n · m · min degree) work."""
    edges = g.edges
    best = min(g.degree(v) for v in range(g.n))
    for t in range(1, g.n):
        flow = [0] * g.m  # net units along edge (u, v), from u to v
        for paths in range(best):
            via = [None] * g.n  # (edge, step, previous vertex) that reached w
            order = [0]
            for v in order:  # the list grows while it is read: a FIFO queue
                for e in g.incident(v):
                    a, b = edges[e]
                    w, step = (b, 1) if a == v else (a, -1)
                    if w and via[w] is None and flow[e] != step:
                        via[w] = (e, step, v)
                        order.append(w)
            if via[t] is None:
                best = paths
                break
            w = t
            while w:
                e, step, w = via[w]
                flow[e] += step
    return best


class CutIndex(NamedTuple):
    """The cut facts of one graph, as (shore, crossing) bitmask pairs.

    ``small`` holds every canonical cut with |crossing| <= 4 of a connected
    graph in ascending shore order (none for a disconnected one, whose
    ``min_size`` is 0); ``essential3`` and ``essential4`` hold the
    essential cuts of size 3 and 4, each sorted by (|shore|, shore).
    """

    min_size: int
    small: tuple[tuple[int, int], ...]
    essential3: tuple[tuple[int, int], ...]
    essential4: tuple[tuple[int, int], ...]


@lru_cache(maxsize=512)
def _cut_summary(g: Graph) -> CutIndex:
    """Index the cuts of g once, from the cycle space, deciding each
    cut's essentiality once, in one pass over the small cuts.  A
    disconnected graph has λ = 0, and a connected one with no cut of at
    most four edges takes λ from ``_flow_connectivity``; neither has a
    small cut."""
    small = _index_cuts(g)
    if small is None:
        return CutIndex(0, (), (), ())
    if not small:
        return CutIndex(_flow_connectivity(g), (), (), ())
    best = min(cross.bit_count() for _, cross in small)
    classes = _degree_classes(g)
    found: dict[int, list[tuple[int, int, int]]] = {3: [], 4: []}
    for shore, cross in small:
        size = cross.bit_count()
        if size >= 3 and _is_essential_mask(g, classes, shore, cross):
            found[size].append((shore.bit_count(), shore, cross))
    essential3, essential4 = (
        tuple((shore, cross) for _, shore, cross in sorted(found[size])) for size in (3, 4)
    )
    return CutIndex(best, tuple(small), essential3, essential4)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def is_2ec(g: Graph, sub) -> bool:
    """True iff the spanning subgraph (V, sub) is connected and bridgeless.

    ``sub`` may be an iterable of edge ids or an edge bitmask (edge e at
    bit e); an id that is not an int in [0, m), a bool or a float among
    them, raises ValueError, as does a bool in place of the mask, and a
    repeated id counts once.  The member is connected iff its
    breadth-first tree from vertex 0 spans, and a tree edge is a bridge
    iff no non-tree edge closes a cycle through it; a non-tree edge never
    is one.
    """
    n = g.n
    if isinstance(sub, int):
        if type(sub) is bool:  # True would stand for the mask of edge 0
            raise ValueError(f"edge mask {sub!r} is a bool, not an int")
        if sub < 0 or sub >> g.m:
            raise ValueError(f"edge mask {sub:#x} has bits outside [0, {g.m})")
        # one byte per edge, from the binary digits read lowest bit first
        member = f"{sub:0{g.m}b}"[::-1].encode().translate(_DIGIT_BYTE)
    else:
        member = bytearray(g.m)
        try:
            for e in sub:
                # a bool or a float is not an edge id, and e < 0 would index
                # from the end; e >= m fails the indexing
                if type(e) is not int or e < 0:
                    raise IndexError
                member[e] = 1
        except IndexError:
            raise ValueError(f"edge id {e!r} must lie in [0, {g.m})") from None
    if n <= 1:
        return True

    edges = g.edges
    depth = [0] + [-1] * (n - 1)
    parent = [0] * n
    parent_edge = [-1] * n
    reached = [0]
    for v in reached:  # the list grows while it is read: a FIFO queue
        for e in g.incident(v):
            if member[e]:
                a, b = edges[e]
                w = b if a == v else a
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent[w], parent_edge[w] = v, e
                    reached.append(w)
    if len(reached) < n:
        return False
    on_cycle = bytearray(n)  # on_cycle[v]: the tree edge from v to its parent
    for e, (u, v) in enumerate(edges):
        if member[e] and e != parent_edge[u] and e != parent_edge[v]:
            while u != v:  # climb from the deeper end until the ends meet
                if depth[u] < depth[v]:
                    u, v = v, u
                on_cycle[u] = 1
                u = parent[u]
    return all(on_cycle[1:])


def first_non_2ec(g: Graph, masks) -> int | None:
    """Index of the first member that is not a spanning 2EC subgraph of g,
    or None if every one is.

    ``masks`` is a sequence of edge masks in the certifier's order: edge e
    sits at bit m - 1 - e, so ``f"{x:0{m}b}"`` lists edges 0..m-1 left to
    right.  A mask with bits outside m bits raises ValueError.  For n >= 2,
    H is spanning 2EC iff H - e is connected for every edge e of g (an e
    outside H leaves H itself).  Lane (e, k) of a K * m bit int stands for
    member k without edge e: ``lane[f]`` has it set iff f is in member k
    and f != e.  Reachability from vertex 0 spreads as big-int AND/OR over
    the edges until a sweep over them all changes nothing; member k is
    2EC iff its m lanes reach every vertex.  Only integers, so the answer
    is exact.
    """
    n, m, count = g.n, g.m, len(masks)
    if count and (min(masks) < 0 or max(masks) >> m):
        k = next(k for k, x in enumerate(masks) if x < 0 or x >> m)
        raise ValueError(f"member {k} mask {masks[k]:#x} has bits outside {m} bits")
    if not count or n <= 1:
        return None
    if m == 0:
        return 0
    # transpose: the digits of member k are chars 3..m+2 of its block in s
    # ("0b1" and then the mask, padded by the bit above it), so s[3 + f :: m + 3]
    # is edge f's column, member 0 first; each column goes into every block of
    # its lane but block f, as bytes, so the top 8 * size - count bits of a
    # block are padding that reaches nothing past vertex 0
    top = 1 << m
    s = "".join(map(bin, [x | top for x in masks]))
    size = (count + 7) >> 3
    gap = bytes(size)
    lane = []
    for f in range(m):
        column = int(s[3 + f :: m + 3], 2).to_bytes(size, "big")
        lane.append(int.from_bytes(column * f + gap + column * (m - 1 - f), "big"))
    reach = [0] * n
    reach[0] = (1 << (8 * size * m)) - 1
    while True:
        before = reach[:]
        for e, (u, v) in enumerate(g.edges):
            reach[v] |= reach[u] & lane[e]
            reach[u] |= reach[v] & lane[e]
        if reach == before:
            break
    every = reach[0]
    for r in reach[1:]:
        every &= r
    blocks = every.to_bytes(size * m, "big")
    good = (1 << count) - 1
    for j in range(0, size * m, size):
        good &= int.from_bytes(blocks[j : j + size], "big")
    bad = good ^ ((1 << count) - 1)  # member k at bit count - 1 - k
    return count - bad.bit_length() if bad else None


def edge_connectivity(g: Graph) -> int:
    """Minimum cut size over all shores; 0 for a disconnected graph."""
    if g.n < 2:
        raise ValueError("edge connectivity needs n >= 2")
    return _cut_summary(g).min_size


def enumerate_cuts(g: Graph, max_size: int) -> list[Cut]:
    """All cuts with |crossing| <= max_size, one canonical shore per
    {S, complement} pair, in ascending shore-bitmask order, read from the
    cached index.  The index holds the cuts of at most four edges of a
    connected graph, so max_size > 4 or a disconnected graph raises
    ValueError."""
    if g.n < 2:
        raise ValueError("cut enumeration needs n >= 2")
    if max_size > 4:
        raise ValueError(
            f"cut enumeration lists cuts of at most 4 edges (got max_size={max_size})"
        )
    index = _cut_summary(g)
    if index.min_size == 0:
        raise ValueError("cut enumeration needs a connected graph")
    return [_mask_cut(*c) for c in index.small if c[1].bit_count() <= max_size]


def find_essential_3cut(g: Graph) -> Cut | None:
    """Deterministic essential 3-edge cut (smallest canonical shore), if any."""
    if not g.is_cubic:
        raise ValueError("find_essential_3cut requires a cubic graph")
    if edge_connectivity(g) < 3:
        raise ValueError("find_essential_3cut requires a 3-edge-connected graph")
    found = _cut_summary(g).essential3
    return _mask_cut(*found[0]) if found else None


def is_essentially_4ec(g: Graph) -> bool:
    """No essential cut of size < 4 (and 3-edge-connected)."""
    if not g.is_cubic:
        raise ValueError("is_essentially_4ec requires a cubic graph")
    if edge_connectivity(g) < 3:
        return False
    return find_essential_3cut(g) is None


def essential_4cut_with_pair(
    g: Graph,
    e1: int,
    e2: int,
    excluded_shore: Iterable[int] | None = None,
) -> Cut | None:
    """An essential 4-cut containing both edges, with the given shore pair
    excluded, smallest canonical shore first; None if there is none."""
    if e1 == e2:
        raise ValueError("the two edges must be distinct")
    if not g.is_cubic:
        raise ValueError("essential_4cut_with_pair requires a cubic graph")
    if not all(type(e) is int and 0 <= e < g.m for e in (e1, e2)):
        raise ValueError(f"edge ids {e1}, {e2} must lie in [0, {g.m})")
    excl = -1 if excluded_shore is None else _shore_mask(g, excluded_shore)
    return _essential_4cut(_cut_summary(g).essential4, e1, e2, excl)


def _essential_4cut(essential4, e1: int, e2: int, excl: int) -> Cut | None:
    """The first cut of ``essential4`` whose crossing holds e1 and e2 and
    whose shore mask is not excl."""
    want = (1 << e1) | (1 << e2)
    for shore, cross in essential4:
        if cross & want == want and shore != excl:
            return _mask_cut(shore, cross)
    return None


def _check_pivot_graph(g: Graph, caller: str, pivots=()):
    """Raise ValueError, naming caller, unless g is a cubic essentially
    4-edge-connected graph with n > 6 and every pivot an edge id of g."""
    if not g.is_cubic:
        raise ValueError(f"{caller} requires a cubic graph")
    for uv in pivots:
        if type(uv) is not int or not 0 <= uv < g.m:  # a bool is no edge id
            raise ValueError(f"pivot edge {uv} must lie in [0, {g.m})")
    if g.n <= 6:
        raise ValueError(f"{caller} requires n > 6")
    if not is_essentially_4ec(g):
        raise ValueError(f"{caller} requires an essentially 4-edge-connected graph")


def find_safe_pair(g: Graph, uv: int) -> SafePairDecision:
    """Choose the removal orientation around pivot uv.

    Tries {(au,vc), (bu,vd)} first (neighbors sorted by index); if either
    pair sits in a common essential 4-cut other than the pivot's endpoint
    cut, falls back to {(au,vd), (bu,vc)} and reports the witness.  Raises
    Lemma3Violation if both orientations are blocked.
    """
    _check_pivot_graph(g, "find_safe_pair", (uv,))
    return _safe_pair(g, uv, _cut_summary(g).essential4)


def safe_pairs(g: Graph) -> list[SafePairDecision]:
    """``find_safe_pair(g, uv)`` for every pivot uv in edge order, with g
    checked and its cut index read once."""
    _check_pivot_graph(g, "safe_pairs")
    essential4 = _cut_summary(g).essential4
    return [_safe_pair(g, uv, essential4) for uv in range(g.m)]


def _safe_pair(g: Graph, uv: int, essential4) -> SafePairDecision:
    """The decision body of ``find_safe_pair`` on a checked graph, reading
    its essential 4-cuts from ``essential4``."""
    u, v = g.endpoints(uv)
    a, b = sorted(w for w in g.neighbors(u) if w != v)
    c, d = sorted(w for w in g.neighbors(v) if w != u)
    au, bu = g.edge_id(a, u), g.edge_id(b, u)
    vc, vd = g.edge_id(v, c), g.edge_id(v, d)
    excl = _shore_mask(g, (u, v))

    w1 = _essential_4cut(essential4, au, vc, excl) or _essential_4cut(
        essential4, bu, vd, excl
    )
    if w1 is None:
        return SafePairDecision(uv, (au, vc), (bu, vd), 1, None)
    w2 = _essential_4cut(essential4, au, vd, excl) or _essential_4cut(
        essential4, bu, vc, excl
    )
    if w2 is None:
        return SafePairDecision(uv, (au, vd), (bu, vc), 2, w1)
    raise Lemma3Violation(
        f"both removal orientations around edge {uv} are blocked",
        witnesses=(w1, w2),
    )


def verify_lemma3(g: Graph) -> Lemma3Report:
    """Exhaustively check the safe-pair guarantee on one graph.

    For every oriented path a-u-v with v's other neighbors c, d this
    asserts that (au,vc) and (au,vd) are never both inside essential
    4-cuts other than the endpoint cut of uv (the literal phrasing), and
    that every pivot admits a safe orientation (the constructive
    phrasing).  Divergences between the two phrasings are reported
    separately rather than resolved.  The graph is checked, and its
    essential 4-cuts read, once; each pivot is decided by the body
    ``find_safe_pair`` runs.
    """
    _check_pivot_graph(g, "verify_lemma3")
    essential4 = _cut_summary(g).essential4

    configurations = 0
    violations = []
    flips = 0
    divergences = []
    literal_ok_everywhere = True

    for uv, (x, y) in enumerate(g.edges):
        for u, v in ((x, y), (y, x)):
            excl = _shore_mask(g, (u, v))
            others_u = [w for w in g.neighbors(u) if w != v]
            c, d = sorted(w for w in g.neighbors(v) if w != u)
            vc, vd = g.edge_id(v, c), g.edge_id(v, d)
            for a in sorted(others_u):
                au = g.edge_id(a, u)
                configurations += 1
                s1 = _essential_4cut(essential4, au, vd, excl)
                s2 = None if s1 is None else _essential_4cut(essential4, au, vc, excl)
                if s2 is not None:
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
        # constructive phrasing: a safe orientation must exist
        try:
            decision = _safe_pair(g, uv, essential4)
            if decision.orientation == 2:
                flips += 1
        except Lemma3Violation as exc:
            if literal_ok_everywhere:
                divergences.append({"pivot": uv, "witnesses": exc.witnesses})
            else:
                violations.append({"pivot": uv, "witnesses": exc.witnesses})

    return Lemma3Report(
        configurations=configurations,
        pivots=g.m,
        violations=tuple(violations),
        orientation_flips=flips,
        divergences=tuple(divergences),
    )
