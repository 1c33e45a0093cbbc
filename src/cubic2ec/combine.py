"""Uniform-7/9 convex combinations of 2EC spanning subgraphs: the certifier.

Every cubic 3-edge-connected graph admits a convex combination of
2-edge-connected spanning subgraphs in which each edge appears with total
weight exactly 7/9.  This module builds such a combination by recursion on
graph size:

* n <= 6 and essentially 4-edge-connected (K4 or K3,3): a constant
  two-entry table, re-checked on every use.
* an essential 3-edge cut exists: contract both shores, certify the two
  children, and glue their combinations along the forced pseudo-vertex
  patterns (omit each cut edge 2/9 of the time, keep all three 1/3).
* otherwise (essentially 4EC, n > 6): for every pivot edge, remove a safe
  pair of edges at its ends, smooth, certify the two children, lift them
  back, and average the 2m lifted children, each at weight 1/(2m).

The certifier pulls each child's cached canonical combination straight
onto the parent in one ``_map_members`` pass, the relabeling and the lift
or shore mapping composed into one edge map.  A case-1 node decides its
safe pairs after one check of the graph (``connectivity.safe_pairs``),
smooths each child without a Reduction (``graphs._smooth``) and
normalizes only the one average of its lifts.  Each member of a finished
node is checked spanning 2EC once, all of a node's members in one
lane-parallel pass (``connectivity.first_non_2ec``).  The recursion
memoizes on canonical forms, so the same reduced graph is certified once
per isomorphism class, and only the root is compacted (``compact``).  The
public combination functions here take and return ConvexCombinations;
the certifier calls none of them.
"""

from __future__ import annotations

import logging
from fractions import Fraction

from . import connectivity
from .canon import (
    _Tree,
    _carry,
    _edge_automorphisms,
    _pair_orbit,
    canonical_automorphisms,
    canonical_form,
    canonical_lookup,
    canonical_placement,
)
from .certificate import TARGET, Certificate, ConvexCombination, _exact
from .certificate import (  # perfbench/worker.py reads these through this module
    certificate_to_json,
    min_support_subgraph,
    support_bound,
    verify_certificate,
)
from .compact import _compact
from .errors import InvariantViolation
from .graphs import (
    Graph,
    Reduction,
    _smooth,
    _survivors,
    contract_shore,
    parse_graph6,
)
from .masked import (
    _MaskedCombination,
    _average,
    _check_members,
    _check_uniform,
    _glue,
    _map_members,
    _masked,
    _merged,
    _occurrence_nums,
    _public,
    _validated,
)

log = logging.getLogger(__name__)

DEFAULT_MAX_N = 14
HARD_MAX_N = 18


def combination(host: Graph, raw_entries) -> ConvexCombination:
    """Validate, deduplicate and canonically order entries.

    ``raw_entries`` are (weight, edge ids) pairs.  Weights must be positive
    rationals summing to exactly 1, edge ids ints in [0, m), and every
    distinct member a spanning 2EC subgraph of the host, the check the
    certifier runs once on each finished node.
    """
    out = _merged(host, *_validated(host.m, raw_entries))
    _check_members(out, "entry ", ValueError)
    return _public(out)


def edge_occurrences(c: ConvexCombination) -> tuple[Fraction, ...]:
    """Per-edge total weight sum over the members containing the edge."""
    c = _masked(c)
    return tuple(Fraction(x, c.den) for x in _occurrence_nums(c))


def average(parts):
    """Weighted merge of combinations over one host (weights sum to 1).

    Part weights are ints or Fractions.  Each part's numerators are scaled
    by one integer onto a common denominator and added straight into one
    map of member to numerator, whose total must be that denominator; the
    map is normalized once (``_average``).
    """
    parts = list(parts)
    if not parts:
        raise ValueError("average needs at least one part")
    for i, (w, _) in enumerate(parts):
        if type(w) is not int and type(w) is not Fraction:
            raise ValueError(f"part {i} has weight {w!r}, not an int or a Fraction")
        if w < 0:
            raise ValueError(f"part {i} has negative weight {w}")
    total = sum(w for w, _ in parts)
    if total != 1:
        raise ValueError(f"part weights must sum to 1 exactly (got {total})")
    host = parts[0][1].host
    for _, comb in parts:
        if comb.host != host:
            raise ValueError("all combinations must share one host graph")
    return _public(_average(host, [(w, _masked(comb)) for w, comb in parts if w]))


def pad_to_uniform(c: ConvexCombination, target: Fraction) -> ConvexCombination:
    """Raise every deficient edge to exactly ``target`` occurrence.

    Deficient edges are processed in ascending id; weight is split off
    entries not containing the edge, in ascending entry index of c as
    ``combination`` normalizes it, into copies that add the edge.  Adding
    edges preserves 2-edge-connectivity, so no re-check is needed;
    occurrences above target are rejected; target is read as a weight is.
    """
    exact = _exact(target)
    if exact is None:
        raise ValueError(f"target {target!r} is not a number")
    target = exact
    mc = _masked(c)
    occ = [Fraction(x, mc.den) for x in _occurrence_nums(mc)]
    for e, val in enumerate(occ):
        if val > target:
            raise ValueError(
                f"edge {e} occurs {val} > target {target}; cannot pad down"
            )
    work = [[w, set(es)] for w, es in _public(mc).entries]
    for e in range(c.host.m):
        deficit = target - occ[e]
        i = 0
        while deficit > 0 and i < len(work):
            w, es = work[i]
            if e not in es and w > 0:
                take = min(w, deficit)
                work[i][0] = w - take
                work.append([take, es | {e}])
                deficit -= take
            i += 1
        if deficit != 0:
            raise InvariantViolation(
                f"padding could not reach target on edge {e}"
            )
    out = _merged(c.host, *_validated(c.host.m, work))
    _check_uniform(out, target)
    return _public(out)


# ---------------------------------------------------------------------------
# base cases
# ---------------------------------------------------------------------------


# The uniform-7/9 combinations of the two base graphs, K4 and K3,3 (the only
# cubic 3-edge-connected, essentially 4-edge-connected graphs with n <= 6),
# as (weight, edge ids) on the canonically labeled graph, keyed by canonical
# graph6.  The tests rebuild this table by exact feasibility search over all
# 2EC spanning subgraphs.
_BASE_CASES = {
    "C~": (
        (Fraction(1, 9), (0, 1, 2, 3, 5)),
        (Fraction(2, 9), (0, 1, 2, 4, 5)),
        (Fraction(2, 9), (0, 1, 3, 4, 5)),
        (Fraction(1, 9), (0, 2, 3, 4, 5)),
        (Fraction(1, 9), (0, 2, 3, 5)),
        (Fraction(2, 9), (1, 2, 3, 4)),
    ),
    "EFz_": (
        (Fraction(1, 9), (0, 1, 2, 3, 5, 7, 8)),
        (Fraction(2, 9), (0, 1, 2, 4, 5, 6, 8)),
        (Fraction(1, 9), (0, 1, 3, 4, 5, 7, 8)),
        (Fraction(1, 9), (0, 1, 3, 5, 6, 7, 8)),
        (Fraction(2, 9), (0, 2, 3, 4, 6, 7, 8)),
        (Fraction(2, 9), (1, 2, 3, 4, 5, 6, 7)),
    ),
}


def base_case_combination(g: Graph) -> ConvexCombination:
    """The uniform-7/9 combination of K4 or K3,3 from the base-case table.

    Every call re-checks the table entry (each member spanning 2EC, weights
    summing to 1, every edge at 7/9) and maps it to g's labeling.
    """
    key, perm = canonical_form(g)
    if key not in _BASE_CASES:
        raise ValueError(
            "base case requires K4 or K3,3 (cubic, 3-edge-connected, "
            "essentially 4-edge-connected, n <= 6)"
        )
    return _public(_map_combination(_base_case(parse_graph6(key), key), g, perm))


def _base_case(K: Graph, key: str) -> _MaskedCombination:
    """The table entry of canonical key on K = parse_graph6(key), checked."""
    try:
        comb = _merged(K, *_validated(K.m, _BASE_CASES[key]))
        _check_members(comb, "entry ", ValueError)
    except ValueError as exc:
        raise InvariantViolation(f"base-case table entry {key}: {exc}") from None
    _check_uniform(comb, TARGET)
    return comb


# ---------------------------------------------------------------------------
# case 1: remove a safe pair, lift, average over pivots
# ---------------------------------------------------------------------------


def lift(child_combination, red: Reduction):
    """Map a child combination through a removal reduction to the parent.

    Every child edge expands to its provenance path; the edges adjacent to
    the removed pair are always selected and the removed pair is always
    omitted.  Members are checked once, in the node they are averaged into.
    """
    if red.kind != "case1_removal":
        raise ValueError("lift applies to removal reductions only")
    if child_combination.host != red.child:
        raise ValueError("combination host does not match the reduction child")
    out = _map_members(
        _masked(child_combination),
        red.parent,
        red.edge_provenance,
        red.forced_include,
    )
    return _public(out)


def _case1_expectation(g: Graph, uv: int) -> tuple[int, int, list[int]]:
    """``(t, r, want)`` for pivot uv: its placement counts, and the
    piecewise occurrence vector one pivot reduction must produce, as
    numerators over 18.

    Each other edge is classed by k, the number of the four edges at the
    pivot's ends (the half edges) that it touches: k = 2 counts into t,
    k = 1 into r.  k is the sum of the half-edge counts at the edge's two
    ends; no half edge joins both of them, since that edge would be the
    edge itself.
    """
    u, v = g.endpoints(uv)
    half = [e for e in g.incident(u) + g.incident(v) if e != uv]
    touching = [0] * g.n
    for h in half:
        for w in g.endpoints(h):
            touching[w] += 1
    t = r = 0
    want = []
    for e, (x, y) in enumerate(g.edges):
        if e == uv:
            want.append(18)
        elif e in half:
            want.append(9)
        else:
            k = touching[x] + touching[y]
            if k >= 2:
                want.append(18)
                if k == 2:
                    t += 1
            elif k == 1:
                want.append(16)
                r += 1
            else:
                want.append(14)
    return t, r, want


# ---------------------------------------------------------------------------
# case 2: contract the shores of an essential 3-cut and glue
# ---------------------------------------------------------------------------


def glue(c1, c2, red1: Reduction, red2: Reduction):
    """Recombine the two contracted shores of one essential 3-cut.

    Each shore is mapped to parent edges once, and ``_glue`` pairs them:
    within each pattern class (the cut edge omitted) the two entry lists
    are paired by common refinement of their numerators on one
    denominator, and each glued member is the union of two mapped members;
    the members are checked once, in the finished node.
    """
    for red in (red1, red2):
        if red.kind != "case2_contraction":
            raise ValueError("glue applies to contraction reductions only")
    if red1.parent != red2.parent:
        raise ValueError("the reductions must contract the same parent graph")
    if c1.host != red1.child or c2.host != red2.child:
        raise ValueError("combination hosts do not match the reduction children")
    cut1 = sorted(pe for _, pe in red1.cut_correspondence)
    cut2 = sorted(pe for _, pe in red2.cut_correspondence)
    if cut1 != cut2:
        raise ValueError("children come from different cuts")
    kept1 = {v for v in range(red1.parent.n) if red1.vertex_map[v] is not None}
    kept2 = {v for v in range(red2.parent.n) if red2.vertex_map[v] is not None}
    if kept1 & kept2 or kept1 | kept2 != set(range(red1.parent.n)):
        raise ValueError("the reductions must contract complementary shores")

    shore1, shore2 = (
        _map_members(_masked(c), red.parent, red.edge_provenance)
        for c, red in ((c1, red1), (c2, red2))
    )
    return _public(_glue(shore1, shore2, cut1))


# ---------------------------------------------------------------------------
# the certifier
# ---------------------------------------------------------------------------


class Certifier:
    """Builds uniform-7/9 certificates, memoizing by canonical form.

    The cache maps a canonical graph6 key to the combination computed on
    the canonically labeled graph, in the masked form, plus its trace
    record; results for any
    isomorphic graph are obtained by mapping edges back through the
    canonical permutation, so output depends only on the input graph.
    λ is checked on canonical graphs only, so each graph is indexed once.
    A key certified as a root also gets its compacted combination, kept
    apart from the cache that parents are built from.  Each cached class
    keeps the tree of the full canonical search that found it, indexed by
    n and by every leaf encoding that search met, so a graph of a class
    already held is placed from its first leaf, with the key and perm of
    the full search; a fresh Certifier holds none, and output never
    depends on what it held.  A case-1 node looks up only the first child
    of each orbit of its removed pairs under its automorphisms, which the
    tree of its own class gives, and places every later child of the
    orbit from that one, without a search.
    """

    def __init__(self, max_n: int = DEFAULT_MAX_N):
        if type(max_n) is not int:  # a bool or a float is not a vertex count
            raise ValueError(f"max_n must be an int, not {max_n!r}")
        if not 4 <= max_n <= HARD_MAX_N:
            raise ValueError(f"max_n must be within [4, {HARD_MAX_N}]")
        self.max_n = max_n
        self._cache: dict[str, tuple[_MaskedCombination, dict]] = {}
        self._roots: dict[str, _MaskedCombination] = {}
        # n -> leaf encoding -> the full search of its class, for each
        # class in _cache; the same integer encodes other graphs at other n
        self._index: dict[int, dict[int, _Tree]] = {}

    # -- public ops --------------------------------------------------------

    def certify(self, g: Graph) -> Certificate:
        """Certificate with every edge at exactly 7/9, on at most m + 1
        members.

        λ >= 3 is checked on the canonical graph, which ``_build`` indexes
        anyway; a cached key has passed ``_build``'s own check.  The trace
        describes the construction before compaction."""
        self._validate_input(g)
        key, perm, tree = self._canonical_form(g)
        if key not in self._cache:
            K = parse_graph6(key)
            if connectivity.edge_connectivity(K) < 3:
                raise ValueError("input graph must be 3-edge-connected")
            self._insert(K, key, tree)
        if key not in self._roots:
            self._roots[key] = _compact(self._cache[key][0])
        comb = _map_combination(self._roots[key], g, perm)
        _check_uniform(comb, TARGET)
        return Certificate(
            graph=g,
            combination=_public(comb),
            target=TARGET,
            trace=self._trace_closure(key),
        )

    # -- internals ----------------------------------------------------------

    def _validate_input(self, g: Graph):
        if not g.is_cubic:
            raise ValueError("input graph must be cubic")
        if g.n > self.max_n:
            raise ValueError(
                f"n={g.n} exceeds the configured maximum {self.max_n}"
            )

    def _canonical_form(self, g: Graph) -> tuple[str, tuple[int, ...], _Tree]:
        """``canonical_form(g)`` and the tree of the full search of g's
        class: the held one when this Certifier holds the class (the
        search stopped at g's first leaf), else the one just made."""
        return canonical_lookup(g, self._index.get(g.n, {}))

    def _carried_form(
        self, g: Graph, tree: _Tree, order: tuple[int, ...]
    ) -> tuple[str, tuple[int, ...]]:
        """``canonical_form(g)`` from ``order``, a least leaf of a graph of
        the held class of ``tree`` carried onto g by an isomorphism."""
        return canonical_placement(g, tree, order)

    def _held(self, g: Graph) -> tuple[str, tuple[int, ...], _Tree]:
        """``_canonical_form(g)``, with the node of g's class built on a
        miss."""
        key, perm, tree = self._canonical_form(g)
        if key not in self._cache:
            self._insert(parse_graph6(key), key, tree)
        return key, perm, tree

    def _insert(self, K: Graph, key: str, tree: _Tree):
        """Build the node of canonical graph K and index ``tree``, the
        full search of a graph of K's class, under its leaf encodings."""
        self._cache[key] = self._build(K, key, tree)
        self._index.setdefault(K.n, {}).update(dict.fromkeys(tree.seen, tree))

    def _pull(
        self, parent: Graph, child: Graph, provenance
    ) -> tuple[_MaskedCombination, str]:
        """``_pull_members`` of the child's node, built on a miss, and the
        child's key: a case-2 shore, normalized."""
        key, perm, _ = self._held(child)
        comb_k = self._cache[key][0]
        return _pull_members(comb_k, perm, parent, child, provenance), key

    def _build(self, K: Graph, key: str, tree: _Tree) -> tuple[_MaskedCombination, dict]:
        if not K.is_cubic or connectivity.edge_connectivity(K) < 3:
            raise InvariantViolation(
                f"canonical graph {key} is not cubic 3-edge-connected"
            )
        cut = connectivity.find_essential_3cut(K)
        if cut is not None:
            log.debug("case 2 at n=%d (%s)", K.n, key)
            return self._case2(K, key, cut)
        if K.n <= 6:
            log.debug("base case at n=%d (%s)", K.n, key)
            comb = _base_case(K, key)
            record = {
                "kind": "base",
                "graph6": key,
                "n": K.n,
                "entries": len(comb.masks),
                "children": [],
            }
            return comb, record
        log.debug("case 1 at n=%d (%s)", K.n, key)
        return self._case1(K, key, tree)

    def _case1(self, K: Graph, key: str, tree: _Tree) -> tuple[_MaskedCombination, dict]:
        """One average of all 2m lifted children at 1/(2m) each: 7/9 +
        (2t + r - 8)/(9m) on each edge, so 7/9, as every pivot has 2t + r = 8.

        K is checked once for all its pivots (``connectivity.safe_pairs``),
        and each child comes from the smoothing kernel ``graphs._smooth``
        without a Reduction.  Each pivot's two lifts a and b are checked
        first: ½ of their summed occurrences is the piecewise profile,
        compared on the integers over the product of the two denominators,
        and 2t + r = 8.  The lifts are not normalized; the one average does
        that.

        ``tree`` is the full search of K's class; its recorded
        automorphisms generate Aut(K).  Children whose removed pairs an
        automorphism maps onto each other are isomorphic, so only the
        first child of each orbit of removed pairs is looked up, and every
        later one is placed from it (``_lift``)."""
        weight = Fraction(1, 2 * K.m)
        parts = []
        pivot_records = []
        children: set[str] = set()
        gens = _edge_automorphisms(K, canonical_automorphisms(tree), key)
        orbits: dict[tuple[int, int], tuple] = {}
        for decision in connectivity.safe_pairs(K):
            uv = decision.pivot_edge
            (a, key_a), (b, key_b) = [
                self._lift(K, pair, gens, orbits)
                for pair in (decision.pair_a, decision.pair_b)
            ]
            t, r, want = _case1_expectation(K, uv)
            scale = 2 * a.den * b.den
            if any(
                18 * (x * b.den + y * a.den) != w * scale
                for x, y, w in zip(_occurrence_nums(a), _occurrence_nums(b), want)
            ):
                raise InvariantViolation(
                    f"pivot {uv}: occurrences deviate from the piecewise profile"
                )
            if 2 * t + r != 8:
                raise InvariantViolation(f"pivot {uv}: 2t + r = {2 * t + r}, not 8")
            parts += [(weight, a), (weight, b)]
            children.update((key_a, key_b))
            pivot_records.append(
                {
                    "pivot": uv,
                    "removed": [list(decision.pair_a), list(decision.pair_b)],
                    "orientation": decision.orientation,
                    "witness_shore": (
                        list(decision.witness_cut.shore)
                        if decision.witness_cut
                        else None
                    ),
                    "children": [key_a, key_b],
                }
            )
        final = _average(K, parts)
        _check_uniform(final, TARGET, "averaged occurrence")
        _check_members(final, f"node {key}: member ")
        record = {
            "kind": "case1",
            "graph6": key,
            "n": K.n,
            "entries": len(final.masks),
            "pivots": pivot_records,
            "children": sorted(children),
        }
        return final, record

    def _lift(
        self, K: Graph, pair, gens, orbits: dict
    ) -> tuple[_MaskedCombination, str]:
        """The unnormalized lift onto K of the child that removing ``pair``
        leaves, and the child's key.

        A pair in ``orbits`` is sigma(P) for the first removed pair P of
        its orbit, whose child was looked up: sigma maps P's survivors onto
        this pair's, so it carries the least leaf of P's child, as vertices
        of K, onto a least leaf of this child, which ``_carried_form``
        checks and moves to the first least leaf.  Any other child is
        looked up, and its pair's orbit under the automorphisms ``gens``
        of K goes into ``orbits``.
        """
        child, provenance, always = _smooth(K, *pair)
        pair = tuple(sorted(pair))
        if pair in orbits:
            orbit, leaf, tree = orbits[pair]
            label = [-1] * K.n  # K's vertices as the child's
            for new, old in enumerate(_survivors(K, *pair)):
                label[old] = new
            order = tuple(label[v] for v in _carry(orbit, pair, leaf))
            key, perm = self._carried_form(child, tree, order)
        else:
            key, perm, tree = self._held(child)
            if gens:
                survivors = _survivors(K, *pair)
                leaf = [0] * child.n  # the first least leaf, as vertices of K
                for old, position in enumerate(perm):
                    leaf[position] = survivors[old]
                orbit = _pair_orbit(gens, pair)
                orbits.update(dict.fromkeys(orbit, (orbit, leaf, tree)))
        comb_k = self._cache[key][0]
        return _pull_members(comb_k, perm, K, child, provenance, always, False), key

    def _case2(self, K: Graph, key: str, cut) -> tuple[_MaskedCombination, dict]:
        red_in = contract_shore(K, cut, "inside")
        red_out = contract_shore(K, cut, "outside")
        shore_in, key_in = self._pull(K, red_in.child, red_in.edge_provenance)
        shore_out, key_out = self._pull(K, red_out.child, red_out.edge_provenance)
        comb = _glue(shore_in, shore_out, sorted(cut.crossing))
        _check_members(comb, f"node {key}: member ")
        record = {
            "kind": "case2",
            "graph6": key,
            "n": K.n,
            "entries": len(comb.masks),
            "shore": list(cut.shore),
            "cut": list(cut.crossing),
            "children": sorted({key_in, key_out}),
        }
        return comb, record

    def _trace_closure(self, root_key: str) -> tuple:
        seen = []
        frontier = [root_key]
        while frontier:
            k = frontier.pop(0)
            if k in seen:
                continue
            seen.append(k)
            record = self._cache[k][1]
            frontier.extend(record["children"])
        records = [self._cache[k][1] for k in seen]
        root = records[0]
        rest = sorted(records[1:], key=lambda r: (r["n"], r["graph6"]))
        return tuple([root] + rest)


def _relabeling(K: Graph, g: Graph, perm: tuple[int, ...]) -> list[int]:
    """back[ke]: the edge of g that edge ke of K stands for, where perm
    maps g's vertices onto K's."""
    back = [0] * g.m
    for e, (u, v) in enumerate(g.edges):
        back[K.edge_id(perm[u], perm[v])] = e
    return back


def _map_combination(
    comb_k: _MaskedCombination, g: Graph, perm: tuple[int, ...]
) -> _MaskedCombination:
    """Pull a combination on the canonical graph back to g's labeling,
    through ``_map_members`` with each canonical edge sent to one edge of g;
    a relabeling keeps members distinct, so nothing merges."""
    back = _relabeling(comb_k.host, g, perm)
    return _map_members(comb_k, g, [(e,) for e in back])


def _pull_members(
    comb_k: _MaskedCombination,
    perm: tuple[int, ...],
    parent: Graph,
    child: Graph,
    provenance,
    always=(),
    normalize=True,
) -> _MaskedCombination:
    """child's combination, held as comb_k on its canonical graph (perm
    maps child's vertices onto comb_k.host's), carried straight onto parent
    in one ``_map_members`` pass.  Child edge ce stands for the parent
    edges provenance[ce], and every member also gets ``always``.  The two
    edge maps compose: canonical edge ke stands for child edge back[ke],
    which stands for the parent edges provenance[back[ke]].

    The members are those of ``_map_combination`` followed by ``lift``
    (case 1: a removal's provenance and forced_include) or by glue's
    mapping of a shore (case 2: a contraction's provenance).  A contracted
    shore comes back normalized, since ``_glue`` pairs pattern classes in
    order; a lift is passed with ``normalize=False``, since ``_case1``
    averages it at once.
    """
    edge_map = [provenance[ce] for ce in _relabeling(comb_k.host, child, perm)]
    return _map_members(comb_k, parent, edge_map, always, normalize)


def certify(g: Graph, certifier: Certifier | None = None) -> Certificate:
    """``certifier.certify(g)``, with a fresh Certifier when none is given."""
    return (certifier or Certifier()).certify(g)
