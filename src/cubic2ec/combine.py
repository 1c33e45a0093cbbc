"""Uniform-7/9 convex combinations of 2EC spanning subgraphs.

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

``lift`` and ``glue`` only map edges, through one helper that carries
members along an edge map.  The certifier pulls each child's cached
canonical combination straight onto the parent in one such pass, the
relabeling and the lift or shore mapping composed into one edge map.  A
case-1 node does each piece of work once: its safe pairs are decided
after one check of the graph (``connectivity.safe_pairs``), each child
comes from the smoothing kernel that ``remove_edges_and_smooth`` wraps
(``graphs._smooth``, with every check but no Reduction), and a lift is
not sorted or reduced: the one average adds every lift's scaled
numerators into one map and normalizes the node once.  A case-2 shore
is normalized, and so is the glued node.  Each member of a finished
node is checked spanning 2EC once, however many lifts or glues produced
it, and all of a node's members in one lane-parallel pass
(``connectivity.first_non_2ec``).

All arithmetic is exact; no floats anywhere in the certification path.
Inside the certifier a combination is one integer denominator and
(numerator, edge mask) entries, edge e of an m-edge host at bit m - 1 - e
(``_MaskedCombination``): lift and glue OR the masks of mapped edges,
average scales each part's numerators by one integer, and an occurrence
vector is one multiply-add per member.  Members stay in ascending
edge-tuple order, which ``_tuple_order`` reads off a mask in O(1).
Each layer speaks one form: the certifier calls only the private masked
kernels, and weights become fractions.Fraction and members sorted
edge-id tuples (ConvexCombination) only at the boundary.  Every public
combination function takes and returns only ConvexCombinations,
converted once on the way in (``_masked``) and once on the way out
(``_public``); so do the certificate ``certify`` returns, certificate
JSON and ``verify_certificate``.  The recursion memoizes on canonical
forms, so the same reduced graph is certified once per isomorphism class.

The combination a certificate carries is compacted: by Carathéodory's
theorem at most m + 1 of the members the recursion built are needed to
put 7/9 on every edge, and a basis crash from that feasible point
(Megiddo, *On finding primal- and dual-optimal bases*, 1991), done in
integers with integer-preserving pivots (Bareiss, 1968), keeps at most
m + 1 of them and the smallest one.  Only the root is compacted; the
memoized child combinations stay as built, so every parent is built from
the same children whatever was certified first.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from . import connectivity
from .canon import _Tree, canonical_form, canonical_lookup
from .errors import InvariantViolation
from .graphs import Graph, Reduction, _smooth, contract_shore, parse_graph6

log = logging.getLogger(__name__)

TARGET = Fraction(7, 9)
DEFAULT_MAX_N = 14
HARD_MAX_N = 18


def support_bound(n: int) -> int:
    """The subgraph-size bound floor(7n/6)."""
    return (7 * n) // 6


@dataclass(frozen=True)
class Subgraph:
    """An edge subset of a host graph, read as a spanning subgraph."""

    host: Graph
    edges: tuple[int, ...]


@dataclass(frozen=True)
class ConvexCombination:
    """Weighted 2EC spanning subgraphs with exact weights summing to 1.

    Entries are deduplicated by edge set and kept in ascending edge-tuple
    order, so equal combinations compare equal.
    """

    host: Graph
    entries: tuple[tuple[Fraction, tuple[int, ...]], ...]


@dataclass(frozen=True)
class Certificate:
    """A graph with a uniform-7/9 combination and a replayable trace."""

    graph: Graph
    combination: ConvexCombination
    target: Fraction
    trace: tuple
    declared_min_support: int | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# combination plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MaskedCombination:
    """A combination in the certifier's working form.

    Entry ``(num, mask)`` weighs num / den, and its member holds edge e of
    the host iff bit m - 1 - e of mask is set.  Every function here returns
    one normalized: distinct masks, positive numerators summing to den with
    no factor in common with it, in ascending edge-tuple order
    (``_tuple_order``), so equal combinations compare equal.  The one
    exception is a case-1 lift (``_map_members`` without ``normalize``),
    which only ``_average`` reads.
    """

    host: Graph
    den: int
    entries: tuple[tuple[int, int], ...]


def _bits(edge_ids, m: int) -> int:
    """The mask of edge ids on an m-edge host."""
    x = 0
    for e in edge_ids:
        x |= 1 << (m - 1 - e)
    return x


def _edges(x: int, m: int) -> tuple[int, ...]:
    """The edge ids of mask x on an m-edge host, ascending."""
    out = []
    while x:
        top = x.bit_length()
        out.append(m - top)
        x ^= 1 << (top - 1)
    return tuple(out)


def _tuple_order(m: int):
    """Sort key on the masks of an m-edge host that orders them as their
    ascending edge tuples.

    Let d be the least edge in exactly one of S and T, say in S.  Then S
    comes first iff T has an edge after d; otherwise T is a prefix of S.
    Filling in every edge after a member's last one (the bits below its
    lowest set bit) turns this into the numeric order of the filled masks,
    descending: the filled S has bit d and the filled T lacks it iff T goes
    on after d.  Filled masks are equal iff one member is the other plus a
    run of edges up to its end, and then the smaller comes first.
    """
    full, shift = (1 << m) - 1, m.bit_length()
    return lambda x: ((~(x | ((x & -x) - 1)) & full) << shift) | x.bit_count()


def _ordered(host: Graph, den: int, acc: dict[int, int]) -> _MaskedCombination:
    """The normalized combination of the members ``acc`` maps to their
    numerators over den."""
    g = math.gcd(den, *acc.values())
    masks = sorted(acc, key=_tuple_order(host.m))
    if g > 1:
        entries = tuple([(acc[x] // g, x) for x in masks])
        return _MaskedCombination(host, den // g, entries)
    return _MaskedCombination(host, den, tuple([(acc[x], x) for x in masks]))


def _masked(c: ConvexCombination) -> _MaskedCombination:
    """c in the certifier's form, checked and normalized as ``combination``
    does: the one way in for a public function's combinations."""
    return _merged(c.host, *_validated(c.host.m, c.entries))


def _public(c: _MaskedCombination) -> ConvexCombination:
    """c as (Fraction, edge ids) entries."""
    m, den = c.host.m, c.den
    return ConvexCombination(
        c.host, tuple((Fraction(num, den), _edges(x, m)) for num, x in c.entries)
    )


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


def _merged(host: Graph, den: int, entries) -> _MaskedCombination:
    """The normalized combination of (numerator, mask) entries over den,
    numerators of equal masks added; they must sum to den."""
    acc: dict[int, int] = {}
    for num, x in entries:
        acc[x] = acc.get(x, 0) + num
    return _summed(host, den, acc)


def _summed(host: Graph, den: int, acc: dict[int, int]) -> _MaskedCombination:
    """``_ordered``, once the numerators acc maps its members to sum to den:
    the tail of ``_merged``, and of ``_average``'s own merge."""
    total = sum(acc.values())
    if total != den:
        raise ValueError(f"weights must sum to 1 exactly (got {Fraction(total, den)})")
    return _ordered(host, den, acc)


def _validated(m: int, raw_entries) -> tuple[int, list[tuple[int, int]]]:
    """``(den, [(num, mask), ...])`` of public (weight, edge ids) entries on
    an m-edge host; zero weights are dropped.  The one place such entries
    become masks."""
    weights: list[Fraction] = []
    masks: list[int] = []
    for weight, edge_ids in raw_entries:
        w = weight if type(weight) is Fraction else Fraction(weight)
        if w < 0:
            raise ValueError("weights must be nonnegative")
        if w == 0:
            continue
        ids = tuple(edge_ids)
        for e in ids:
            # bool is not an edge id: True would stand for edge 1
            if type(e) is not int:
                raise ValueError(f"edge id {e!r} in entry {ids} is not an int")
        key = tuple(sorted(set(ids)))
        if key and not (0 <= key[0] and key[-1] < m):
            raise ValueError(f"edge id out of range in entry {key}")
        weights.append(w)
        masks.append(_bits(key, m))
    if not masks:
        raise ValueError("a convex combination needs at least one entry")
    nums, den = _numerators(weights)
    return den, list(zip(nums, masks))


def _check_members(c: _MaskedCombination, what: str, error=InvariantViolation):
    """Raise ``error``, prefixed by ``what``, at the first member in entry
    order that is not spanning 2EC; one ``first_non_2ec`` pass checks all."""
    g = c.host
    masks = [x for _, x in c.entries]
    k = connectivity.first_non_2ec(g, masks)
    if k is not None:
        es = _edges(masks[k], g.m)
        raise error(f"{what}{es} is not a spanning 2-edge-connected subgraph")


def _numerators(weights) -> tuple[list[int], int]:
    """Rational weights as integer numerators over their common denominator.

    Returns ``(nums, den)`` with ``weights[i] == nums[i] / den``, where
    ``den`` is the lcm of the denominators, so sums of weights become sums
    of ints.
    """
    den = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def _occurrences(m: int, entries) -> tuple[Fraction, ...]:
    """Per-edge weight sums of (weight, edge ids) entries over m edges."""
    nums, den = _numerators([w for w, _ in entries])
    occ = [0] * m
    for num, (_, es) in zip(nums, entries):
        for e in es:
            occ[e] += num
    return tuple(Fraction(x, den) for x in occ)


def _occurrence_nums(c: _MaskedCombination) -> list[int]:
    """Per-edge numerator sums of c over c.den, indexed by edge id.

    One multiply and one AND spread a member's mask into lanes of ``width``
    bits, bit p at the bottom of lane p: x·spread has a copy of bit p at
    p + k·(width - 1) for every k < m, all distinct since width - 1 >= m,
    and only k = p is a lane bottom.  The lanes then add every member's
    numerator in one integer; a lane sums to at most den, so nothing
    carries into the next.
    """
    m = c.host.m
    width = max(c.den.bit_length(), m + 1)
    spread = ((1 << ((width - 1) * m)) - 1) // ((1 << (width - 1)) - 1)
    lanes = ((1 << (width * m)) - 1) // ((1 << width) - 1)
    acc = 0
    for num, x in c.entries:
        acc += num * (x * spread & lanes)
    lane = (1 << width) - 1
    return [(acc >> (width * (m - 1 - e))) & lane for e in range(m)]


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


def _average(host: Graph, parts) -> _MaskedCombination:
    """The body of ``average``: parts are (weight, _MaskedCombination) on
    host, positive int or Fraction weights summing to 1.  A part may repeat
    members, as a case-1 lift does; its numerators must sum to its
    denominator."""
    den = math.lcm(*(w.denominator * c.den for w, c in parts))
    acc: dict[int, int] = {}
    for w, c in parts:
        f = den // (w.denominator * c.den) * w.numerator
        for num, x in c.entries:
            acc[x] = acc.get(x, 0) + f * num
    return _summed(host, den, acc)


def pad_to_uniform(c: ConvexCombination, target: Fraction) -> ConvexCombination:
    """Raise every deficient edge to exactly ``target`` occurrence.

    Deficient edges are processed in ascending id; weight is split off
    entries not containing the edge, in ascending entry index of c as
    ``combination`` normalizes it, into copies that add the edge.  Adding
    edges preserves 2-edge-connectivity, so no re-check is needed;
    occurrences above target are rejected.
    """
    target = Fraction(target)
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


def _check_uniform(c: _MaskedCombination, target: Fraction, what: str = "occurrence"):
    want, den = target.numerator * c.den, target.denominator
    bad = [e for e, x in enumerate(_occurrence_nums(c)) if x * den != want]
    if bad:
        raise InvariantViolation(f"edges {bad[:3]} have {what} other than {target}")


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


def _map_members(
    comb: _MaskedCombination, host: Graph, edge_map, always=(), normalize=True
) -> _MaskedCombination:
    """comb's members carried to ``host``: each becomes the union of
    ``always`` and the host edges ``edge_map`` sends its edges to.  With
    ``normalize`` members that land on one edge set add their numerators
    and the result is normalized; without, the images keep comb's entry
    order and denominator, members may repeat, and only ``_average`` may
    read the result.  A member's image is the OR of one table lookup per
    four bits of its mask, each table holding the images of every subset
    of those four edges."""
    m = host.m
    images = [_bits(edge_map[ce], m) for ce in reversed(range(comb.host.m))]
    tables = []
    for low in range(0, len(images), 4):
        table = [0]
        for image in images[low : low + 4]:
            table += [y | image for y in table]
        tables.append(table)
    base = _bits(always, m)
    out = []
    for num, x in comb.entries:
        y = base
        for table in tables:
            y |= table[x & 15]
            x >>= 4
        out.append((num, y))
    if not normalize:
        return _MaskedCombination(host, comb.den, tuple(out))
    acc: dict[int, int] = {}
    for num, y in out:
        acc[y] = acc.get(y, 0) + num
    return _ordered(host, comb.den, acc)


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

_PATTERN_OMIT = Fraction(2, 9)
_PATTERN_FULL = Fraction(1, 3)


def _pattern_classes(lifted: _MaskedCombination, cut: list[int]):
    """Group a lifted shore's (numerator, mask) entries by which parent cut
    edge they omit.

    Keys are the cut edge ids (or None for all-present); weights are
    forced to (2/9, 2/9, 2/9, 1/3) by the degree-3 pattern argument.
    """
    m = lifted.host.m
    by_bit: dict[int, int | None] = {_bits((pe,), m): pe for pe in cut}
    cut_mask = sum(by_bit)
    by_bit[0] = None  # a member that omits no cut edge
    classes: dict[int | None, list[tuple[int, int]]] = {pe: [] for pe in cut}
    classes[None] = []
    for num, x in lifted.entries:
        omitted = cut_mask & ~x
        if omitted & (omitted - 1):
            raise InvariantViolation(
                f"member {_edges(x, m)} omits {omitted.bit_count()} "
                "pseudo-vertex edges"
            )
        classes[by_bit[omitted]].append((num, x))
    for key, entries in classes.items():
        want = _PATTERN_FULL if key is None else _PATTERN_OMIT
        got = sum(num for num, _ in entries)
        if got * want.denominator != want.numerator * lifted.den:
            raise InvariantViolation(
                f"pattern weight for {'all-present' if key is None else f'omit edge {key}'}"
                f" is {Fraction(got, lifted.den)}, expected {want}"
            )
    return classes


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


def _glue(
    shore1: _MaskedCombination, shore2: _MaskedCombination, cut: list[int]
) -> _MaskedCombination:
    """The body of ``glue``: the two shores already carried to their common
    parent, normalized (the common refinement pairs each pattern class's
    entries in order), and the cut's parent edge ids, ascending."""
    parent = shore1.host
    classes1 = _pattern_classes(shore1, cut)
    classes2 = _pattern_classes(shore2, cut)
    den = math.lcm(shore1.den, shore2.den)
    f1, f2 = den // shore1.den, den // shore2.den
    cut_mask = _bits(cut, parent.m)
    raw = []
    for key in cut + [None]:
        lst1 = [[num * f1, x] for num, x in classes1[key]]
        lst2 = [[num * f2, x] for num, x in classes2[key]]
        pattern = cut_mask if key is None else cut_mask & ~_bits((key,), parent.m)
        i = j = 0
        while i < len(lst1) and j < len(lst2):
            w = min(lst1[i][0], lst2[j][0])
            if w > 0:
                glued = lst1[i][1] | lst2[j][1]
                # both sides agree on the cut pattern by construction
                if glued & cut_mask != pattern:
                    raise InvariantViolation(
                        "glued member disagrees with its cut pattern"
                    )
                raw.append((w, glued))
            lst1[i][0] -= w
            lst2[j][0] -= w
            if lst1[i][0] == 0:
                i += 1
            if lst2[j][0] == 0:
                j += 1
        if any(t[0] != 0 for t in lst1[i:]) or any(t[0] != 0 for t in lst2[j:]):
            raise InvariantViolation("pattern class weights fell out of alignment")
    out = _merged(parent, den, raw)
    _check_uniform(out, TARGET)
    return out


# ---------------------------------------------------------------------------
# compaction (Carathéodory)
# ---------------------------------------------------------------------------


def _smallest(comb: ConvexCombination) -> tuple[int, ...]:
    """The least member by (|S|, edges): the one every compaction keeps
    and every certificate reports."""
    return min((es for _, es in comb.entries), key=lambda es: (len(es), es))


def _smallest_mask(comb: _MaskedCombination) -> int:
    """The mask of the least member by (|S|, edges), as ``_smallest``."""
    size = min(x.bit_count() for _, x in comb.entries)
    return min(
        (x for _, x in comb.entries if x.bit_count() == size),
        key=_tuple_order(comb.host.m),
    )


def _compact(comb: _MaskedCombination) -> _MaskedCombination:
    """comb on at most m + 1 of its own members, every edge still at 7/9.

    A combination with at most m + 1 entries is returned as it is.  The
    reduced one must be a valid combination of comb's members, keep
    comb's smallest member and be uniform; otherwise InvariantViolation.
    """
    size = comb.host.m + 1
    if len(comb.entries) <= size:
        return comb
    smallest = _smallest_mask(comb)
    try:
        reduced = _caratheodory(comb, smallest)
        nums, den = _numerators([w for w, _ in reduced])
        raw = tuple(zip(nums, (x for _, x in reduced)))
        out = _merged(comb.host, den, raw)
    except ValueError as exc:
        raise InvariantViolation(f"compaction: {exc}") from None
    kept = [x for _, x in out.entries]
    if len(kept) > size or not {x for _, x in comb.entries}.issuperset(kept):
        raise InvariantViolation(
            f"compaction kept {len(kept)} members, not at most {size} of the "
            "combination's own"
        )
    if smallest not in kept:
        raise InvariantViolation("compaction dropped the smallest member")
    _check_uniform(out, TARGET)
    log.info(
        "compacted %d -> %d entries (n=%d)", len(comb.entries), len(kept), comb.host.n
    )
    return out


def _lane_bits(bound: int) -> int:
    """Width in bits, a multiple of 64, of a signed lane that holds every
    integer of absolute value at most ``bound``."""
    return 64 * (bound.bit_length() // 64 + 1)


def _caratheodory(comb: _MaskedCombination, smallest: int) -> list[tuple[Fraction, int]]:
    """At most m + 1 of comb's members (masks), reweighted to the same point,
    keeping ``smallest``, the mask ``_smallest_mask(comb)``.

    Each member S is the column a = (x_M, 1) of its omitted edges
    M = E - S; (x_S, 1) = T·a for one invertible T, so both columns have
    the same linear dependencies, and M is small (a matching, when every
    vertex keeps degree 2).  A basis crash over these columns in R^(m+1):
    the basis starts as the m + 1 unit columns at weight 0, and each
    member, taken in descending weight after the smallest one, adds its
    weight w to the point.  With y = adj(B)·a and d = det B > 0, the
    member replaces the first unit column with y_i != 0; otherwise its
    weight folds into the basis (lam += w·y) unless a basis weight would
    turn negative or the smallest member's weight zero, and then a ratio
    test swaps it in along the null vector's sign that raises its
    weight (leaving: the first least lam_i / y_i over y_i > 0), or, when
    that would zero the smallest member, along the other sign (the first
    least lam_i / -y_i over y_i < 0).

    adj(B) and the weights are integers, the weights lam = adj(B)·(den·p)
    over den·d (p the point so far, den the lcm of the input
    denominators), updated by Bareiss' integer-preserving pivot: entry i
    becomes (y_k·A_i - y_i·A_k) / d, an exact division, and d becomes
    |y_k|.  Each column of adj(B), and lam, is packed into one int of
    signed lanes, so y is a sum of |M| + 1 packed columns and a fold is
    one multiply-add, tested in one mask: lam is held with half a lane
    added to every lane (one less on the smallest member's), so a lane
    is in range exactly when its top bit is set.  Every adj entry, y_i
    and d is a minor of columns of norm at most sqrt(|M| + 1), at most
    H by Hadamard's bound, and 0 <= lam_i <= den·d, so a lane must hold
    2·den·H.
    """
    m = comb.host.m
    size = m + 1
    members = [x for _, x in comb.entries]
    nums, den = [num for num, _ in comb.entries], comb.den
    first = members.index(smallest)
    order = sorted(range(len(members)), key=nums.__getitem__, reverse=True)
    order.remove(first)
    order.insert(0, first)
    full = (1 << m) - 1
    omitted = [full ^ x for x in members]
    hadamard_sq = math.prod(sorted(x.bit_count() + 1 for x in omitted)[-size:])
    bound = 2 * den * (math.isqrt(hadamard_sq) + 1)
    bits = _lane_bits(bound)
    if bound.bit_length() >= bits:
        raise InvariantViolation(
            f"{bits}-bit lanes cannot hold the {bound.bit_length()}-bit "
            "bound on adj(B) and the weights"
        )
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    bias = sum(half << (bits * i) for i in range(size))

    def unpack(packed: int) -> list[int]:
        v = packed + bias
        return [((v >> (bits * i)) & mask) - half for i in range(size)]

    # columns of adj(B) are held biased too, so a lane reads without a
    # borrow from the one below; a sum of t of them carries t biases
    cols = [(1 << (bits * i)) + bias for i in range(size)]  # adj(I) = I
    biases = [t * bias for t in range(size + 1)]
    d = 1
    lam_bias = bias
    lam = lam_bias  # every weight 0
    at: list[int | None] = [None] * size  # member index at each position
    units = list(range(size))  # positions still holding a unit column
    unit_mask, unit_half = (1 << (bits * size)) - 1, bias  # their lanes
    dense = []  # the other positions
    p = 0  # position of the smallest member
    for j in order:
        w = nums[j]
        packed = cols[m] - biases[omitted[j].bit_count() + 1]
        x = omitted[j]
        while x:  # edge e of M sits at bit m - 1 - e
            top = x.bit_length()
            packed += cols[m - top]
            x ^= 1 << (top - 1)
        nonzero = ((packed + bias) & unit_mask) ^ unit_half if units else 0
        if nonzero:
            # the first unit position with y_k != 0: the lowest set bit;
            # a unit position has weight lam_k = 0
            k = ((nonzero & -nonzero).bit_length() - 1) // bits
            shift = bits * k
            lk, yk = 0, (((packed + bias) >> shift) & mask) - half
            units.remove(k)
            dense.append(k)
            unit_mask -= mask << (bits * k)
            unit_half -= half << (bits * k)
            if j == first:
                p = k
                lam_bias -= 1 << (bits * k)
                lam -= 1 << (bits * k)
        else:
            folded = lam + w * packed
            if folded & bias == bias:
                lam = folded
                continue
            y = unpack(packed)
            weights = unpack(lam - lam_bias)
            k = _least_ratio(weights, y, 1)
            if y[p] > 0 and weights[p] * y[k] == weights[k] * y[p]:
                k = _least_ratio(weights, y, -1)
            lk, yk = weights[k], y[k]
            shift = bits * k
        # Bareiss pivot on position k; lane k of the packed y becomes
        # y_k - d, so row k of adj(B), and lam_k, come out unchanged.
        # Column i of adj(B) is d·e_i while position i holds e_i.
        sd = d if yk > 0 else -d
        packed -= d << shift
        lam = (yk * (lam - lam_bias) - lk * packed) // sd
        excess = (yk - sd) * bias
        for i in dense:
            c = cols[i]
            a = ((c >> shift) & mask) - half
            if a:
                cols[i] = (yk * c - a * packed - excess) // sd
            elif excess:
                cols[i] = (yk * c - excess) // sd
        d = abs(yk)
        if excess:
            for i in units:
                cols[i] = (d << (bits * i)) + bias
        lam += ((w * d) << shift) + lam_bias
        at[k] = j
    return [
        (Fraction(li, den * d), members[at[i]])
        for i, li in enumerate(unpack(lam - lam_bias))
        if li and at[i] is not None
    ]


def _least_ratio(lam, y, sign) -> int:
    """The first position i with sign·y_i > 0 that minimizes
    lam_i / (sign·y_i)."""
    best = None
    for i, yi in enumerate(y):
        a = sign * yi
        if a > 0 and (best is None or lam[i] * best[1] < best[0] * a):
            best = (lam[i], a, i)
    if best is None:
        raise InvariantViolation("ratio test found no leaving column")
    return best[2]


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
    depends on what it held.
    """

    def __init__(self, max_n: int = DEFAULT_MAX_N):
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

    def _canonical_form(self, g: Graph) -> tuple[str, tuple[int, ...], _Tree | None]:
        """``canonical_form(g)`` and, when this Certifier does not hold
        g's class, the tree of the full search that found it (None when it
        does, and the search stopped at g's first leaf)."""
        return canonical_lookup(g, self._index.get(g.n, {}))

    def _insert(self, K: Graph, key: str, tree: _Tree):
        """Build the node of canonical graph K and index ``tree``, the
        full search of a graph of K's class, under its leaf encodings."""
        self._cache[key] = self._build(K, key)
        self._index.setdefault(K.n, {}).update(dict.fromkeys(tree.seen, tree))

    def _pull(
        self, parent: Graph, child: Graph, provenance, always=(), normalize=True
    ) -> tuple[_MaskedCombination, str]:
        """``_pull_members`` of the child's node, built on a miss, and the
        child's key."""
        key, perm, tree = self._canonical_form(child)
        if key not in self._cache:
            self._insert(parse_graph6(key), key, tree)
        comb_k = self._cache[key][0]
        return _pull_members(comb_k, perm, parent, child, provenance, always, normalize), key

    def _build(self, K: Graph, key: str) -> tuple[_MaskedCombination, dict]:
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
                "entries": len(comb.entries),
                "children": [],
            }
            return comb, record
        log.debug("case 1 at n=%d (%s)", K.n, key)
        return self._case1(K, key)

    def _case1(self, K: Graph, key: str) -> tuple[_MaskedCombination, dict]:
        """One average of all 2m lifted children at 1/(2m) each: 7/9 +
        (2t + r - 8)/(9m) on each edge, so 7/9, as every pivot has 2t + r = 8.

        K is checked once for all its pivots (``connectivity.safe_pairs``),
        and each child comes from the smoothing kernel ``graphs._smooth``
        without a Reduction.  Each pivot's two lifts a and b are checked
        first: ½ of their summed occurrences is the piecewise profile,
        compared on the integers over the product of the two denominators,
        and 2t + r = 8.  The lifts are not normalized; the one average does
        that."""
        weight = Fraction(1, 2 * K.m)
        parts = []
        pivot_records = []
        children: set[str] = set()
        for decision in connectivity.safe_pairs(K):
            uv = decision.pivot_edge
            (a, key_a), (b, key_b) = [
                self._pull(K, *_smooth(K, *pair), normalize=False)
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
            "entries": len(final.entries),
            "pivots": pivot_records,
            "children": sorted(children),
        }
        return final, record

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
            "entries": len(comb.entries),
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


# ---------------------------------------------------------------------------
# extraction and verification
# ---------------------------------------------------------------------------


def min_support_subgraph(cert: Certificate) -> Subgraph:
    """The smallest member (ties: lexicographically least edge set)."""
    return Subgraph(cert.graph, _smallest(cert.combination))


def _exact(w) -> Fraction | None:
    """w as an exact Fraction, or None if Fraction() cannot read it."""
    if type(w) is Fraction:
        return w
    try:
        return Fraction(w)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None


def _read_entry(entry) -> tuple[Fraction | None, tuple | None]:
    """An entry as (exact weight, tuple of edge ids), with None for a part
    that cannot be read: both parts of an entry that is not a (weight,
    edges) pair, and the edges of one whose edges are not iterable."""
    try:
        w, es = entry
    except (TypeError, ValueError):
        return None, None
    try:
        es = tuple(es)
    except TypeError:
        es = None
    return _exact(w), es


def verify_certificate(g: Graph, cert: Certificate) -> VerificationReport:
    """Re-check everything from scratch; trusts nothing in the certificate."""
    checks: list[CheckResult] = []

    def add(name, passed, detail=""):
        checks.append(CheckResult(name, bool(passed), detail))

    add(
        "graph_match",
        cert.graph.n == g.n and cert.graph.edges == g.edges,
        "certificate edge list matches the graph",
    )
    # exact rationals from here on, whatever numeric type the entries carry;
    # a part that cannot be read becomes None: a weight fails both weight
    # checks, edges fail entries_well_formed
    entries = tuple(_read_entry(entry) for entry in cert.combination.entries)
    readable = all(w is not None for w, _ in entries)
    add("has_entries", len(entries) > 0, f"{len(entries)} entries")
    add("weights_positive", readable and all(w > 0 for w, _ in entries), "")
    if readable:
        nums, den = _numerators([w for w, _ in entries])
        total = Fraction(sum(nums), den)
        add("weights_sum_to_one", total == 1, f"sum = {total}")
    else:
        add("weights_sum_to_one", False, "a weight is not a number")
    add("target_is_7_9", cert.target == TARGET, f"target = {cert.target}")
    # bool is not an edge id, as in certificate_from_json
    m = g.m
    valid_ids = all(
        es is not None
        and all(type(e) is int and 0 <= e < m for e in es)
        and tuple(sorted(set(es))) == es
        for _, es in entries
    )
    add("entries_well_formed", valid_ids, "sorted unique edge ids in range")
    twoec = (
        valid_ids
        and connectivity.first_non_2ec(g, [_bits(es, m) for _, es in entries]) is None
    )
    add("members_spanning_2ec", twoec, "")
    if valid_ids:
        if readable:
            occ = _occurrences(g.m, entries)
            uniform = all(v == cert.target for v in occ)
            bad = [e for e, v in enumerate(occ) if v != cert.target][:3]
            add(
                "occurrences_uniform",
                uniform,
                "every edge at target" if uniform else f"deviating edges {bad}",
            )
        size = min(len(es) for _, es in entries) if entries else 0
        bound = support_bound(g.n)
        add("support_bound", size <= bound, f"min support {size} <= {bound}")
        if cert.declared_min_support is not None:
            add(
                "declared_min_support",
                cert.declared_min_support == size,
                f"declared {cert.declared_min_support}, actual {size}",
            )
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# certificate JSON
# ---------------------------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_frac(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def certificate_to_json(cert: Certificate) -> str:
    doc = {
        "n": cert.graph.n,
        "edges": [[u, v] for u, v in cert.graph.edges],
        "target": _frac_str(cert.target),
        "entries": [
            {"weight": _frac_str(w), "edges": list(es)}
            for w, es in cert.combination.entries
        ],
        "trace": list(cert.trace),
        "min_support_size": len(min_support_subgraph(cert).edges),
    }
    return json.dumps(doc, indent=2) + "\n"


def _field(name: str, parse, value):
    """``parse(value)``, with a malformed value reported as a ValueError
    that names the certificate field."""
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as e:
        raise ValueError(f"certificate field {name!r} is malformed ({e!r})") from None


def _integer(value) -> int:
    """A JSON integer as it is: no float, string or bool is coerced."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _edge_pairs(edges) -> tuple[tuple[int, int], ...]:
    return tuple((_integer(u), _integer(v)) for u, v in edges)


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate without validating it (the verifier does that).

    A document that does not have the certificate's shape raises a
    ValueError naming the bad field.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    for name in ("n", "edges", "entries"):
        if name not in doc:
            raise ValueError(f"certificate has no {name!r} field")
    n = _field("n", _integer, doc["n"])
    graph = Graph(n, _field("edges", _edge_pairs, doc["edges"]))
    entries = tuple(
        (
            _field(f"entries[{i}].weight", lambda e: _parse_frac(e["weight"]), ent),
            _field(
                f"entries[{i}].edges", lambda e: tuple(map(_integer, e["edges"])), ent
            ),
        )
        for i, ent in enumerate(_field("entries", list, doc["entries"]))
    )
    comb = ConvexCombination(graph, entries)
    return Certificate(
        graph=graph,
        combination=comb,
        target=_field("target", _parse_frac, doc.get("target", "7/9")),
        trace=_field("trace", tuple, doc.get("trace", ())),
        declared_min_support=(
            _field("min_support_size", _integer, doc["min_support_size"])
            if "min_support_size" in doc
            else None
        ),
    )
