"""The certifier's combination form and every kernel that reads or writes it.

All arithmetic is exact; no floats anywhere in the certification path.  A
combination is one integer denominator and two parallel columns, integer
numerators and edge masks, edge e of an m-edge host at bit m - 1 - e
(``_MaskedCombination``): lift and glue OR the masks of mapped edges,
average scales each part's numerators by one integer, and an occurrence
vector is one multiply-add per member.  Members stay in ascending
edge-tuple order, which ``_tuple_order`` reads off a mask in O(1).  Only
this module builds one, and only ``_ordered`` normalizes.  A public
ConvexCombination enters this form only through ``_masked`` (checked by
``_validated``) and leaves it through ``_public``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import connectivity
from .certificate import TARGET, ConvexCombination, _bits, _exact, _numerators
from .errors import InvariantViolation
from .graphs import Graph


@dataclass(frozen=True)
class _MaskedCombination:
    """A combination in the certifier's working form.

    Member i weighs nums[i] / den, and holds edge e of the host iff bit
    m - 1 - e of masks[i] is set.  Every function here returns one
    normalized (``_ordered``): distinct masks, positive numerators summing
    to den with no factor in common with it, in ascending edge-tuple order
    (``_tuple_order``), so equal combinations compare equal.  The one
    exception is a case-1 lift (``_map_members`` without ``normalize``),
    which only ``_average`` reads.
    """

    host: Graph
    den: int
    nums: tuple[int, ...]
    masks: tuple[int, ...]


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
    numerators over den, which must sum to den: the one way a normalized
    combination is made."""
    total = sum(acc.values())
    if total != den:
        raise ValueError(f"weights must sum to 1 exactly (got {Fraction(total, den)})")
    g = math.gcd(den, *acc.values())
    masks = tuple(sorted(acc, key=_tuple_order(host.m)))
    nums = tuple([acc[x] // g for x in masks])
    return _MaskedCombination(host, den // g, nums, masks)


def _masked(c: ConvexCombination) -> _MaskedCombination:
    """c in the certifier's form, checked and normalized as ``combination``
    does: the one way in for a public function's combinations."""
    return _merged(c.host, *_validated(c.host.m, c.entries))


def _public(c: _MaskedCombination) -> ConvexCombination:
    """c as (Fraction, edge ids) entries."""
    m, den = c.host.m, c.den
    return ConvexCombination(
        c.host,
        tuple((Fraction(num, den), _edges(x, m)) for num, x in zip(c.nums, c.masks)),
    )


def _merged(host: Graph, den: int, entries) -> _MaskedCombination:
    """The normalized combination of (numerator, mask) entries over den,
    numerators of equal masks added; they must sum to den."""
    acc: dict[int, int] = {}
    for num, x in entries:
        acc[x] = acc.get(x, 0) + num
    return _ordered(host, den, acc)


def _validated(m: int, raw_entries) -> tuple[int, list[tuple[int, int]]]:
    """``(den, [(num, mask), ...])`` of public (weight, edge ids) entries on
    an m-edge host; zero weights are dropped.  The one place such entries
    become masks."""
    weights: list[Fraction] = []
    masks: list[int] = []
    for i, (weight, edge_ids) in enumerate(raw_entries):
        w = _exact(weight)
        if w is None:
            raise ValueError(f"entry {i} has weight {weight!r}, not a number")
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
    k = connectivity.first_non_2ec(g, c.masks)
    if k is not None:
        es = _edges(c.masks[k], g.m)
        raise error(f"{what}{es} is not a spanning 2-edge-connected subgraph")


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
    for num, x in zip(c.nums, c.masks):
        acc += num * (x * spread & lanes)
    lane = (1 << width) - 1
    return [(acc >> (width * (m - 1 - e))) & lane for e in range(m)]


def _average(host: Graph, parts) -> _MaskedCombination:
    """The body of ``average``: parts are (weight, _MaskedCombination) on
    host, positive int or Fraction weights summing to 1.  A part may repeat
    members, as a case-1 lift does; its numerators must sum to its
    denominator."""
    den = math.lcm(*(w.denominator * c.den for w, c in parts))
    acc: dict[int, int] = {}
    for w, c in parts:
        f = den // (w.denominator * c.den) * w.numerator
        for num, x in zip(c.nums, c.masks):
            acc[x] = acc.get(x, 0) + f * num
    return _ordered(host, den, acc)


def _check_uniform(c: _MaskedCombination, target: Fraction, what: str = "occurrence"):
    want, den = target.numerator * c.den, target.denominator
    bad = [e for e, x in enumerate(_occurrence_nums(c)) if x * den != want]
    if bad:
        raise InvariantViolation(f"edges {bad[:3]} have {what} other than {target}")


def _map_members(
    comb: _MaskedCombination, host: Graph, edge_map, always=(), normalize=True
) -> _MaskedCombination:
    """comb's members carried to ``host``: each becomes the union of
    ``always`` and the host edges ``edge_map`` sends its edges to.  With
    ``normalize`` members that land on one edge set add their numerators
    and the result is normalized; without, the images keep comb's entry
    order and denominator, members may repeat, and only ``_average`` may
    read the result, which shares comb's numerators column.  A member's
    image is the OR of one table lookup per four bits of its mask, each
    table holding the images of every subset of those four edges."""
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
    for x in comb.masks:
        y = base
        for table in tables:
            y |= table[x & 15]
            x >>= 4
        out.append(y)
    if not normalize:
        return _MaskedCombination(host, comb.den, comb.nums, tuple(out))
    acc: dict[int, int] = {}
    for num, y in zip(comb.nums, out):
        acc[y] = acc.get(y, 0) + num
    return _ordered(host, comb.den, acc)


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
    for num, x in zip(lifted.nums, lifted.masks):
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
