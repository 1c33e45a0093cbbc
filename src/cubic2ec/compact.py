"""Compaction of a root combination (Carathéodory).

By Carathéodory's theorem at most m + 1 of the members the recursion built
are needed to put 7/9 on every edge, and a basis crash from that feasible
point (Megiddo, *On finding primal- and dual-optimal bases*, 1991), done in
integers with integer-preserving pivots (Bareiss, 1968), keeps at most
m + 1 of them and the smallest one.  Only the root is compacted; the
memoized child combinations stay as built, so every parent is built from
the same children whatever was certified first.
"""

from __future__ import annotations

import logging
import math

from .certificate import TARGET
from .errors import InvariantViolation
from .masked import _MaskedCombination, _check_uniform, _merged, _tuple_order

log = logging.getLogger(__name__)


def _smallest_mask(comb: _MaskedCombination) -> int:
    """The mask of the least member by (|S|, edges), as ``_smallest``."""
    size = min(x.bit_count() for x in comb.masks)
    return min(
        (x for x in comb.masks if x.bit_count() == size),
        key=_tuple_order(comb.host.m),
    )


def _compact(comb: _MaskedCombination) -> _MaskedCombination:
    """comb on at most m + 1 of its own members, every edge still at 7/9.

    A combination with at most m + 1 entries is returned as it is.  The
    reduced one must be a valid combination of comb's members, keep
    comb's smallest member and be uniform; otherwise InvariantViolation.
    """
    size = comb.host.m + 1
    if len(comb.masks) <= size:
        return comb
    smallest = _smallest_mask(comb)
    try:
        out = _merged(comb.host, *_caratheodory(comb, smallest))
    except ValueError as exc:
        raise InvariantViolation(f"compaction: {exc}") from None
    kept = out.masks
    if len(kept) > size or not set(comb.masks).issuperset(kept):
        raise InvariantViolation(
            f"compaction kept {len(kept)} members, not at most {size} of the "
            "combination's own"
        )
    if smallest not in kept:
        raise InvariantViolation("compaction dropped the smallest member")
    _check_uniform(out, TARGET)
    log.info(
        "compacted %d -> %d entries (n=%d)", len(comb.masks), len(kept), comb.host.n
    )
    return out


def _lane_bits(bound: int) -> int:
    """Width in bits, a multiple of 64, of a signed lane that holds every
    integer of absolute value at most ``bound``."""
    return 64 * (bound.bit_length() // 64 + 1)


def _caratheodory(comb: _MaskedCombination, smallest: int) -> tuple[int, list]:
    """At most m + 1 of comb's members (masks), reweighted to the same point,
    keeping ``smallest``, the mask ``_smallest_mask(comb)``, in integers:
    ``(den·d, [(lam_i, mask), ...])`` in basis position order, each member
    at weight lam_i / (den·d), as defined below.

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
    members, nums, den = comb.masks, comb.nums, comb.den
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
    return den * d, [
        (li, members[at[i]])
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
