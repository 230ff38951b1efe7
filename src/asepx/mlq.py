"""Multiline-queue combinatorics and the operator form of the construction.

A ball system is a stack of 0/1 rows with strictly decreasing
occupancies l_1 > l_2 > ... > l_n (row 1 on top).  Pairing a lower row
into the row above it produces weighted injections; the generating
function of the weights is a linear operator between row spaces
(`_apply_mcheck_at`), and the whole construction composes those
operators (`bigM_apply`) and projects onto ASEP configurations.

The pairing images of a row pair are summed by a transfer DP over the
mask of free upper balls (`_pairing_images`), never by listing the
pairings.  Every pairing of l lower into l' upper balls at deformation
qeff has its weight over one denominator, prod_{k=l'-l+1}^{l'}
(1 - qeff t^k) (`pairing_denominator`), and every key of a tensor
vector has the same slot occupancies, so the composition and the
projection carry polynomial numerators over one running denominator:
a `SectorVector`, canonicalized from its numerators alone.

The enumerative definition of the pairing rule (`enumerate_pairings`,
`pairing_weight`) lists the pairings of one row pair one by one, and
`iter_mlqs` walks whole queues round by round over it; these are the
independent oracle of the operator form and the source of `dump-mlq`;
queue weights stay factored (`Weight`) until `_weight_ratfunc` reduces them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import mul
from typing import Iterator, Optional

from .asep_core import Config, Multiplicity, SectorBasis, SectorVector
from .scalar import P_ONE, P_ZERO, Poly, RatFunc, RF_ZERO, one_minus_qtk, qt_product

Row = tuple[int, ...]

#: a queue weight, factored: coeff t^tpow (1-t)^len(factors) / prod (1 - qe t^j), (qe, j) in factors
Weight = tuple[Fraction, int, tuple[tuple[Fraction, int], ...]]


@dataclass(frozen=True)
class PairStep:
    """One arrow of a pairing round, with its weight statistics."""

    src: int      # column of the lower-row ball (0-based)
    tgt: int      # column of the chosen upper-row ball
    wrapped: int  # 1 iff the leftward arrow crosses the periodic boundary
    skipped: int  # free upper balls passed over by the arrow
    free: int     # free upper balls available before this step
    trivial: int  # 1 iff forced same-column pairing (weight 1)


@dataclass(frozen=True)
class PairingOutcome:
    """An admissible pairing of a lower row into an upper row."""

    target: Row
    steps: tuple[PairStep, ...]


@dataclass(frozen=True)
class BallSystem:
    """Rows (b_n, ..., b_1), bottom row first, occupancies strictly rising."""

    rows: tuple[Row, ...]

    def __post_init__(self):
        occ = [sum(r) for r in self.rows]
        if any(occ[i] >= occ[i + 1] for i in range(len(occ) - 1)):
            raise ValueError(f"occupancies must increase bottom-up, got {occ}")


def row_from_cols(cols, L: int) -> Row:
    bits = [0] * L
    for c in cols:
        bits[c] = 1
    return tuple(bits)


def _step_stats(src: int, tgt: int, free_mask: int, L: int) -> tuple[int, int]:
    """(wrapped, skipped) for the leftward cyclic arrow src -> tgt."""
    wrapped = 1 if tgt > src else 0
    skipped = 0
    col = (src - 1) % L
    while col != tgt:
        if free_mask >> col & 1:
            skipped += 1
        col = (col - 1) % L
    return wrapped, skipped


@lru_cache(maxsize=None)
def enumerate_pairings(i: Row, j: Row) -> tuple[PairingOutcome, ...]:
    """All pairings of the balls of row i into free balls of row j.

    Lower balls are processed left to right; each picks any free upper
    ball except that a free upper ball directly above must be picked
    (the trivial pairing).  Requires |i| < |j|.
    """
    L = len(i)
    if len(j) != L:
        raise ValueError("rows must have equal length")
    if sum(i) >= sum(j):
        raise ValueError("need strictly fewer lower balls than upper balls")
    sources = [c for c in range(L) if i[c]]
    full_mask = 0
    for c in range(L):
        if j[c]:
            full_mask |= 1 << c
    outcomes: list[PairingOutcome] = []

    def rec(idx: int, free_mask: int, steps: list[PairStep]):
        if idx == len(sources):
            taken = full_mask & ~free_mask
            target = tuple((taken >> c) & 1 for c in range(L))
            outcomes.append(PairingOutcome(target, tuple(steps)))
            return
        src = sources[idx]
        nfree = bin(free_mask).count("1")
        if free_mask >> src & 1:
            steps.append(PairStep(src, src, 0, 0, nfree, 1))
            rec(idx + 1, free_mask & ~(1 << src), steps)
            steps.pop()
            return
        for tgt in range(L):
            if not (free_mask >> tgt & 1):
                continue
            wrapped, skipped = _step_stats(src, tgt, free_mask, L)
            steps.append(PairStep(src, tgt, wrapped, skipped, nfree, 0))
            rec(idx + 1, free_mask & ~(1 << tgt), steps)
            steps.pop()

    rec(0, full_mask, [])
    return tuple(outcomes)


def pairing_weight(p: PairingOutcome, qeff: Fraction) -> Weight:
    """Product over non-trivial steps of (1-t) t^skipped qeff^wrapped / (1 - qeff t^free)."""
    steps = [s for s in p.steps if not s.trivial]
    return (qeff ** sum(s.wrapped for s in steps), sum(s.skipped for s in steps),
            tuple((qeff, s.free) for s in steps))


# keyed by q, like `_pairing_images`: (1,1,1,1,1) has 604 distinct weights at a generic q
@lru_cache(maxsize=4096)
def _weight_ratfunc(w: Weight) -> RatFunc:
    """The reduced `RatFunc` of a weight with sorted factors, built with no gcd: each
    factor at qe = 1 cancels one (1 - t), as (1 - t) / (1 - t^j) = 1 / [j]_t.  Nothing
    else cancels: the numerator vanishes only at 0 and 1, no 1 - qe t^j vanishes at 0,
    only those at qe = 1 vanish at 1, and [j]_t vanishes at neither."""
    coeff, tpow, factors = w
    den = reduce(mul, (Poly((1,) * j) if qe == 1 else one_minus_qtk(qe, j)
                       for qe, j in factors), P_ONE)
    omt = len(factors) - sum(qe == 1 for qe, _ in factors)
    inv = Fraction(1) / den.leading()
    num = (Poly((1, -1)) ** omt).shift(tpow).scale(coeff * inv)
    return RatFunc._of(num, den.scale(inv)) if num else RF_ZERO


def m_parts(q: Fraction, i: Row, j: Row, a: Row, b: Row) -> tuple[Poly, Counter]:
    """`m_element` as (numerator, exponent map {k: 1} of `pairing_denominator`),
    read from `_pairing_images`; (0, {}) unless a is an image with a + b = j."""
    if not (len(i) == len(j) == len(a) == len(b)):
        raise ValueError("row length mismatch")
    nums = dict(_pairing_images(q, i, j)) if all(x + y == z for x, y, z in zip(a, b, j)) else {}
    exps = range(sum(j) - sum(i) + 1, sum(j) + 1) if a in nums else ()
    return nums.get(a, P_ZERO), Counter(exps)


def m_element(q: Fraction, i: Row, j: Row, a: Row, b: Row) -> RatFunc:
    """Generating function of pairing weights with paired image a: `m_parts`, reduced."""
    num, exps = m_parts(q, i, j, a, b)
    return RatFunc(num, qt_product(q, exps))


def pairing_denominator(qeff: Fraction, li: int, lj: int) -> Poly:
    """D = prod_{k=lj-li+1}^{lj} (1 - qeff t^k), common to every pairing of li into lj balls."""
    return qt_product(qeff, dict.fromkeys(range(lj - li + 1, lj + 1), 1))


# keyed by q: one sector needs at most 1,225 entries up to L = 7 (3,920 at
# L = 8), while each random q of the ms-theorem check adds entries never read again
@lru_cache(maxsize=4096)
def _pairing_images(qeff: Fraction, i: Row, j: Row) -> tuple[tuple[Row, Poly], ...]:
    """(image, numerator over `pairing_denominator`) for the row pair (i, j).

    A transfer DP over the mask of free upper balls: the lower balls are
    swept left to right as in `enumerate_pairings`, and all pairings that
    leave the same free mask are summed.  Every step at the same sweep
    position sees the same number of free balls, so each contributes the
    same factor 1 - qeff t^free to the denominator: a trivial step
    multiplies its numerator by that factor, a non-trivial one by
    (1-t) t^skipped qeff^wrapped.  Requires |i| < |j|.
    """
    L = len(i)
    if len(j) != L:
        raise ValueError("rows must have equal length")
    if sum(i) >= sum(j):
        raise ValueError("need strictly fewer lower balls than upper balls")
    full_mask = sum(1 << c for c in range(L) if j[c])
    one_minus_t = Poly((1, -1))
    states = {full_mask: P_ONE}
    nfree = sum(j)
    for src in (c for c in range(L) if i[c]):
        trivial = one_minus_qtk(qeff, nfree)
        nxt: dict[int, Poly] = {}
        for free_mask, num in states.items():
            if free_mask >> src & 1:
                moves = [(src, num * trivial)]
            else:
                paired = num * one_minus_t
                arrow = (paired, paired.scale(qeff))  # indexed by `wrapped`
                moves = []
                for tgt in range(L):
                    if free_mask >> tgt & 1:
                        wrapped, skipped = _step_stats(src, tgt, free_mask, L)
                        moves.append((tgt, arrow[wrapped].shift(skipped)))
            for tgt, w in moves:
                key = free_mask & ~(1 << tgt)
                cur = nxt.get(key)
                nxt[key] = w if cur is None else cur + w
        states = nxt
        nfree -= 1
    images = []
    for free_mask, num in states.items():
        taken = full_mask & ~free_mask
        images.append((tuple(taken >> c & 1 for c in range(L)), num))
    return tuple(sorted(images))


def _apply_mcheck_at(
    q: Fraction, vec: dict[tuple[Row, ...], Poly], pos: int
) -> dict[tuple[Row, ...], Poly]:
    """Apply the two-row pairing operator at tensor slots (pos, pos+1) to numerators.

    v_i (x) v_j  ->  sum_a M^{a, j-a}_{i,j} v_{j-a} (x) v_a, where i and j
    are the rows in those slots; needs |i| < |j| in every key.  Each
    output numerator is over one more factor pairing_denominator(q, |i|, |j|)
    than its input, which `bigM_apply` carries.
    """
    out: dict[tuple[Row, ...], Poly] = {}
    for key, coeff in vec.items():
        if not coeff:
            continue
        i, j = key[pos], key[pos + 1]
        for a, w in _pairing_images(q, i, j):
            b = tuple(j[c] - a[c] for c in range(len(j)))
            nkey = key[:pos] + (b, a) + key[pos + 2:]
            cur = out.get(nkey)
            new = coeff * w if cur is None else cur + coeff * w
            if new:
                out[nkey] = new
            elif cur is not None:
                del out[nkey]
    return out


def bigM_apply(
    q: Fraction, nums: dict[tuple[Row, ...], Poly]
) -> tuple[dict[tuple[Row, ...], Poly], Poly]:
    """Full pairing operator: all pairing rounds composed on an n-row tensor vector.

    Input slots hold ball rows (b_n, ..., b_1) left to right; the output
    slots hold the color position rows (c_1, ..., c_n).  Round j applies
    the two-row operator at slot pairs (r, r-1) for r = n down to j+1
    with deformation q^{n-r+1}.  Every key must have the same slot
    occupancies, so each application multiplies the whole vector by one
    known `pairing_denominator`: the result is (numerators, denominator),
    the polynomial input numerators carried over one running denominator.
    """
    occ = [sum(r) for r in next(iter(nums), ())]
    n = len(occ)
    if any([sum(r) for r in key] != occ for key in nums):
        raise ValueError("inconsistent slot occupancies")
    den = P_ONE
    for j in range(1, n):
        for r in range(n, j, -1):
            qeff = q ** (n - r + 1)
            pos = n - r  # slot r sits at list index n - r
            nums = _apply_mcheck_at(qeff, nums, pos)
            li, lj = occ[pos], occ[pos + 1]
            den = den * pairing_denominator(qeff, li, lj)
            occ[pos], occ[pos + 1] = lj - li, li
    return nums, den


def project_pi(nums: dict[tuple[Row, ...], Poly], den: Poly = P_ONE) -> SectorVector:
    """Send v_{c_1} (x) ... (x) v_{c_n} to the configuration c_1 + 2 c_2 + ... + n c_n.

    Numerators over the shared denominator `den` are summed per
    configuration.  Fails if any site carries two colors (cannot happen
    for genuine pairing outputs).
    """
    if not nums:
        raise ValueError("empty vector")
    some_key = next(iter(nums))
    n = len(some_key)
    L = len(some_key[0])
    occupancies = tuple(sum(r) for r in some_key)
    m0 = L - sum(occupancies)
    if m0 < 0:
        raise ValueError("color rows overfill the ring")
    m = Multiplicity((m0,) + occupancies)
    basis = SectorBasis(m)
    values: dict[Config, Poly] = {}
    for key, coeff in nums.items():
        if tuple(sum(r) for r in key) != occupancies:
            raise ValueError("inconsistent slot occupancies")
        sigma = [0] * L
        for color0, row in enumerate(key):
            for site, bit in enumerate(row):
                if bit:
                    if sigma[site]:
                        raise ValueError(f"overlapping colors at site {site}")
                    sigma[site] = color0 + 1
        cfg = tuple(sigma)
        cur = values.get(cfg)
        values[cfg] = coeff if cur is None else cur + coeff
    return SectorVector(basis, values, den)


def _ball_systems(m: Multiplicity) -> Iterator[tuple[Row, ...]]:
    """All (b_n, ..., b_1) row stacks for the sector content m."""
    lv = m.l_values()
    return product(*(
        [row_from_cols(cols, m.L) for cols in combinations(range(m.L), lv[i])]
        for i in range(m.n, 0, -1)  # l_n, ..., l_1
    ))


def mlq_state(m: Multiplicity, q: Fraction = Fraction(1)) -> SectorVector:
    """Weighted sum over all multiline queues, via the operator composition.

    At q = 1 this is the stationary state of the sector up to scale.
    """
    if not m.is_basic:
        raise ValueError("sector must be basic")
    return project_pi(*bigM_apply(q, dict.fromkeys(_ball_systems(m), P_ONE)))


# ---------------------------------------------------------------------------
# direct enumeration oracle


@dataclass(frozen=True)
class MLQRecord:
    """One fully paired ball diagram."""

    rows: tuple[Row, ...]                    # (b_n, ..., b_1) as given
    arrows: tuple[tuple[int, int, int], ...]  # (src col, tgt col, source row)
    weight: RatFunc
    config: Config


def iter_mlqs(
    m: Multiplicity,
    q: Fraction = Fraction(1),
    ball_system: Optional[BallSystem] = None,
) -> Iterator[MLQRecord]:
    """Enumerate multiline queues of the sector with their exact weights.

    Rounds run over colors c = n, n-1, ..., 2.  In round c the still
    uncolored balls of row c take color c and climb to row 1: from row r
    to row r-1 they pair into the free balls of row r-1 by
    `enumerate_pairings`, weighted by `pairing_weight` at deformation
    q^(c - r + 1); `_weight_ratfunc` reduces the product.  The balls of
    row 1 left free take color 1.  With `ball_system` given, only the
    queues over that one ball diagram are produced.
    """
    if not m.is_basic:
        raise ValueError("sector must be basic")
    stacks = [ball_system.rows] if ball_system is not None else _ball_systems(m)
    qpow = [q**k for k in range(m.n + 1)]
    moves: dict = {}  # (row, upper row, r, deformation) -> its pairings, walked once per call
    for stack in stacks:

        def climb(c, r, row, free, sigma, arrows, weight):
            # color c holds the balls `row` of row r; free[k] are row k's uncolored balls
            if r == 1:
                sigma = tuple(c if b else s for b, s in zip(row, sigma))
                if c == 1:
                    canonical = (weight[0], weight[1], tuple(sorted(weight[2])))
                    yield MLQRecord(stack, arrows, _weight_ratfunc(canonical), sigma)
                else:
                    yield from climb(c - 1, c - 1, free[c - 1], free, sigma, arrows, weight)
                return
            key = (row, free[r - 1], r, c - r + 1)
            if key not in moves:
                moves[key] = [(p.target, tuple(f - b for f, b in zip(free[r - 1], p.target)),
                               tuple((s.src, s.tgt, r) for s in p.steps),
                               pairing_weight(p, qpow[c - r + 1]))
                              for p in enumerate_pairings(row, free[r - 1])]
            for target, left, steps, (coeff, tpow, factors) in moves[key]:
                paired = (weight[0] * coeff, weight[1] + tpow, weight[2] + factors)
                yield from climb(c, r - 1, target, free[:r - 1] + (left,) + free[r:], sigma,
                                 arrows + steps, paired)

        free = (None,) + stack[::-1]  # free[r] is row r, stack[n - r]
        yield from climb(m.n, m.n, free[m.n], free, (0,) * m.L, (), (Fraction(1), 0, ()))
