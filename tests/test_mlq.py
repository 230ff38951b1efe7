import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import asepx.mlq as mlq_module
from asepx.asep_core import (
    Multiplicity,
    SectorBasis,
    basic_multiplicities,
    cyclic_shift,
    stationary_kernel,
)
from asepx.mlq import (
    BallSystem,
    MLQRecord,
    PairingOutcome,
    PairStep,
    _apply_mcheck_at,
    _growth,
    _pairing_images,
    _step_stats,
    _weight_ratfunc,
    bigM_apply,
    enumerate_pairings,
    iter_mlqs,
    m_element,
    mlq_state,
    pairing_denominator,
    pairing_weight,
    project_pi,
    row_from_cols,
)
from asepx.oscillator import s_element
from asepx.scalar import RF_ZERO, Poly, RatFunc, random_point, unpack

from conftest import mlq_enumerate_direct, one_minus_t_pow, poly, rf, weight_rf


def _weight_table(i, j, order, qeff):
    """Independent arrow tracer: enumerate pairings processing the lower
    balls in the given order, walking the ring leftward to count skips.

    Returns {image row: total weight}."""
    L = len(i)
    sources = [c for c in range(L) if i[c]]
    result = {}

    def walk_stats(src, tgt, free):
        wrapped = 0
        skipped = 0
        col = src
        while True:
            col -= 1
            if col < 0:
                col += L
                wrapped = 1
            if col == tgt:
                return wrapped, skipped
            if col in free:
                skipped += 1

    def rec(idx, free, num, den):
        if idx == len(order):
            taken = frozenset(c for c in range(L) if j[c]) - free
            image = tuple(1 if c in taken else 0 for c in range(L))
            result[image] = result.get(image, RatFunc(Poly())) + RatFunc(num, den)
            return
        src = sources[order[idx]]
        if src in free:
            rec(idx + 1, free - {src}, num, den)
            return
        for tgt in sorted(free):
            wrapped, skipped = walk_stats(src, tgt, free)
            step = one_minus_t_pow(1).shift(skipped).scale(qeff**wrapped)
            rec(idx + 1, free - {tgt}, num * step,
                den * Poly((1,) + (0,) * (len(free) - 1) + (-qeff,)))

    rec(0, frozenset(c for c in range(L) if j[c]), poly(1), poly(1))
    return result


class TestEnumeratePairings:
    def test_four_cycle_fixture(self):
        # lower ball at column 1 (0-based), uppers at 0, 2, 3; stats from
        # the brute-force arrow tracer on the 4-cycle
        outs = enumerate_pairings((0, 1, 0, 0), (1, 0, 1, 1))
        stats = {}
        for o in outs:
            (tgt,) = [c for c, b in enumerate(o.target) if b]
            step = o.steps[0]
            stats[tgt] = (step.wrapped, step.skipped, step.free)
        assert stats == {0: (0, 0, 3), 2: (1, 2, 3), 3: (1, 1, 3)}

    def test_forced_trivial(self):
        outs = enumerate_pairings((0, 1, 0), (1, 1, 0))
        assert len(outs) == 1
        step = outs[0].steps[0]
        assert step.trivial == 1 and step.wrapped == 0 and step.skipped == 0
        assert outs[0].target == (0, 1, 0)

    def test_empty_lower_row(self):
        outs = enumerate_pairings((0, 0, 0), (1, 0, 1))
        assert len(outs) == 1
        assert outs[0].steps == () and outs[0].target == (0, 0, 0)

    def test_rejects_overfull_lower_row(self):
        with pytest.raises(ValueError):
            enumerate_pairings((1, 1, 0), (1, 0, 1))
        with pytest.raises(ValueError):
            enumerate_pairings((1, 1, 1), (1, 1, 0))

    def test_image_counts(self):
        # every outcome pairs all lower balls; image sizes match
        outs = enumerate_pairings((1, 0, 1, 0, 0), (1, 1, 0, 1, 1))
        for o in outs:
            assert sum(o.target) == 2
            assert len(o.steps) == 2

    def test_order_independence_of_totals(self):
        # the weight generating function per image does not depend on
        # the processing order of the lower balls
        rng = random.Random(2)
        q = Fraction(2, 7)
        for _ in range(25):
            L = rng.randint(3, 6)
            m = rng.randint(2, min(4, L))
            l = rng.randint(1, m - 1)
            jcols = rng.sample(range(L), m)
            icols = rng.sample(range(L), l)
            i = tuple(1 if c in icols else 0 for c in range(L))
            j = tuple(1 if c in jcols else 0 for c in range(L))
            tables = [
                _weight_table(i, j, order, q)
                for order in permutations(range(l))
            ]
            assert all(tab == tables[0] for tab in tables[1:])
            for image, total in tables[0].items():
                b = tuple(j[c] - image[c] for c in range(L))
                assert m_element(q, i, j, image, b) == total


@st.composite
def _row_pairs(draw):
    L = draw(st.integers(2, 7))
    m = draw(st.integers(1, L))
    l = draw(st.integers(0, m - 1))
    jcols = draw(st.sets(st.integers(0, L - 1), min_size=m, max_size=m))
    icols = draw(st.sets(st.integers(0, L - 1), min_size=l, max_size=l))
    i = tuple(1 if c in icols else 0 for c in range(L))
    j = tuple(1 if c in jcols else 0 for c in range(L))
    return i, j


_qs = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=50),
)


def _width(q, i, j):
    """The packing width B that `m_parts` takes for the row pair (i, j) at q."""
    return _growth(q.numerator, q.denominator, len(j), sum(i), sum(j)).bit_length() + 1


def _homogenized_denominator(q, li, lj):
    """prod_k (v - u t^k) at q = u/v: the denominator of every packed image numerator."""
    return pairing_denominator(q, li, lj).scale(q.denominator ** li)


def _unpacked(vec, B):
    return {key: Poly(unpack(N, B)) for key, N in vec.items()}


class TestPairingImages:
    @settings(max_examples=80, deadline=None)
    @given(_row_pairs(), _qs)
    def test_transfer_dp_matches_enumeration(self, rows, q):
        # the DP numerators over D agree with the weights summed per image
        # over every complete pairing, and the DP reaches the same images
        i, j = rows
        brute = {}
        for outcome in enumerate_pairings(i, j):
            w = weight_rf(pairing_weight(outcome, q))
            brute[outcome.target] = brute.get(outcome.target, RatFunc(Poly())) + w
        B = _width(q, i, j)
        den = _homogenized_denominator(q, sum(i), sum(j))
        dp = {}
        for (b, image), num in _pairing_images(q.numerator, q.denominator, i, j, B):
            assert b == tuple(y - x for x, y in zip(image, j))
            dp[image] = RatFunc(Poly(unpack(num, B)), den)
        assert dp == brute

    def test_same_errors_as_enumeration(self):
        for i, j in [((1, 1, 0), (1, 0, 1)), ((1, 1, 1), (1, 1, 0)), ((1, 0), (1, 1, 0))]:
            with pytest.raises(ValueError) as dp_err:
                _pairing_images(1, 2, i, j, 16)
            with pytest.raises(ValueError) as enum_err:
                enumerate_pairings(i, j)
            assert str(dp_err.value) == str(enum_err.value)

    def test_denominator_formula(self):
        q = Fraction(2, 3)
        expected = Poly((1, 0, 0, -q)) * Poly((1, 0, 0, 0, -q))
        assert pairing_denominator(q, 2, 4) == expected
        assert pairing_denominator(q, 0, 4) == poly(1)


_factors = st.lists(st.tuples(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(0), Fraction(2, 5), Fraction(-3)]),
    st.integers(1, 6),
), max_size=5)


class TestPairingWeight:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([Fraction(0), Fraction(1), Fraction(-4, 9)]), st.integers(0, 4), _factors)
    def test_reduction_matches_the_gcd_oracle(self, coeff, tpow, factors):
        # cancelling one (1 - t) per factor at qe = 1 is the full reduction
        w = (coeff, tpow, tuple(sorted(factors)))
        assert _weight_ratfunc(w) == weight_rf(w)

    def test_all_trivial_is_one(self):
        p = PairingOutcome(
            (1, 1, 0), (PairStep(0, 0, 0, 0, 2, 1), PairStep(1, 1, 0, 0, 1, 1))
        )
        assert pairing_weight(p, Fraction(1)) == (1, 0, ())

    def test_wrapped_step_formula(self):
        # one step with wrapped=1, skipped=a+b, free=a+b+1 weighs
        # q t^{a+b} (1-t) / (1 - q t^{a+b+1})
        q = Fraction(3, 5)
        for a, b in [(1, 1), (2, 1), (0, 3)]:
            p = PairingOutcome(
                (1,), (PairStep(0, 0, 1, a + b, a + b + 1, 0),)
            )
            num = one_minus_t_pow(1).shift(a + b).scale(q)
            den = Poly((1,) + (0,) * (a + b) + (-q,))
            assert weight_rf(pairing_weight(p, q)) == RatFunc(num, den)

    def test_example_queue_weights(self):
        # the four labelled non-trivial pairings of the nine-column
        # example: weights q t^2(1-t)/(1-q t^4), (1-t)/(1-q t^3),
        # t(1-t)/(1-q^2 t^6), q t^2(1-t)/(1-q t^5)
        q = Fraction(2, 5)
        m = Multiplicity((2, 3, 2, 2))
        bs = BallSystem(
            (
                (0, 0, 1, 0, 1, 0, 0, 0, 0),
                (1, 1, 0, 1, 0, 0, 0, 1, 0),
                (0, 1, 1, 1, 1, 1, 1, 0, 1),
            )
        )
        target_arrows = {(2, 7, 3), (4, 3, 3), (3, 3, 2), (7, 5, 2), (0, 4, 2), (1, 1, 2)}
        found = None
        for rec in iter_mlqs(m, q, ball_system=bs):
            if set(rec.arrows) == target_arrows:
                found = rec
                break
        assert found is not None
        nums = (one_minus_t_pow(1).shift(2).scale(q), one_minus_t_pow(1),
                one_minus_t_pow(1).shift(1), one_minus_t_pow(1).shift(2).scale(q))
        dens = (Poly((1, 0, 0, 0, -q)), Poly((1, 0, 0, -q)),
                Poly((1, 0, 0, 0, 0, 0, -q * q)), Poly((1, 0, 0, 0, 0, -q)))
        assert found.weight == RatFunc(reduce(mul, nums), reduce(mul, dens))
        assert found.config == (0, 2, 1, 3, 2, 3, 1, 0, 1)


def _example_rows(alpha, beta):
    a = (1,) + (0,) * (beta - 1) + (0, 1, 0) + (0,) * alpha
    b = (0,) + (1,) * (beta - 1) + (0, 0, 0) + (1,) * alpha
    i = (0,) + (0,) * (beta - 1) + (1, 0, 1) + (0,) * alpha
    j = (1,) + (1,) * (beta - 1) + (0, 1, 0) + (1,) * alpha
    return i, j, a, b


def _example_value(alpha, beta, q):
    num = (
        one_minus_t_pow(1)
        * one_minus_t_pow(1)
        * Poly((1,) + (0,) * (alpha + beta - 1) + (q,))
    ).shift(beta - 1)
    den = Poly((1,) + (0,) * (alpha + beta - 1) + (-q,)) * Poly(
        (1,) + (0,) * (alpha + beta) + (-q,)
    )
    return RatFunc(num, den)


class TestMElement:
    def test_two_pairing_fixture(self):
        q = Fraction(3, 7)
        i, j, a, b = _example_rows(1, 1)
        assert m_element(q, i, j, a, b) == _example_value(1, 1, q)

    def test_vanishes_unless_rows_split(self):
        q = Fraction(1, 2)
        assert m_element(q, (1, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, 0)) == RF_ZERO

    def test_empty_lower_row_is_delta(self):
        q = Fraction(1, 3)
        j = (0, 1, 1)
        zero = (0, 0, 0)
        assert m_element(q, zero, j, zero, j) == rf(poly(1))


class TestMcheckApply:
    def test_contains_fixture_coefficient(self):
        q = Fraction(3, 7)
        i, j, a, b = _example_rows(1, 1)
        B = _width(q, i, j)
        out = _unpacked(_apply_mcheck_at(3, 7, {(i, j): 1}, 0, B), B)
        den = _homogenized_denominator(q, sum(i), sum(j))
        assert RatFunc(out[(b, a)], den) == _example_value(1, 1, q)

    def test_empty_row_identity_relabeling(self):
        q = Fraction(1, 2)
        j = (1, 0, 1)
        zero = (0, 0, 0)
        B = _width(q, zero, j)
        out = _unpacked(_apply_mcheck_at(1, 2, {(zero, j): 1}, 0, B), B)
        den = _homogenized_denominator(q, 0, sum(j))
        assert {k: RatFunc(v, den) for k, v in out.items()} == {(j, zero): rf(poly(1))}

    def test_row_sums_match_total_weight(self):
        rng = random.Random(8)
        q = Fraction(2, 9)
        for _ in range(10):
            L = rng.randint(3, 5)
            m = rng.randint(2, L)
            l = rng.randint(1, m - 1)
            icols = rng.sample(range(L), l)
            jcols = rng.sample(range(L), m)
            i = tuple(1 if c in icols else 0 for c in range(L))
            j = tuple(1 if c in jcols else 0 for c in range(L))
            B = _width(q, i, j)
            out = _unpacked(_apply_mcheck_at(2, 9, {(i, j): 1}, 0, B), B)
            den = _homogenized_denominator(q, l, m)
            total = RatFunc(Poly())
            for v in out.values():
                total = total + RatFunc(v, den)
            brute = RatFunc(Poly())
            for outcome in enumerate_pairings(i, j):
                brute = brute + weight_rf(pairing_weight(outcome, q))
            assert total == brute


class TestBigM:
    def test_single_row_is_identity(self):
        bs = BallSystem(((1, 0, 1),))
        out = bigM_apply(Fraction(1), {bs.rows: poly(1)})
        assert out == ({((1, 0, 1),): poly(1)}, poly(1))

    def test_two_rows_single_application(self):
        q = Fraction(2, 7)
        lower, upper = (0, 1, 0), (1, 0, 1)
        bs = BallSystem((lower, upper))
        B = _width(q, lower, upper)
        direct = _unpacked(_apply_mcheck_at(2, 7, {(lower, upper): 1}, 0, B), B)
        den = _homogenized_denominator(q, 1, 2)
        assert bigM_apply(q, {bs.rows: poly(1)}) == (direct, den)

    def test_three_rows_against_direct_enumeration(self):
        q = Fraction(2, 5)
        m = Multiplicity((2, 3, 2, 2))
        bs = BallSystem(
            (
                (0, 0, 1, 0, 1, 0, 0, 0, 0),
                (1, 1, 0, 1, 0, 0, 0, 1, 0),
                (0, 1, 1, 1, 1, 1, 1, 0, 1),
            )
        )
        out, den = bigM_apply(q, {bs.rows: poly(1)})
        # color rows of the worked example: 3 at {3,5}, 2 at {1,4}, 1 at {2,6,8}
        c1 = (0, 0, 1, 0, 0, 0, 1, 0, 1)
        c2 = (0, 1, 0, 0, 1, 0, 0, 0, 0)
        c3 = (0, 0, 0, 1, 0, 1, 0, 0, 0)
        brute = RatFunc(Poly())
        for rec in iter_mlqs(m, q, ball_system=bs):
            rows = {1: c1, 2: c2, 3: c3}
            colors = {}
            for color, cols in _colors_of(rec).items():
                colors[color] = tuple(
                    1 if c in cols else 0 for c in range(9)
                )
            if colors == rows:
                brute = brute + rec.weight
        assert RatFunc(out[(c1, c2, c3)], den) == brute

    def test_linear_in_polynomial_inputs(self):
        # keys with unequal numerators are scaled and summed
        q = Fraction(2, 7)
        inputs = {
            ((0, 1, 0, 0), (1, 0, 1, 1)): poly(3, 1),
            ((1, 0, 0, 0), (1, 0, 1, 1)): one_minus_t_pow(3),
        }
        expected = {}
        for rows, scale in inputs.items():
            out, den = bigM_apply(q, {rows: poly(1)})
            for k, v in out.items():
                expected[k] = expected.get(k, Poly()) + v * scale
        assert bigM_apply(q, inputs) == ({k: v for k, v in expected.items() if v}, den)
        # non-integral numerators are cleared to integers and the factor joins den
        halves = {rows: p.scale(Fraction(1, 2)) for rows, p in inputs.items()}
        assert bigM_apply(q, halves) == ({k: v for k, v in expected.items() if v}, den.scale(2))
        # a zero numerator contributes no key
        with_zero = {**inputs, ((0, 1, 0, 0), (1, 1, 1, 0)): Poly()}
        assert bigM_apply(q, with_zero) == bigM_apply(q, inputs)

    def test_inconsistent_slot_occupancies_rejected(self):
        vec = {((0, 1, 0), (1, 0, 1)): poly(1), ((0, 0, 0), (1, 0, 1)): poly(1)}
        with pytest.raises(ValueError):
            bigM_apply(Fraction(1), vec)

    def test_occupancy_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BallSystem(((1, 1, 0), (1, 0, 0)))


@lru_cache(maxsize=None)
def _poly_images(q, i, j):
    """Oracle of `_pairing_images`: the same transfer DP on `Poly` numerators
    over `pairing_denominator(q, |i|, |j|)`, as {image: numerator}."""
    L = len(i)
    full_mask = sum(1 << c for c in range(L) if j[c])
    states, nfree = {full_mask: poly(1)}, sum(j)
    for src in (c for c in range(L) if i[c]):
        nxt = {}
        for free_mask, num in states.items():
            if free_mask >> src & 1:
                moves = [(src, num * Poly((1,) + (0,) * (nfree - 1) + (-q,)))]
            else:
                paired = num * poly(1, -1)
                moves = []
                for tgt in (c for c in range(L) if free_mask >> c & 1):
                    wrapped, skipped = _step_stats(src, tgt, free_mask, L)
                    moves.append((tgt, paired.scale(q**wrapped).shift(skipped)))
            for tgt, w in moves:
                key = free_mask & ~(1 << tgt)
                nxt[key] = nxt.get(key, Poly()) + w
        states, nfree = nxt, nfree - 1
    return {tuple((full_mask ^ f) >> c & 1 for c in range(L)): num for f, num in states.items()}


def _poly_bigM(q, nums, trail=None):
    """Oracle of `bigM_apply`: the pairing rounds composed on `Poly` numerators
    over prod (1 - q^k t^j), the composition `mlq` ran before it packed its
    numerators.  `trail` receives (k, l, l', numerators) per application."""
    occ = [sum(r) for r in next(iter(nums))]
    n, den = len(occ), poly(1)
    for j in range(1, n):
        for r in range(n, j, -1):
            k, pos = n - r + 1, n - r
            out = {}
            for key, coeff in nums.items():
                upper = key[pos + 1]
                for a, w in _poly_images(q**k, key[pos], upper).items():
                    b = tuple(y - x for x, y in zip(a, upper))
                    nkey = key[:pos] + (b, a) + key[pos + 2:]
                    out[nkey] = out.get(nkey, Poly()) + coeff * w
            nums = {key: w for key, w in out.items() if w}
            li, lj = occ[pos], occ[pos + 1]
            den = den * pairing_denominator(q**k, li, lj)
            occ[pos], occ[pos + 1] = lj - li, li
            if trail is not None:
                trail.append((k, li, lj, nums))
    return nums, den


SMALL_SECTORS = [m for L in range(2, 6) for n in range(1, L) for m in basic_multiplicities(n, L)]
ORACLE_QS = [Fraction(1), Fraction(2, 5), Fraction(-3, 7), random_point(24)]


@lru_cache(maxsize=None)
def _oracle_run(m, q):
    """(trail, projected state) of the `Poly` oracle on sector m, shared by the tests below."""
    trail = []
    state = project_pi(*_poly_bigM(q, dict.fromkeys(mlq_module._ball_systems(m), poly(1)), trail))
    return trail, state


class TestPackedComposition:
    """The packed composition against the `Poly` one it replaced."""

    @pytest.mark.parametrize("q", ORACLE_QS, ids=str)
    def test_mlq_state_equals_the_poly_oracle(self, q):
        # numerators over prod (v^k - u^k t^j) are the oracle's over
        # prod (1 - q^k t^j) times prod v^{k l}, on every basic sector with L <= 5
        for m in SMALL_SECTORS:
            trail, oracle = _oracle_run(m, q)
            scale = 1
            for k, li, _, _ in trail:
                scale *= q.denominator ** (k * li)
            state = mlq_state(m, q)
            assert state.nums == {c: v.scale(scale) for c, v in oracle.nums.items()}
            assert state.den == oracle.den.scale(scale)

    @pytest.mark.parametrize("q", ORACLE_QS, ids=str)
    def test_bound_covers_every_numerator(self, q, monkeypatch):
        # the a priori L1 bound, applied one application at a time, covers the
        # largest integer coefficient after each; B is derived from its end value
        widths = []
        apply = mlq_module._apply_mcheck_at

        def recording(u, v, vec, pos, B):
            widths.append(B)
            return apply(u, v, vec, pos, B)

        monkeypatch.setattr(mlq_module, "_apply_mcheck_at", recording)
        u, v = q.numerator, q.denominator
        for m in SMALL_SECTORS:
            trail, widths[:] = _oracle_run(m, q)[0], []
            bound, scale = 1, 1
            for k, li, lj, nums in trail:
                bound *= _growth(u**k, v**k, m.L, li, lj)
                scale *= v ** (k * li)
                largest = max(abs(c * scale) for p in nums.values() for c in p.coeffs)
                assert largest <= bound
            mlq_state(m, q)
            assert set(widths) <= {bound.bit_length() + 1} and len(widths) == len(trail)

    def test_no_poly_arithmetic_inside_the_operator(self, monkeypatch):
        # on (2,1,3) the images and their application are int arithmetic alone
        inside = []
        for name in ("_apply_mcheck_at", "_pairing_images"):
            fn = getattr(mlq_module, name)

            def flagged(*args, fn=fn):
                inside.append(1)
                try:
                    return fn(*args)
                finally:
                    inside.pop()

            monkeypatch.setattr(mlq_module, name, flagged)
        for op in ("__mul__", "__add__"):
            fn = getattr(Poly, op)

            def guarded(self, other, fn=fn, op=op):
                assert not inside, f"Poly.{op} inside the pairing operator"
                return fn(self, other)

            monkeypatch.setattr(Poly, op, guarded)
        _pairing_images.cache_clear()
        for q in (Fraction(1), Fraction(2, 5)):
            assert mlq_state(Multiplicity((2, 1, 3)), q).nums


def _colors_of(rec: MLQRecord):
    colors = {c: set() for c in range(1, len(rec.rows) + 1)}
    for site, value in enumerate(rec.config):
        if value:
            colors[value].add(site)
    return colors


class TestProjection:
    def test_two_color_fixture(self):
        out = project_pi({((1, 0, 0), (0, 0, 1)): poly(1)})
        assert out.values == {(1, 0, 2): rf(poly(1))}

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            project_pi({((1, 0, 0), (1, 0, 1)): poly(1)})

    def test_pipeline_support(self):
        m = Multiplicity((1, 2, 1))
        state = mlq_state(m, Fraction(1))
        basis = SectorBasis(m)
        assert set(state.values) <= set(basis.configs)
        assert RF_ZERO not in state.values.values()


class TestMlqState:
    def test_four_site_fixture(self):
        # proportional to (1+t)^2|1012> + (1+t+2t^2)|1021> + (2+t+t^2)|2011>
        state = mlq_state(Multiplicity((1, 2, 1)), Fraction(1))
        # v[c] / v[1012] == p_c / p1012, cross-multiplied
        v = state.values
        ref, p1012 = v[(1, 0, 1, 2)], poly(1, 2, 1)
        for config, p in (((1, 0, 2, 1), poly(1, 1, 2)), ((2, 0, 1, 1), poly(2, 1, 1))):
            assert v[config].num * ref.den * p1012 == p * ref.num * v[config].den

    def test_single_species_uniform(self):
        for counts in [(2, 1), (2, 2), (1, 3)]:
            state = mlq_state(Multiplicity(counts), Fraction(1))
            vals = set(state.values.values())
            assert len(vals) == 1
            assert len(state.values) == state.basis.dim

    def test_matches_kernel(self):
        m = Multiplicity((2, 1, 1))
        assert mlq_state(m, Fraction(1)).canonical() == stationary_kernel(m)

    def test_cyclic_invariance_at_unit_q(self):
        state = mlq_state(Multiplicity((1, 2, 1)), Fraction(1))
        for c, v in state.values.items():
            assert state.values[cyclic_shift(c)] == v

    def test_non_basic_rejected(self):
        with pytest.raises(ValueError):
            mlq_state(Multiplicity((0, 2, 1)), Fraction(1))

    def test_no_enumeration_and_one_ratfunc_per_key(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("pairings enumerated")

        monkeypatch.setattr(mlq_module, "enumerate_pairings", forbidden)
        monkeypatch.setattr(mlq_module, "pairing_weight", forbidden)
        built = []
        init = RatFunc.__init__

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(RatFunc, "__init__", counting_init)
        _pairing_images.cache_clear()
        state = mlq_state(Multiplicity((2, 1, 2)), Fraction(3, 7))
        assert built == []
        values = state.values
        assert state.values is values
        assert len(built) == len(values) == len(state.nums) > 0

    def test_one_sector_fits_the_image_cache(self):
        # (3,1,3) needs the most images of the regression sectors, 1,225
        _pairing_images.cache_clear()
        mlq_state(Multiplicity((3, 1, 3)), Fraction(1))
        info = _pairing_images.cache_info()
        assert info.misses == info.currsize  # nothing was evicted


@pytest.mark.extended
@pytest.mark.parametrize("counts", [(2, 2, 1, 1, 1), (1, 1, 1, 1, 1, 1)], ids=str)
def test_matches_kernel_on_extended_sectors(counts):
    m = Multiplicity(counts)
    assert mlq_state(m).canonical() == stationary_kernel(m)


def _trace_state(m, q):
    """Oracle for `mlq_state` at any q: the pairing rounds composed as in
    `bigM_apply`, with each image a of a row pair (i, j) weighted by the
    strange five-vertex trace `s_element` instead of the pairing sums."""
    n, L = m.n, m.L
    vec = dict.fromkeys(mlq_module._ball_systems(m), rf(poly(1)))
    for j in range(1, n):
        for r in range(n, j, -1):
            qeff, pos = q ** (n - r + 1), n - r
            out = {}
            for key, w in vec.items():
                lower, upper = key[pos], key[pos + 1]
                for cols in combinations([c for c in range(L) if upper[c]], sum(lower)):
                    a = row_from_cols(cols, L)
                    b = tuple(u - x for u, x in zip(upper, a))
                    nkey = key[:pos] + (b, a) + key[pos + 2:]
                    s = s_element(qeff, lower, upper, a, b)
                    out[nkey] = out.get(nkey, rf(poly())) + RatFunc(w.num * s.num, w.den * s.den)
            vec = out
    state = {}
    for key, w in vec.items():
        config = tuple(sum(c * row[s] for c, row in enumerate(key, 1)) for s in range(L))
        state[config] = state.get(config, rf(poly())) + w
    return {c: v for c, v in state.items() if v != RF_ZERO}


class TestQueueTraceIdentity:
    """The sector vector from strange five-vertex traces equals the
    multiline-queue sum at q != 1, sector by sector."""

    SECTORS = [
        m for L in range(2, 6) for n in range(1, min(L, 3 if L == 5 else L))
        for m in basic_multiplicities(n, L)
    ]

    @pytest.mark.parametrize("q", [Fraction(2, 5), Fraction(-3, 7)])
    @pytest.mark.parametrize("m", SECTORS, ids=lambda m: ",".join(map(str, m.counts)))
    def test_traces_compose_to_mlq_state(self, m, q):
        assert _trace_state(m, q) == mlq_state(m, q).values

    def test_rank_three_five_sites(self):
        m, q = Multiplicity((2, 1, 1, 1)), Fraction(2, 5)
        assert _trace_state(m, q) == mlq_state(m, q).values


def _records_digest(qs):
    """sha256 over every record of iter_mlqs on three sectors, in order."""
    digest = hashlib.sha256()
    for counts in [(1, 2, 1), (2, 1, 1, 1), (2, 2, 1)]:
        for q in qs:
            for rec in iter_mlqs(Multiplicity(counts), q):
                record = [rec.rows, rec.arrows, rec.weight.to_json(), rec.config]
                digest.update(json.dumps(record).encode())
    return digest.hexdigest()


# recorded while iter_mlqs still multiplied reduced RatFuncs; at q = -1 the
# rank-3 sectors also pair at q^2 = 1, where (1 - t) cancels
RECORD_DIGESTS = {
    Fraction(-1): "64ab962d7af5b0eef6bef50907cc18c7e2b9b41d6fb2243f2bcb1c8353556e83",
    Fraction(1, 3): "7919e171824b327e765902d13100daa7467c6b9f733e27697c0cee549762884f",
}


class TestDirectEnumeration:
    @pytest.mark.parametrize("counts", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)])
    def test_agrees_with_operator_pipeline(self, counts):
        q = random_point(77)
        m = Multiplicity(counts)
        direct = mlq_enumerate_direct(m, q)
        operator = mlq_state(m, q)
        keys = set(direct.values) | set(operator.values)
        for c in keys:
            assert direct.values.get(c) == operator.values.get(c)

    def test_weight_table_coefficient(self):
        # the |2011> coefficient at generic q is 1 + (1-t)/(1 - q t^3)
        q = Fraction(2, 9)
        direct = mlq_enumerate_direct(Multiplicity((1, 2, 1)), q)
        expected = rf(poly(1)) + RatFunc(one_minus_t_pow(1), Poly((1, 0, 0, -q)))
        assert direct.values[(2, 0, 1, 1)] == expected

    def test_single_species_uniform(self):
        direct = mlq_enumerate_direct(Multiplicity((2, 2)), Fraction(1))
        assert set(direct.values.values()) == {rf(poly(1))}

    def test_records_match_the_recorded_digest(self):
        # recorded before iter_mlqs walked the rounds over `enumerate_pairings`
        assert _records_digest((Fraction(1), Fraction(2, 5))) == (
            "3ecc0573099435d02e55c958f6b7ae9cf61f2f8051827592aa00a2e1e1c85e66"
        )

    @pytest.mark.parametrize("q", list(RECORD_DIGESTS))
    def test_records_at_more_q_match_the_recorded_digest(self, q):
        assert _records_digest((q,)) == RECORD_DIGESTS[q]

    def test_cancelling_against_minus_one_breaks_the_digest(self, monkeypatch):
        # a wrong rule that also cancels (1 - t) against factors at qe = -1,
        # as if 1 + t^j were 1 - t^j, changes the records at q = -1 (where
        # every qe is 1 or -1, so abs changes exactly the factors at -1)
        exact = mlq_module._weight_ratfunc

        def wrong(w):
            coeff, tpow, factors = w
            return exact((coeff, tpow, tuple(sorted((abs(qe), j) for qe, j in factors))))

        monkeypatch.setattr(mlq_module, "_weight_ratfunc", wrong)
        assert _records_digest((Fraction(-1),)) != RECORD_DIGESTS[Fraction(-1)]

    def test_queues_are_walked_over_enumerate_pairings(self, monkeypatch):
        # (1,2,1) has 4 * 4 ball diagrams and one row step each, and every
        # queue is one pairing outcome with its weight: the lone lower ball
        # pairs trivially unless the hole of the upper row is above it
        calls = {"enumerate_pairings": 0, "pairing_weight": 0}

        def counted(name):
            fn = getattr(mlq_module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(mlq_module, name, counted(name))
        records = list(iter_mlqs(Multiplicity((1, 2, 1)), Fraction(1)))
        assert calls == {"enumerate_pairings": 16, "pairing_weight": len(records)}
        assert len(records) == 12 * 1 + 4 * 3
