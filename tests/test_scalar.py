import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from asepx.scalar import (
    LIFT_BOUND,
    P,
    RANDOM_POINT_BOUND,
    RF_ZERO,
    Poly,
    RatFunc,
    lift_polys,
    lift_residue,
    pade_mod_p,
    poly_gcd,
    random_point,
    residue,
    signed_residue,
    taylor_shift_mod_p,
    unpack,
)

from conftest import one_minus_t_pow, poly, rf


class TestNormalize:
    def test_common_factor_cancels(self):
        # (t^2 - 1)/(t - 1) -> (t + 1)/1
        f = RatFunc(poly(-1, 0, 1), poly(-1, 1))
        assert f == rf(poly(1, 1))

    def test_zero_numerator(self):
        f = RatFunc(Poly(), poly(3, 7))
        assert f.num == Poly() and f.den == poly(1)

    def test_repeated_factor_long_division(self):
        # (1-t)^2 / ((1-t)(1-t^2)); dividing out gcd (1-t)^2 by hand
        # leaves 1 / (1+t) in monic form.
        num = one_minus_t_pow(1) * one_minus_t_pow(1)
        den = one_minus_t_pow(1) * one_minus_t_pow(2)
        f = RatFunc(num, den)
        assert f == rf(poly(1), poly(1, 1))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(poly(1), Poly())

    def test_monic_denominator_and_reduced(self):
        rng = random.Random(5)
        for _ in range(40):
            a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            if b.is_zero():
                continue
            f = RatFunc(a, b)
            assert f.den.leading() in (Fraction(0), Fraction(1))
            if not f.num.is_zero():
                assert poly_gcd(f.num, f.den).degree == 0

    def test_scaling_invariance(self):
        rng = random.Random(11)
        for _ in range(40):
            a = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            b = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            c = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            if b.is_zero() or c.is_zero():
                continue
            assert RatFunc(a * c, b * c) == RatFunc(a, b)


_small_ints = st.lists(st.integers(-9, 9), max_size=4)


def _value(f: RatFunc, t0: Fraction) -> Fraction:
    return f.num.eval(t0) / f.den.eval(t0)


class TestEval:
    def test_constant_term(self):
        f = rf(poly(2, 1), poly(1, 0, -1))
        assert _value(f, Fraction(0)) == 2

    def test_geometric_value(self):
        f = rf(poly(1), poly(1, -1))
        assert _value(f, Fraction(1, 2)) == 2

    def test_direct_rational_arithmetic(self):
        # (1-t)^2 (1+t^2) / ((1-t^2)(1-t^3)) at t = 1/3, oracle = plain
        # Fraction arithmetic on the factors.
        t = Fraction(1, 3)
        expected = ((1 - t) ** 2 * (1 + t * t)) / ((1 - t * t) * (1 - t**3))
        f = rf(
            one_minus_t_pow(1) * one_minus_t_pow(1) * poly(1, 0, 1),
            one_minus_t_pow(2) * one_minus_t_pow(3),
        )
        assert _value(f, t) == expected == Fraction(15, 26)


def _random_ratfunc(rng) -> RatFunc:
    num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))])
    den = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))])
    if den.is_zero():
        den = poly(1)
    return RatFunc(num, den)


class TestFieldAxioms:
    def test_random_triples(self):
        rng = random.Random(7)
        for _ in range(40):
            a, b, c = (_random_ratfunc(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            s = b + c
            assert RatFunc(a.num * s.num, a.den * s.den) == RatFunc(
                a.num * b.num, a.den * b.den
            ) + RatFunc(a.num * c.num, a.den * c.den)
            assert a + RatFunc(-a.num, a.den) == RF_ZERO
            if a != RF_ZERO:
                assert RatFunc(a.num * a.den, a.den * a.num) == rf(poly(1))


class TestRandomPoint:
    def test_deterministic(self):
        assert random_point(1) == random_point(1)

    def test_distinct_seeds(self):
        values = {random_point(seed) for seed in range(1, 1001)}
        assert len(values) == 1000

    def test_avoids_degenerate_values(self):
        for seed in range(1, 200):
            v = random_point(seed)
            assert v not in (0, 1, -1)
            assert abs(v.numerator) <= 10**6 and v.denominator <= 10**6

    def test_reduction_mod_p_is_injective(self):
        # a/b = c/d mod P means P | ad - bc, and |ad - bc| <= 2 B^2; the
        # numerator of x - t y is at most 2 B^3, so it is 0 mod P only if 0
        assert RANDOM_POINT_BOUND**2 < P
        assert 2 * RANDOM_POINT_BOUND**3 < P
        points = {random_point(seed) for seed in range(1, 1001)}
        assert len({residue(v) for v in points}) == len(points)
        for v in points:
            assert residue(v) * v.denominator % P == v.numerator % P

    def test_signed_residue_has_least_absolute_value(self):
        for v in (0, 1, -1, 7, -7, P // 2, -(P // 2)):
            assert signed_residue(v % P) == v

    def test_respects_avoid_set(self):
        first = random_point(42)
        again = random_point(42, avoid={first})
        assert again != first


class TestJson:
    def test_poly_roundtrip(self):
        p = poly(3, Fraction(1, 2), 0, -2)
        data = p.to_json()
        assert data == ["3", "1/2", "0", "-2"]

    def test_ratfunc_roundtrip(self):
        f = rf(poly(1, -1), poly(1, 0, 0, -1))
        data = f.to_json()
        assert set(data) == {"num", "den"}

    def test_zero_poly_is_empty_array(self):
        assert Poly().to_json() == []


_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_polys = st.lists(_coeffs, max_size=7).map(Poly)
_nonzero_polys = _polys.filter(bool)
_points = st.fractions(min_value=-5, max_value=5, max_denominator=40)


class TestScalarProperties:
    """The exact divisions of `poly_gcd` and `canonicalize_values` rest on these laws."""

    @settings(max_examples=100, deadline=None)
    @given(_polys, _nonzero_polys)
    def test_divmod_is_euclidean_division(self, a, b):
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    @settings(max_examples=100, deadline=None)
    @given(_polys, _polys, _nonzero_polys)
    def test_gcd_is_monic_common_divisor(self, a, b, c):
        assume(a or b)
        for x, y in ((a, b), (a * c, b * c)):
            g = poly_gcd(x, y)
            assert g.leading() == 1
            assert (x % g).is_zero() and (y % g).is_zero()
        # a planted common factor divides the gcd
        assert (poly_gcd(a * c, b * c) % c).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(_polys, _nonzero_polys, _nonzero_polys)
    def test_ratfunc_cancels_common_factors(self, a, b, c):
        assert RatFunc(a * c, b * c) == RatFunc(a, b)

    @settings(max_examples=100, deadline=None)
    @given(_polys, _polys, _polys, _nonzero_polys, _points)
    def test_eval_is_a_ring_homomorphism(self, a, b, c, d, t0):
        assert (a + b).eval(t0) == a.eval(t0) + b.eval(t0)
        assert (a * b).eval(t0) == a.eval(t0) * b.eval(t0)
        # evaluation mod P is the residue of the exact value
        assert (a * b).residue_at(residue(t0)) == residue((a * b).eval(t0))
        assume(d.eval(t0) != 0)
        f, g = RatFunc(a, d), RatFunc(b * c, d * d)
        assert _value(f + g, t0) == _value(f, t0) + _value(g, t0)
        assert _value(RatFunc(f.num * g.num, f.den * g.den), t0) == _value(f, t0) * _value(g, t0)


def _euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Reference gcd: the monic Euclidean algorithm over the rationals."""
    a, b = a.monic() if a else a, b.monic() if b else b
    while b:
        a, b = b, (a % b)
        if b:
            b = b.monic()
    return a


def _exact(p: Poly) -> bool:
    """Every coefficient an int, or a Fraction that is not integral; never a float."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.coeffs)


def _integral(p: Poly) -> bool:
    return all(type(c) is int for c in p.coeffs)


_int_polys = st.lists(st.integers(-9, 9), max_size=7).map(Poly)
_nonzero_int_polys = _int_polys.filter(bool)


class TestIntFirstCoefficients:
    """Coefficients are ints where integral, and the gcd matches the Euclidean oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_polys, _polys, _nonzero_polys)
    def test_gcd_matches_euclidean_oracle(self, a, b, c):
        for x, y in ((a, b), (a * c, b * c), (c, a * c)):
            g = poly_gcd(x, y)
            assert g == _euclid_gcd(x, y)
            assert _exact(g)

    @settings(max_examples=100, deadline=None)
    @given(_int_polys, _int_polys, _nonzero_int_polys)
    def test_integer_gcd_matches_euclidean_oracle(self, a, b, c):
        assert poly_gcd(a * c, b * c) == _euclid_gcd(a * c, b * c)

    @settings(max_examples=100, deadline=None)
    @given(_polys, _nonzero_polys, _coeffs, st.integers(0, 4))
    def test_no_float_coefficient(self, a, b, s, k):
        q, r = a.divmod(b)
        results = [a + b, a - b, a * b, q, r, a.scale(s), a.shift(k), b.monic(),
                   RatFunc(a, b).num, RatFunc(a, b).den]
        assert all(_exact(p) for p in results)
        assert b.monic().leading() == 1 and b.monic().scale(b.leading()) == b

    @settings(max_examples=100, deadline=None)
    @given(_int_polys, _nonzero_int_polys, st.integers(-9, 9), st.integers(0, 4))
    def test_integer_inputs_stay_int(self, a, b, s, k):
        assert _integral(a) and _integral(b)
        q, r = (a * b).divmod(b)
        assert q == a and not r
        results = [a + b, a - b, a * b, a.scale(s), a.shift(k), q, Poly.t_power(k, s)]
        assert all(_integral(p) for p in results)
        # division by a monic integer divisor is exact at every step
        q, r = a.divmod(b.shift(1) + Poly.t_power(b.degree + 2))
        assert _integral(q) and _integral(r)

    @settings(max_examples=100, deadline=None)
    @given(_int_polys, st.integers(-5, 5))
    def test_eval_at_an_int_is_a_fraction(self, a, t0):
        assert type(a.eval(t0)) is Fraction


class TestModularLayer:
    """The modular helpers of the kernel solver: lifts, Taylor shifts and Pade fits."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-LIFT_BOUND, LIFT_BOUND), st.integers(1, LIFT_BOUND))
    def test_lift_inverts_residue_within_the_bound(self, a, b):
        assert lift_residue(residue(Fraction(a, b))) == Fraction(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, P - 1))
    def test_a_lift_is_congruent_and_within_the_bound(self, v):
        f = lift_residue(v)
        assume(f is not None)
        assert abs(f.numerator) <= LIFT_BOUND and f.denominator <= LIFT_BOUND
        assert residue(f) == v

    def test_lift_polys_clears_denominators(self):
        half, third = residue(Fraction(1, 2)), residue(Fraction(-1, 3))
        assert lift_polys([[half, 1], [third]]) == [Poly((3, 6)), Poly((-2,))]
        assert lift_polys([[1], []]) == [Poly((1,)), Poly(())]

    @settings(max_examples=100, deadline=None)
    @given(_small_ints, st.integers(-50, 50))
    def test_taylor_shift_round_trip(self, coeffs, t0):
        a = [residue(c) for c in Poly(coeffs).coeffs]
        shifted = taylor_shift_mod_p(a, t0)
        assert taylor_shift_mod_p(shifted, -t0) == a
        # the shifted polynomial takes at s the value of a at s + t0
        for s in (0, 1, 7):
            assert Poly(shifted).residue_at(s) == Poly(a).residue_at(s + t0)

    def test_taylor_shift_of_a_square(self):
        # (t + 3)^2 = t^2 + 6t + 9
        assert taylor_shift_mod_p([0, 0, 1], 3) == [9, 6, 1]
        assert taylor_shift_mod_p([9, 6, 1], -3) == [0, 0, 1]
        assert taylor_shift_mod_p([], 3) == [] and taylor_shift_mod_p([0, 0], 3) == []

    @settings(max_examples=100, deadline=None)
    @given(_small_ints, _small_ints.filter(lambda d: d and d[0]))
    def test_pade_fit_recovers_the_fraction(self, num, den):
        f = RatFunc(Poly(num), Poly(den))
        n, d = [residue(c) for c in f.num.coeffs], [residue(c) for c in f.den.coeffs]
        length = 2 * max(len(num), len(den)) + 1
        series = []  # num / den as a power series: den * series = num term by term
        inv = pow(d[0], -1, P)
        for i in range(length):
            known = sum(d[j] * series[i - j] for j in range(1, min(i + 1, len(d))))
            series.append(((n[i] if i < len(n) else 0) - known) * inv % P)
        assert pade_mod_p(series, (length + 1) // 2) == (n, d)

    def test_pade_fit_refuses_a_denominator_that_vanishes_at_zero(self):
        # the series t: a fraction num/den of degrees (0, 1) with den(0) != 0
        # and num = den * t mod t^2 has num = 0, so it is 0, not t
        assert pade_mod_p([0, 1], 1) is None
        assert pade_mod_p([0, 1], 2) == ([0, 1], [1])


def _trimmed(cs: list[int]) -> tuple[int, ...]:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def pack(coeffs, B: int) -> int:
    """The integer polynomial of `coeffs` (lowest degree first) at t = 2**B."""
    return sum(c << B * k for k, c in enumerate(coeffs))


def _product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Schoolbook product of coefficient tuples, independent of `Poly`."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return _trimmed(out)


@st.composite
def _packable(draw):
    """(coefficients with no trailing zero, B) with every |c| < 2**(B-1)."""
    B = draw(st.integers(2, 70))
    edge = (1 << (B - 1)) - 1
    c = st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge, 0]))
    return _trimmed(draw(st.lists(c, max_size=9))), B


class TestKroneckerPacking:
    """`unpack` reads back an integer polynomial stored as its value at t = 2**B (`pack`)."""

    @settings(max_examples=300, deadline=None)
    @given(_packable())
    def test_unpack_inverts_pack_within_the_bound(self, case):
        coeffs, B = case
        assert unpack(pack(coeffs, B), B) == coeffs

    def test_edges(self):
        B = 8
        assert unpack(pack((), B), B) == () and pack((), B) == 0
        assert unpack(pack((127, -127, 0, 127), B), B) == (127, -127, 0, 127)
        assert unpack(pack((5, 0, -3), B), B) == (5, 0, -3)  # a negative leading coefficient
        assert pack((1, 1), B) == 257 and pack((-1, 1), B) == 255
        # the balanced digits reach -2**(B-1), so 128 has no digit of its own
        assert unpack(pack((128,), B), B) == (-128, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-99, 99), max_size=6), st.lists(st.integers(-99, 99), max_size=6))
    def test_pack_is_a_ring_map(self, a, b):
        a, b = _trimmed(a), _trimmed(b)
        prod = _product(a, b)
        total = _trimmed([x + y for x, y in zip(a + (0,) * len(b), b + (0,) * len(a))])
        B = max(map(abs, prod + total + a + b), default=0).bit_length() + 1
        assert pack(a, B) * pack(b, B) == pack(prod, B)
        assert unpack(pack(a, B) * pack(b, B), B) == prod
        assert unpack(pack(a, B) + pack(b, B), B) == total

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 99), min_size=1, max_size=6).filter(any),
           st.lists(st.integers(0, 99), min_size=1, max_size=6).filter(any))
    def test_one_bit_short_garbles_the_product(self, a, b):
        # nonnegative factors: the product's largest coefficient is positive, so
        # at B = its bit length it lies at or above 2**(B-1), outside every digit
        a, b = _trimmed(a), _trimmed(b)
        prod = _product(a, b)
        B = max(prod).bit_length()
        assume(B >= 2)
        assert unpack(pack(a, B) * pack(b, B), B) != prod
        assert unpack(pack(a, B + 1) * pack(b, B + 1), B + 1) == prod
