import random
from fractions import Fraction

import pytest

import asepx.ctm as ctm
from asepx.asep_core import Multiplicity, SectorBasis, cyclic_shift, stationary_kernel
from asepx.ctm import (
    XTerm,
    build_T,
    build_X,
    check_recursion,
    mp_stationary,
    mp_trace,
    x_matrix,
)
from asepx.oscillator import DivergentTraceError, FockTruncation, trace_pem
from asepx.scalar import Poly, RatFunc, random_point

from conftest import one_minus_t_pow, poly, rf


def W(pattern: str):
    """Mode words from a compact pattern like '+1 -2 k3'."""
    out = {}
    for part in pattern.split():
        letter, mode = part[0], int(part[1:])
        out[mode] = out.get(mode, ()) + (letter,)
    return tuple(sorted(out.items()))


class TestBuildT:
    def test_rank_three(self):
        tm = build_T(3)
        expected = {
            (0, 0): (0, W("")),
            (0, 1): (1, W("k1 k2")),
            (0, 2): (1, W("-1 k2")),
            (0, 3): (1, W("-2")),
            (1, 0): (0, W("+1")),
            (1, 2): (1, W("k2")),
            (1, 3): (1, W("+1 -2")),
            (2, 0): (0, W("+2")),
            (2, 3): (1, W("")),
        }
        zeros = {(1, 1), (2, 1), (2, 2)}
        for key, (zdeg, words) in expected.items():
            entry = tm.entry(*key)
            assert entry is not None
            assert (entry.zdeg, entry.words) == (zdeg, words), key
        for key in zeros:
            assert tm.entry(*key) is None

    def test_rank_four(self):
        tm = build_T(4)
        expected = {
            (0, 0): (0, W("")),
            (0, 1): (1, W("k1 k2 k3")),
            (0, 2): (1, W("-1 k2 k3")),
            (0, 3): (1, W("-2 k3")),
            (0, 4): (1, W("-3")),
            (1, 0): (0, W("+1")),
            (1, 2): (1, W("k2 k3")),
            (1, 3): (1, W("+1 -2 k3")),
            (1, 4): (1, W("+1 -3")),
            (2, 0): (0, W("+2")),
            (2, 3): (1, W("k3")),
            (2, 4): (1, W("+2 -3")),
            (3, 0): (0, W("+3")),
            (3, 4): (1, W("")),
        }
        for key, (zdeg, words) in expected.items():
            entry = tm.entry(*key)
            assert entry is not None, key
            assert (entry.zdeg, entry.words) == (zdeg, words), key
        for i in range(4):
            for j in range(1, i + 1):
                assert tm.entry(i, j) is None

    def test_rank_one(self):
        tm = build_T(1)
        assert (tm.entry(0, 0).zdeg, tm.entry(0, 0).words) == (0, ())
        assert (tm.entry(0, 1).zdeg, tm.entry(0, 1).words) == (1, ())


def _term_set(x):
    return {(t.zdeg, t.words) for t in x.terms}


class TestBuildX:
    def test_rank_two(self):
        assert _term_set(build_X(2, 0)) == {(0, W("")), (1, W("+1"))}
        assert _term_set(build_X(2, 1)) == {(1, W("k1"))}
        assert _term_set(build_X(2, 2)) == {(1, W("-1")), (2, W(""))}

    def test_rank_three_term_lists(self):
        expected = {
            0: {(0, W("")), (1, W("+1 k3")), (1, W("+2 -3")), (1, W("+3")),
                (2, W("+2"))},
            1: {(1, W("k1 k2")), (2, W("k1 k2 +3"))},
            2: {(1, W("-1 k2")), (2, W("-1 k2 +3")), (2, W("k2 k3"))},
            3: {(1, W("-2")), (2, W("-2 +3")), (2, W("-3")),
                (2, W("+1 -2 k3")), (3, W(""))},
        }
        total = 0
        for alpha, terms in expected.items():
            x = build_X(3, alpha)
            assert _term_set(x) == terms, alpha
            total += len(x.terms)
        assert total == 15

    def test_base_ranks(self):
        assert _term_set(build_X(0, 0)) == {(0, ())}
        assert _term_set(build_X(1, 0)) == {(0, ())}
        assert _term_set(build_X(1, 1)) == {(1, ())}

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            build_X(2, 3)

    def test_triangular_column_support(self):
        # for alpha >= 1 only embedded operators with i < alpha survive
        for n in (2, 3, 4):
            tm = build_T(n)
            for alpha in range(1, n + 1):
                for i in range(alpha, n):
                    assert tm.entry(i, alpha) is None


class TestXMatrix:
    def test_diagonal_action(self):
        mat = x_matrix(build_X(2, 1), Fraction(1), FockTruncation(5))
        for d in range(5):
            assert mat[d][d] == RatFunc(Poly((0,) * d + (1,)))
        for r in range(5):
            for c in range(5):
                if r != c:
                    assert mat[r][c].is_zero()

    def test_identity_plus_subdiagonal(self):
        mat = x_matrix(build_X(2, 0), Fraction(1), FockTruncation(5))
        for d in range(5):
            assert mat[d][d] == rf(poly(1))
        for d in range(4):
            assert mat[d + 1][d] == rf(poly(1))

    def test_recursion_at_random_points(self):
        trunc = FockTruncation(6)
        for k in range(3):
            z0 = random_point(500 + 2 * k)
            t0 = random_point(501 + 2 * k)
            assert check_recursion(3, z0, t0, trunc)


class TestMpTrace:
    def test_hand_expansion_012(self):
        # tr(k) + tr(a+ k a-) = 1/(1-t) + 1/(1-t^2)
        expected = rf(poly(1), one_minus_t_pow(1)) + rf(
            poly(1), one_minus_t_pow(2)
        )
        assert mp_trace((0, 1, 2)) == expected

    def test_hand_expansion_021(self):
        # tr(k) + tr(a+ a- k) = 1/(1-t) + (1/(1-t) - 1/(1-t^2))
        base = rf(poly(1), one_minus_t_pow(1))
        expected = base + base - rf(poly(1), one_minus_t_pow(2))
        assert mp_trace((0, 2, 1)) == expected

    def test_ratio_fixture(self):
        ratio = mp_trace((0, 1, 2)) / mp_trace((0, 2, 1))
        assert ratio == rf(poly(2, 1), poly(1, 2))

    def test_cyclicity(self):
        rng = random.Random(6)
        for counts in [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (1, 2, 1)]:
            m = Multiplicity(counts)
            symbols = []
            for value, count in enumerate(counts):
                symbols += [value] * count
            for _ in range(4):
                rng.shuffle(symbols)
                sigma = tuple(symbols)
                assert mp_trace(sigma) == mp_trace(cyclic_shift(sigma))

    def test_divergence_guard_on_non_basic_input(self):
        with pytest.raises(DivergentTraceError):
            mp_trace((0, 2))


def _per_key_trace(sigma):
    """Oracle: the trace summed monomial by monomial as reduced rational functions."""
    total = RatFunc(Poly())
    for key, coeff in ctm._balanced_terms(sigma, Fraction(1)).items():
        value = RatFunc(coeff)
        for p, e, _ in key:
            value = value * trace_pem(p, e, Fraction(1))
        total = total + value
    return total


class TestOrbitReduction:
    def test_one_trace_per_cyclic_orbit(self, monkeypatch):
        traced = []

        def counting(sigma, z0=Fraction(1)):
            traced.append(sigma)
            return mp_trace(sigma, z0)

        monkeypatch.setattr(ctm, "mp_trace", counting)
        got = mp_stationary(Multiplicity((2, 1, 1, 1))).canonical()
        monkeypatch.undo()
        assert len(traced) == 12 == len(set(traced))
        assert got == stationary_kernel(Multiplicity((2, 1, 1, 1)))

    def test_common_denominator_matches_per_key_sum(self):
        configs = [*SectorBasis(Multiplicity((1, 1, 1, 1))).configs,
                   *SectorBasis(Multiplicity((2, 1, 1))).configs,
                   (0, 1, 2), (0, 2, 1)]
        for sigma in configs:
            assert mp_trace(sigma) == _per_key_trace(sigma), sigma


def _expand(L, xi):
    out = {}
    for s, coeffs in xi.items():
        c = tuple(int(ch) for ch in s)
        for _ in range(L):
            out[c] = out.get(c, Poly()) + poly(*coeffs)
            c = cyclic_shift(c)
    return out


class TestMpStationary:
    def test_four_site_fixture(self):
        got = mp_stationary(Multiplicity((2, 1, 1))).canonical()
        assert got == _expand(
            4, {"0012": (3, 1), "0102": (2, 2), "1002": (1, 3)}
        )

    def test_three_species_fixture(self):
        got = mp_stationary(Multiplicity((1, 1, 1, 1))).canonical()
        expected = _expand(
            4,
            {
                "0123": (9, 7, 7, 1),
                "0213": (3, 11, 5, 5),
                "1023": (3, 9, 9, 3),
                "1203": (5, 5, 11, 3),
                "2013": (3, 9, 9, 3),
                "2103": (1, 7, 7, 9),
            },
        )
        assert got == expected

    @pytest.mark.parametrize("counts", [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2, 1)])
    def test_matches_kernel(self, counts):
        m = Multiplicity(counts)
        assert mp_stationary(m).canonical() == stationary_kernel(m)

    def test_single_species_uniform(self):
        got = mp_stationary(Multiplicity((2, 2))).canonical()
        assert set(got.values()) == {poly(1)}

    def test_totally_asymmetric_specialization(self):
        got = mp_stationary(Multiplicity((1, 1, 1))).canonical()
        assert got[(0, 1, 2)].eval(Fraction(0)) == 2
        assert got[(0, 2, 1)].eval(Fraction(0)) == 1
