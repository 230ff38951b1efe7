import random
from fractions import Fraction
from itertools import product

import pytest

import asepx.ctm as ctm
from asepx.asep_core import Multiplicity, SectorBasis, cyclic_shift, stationary_kernel
from asepx.ctm import (
    XOperator,
    XTerm,
    build_T,
    build_X,
    check_recursion,
    mp_stationary,
    mp_trace,
)
from asepx.oscillator import DivergentTraceError, FockTruncation, trace_pem
from asepx.scalar import Poly, RatFunc, random_point

from conftest import fock_action, one_minus_t_pow, poly, rf, sparse


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
            entry = tm.get(key)
            assert entry is not None
            assert (entry.zdeg, sparse(entry.words)) == (zdeg, words), key
        for key in zeros:
            assert tm.get(key) is None

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
            entry = tm.get(key)
            assert entry is not None, key
            assert (entry.zdeg, sparse(entry.words)) == (zdeg, words), key
        for i in range(4):
            for j in range(1, i + 1):
                assert tm.get((i, j)) is None

    def test_rank_one(self):
        tm = build_T(1)
        assert (tm[(0, 0)].zdeg, tm[(0, 0)].words) == (0, ())
        assert (tm[(0, 1)].zdeg, tm[(0, 1)].words) == (1, ())


def _term_set(x):
    return {(t.zdeg, sparse(t.words)) for t in x.terms}


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
                    assert tm.get((i, alpha)) is None


def truncated_matrix(terms, nmodes, dim, t0=None):
    """Explicit truncated matrix {(row state, col state): coeff} of sum_k c_k words_k.

    A state lists the levels of modes 1..nmodes, each below `dim`.  The
    coefficients are Polys in t when t0 is None, else Fractions at t0.
    """
    out = {}
    for col in product(range(dim), repeat=nmodes):
        for coeff, words in terms:
            row = []
            for word, d in zip(words, col, strict=True):
                d2, c = fock_action(word, d, dim)
                coeff = coeff * (c if t0 is None else c.eval(t0))
                row.append(d2)
            if coeff:
                key = (tuple(row), col)
                out[key] = out[key] + coeff if key in out else coeff
    return {k: v for k, v in out.items() if v}


def exact_terms(x, z0, t0):
    """The operator's terms with exact coefficients at (z, t) = (z0, t0)."""
    return [(t.coeff.eval(t0) * z0**t.zdeg, t.words) for t in x.terms]


def recursion_by_composition(n, z0, t0, dim):
    """The rank recursion compared entrywise on the safe window, both sides
    built as explicit truncated matrices, the right one by composing the
    matrices of T_{i a} (acting first) and of the embedded X~_i."""
    nmodes = n * (n - 1) // 2
    window = FockTruncation(dim).safe_window(2)
    tmat = build_T(n)

    def on_window(mat):
        return {k: v for k, v in mat.items() if max(k[0] + k[1], default=0) <= window}

    for alpha in range(n + 1):
        terms = exact_terms(ctm.build_X(n, alpha), z0, t0)
        lhs = truncated_matrix(terms, nmodes, dim, t0)
        rhs = {}
        for i in range(n):
            tentry = tmat.get((i, alpha))
            if tentry is None:
                continue
            # T acts on the first n-1 modes, the embedded X~_i on the rest
            rest = ((),) * (nmodes - n + 1)
            tm = truncated_matrix(
                [(z0**tentry.zdeg, tentry.words + rest)], nmodes, dim, t0)
            shifted = [(c, ((),) * (n - 1) + words)
                       for c, words in exact_terms(ctm.build_X(n - 1, i), z0, t0)]
            by_col = {}
            for (row, mid), c2 in truncated_matrix(shifted, nmodes, dim, t0).items():
                by_col.setdefault(mid, []).append((row, c2))
            for (mid, col), c1 in tm.items():
                for row, c2 in by_col.get(mid, ()):
                    rhs[(row, col)] = rhs.get((row, col), 0) + c1 * c2
        if on_window(lhs) != on_window({k: v for k, v in rhs.items() if v}):
            return False
    return True


class TestXMatrix:
    def test_diagonal_action(self):
        x = build_X(2, 1)
        mat = truncated_matrix([(t.coeff, t.words) for t in x.terms], x.nmodes, 5)
        assert mat == {((d,), (d,)): Poly((0,) * d + (1,)) for d in range(5)}

    def test_identity_plus_subdiagonal(self):
        x = build_X(2, 0)
        mat = truncated_matrix([(t.coeff, t.words) for t in x.terms], x.nmodes, 5)
        expected = {((d,), (d,)): poly(1) for d in range(5)}
        expected.update({((d + 1,), (d,)): poly(1) for d in range(4)})
        assert mat == expected

    def test_recursion_at_random_points(self):
        for n, k in product((2, 3), range(3)):
            z0 = random_point(500 + 2 * k)
            t0 = random_point(501 + 2 * k)
            assert check_recursion(n, z0, t0, FockTruncation(6))
            assert recursion_by_composition(n, z0, t0, 6)

    def test_doubled_term_fails_both_recursion_checks(self, monkeypatch):
        z0, t0 = random_point(510), random_point(511)
        exact = ctm.build_X
        for alpha in range(4):
            for k in range(len(exact(3, alpha).terms)):
                def mutated(n, a, alpha=alpha, k=k):
                    x = exact(n, a)
                    if (n, a) != (3, alpha):
                        return x
                    terms = list(x.terms)
                    t = terms[k]
                    terms[k] = XTerm(t.zdeg, t.words, t.coeff.scale(2))
                    return XOperator(x.n, x.nmodes, tuple(terms))

                monkeypatch.setattr(ctm, "build_X", mutated)
                assert not check_recursion(3, z0, t0, FockTruncation(6)), (alpha, k)
                assert not recursion_by_composition(3, z0, t0, 6), (alpha, k)


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
    for key, coeff in ctm._balanced_terms(sigma).items():
        value = RatFunc(coeff)
        for p, e, _ in key:
            value = value * trace_pem(p, e, Fraction(1))
        total = total + value
    return total


class TestOrbitReduction:
    def test_one_trace_per_cyclic_orbit(self, monkeypatch):
        traced = []

        def counting(sigma):
            traced.append(sigma)
            return mp_trace(sigma)

        monkeypatch.setattr(ctm, "mp_trace", counting)
        got = mp_stationary(Multiplicity((2, 1, 1, 1))).canonical()
        monkeypatch.undo()
        assert len(traced) == 12 == len(set(traced))
        assert got == stationary_kernel(Multiplicity((2, 1, 1, 1)))

    def test_canonicalized_once(self, monkeypatch):
        import asepx.asep_core as core
        import asepx.mlq as mlq

        calls = []
        canonicalize = core.canonicalize_values

        def counting(basis, values):
            calls.append(basis)
            return canonicalize(basis, values)

        for module in (core, mlq, ctm):
            monkeypatch.setattr(module, "canonicalize_values", counting, raising=False)
        got = mp_stationary(Multiplicity((2, 1, 1))).canonical()
        assert len(calls) == 1
        assert got == _expand(4, {"0012": (3, 1), "0102": (2, 2), "1002": (1, 3)})

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
