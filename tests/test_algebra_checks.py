import hashlib
import importlib
import json
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from asepx.algebra_checks import (
    _products,
    build_calL,
    check_L0_oscillator,
    check_LtT,
    check_hat,
    check_ms_theorem,
    check_quasi_periodicity,
    check_rll,
    check_rtt,
    check_ybe,
    check_zf,
    compositions,
    hat_operators,
    l_element,
    r_element,
    r_value,
    run_check,
    verify_stationary,
)
from asepx.asep_core import Multiplicity, stationary_kernel
from asepx.ctm import _x_eval_terms, build_X, check_recursion
from asepx.mlq import _pairing_images
from asepx.oscillator import (
    FockTruncation,
    _direct_witness,
    multimode_sum_is_zero,
    multimode_words_mul,
    trace_pem,
)
from asepx.scalar import P, RF_ZERO, Poly, RatFunc, random_point, residue

from conftest import poly, rf, sparse


def _scaled_r(doubled):
    """Wrap `r_element` so that the entries (a, b, i, j) `doubled` picks
    carry twice their numerator."""

    def wrap(exact):
        def scaled(z, a, b, i, j):
            num, den = exact(z, a, b, i, j)
            return (num.scale(2), den) if doubled(a, b, i, j) else (num, den)

        return scaled

    return wrap


_doubled_r = _scaled_r(lambda *abij: True)
# a uniformly doubled R cancels from both sides of RTT = TTR, so only
# the swap entries (a, b) = (j, i), i != j, are doubled
_swap_doubled_r = _scaled_r(lambda a, b, i, j: (a, b) == (j, i) and i != j)
# qp compares each entry with its index shift, so one doubled entry
# fails the two components that read it
_doubled_r01_10 = _scaled_r(lambda *abij: abij == (0, 1, 1, 0))


def _doubled_hat_term(alpha, k):
    def wrap(exact):
        def doubled(n):
            ops = exact(n)
            terms = list(ops[alpha].terms)
            terms[k] = replace(terms[k], coeff=terms[k].coeff.scale(2))
            ops[alpha] = replace(ops[alpha], terms=tuple(terms))
            return ops

        return doubled

    return wrap


def _s_weight_0011_is_one(exact):
    return lambda *key: () if key == (0, 0, 1, 1) else exact(*key)


def r_rat(*args) -> RatFunc:
    """`r_element` reduced, the oracle form of R's entry."""
    return RatFunc(*r_element(*args))


class TestRMatrix:
    def test_equal_quadruple_is_one(self):
        z = Fraction(2, 5)
        for a in range(3):
            assert r_rat(z, a, a, a, a) == rf(poly(1))

    def test_entries_are_unreduced_over_one_minus_zt(self):
        z = Fraction(2, 5)
        for a, b, i, j in product(range(3), repeat=4):
            num, den = r_element(z, a, b, i, j)
            assert den in (poly(1), poly(1, -z))
            assert num.is_zero() == (r_rat(z, a, b, i, j) == RF_ZERO)

    def test_unit_argument_is_transposition(self):
        z = Fraction(1)
        for i, j in product(range(3), repeat=2):
            for a, b in product(range(3), repeat=2):
                v = r_rat(z, a, b, i, j)
                if (a, b) == (j, i):
                    assert v == rf(poly(1))
                else:
                    assert v == RF_ZERO

    def test_column_sums_are_one(self):
        z = Fraction(3, 7)
        n = 3
        for g, d in product(range(n + 1), repeat=2):
            total = RatFunc(Poly())
            for a, b in product(range(n + 1), repeat=2):
                total = total + r_rat(z, a, b, g, d)
            assert total == rf(poly(1))

    def test_swap_asymmetry_exponents(self):
        z = Fraction(2, 9)
        t = Fraction(1, 5)
        # hopping against the order carries the spectral factor
        assert r_value(z, residue(t), 1, 0, 0, 1) == residue((1 - t) / (1 - t * z))
        assert r_value(z, residue(t), 0, 1, 1, 0) == residue((1 - t) * z / (1 - t * z))


class TestYangBaxter:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_points(self, n):
        for k in range(3):
            x = random_point(600 + 2 * k)
            y = random_point(601 + 2 * k)
            assert check_ybe(n, x, y, random_point(620 + k)).passed

    def test_degenerate_point_collapses_to_permutations(self):
        assert check_ybe(2, Fraction(1), Fraction(1), Fraction(1, 5)).passed


class TestQuasiPeriodicity:
    def test_index_shift_specializations(self):
        n = 3
        z = Fraction(2, 7)
        # each identity f * c == g checked cross-multiplied: f.num c g.den == g.num f.den
        for a in range(n):
            f, g = r_rat(z, a + 1, 0, a + 1, 0), r_rat(z, a, n, a, n)
            assert f.num.shift(1) * g.den == g.num * f.den
            f, g = r_rat(z, n, a, n, a), r_rat(z, 0, a + 1, 0, a + 1)
            assert f.num.shift(1) * g.den == g.num * f.den
            f, g = r_rat(z, a + 1, 0, 0, a + 1), r_rat(z, a, n, n, a)
            assert f.num.scale(z) * g.den == g.num * f.den
            f, g = r_rat(z, n, a, a, n), r_rat(z, 0, a + 1, a + 1, 0)
            assert f.num.scale(z) * g.den == g.num * f.den

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_pass(self, n):
        for k in range(3):
            assert check_quasi_periodicity(n, random_point(700 + k)).passed

    def test_poly_gcd_calls(self, monkeypatch):
        import asepx.scalar as scalar

        calls = []
        gcd = scalar.poly_gcd
        monkeypatch.setattr(scalar, "poly_gcd", lambda *args: calls.append(1) or gcd(*args))
        assert run_check("qp", n=3, trials=2).passed
        # 156 while RatFunc.scale reduced its already reduced result again,
        # 108 while qp multiplied and divided reduced RatFuncs
        assert calls == []

    def test_zero_patterns_agree(self):
        n, z = 2, Fraction(1, 3)
        for a, b, i, j in product(range(n + 1), repeat=4):
            lhs, _ = r_element(z, a, b, i, j)
            rhs, _ = r_element(
                z, (a - 1) % (n + 1), (b - 1) % (n + 1),
                (i - 1) % (n + 1), (j - 1) % (n + 1),
            )
            assert lhs.is_zero() == rhs.is_zero()


class TestLOperator:
    def test_level_one_reduces_to_r(self):
        n = 2
        z, t = Fraction(2, 7), Fraction(1, 6)
        def e(k):
            v = [0] * (n + 1)
            v[k] = 1
            return tuple(v)
        for al, be, g, d in product(range(n + 1), repeat=4):
            lhs = l_element(residue(z), 1, g, e(d), al, e(be), residue(t))
            rhs = residue(1 - t * z) * r_value(z, residue(t), g, d, al, be) % P
            assert lhs == rhs

    def test_row_sums(self):
        n, l = 2, 3
        z, t = Fraction(3, 8), Fraction(1, 4)
        for al in range(n + 1):
            for a in compositions(l, n + 1):
                total = 0
                for be in range(n + 1):
                    b = list(a)
                    b[al] += 1
                    b[be] -= 1
                    if b[be] < 0:
                        continue
                    total += l_element(residue(z), l, be, tuple(b), al, a, residue(t))
                assert total % P == residue(1 - z * t**l)

    def test_constant_part_table(self):
        # at z = 0: diagonal t^{tail}, upper t^{tail}(1 - t^{m_b}), lower 0
        n, l = 2, 3
        t = Fraction(2, 5)
        for al, be in product(range(n + 1), repeat=2):
            for a in compositions(l, n + 1):
                b = list(a)
                b[al] += 1
                b[be] -= 1
                if b[be] < 0:
                    continue
                got = l_element(0, l, be, tuple(b), al, a, residue(t))
                tail = t ** sum(a[be + 1:])
                if al == be:
                    assert got == residue(tail)
                elif al < be:
                    assert got == residue(tail * (1 - t ** a[be]))
                else:
                    assert got == 0


class TestRLL:
    @pytest.mark.parametrize("n,l", [(1, 1), (2, 2), (2, 3)])
    def test_random_points(self, n, l):
        x = random_point(810)
        y = random_point(811)
        t = random_point(812)
        assert check_rll(n, l, x, y, t).passed

    def test_degenerate_equal_arguments(self):
        x = Fraction(2, 3)
        assert check_rll(2, 3, x, x, Fraction(1, 5)).passed


class TestCalL:
    def test_printed_rank_four_matrix(self):
        call = build_calL(4)
        def W(pattern):
            out = {}
            for part in pattern.split():
                letter, mode = part[0], int(part[1:])
                out[mode] = out.get(mode, ()) + (letter,)
            return tuple(sorted(out.items()))
        expected_row0 = {
            0: W("k1 k2 k3 k4"),
            1: W("-1 k2 k3 k4"),
            2: W("-2 k3 k4"),
            3: W("-3 k4"),
            4: W("-4"),
        }
        for be, words in expected_row0.items():
            assert sparse(call[(0, be)]) == words
        assert sparse(call[(1, 2)]) == W("+1 -2 k3 k4")
        assert sparse(call[(2, 4)]) == W("+2 -4")
        assert sparse(call[(3, 3)]) == W("k4")

    def test_lower_triangle_vanishes(self):
        call = build_calL(3)
        for al in range(4):
            for be in range(al):
                assert call[(al, be)] is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_column_operator_link(self, n):
        assert check_LtT(n).passed

    def test_drop_mode_projection_of_constant_part(self):
        for n, l in [(2, 2), (3, 2)]:
            assert check_L0_oscillator(n, l, random_point(820 + n)).passed


class TestRTT:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_points(self, n):
        trunc = FockTruncation(8 if n < 4 else 12)
        x = random_point(830)
        y = random_point(831)
        t = random_point(832)
        assert check_rtt(n, x, y, trunc, t).passed

    def test_degenerate_equal_arguments(self):
        x = Fraction(2, 3)
        assert check_rtt(2, x, x, FockTruncation(8), Fraction(1, 5)).passed


class TestZF:
    def test_rank_one_scalar_identity(self):
        assert check_zf(1, Fraction(2, 3), Fraction(3, 5), FockTruncation(4),
                        Fraction(1, 7)).passed

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_points(self, n):
        x = random_point(840)
        y = random_point(841)
        t = random_point(842)
        assert check_zf(n, x, y, FockTruncation(10), t).passed

    def test_ordered_exchange_rearrangement(self):
        # (x - t y) X_a(y) X_b(x) = (1-t) x X_a(x) X_b(y)
        #                           + (x - y) X_b(x) X_a(y)   for a < b
        n = 2
        x0, y0, t0 = Fraction(3, 4), Fraction(2, 7), Fraction(1, 6)
        x, y, t = residue(x0), residue(y0), residue(t0)
        window = FockTruncation(8).safe_window(2)
        def ev(alpha, zv):
            return _x_eval_terms(build_X(n, alpha), zv, t)

        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                terms = _products([
                    (residue(x0 - t0 * y0), ev(a, y), ev(b, x)),
                    (-residue((1 - t0) * x0), ev(a, x), ev(b, y)),
                    (-residue(x0 - y0), ev(b, x), ev(a, y)),
                ])
                assert multimode_sum_is_zero(terms, window, t)


class TestHat:
    def test_rank_two_fixture(self):
        hats = hat_operators(2)
        one_minus_t = poly(1, -1)
        got = {(sparse(t.words), t.coeff) for t in hats[0].terms}
        assert got == {(((1, ("+",)),), one_minus_t)}
        got = {(sparse(t.words), t.coeff) for t in hats[1].terms}
        assert got == {(((1, ("k",)),), one_minus_t)}
        got = {(sparse(t.words), t.coeff) for t in hats[2].terms}
        assert got == {
            (((1, ("-",)),), one_minus_t),
            ((), one_minus_t.scale(2)),
        }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_relation_at_random_points(self, n):
        assert check_hat(n, FockTruncation(10), random_point(850 + n)).passed


class TestMSTheorem:
    def test_random_instances(self):
        report = check_ms_theorem(40, seed=5)
        assert report.passed and report.trials == 40

    def test_pairing_side_makes_no_gcd(self, monkeypatch):
        import asepx.asep_core as core
        import asepx.mlq as mlq
        import asepx.scalar as scalar

        calls = []
        gcd = scalar.poly_gcd

        def counted(*args):
            calls.append(1)
            return gcd(*args)

        monkeypatch.setattr(scalar, "poly_gcd", counted)
        monkeypatch.setattr(core, "poly_gcd", counted)
        for cached in (trace_pem, _pairing_images, mlq._weight_ratfunc):
            cached.cache_clear()
        assert run_check("ms-theorem", trials=200, seed=2024).passed
        assert len(list(mlq.iter_mlqs(Multiplicity((2, 1, 1, 1)), Fraction(2, 5)))) > 0
        assert calls == []

    def test_q_keyed_caches_stay_bounded(self):
        # each instance draws a fresh q, so what it caches is never read again
        run_check("ms-theorem", trials=200, seed=2024)
        for cached in (trace_pem, _pairing_images):
            info = cached.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize


def test_cleared_coefficients_stay_below_p():
    # the inputs of the window checks' coefficient bound N n 2^m in the
    # algebra_checks docstring: M_n terms per layer operator, each with
    # coefficient 1 and at most n - 1 a- letters; hat coefficients
    # (1 - t) deg_z with deg_z <= n
    for n, m_n in zip(range(1, 8), (1, 2, 5, 15, 52, 203, 877)):
        ops = [build_X(n, alpha) for alpha in range(n + 1)]
        assert max(len(x.terms) for x in ops) == m_n
        for term in (t for x in ops for t in x.terms):
            assert term.coeff == poly(1)
            assert sum(w.count("-") for w in term.words) <= n - 1
        for term in (t for h in hat_operators(n) for t in h.terms):
            assert term.coeff in {poly(1, -1).scale(k) for k in range(1, n + 1)}
        assert 4 * m_n**2 * n * 2 ** (2 * n - 1) < 2**38 < P


class TestProducts:
    """A case's terms hold one term per distinct product word."""

    @staticmethod
    def _recorded(monkeypatch, kind, **kwargs):
        """Run a check and return its cases as (expanded terms, merged terms)."""
        import asepx.algebra_checks as checks

        merged, cases = checks._products, []

        def recording(factors):
            factors = list(factors)
            expanded = [
                (scale * c1 * c2 % P, multimode_words_mul(w1, w2))
                for scale, left, right in factors
                for c1, w1 in left
                for c2, w2 in right
            ]
            cases.append((expanded, merged(factors)))
            return cases[-1][1]

        monkeypatch.setattr(checks, "_products", recording)
        report = run_check(kind, n=3, fock_dim=10, trials=1, **kwargs)
        monkeypatch.undo()
        return report, cases

    @pytest.mark.parametrize("kind", ["rtt", "zf", "hat"])
    def test_terms_are_the_expanded_terms_merged(self, monkeypatch, kind):
        report, cases = self._recorded(monkeypatch, kind)
        assert report.passed and cases
        for expanded, terms in cases:
            words = [w for _, w in terms]
            assert len(set(words)) == len(words)
            assert words == list(dict.fromkeys(w for _, w in expanded))
            sums = dict.fromkeys(words, 0)
            for c, w in expanded:
                sums[w] = (sums[w] + c) % P
            assert terms == [(c, w) for w, c in sums.items()]
        # equal words do meet, so the merge builds fewer terms
        assert sum(len(t) for _, t in cases) < sum(len(e) for e, _ in cases)

    def test_witnesses_read_as_over_the_expanded_terms(self, monkeypatch):
        import asepx.algebra_checks as checks

        monkeypatch.setattr(checks, "r_element", _doubled_r(checks.r_element))
        report, cases = self._recorded(monkeypatch, "zf")
        assert not report.passed
        window = FockTruncation(10).safe_window(2)
        t = residue(report.params["t"])
        failing = [(e, m) for e, m in cases if not multimode_sum_is_zero(m, window, t)]
        assert failing
        for expanded, terms in failing:
            assert _direct_witness(terms, window, t) == _direct_witness(expanded, window, t)


class TestVerifyStationary:
    def test_four_site_sector(self):
        assert verify_stationary(Multiplicity((1, 2, 1))).passed

    def test_five_site_sector_and_fixture_value(self):
        m = Multiplicity((2, 1, 2))
        assert verify_stationary(m).passed
        kernel = stationary_kernel(m)
        assert kernel[(0, 0, 2, 2, 1)] == poly(1, 6, 7, 6)

    def test_six_site_three_species(self):
        assert verify_stationary(Multiplicity((2, 2, 1, 1))).passed


class TestFailureWitnesses:
    def test_nonzero_sum_is_detected_with_witness(self):
        # a+ a- differs from the identity on the Fock space
        terms = [
            (1, (("+", "-"),)),
            (-1, ((),)),
        ]
        t = residue(Fraction(1, 3))
        assert not multimode_sum_is_zero(terms, 5, t)
        witness = _direct_witness(terms, 5, t)
        assert witness is not None and witness["value"] != 0

    def test_witness_stays_inside_the_window(self):
        # (a+)^2 takes every level of the window {0, 1} out of it, so only
        # k has a matrix element there
        terms = [
            (1, (("+", "+"),)),
            (1, (("k",),)),
        ]
        witness = _direct_witness(terms, 1, residue(Fraction(1, 3)))
        assert witness == {"in": (0,), "out": (0,), "value": 1}

    def test_witness_value_is_signed(self):
        # a+ a- - 1 has the element -1 at the vacuum
        terms = [(1, (("+", "-"),)), (-1, ((),))]
        witness = _direct_witness(terms, 5, residue(Fraction(1, 3)))
        assert witness == {"in": (0,), "out": (0,), "value": -1}

    def test_zero_sum_accepted(self):
        # a+ a- equals 1 - k exactly
        terms = [
            (1, (("+", "-"),)),
            (-1, ((),)),
            (1, (("k",),)),
        ]
        assert multimode_sum_is_zero(terms, 5, residue(Fraction(1, 3)))


class TestRunCheck:
    def test_driver_merges_reports(self):
        report = run_check("ybe", n=2, trials=3, seed=9)
        assert report.passed and report.trials == 3
        assert "degree" in report.notes or report.degree_bound

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_check("nonsense")

    def test_stationary_requires_multiplicity(self):
        with pytest.raises(ValueError):
            run_check("stationary")

    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            ("rtt", {"trials": 0}),
            ("ybe", {"n": 0}),
            ("zf", {"fock_dim": 2}),
            ("zf", {"fock_dim": 3}),
            ("rtt", {"fock_dim": 3}),
            ("hat", {"fock_dim": 2}),
            ("rll", {"l": -1}),
            ("lt-link", {"l": -1}),
        ],
    )
    def test_arguments_that_compare_nothing_are_rejected(self, kind, kwargs):
        with pytest.raises(ValueError):
            run_check(kind, **kwargs)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["rtt", "zf", "hat"])
    def test_empty_window_is_refused_before_any_layer_operator(self, kind, dim, monkeypatch):
        # at n = 7 building the layer operators alone takes seconds
        import asepx.algebra_checks as checks

        def forbidden(*args):
            raise AssertionError("layer operator built")

        monkeypatch.setattr(checks, "build_X", forbidden)
        monkeypatch.setattr(checks, "build_T", forbidden)
        with pytest.raises(ValueError, match="need a Fock dimension of at least 4"):
            run_check(kind, n=7, fock_dim=dim)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "check",
        [
            lambda tr: check_zf(2, Fraction(2, 3), Fraction(1, 7), tr, Fraction(1, 5)),
            lambda tr: check_rtt(2, Fraction(2, 3), Fraction(1, 7), tr, Fraction(1, 5)),
            lambda tr: check_hat(2, tr, Fraction(1, 5)),
            lambda tr: check_recursion(3, Fraction(2, 3), Fraction(1, 5), tr),
        ],
        ids=["zf", "rtt", "hat", "recursion"],
    )
    def test_direct_calls_with_an_empty_window_are_rejected(self, check, dim):
        with pytest.raises(ValueError):
            check(FockTruncation(dim))

    def test_ms_theorem_counts_instances(self):
        assert run_check("ms-theorem", trials=200).trials == 200

    def test_doubled_r_matrix_fails_zf(self, monkeypatch):
        import asepx.algebra_checks as checks

        assert run_check("zf", n=2, fock_dim=10, trials=2).passed
        monkeypatch.setattr(checks, "r_element", _doubled_r(checks.r_element))
        assert not run_check("zf", n=2, fock_dim=10, trials=2).passed

    @pytest.mark.parametrize("n", [2, 3])
    def test_swap_doubled_r_matrix_fails_rtt(self, monkeypatch, n):
        import asepx.algebra_checks as checks

        assert run_check("rtt", n=n, fock_dim=10, trials=2).passed
        monkeypatch.setattr(checks, "r_element", _swap_doubled_r(checks.r_element))
        assert not run_check("rtt", n=n, fock_dim=10, trials=2).passed

    @pytest.mark.parametrize("n", [1, 2])
    def test_swap_doubled_r_matrix_fails_ybe(self, monkeypatch, n):
        import asepx.algebra_checks as checks

        assert run_check("ybe", n=n, trials=2).passed
        monkeypatch.setattr(checks, "r_element", _swap_doubled_r(checks.r_element))
        assert not run_check("ybe", n=n, trials=2).passed

    def test_doubled_hat_term_fails_hat(self, monkeypatch):
        import asepx.algebra_checks as checks

        assert run_check("hat", n=2, fock_dim=10, trials=2).passed
        exact = checks.hat_operators
        cases = [(a, k) for a, h in enumerate(exact(2)) for k in range(len(h.terms))]
        assert (1, 0) in cases
        for alpha, k in cases:
            monkeypatch.setattr(checks, "hat_operators", _doubled_hat_term(alpha, k)(exact))
            assert not run_check("hat", n=2, fock_dim=10, trials=2).passed, (alpha, k)

    @pytest.mark.parametrize(
        "kind", ["ybe", "rll", "qp", "lt-link", "rtt", "zf", "hat", "ms-theorem"]
    )
    def test_ladder_makes_no_gcd_and_no_ratfunc(self, monkeypatch, kind):
        import asepx.asep_core as core
        import asepx.scalar as scalar

        calls = []
        gcd, init = scalar.poly_gcd, RatFunc.__init__

        def counted_gcd(*args):
            calls.append("poly_gcd")
            return gcd(*args)

        def counted_init(self, *args):
            calls.append("RatFunc")
            init(self, *args)

        monkeypatch.setattr(scalar, "poly_gcd", counted_gcd)
        monkeypatch.setattr(core, "poly_gcd", counted_gcd)
        monkeypatch.setattr(RatFunc, "__init__", counted_init)
        for module in ("algebra_checks", "asep_core", "ctm", "mlq", "oscillator", "scalar"):
            for cached in vars(importlib.import_module(f"asepx.{module}")).values():
                if hasattr(cached, "cache_clear"):
                    cached.cache_clear()
        assert run_check(kind, n=3, trials=2).passed
        assert calls == []

    def test_report_json_shape(self):
        report = run_check("qp", n=2, trials=2, seed=3)
        data = report.to_json()
        assert data["check"] == "qp" and data["passed"] is True
        assert "degree_bound" in data and data["trials"] == 2


# sha256 of json.dumps(report.to_json(), sort_keys=True), recorded once
# the point checks ran mod P (their notes say so, and witness values are
# signed residues, of least absolute value), and the ms-theorem digests
# while it still compared reduced RatFuncs; the mutated runs fail, so
# their digests pin the witnesses a failing report carries.  A mutation
# names an attribute of `algebra_checks`, or "module.attribute" of asepx
GOLDEN_REPORTS = {
    "rtt": (
        None,
        {"kind": "rtt", "n": 2, "trials": 2},
        "ce326b80adcea68e0b006145955ffa9fec552365e36f498a48dd07cdd0a5963a",
    ),
    "zf": (
        None,
        {"kind": "zf", "n": 2, "trials": 2},
        "61f8d106d3d5975233de59c44be9ccaaa67498404d30aee70d04a11cab6803cd",
    ),
    "hat": (
        None,
        {"kind": "hat", "n": 2, "trials": 2},
        "5272806a8fd4fac0706749522d7555ce10a8d1c3144c551db207e380f219e435",
    ),
    # n = 3: the terms carry two and three modes, so these digests pin
    # the multi-mode reduction of the zero test
    "rtt-n3": (
        None,
        {"kind": "rtt", "n": 3, "trials": 2},
        "6e1bb274ea39fd53a377146ca7c0e66679bb7ebe94850f33dae86077d666bc8e",
    ),
    "zf-n3": (
        None,
        {"kind": "zf", "n": 3, "trials": 2},
        "44e65418427f565542f40e4a128f643580f2811b82ecd1c5fc27c1df0f5974dd",
    ),
    "hat-n3": (
        None,
        {"kind": "hat", "n": 3, "trials": 2},
        "8fb559bc49507fdcad89a958874d443fad965fb6f7b1368baaa091b360b58548",
    ),
    "rll": (
        None,
        {"kind": "rll", "n": 2, "l": 1},
        "5dbd8086b91c3fb9e627e8af33e2cd185e3596a6d194b94d5171920b866eab9e",
    ),
    "lt-link": (
        None,
        {"kind": "lt-link", "n": 3, "l": 2},
        "99745daf7d6a7dd326221d3d91910b3d030c065f5388545d8fef1529e54cbf72",
    ),
    "zf-doubled-r": (
        ("r_element", _doubled_r),
        {"kind": "zf", "n": 2, "trials": 2},
        "e64ba79796cbe536fae3db90875a91e96d6dca279745d4611c9c91411e436140",
    ),
    "rtt-swap-doubled-r": (
        ("r_element", _swap_doubled_r),
        {"kind": "rtt", "n": 2, "trials": 2},
        "57b8274ae5ff12510adea5243eb8e5375e836a28c56ad5670a6262dc4cbdb02e",
    ),
    "rll-swap-doubled-r": (
        ("r_element", _swap_doubled_r),
        {"kind": "rll", "n": 2, "l": 1},
        "32d016c46d932ba6360470a5f04430bc560be5f7a6ca99350b9a05bdb8b79d72",
    ),
    "qp-doubled-r01-10": (
        ("r_element", _doubled_r01_10),
        {"kind": "qp", "n": 2, "trials": 2},
        "5a8541d4dbb04c6260fe4f11a404c1ca658903cbf4dbac43adf0d1a54c5c2672",
    ),
    "hat-doubled-term-1-0": (
        ("hat_operators", _doubled_hat_term(1, 0)),
        {"kind": "hat", "n": 2, "trials": 2},
        "d9535c58014ec3153ad9c909669b4d3cf38e100e9debf8a6aad477cb8fb5fc05",
    ),
    "zf-n3-doubled-r": (
        ("r_element", _doubled_r),
        {"kind": "zf", "n": 3, "trials": 2},
        "a6b4cb4bea4d0e495fb5b40db33569d6a6744a73ea616d749d5d02f9583541a0",
    ),
    # term 1 of hat_2 at n = 3 is (2 - 2t) a- ⊗ k ⊗ a+, a three-mode word
    "hat-n3-doubled-term-2-1": (
        ("hat_operators", _doubled_hat_term(2, 1)),
        {"kind": "hat", "n": 3, "trials": 2},
        "40616bfc4762da93e585b7c4933887caaa2b44890b157598c444903b42c7a0b6",
    ),
    "ms-theorem": (
        None,
        {"kind": "ms-theorem", "trials": 200, "seed": 2024},
        "5509e1474f8d33fde0d573dfc65044b20dd07316e53d8cd60bb6c39622dc02d9",
    ),
    "ms-theorem-s-weight-0011-is-one": (
        ("oscillator.s_weight", _s_weight_0011_is_one),
        {"kind": "ms-theorem", "trials": 200, "seed": 2024},
        "e5e90f3f460fc65ded0d2a4a755d7ac8c9dcca204028c8e51ff3f2ef6bb79016",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_REPORTS))
def test_report_matches_the_recorded_digest(monkeypatch, case):
    mutation, kwargs, expected = GOLDEN_REPORTS[case]
    if mutation is not None:
        name, wrap = mutation
        owner, _, attr = name.rpartition(".")
        module = importlib.import_module(f"asepx.{owner or 'algebra_checks'}")
        monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    report = run_check(**kwargs)
    assert report.passed == (mutation is None)
    data = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == expected
