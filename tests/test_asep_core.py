import hashlib
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from asepx.asep_core import (
    KernelError,
    Multiplicity,
    SectorBasis,
    _kernel_vector,
    basic_multiplicities,
    canonicalize_values,
    cyclic_orbit_reps,
    cyclic_shift,
    gillespie,
    markov_sector,
    nonzero_residual,
    stationary_kernel,
)
from asepx.scalar import P_ZERO, Poly, RatFunc, lift_polys, random_point

from conftest import bareiss_kernel_vector, bareiss_stationary, local_markov, poly
from test_scalar import _coeffs, _nonzero_polys, _polys


class TestLocalMarkov:
    def test_single_species_block(self):
        h = local_markov(1)
        # basis order |00>, |01>, |10>, |11>; active block on |01>, |10>
        assert h[1][1] == poly(0, -1) and h[2][1] == poly(0, 1)
        assert h[1][2] == poly(1) and h[2][2] == poly(-1)

    def test_equal_neighbors_are_frozen(self):
        for n in (1, 2, 3):
            h = local_markov(n)
            size = n + 1
            for a in range(size):
                col = a * size + a
                assert all(h[r][col].is_zero() for r in range(size * size))

    def test_two_species_entries(self):
        h = local_markov(2)
        idx = lambda a, b: 3 * a + b
        assert h[idx(1, 2)][idx(2, 1)] == poly(1)
        assert h[idx(2, 1)][idx(1, 2)] == poly(0, 1)

    def test_columns_conserve_probability(self):
        for n in (1, 2, 3):
            h = local_markov(n)
            size = (n + 1) ** 2
            for c in range(size):
                total = Poly()
                for r in range(size):
                    total = total + h[r][c]
                assert total.is_zero()


# the sector matrix printed for content (2, 1, 1) on four sites, in the
# source row order 0012, 0102, 1002, 0120, 1020, 0021, 1200, 0201, 0210,
# 2001, 2010, 2100 with A = -2t-1, B = -2t-2, C = -t-2
_PRINTED_ORDER = [
    "0012", "0102", "1002", "0120", "1020", "0021",
    "1200", "0201", "0210", "2001", "2010", "2100",
]
_PRINTED_MATRIX = [
    ["A", "1", "0", "0", "0", "1", "0", "0", "0", "0", "t", "0"],
    ["t", "B", "1", "1", "0", "0", "0", "0", "0", "0", "0", "t"],
    ["0", "t", "C", "0", "1", "0", "0", "0", "0", "t", "0", "0"],
    ["0", "t", "0", "A", "1", "0", "0", "0", "1", "0", "0", "0"],
    ["0", "0", "t", "t", "B", "1", "1", "0", "0", "0", "0", "0"],
    ["t", "0", "0", "0", "t", "C", "0", "1", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "t", "0", "A", "1", "0", "0", "0", "1"],
    ["0", "0", "0", "0", "0", "t", "t", "B", "1", "1", "0", "0"],
    ["0", "0", "0", "t", "0", "0", "0", "t", "C", "0", "1", "0"],
    ["0", "0", "1", "0", "0", "0", "0", "t", "0", "A", "1", "0"],
    ["1", "0", "0", "0", "0", "0", "0", "0", "t", "t", "B", "1"],
    ["0", "1", "0", "0", "0", "0", "t", "0", "0", "0", "t", "C"],
]
_SYMBOLS = {
    "0": Poly(),
    "1": poly(1),
    "t": poly(0, 1),
    "A": poly(-1, -2),
    "B": poly(-2, -2),
    "C": poly(-2, -1),
}


def _config(s):
    return tuple(int(ch) for ch in s)


class TestMarkovSector:
    def test_printed_twelve_by_twelve(self):
        m = Multiplicity((2, 1, 1))
        basis = SectorBasis(m)
        mat = markov_sector(m, basis)
        order = [basis.index[_config(s)] for s in _PRINTED_ORDER]
        for r in range(12):
            for c in range(12):
                expected = _SYMBOLS[_PRINTED_MATRIX[r][c]]
                got = mat.get((order[r], order[c]), P_ZERO)
                assert got == expected, (r, c)

    def test_two_site_ring(self):
        # both bonds act on the same pair, so rates double
        m = Multiplicity((1, 1))
        mat = markov_sector(m)
        t1 = poly(1, 1)
        assert mat.get((0, 0), P_ZERO) == -t1 and mat.get((1, 1), P_ZERO) == -t1
        assert mat.get((0, 1), P_ZERO) == t1 and mat.get((1, 0), P_ZERO) == t1

    def test_frozen_sector_is_zero_matrix(self):
        m = Multiplicity((4, 0, 0))
        assert SectorBasis(m).dim == 1 and not markov_sector(m)

    def test_column_sums_vanish(self):
        for counts in [(2, 1, 1), (1, 1, 1), (1, 2, 1, 1)]:
            m = Multiplicity(counts)
            assert all(not s for s in _column_sums(markov_sector(m), SectorBasis(m).dim))

    def test_commutes_with_cyclic_shift(self):
        # P H = H P is equivalent to H[perm(r), perm(c)] = H[r, c]
        m = Multiplicity((2, 1, 1))
        basis = SectorBasis(m)
        mat = markov_sector(m, basis)
        perm = {
            basis.index[c]: basis.index[cyclic_shift(c)] for c in basis.configs
        }
        conjugated = {
            (perm[r], perm[c]): v for (r, c), v in mat.items()
        }
        assert conjugated == mat


class TestCyclicShift:
    def test_fixture(self):
        assert cyclic_shift((0, 1, 2)) == (2, 0, 1)

    def test_order_L(self):
        c = (0, 1, 2, 2, 1)
        out = c
        for _ in range(len(c)):
            out = cyclic_shift(out)
        assert out == c

    def test_constant_fixed_point(self):
        assert cyclic_shift((3, 3, 3)) == (3, 3, 3)


def _xi_expand(L, xi):
    """Cyclic-class expansion of a seed vector {config string: coeffs}."""
    out = {}
    for s, coeffs in xi.items():
        c = _config(s)
        for _ in range(L):
            out[c] = out.get(c, Poly()) + poly(*coeffs)
            c = cyclic_shift(c)
    return out


class TestStationaryKernel:
    def test_three_site_fixture(self):
        got = stationary_kernel(Multiplicity((1, 1, 1)))
        expected = _xi_expand(3, {"012": (2, 1), "021": (1, 2)})
        assert got == expected

    def test_four_site_fixture(self):
        got = stationary_kernel(Multiplicity((2, 1, 1)))
        expected = _xi_expand(
            4, {"0012": (3, 1), "0102": (2, 2), "1002": (1, 3)}
        )
        assert got == expected

    def test_frozen_sector(self):
        # one configuration and no moves: the kernel of the zero matrix
        assert stationary_kernel(Multiplicity((4, 0, 0))) == {(0, 0, 0, 0): poly(1)}

    def test_totally_asymmetric_limit(self):
        # at t = 0 the three-site state reduces to weights (2, 1)
        got = stationary_kernel(Multiplicity((1, 1, 1)))
        assert got[(0, 1, 2)].eval(Fraction(0)) == 2
        assert got[(0, 2, 1)].eval(Fraction(0)) == 1

    def test_translation_invariance(self):
        for counts in [(2, 1, 1), (1, 2, 1), (1, 1, 1, 1)]:
            got = stationary_kernel(Multiplicity(counts))
            for c, v in got.items():
                assert got[cyclic_shift(c)] == v

    def test_interpolation_oracle(self):
        # independent reconstruction: adjugate-column kernel of the
        # numeric sector matrix at sampled points, interpolated to a
        # polynomial vector and canonically normalized
        m = Multiplicity((3, 1, 1))
        basis = SectorBasis(m)
        mat = markov_sector(m, basis)
        dim = basis.dim
        points = [random_point(900 + k) for k in range(dim + 1)]
        samples = []
        for t0 in points:
            dense = [[Fraction(0)] * dim for _ in range(dim)]
            for (r, c), v in mat.items():
                dense[r][c] = v.eval(t0)
            samples.append(_adjugate_column(dense, 0))
        interp = [
            _lagrange(points, [s[i] for s in samples]) for i in range(dim)
        ]
        oracle = canonicalize_values(basis, dict(zip(basis.configs, interp)))
        assert oracle == stationary_kernel(m)

    def test_residual_names_the_broken_configurations(self):
        m = Multiplicity((1, 1, 1))
        basis = SectorBasis(m)
        mat = markov_sector(m, basis)
        values = dict(stationary_kernel(m))
        assert nonzero_residual(mat, basis, values) == []
        values[(0, 1, 2)] = values[(0, 1, 2)].scale(2)
        # H e_c is nonzero at c and at the three configurations it hops to
        assert nonzero_residual(mat, basis, values) == [
            (0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)]

    def test_kernel_dimension_guard(self):
        zero_rows = [dict(), dict()]
        with pytest.raises(KernelError):
            _kernel_vector(zero_rows, 2)
        with pytest.raises(KernelError):  # rank 1 of 3 columns at every point
            _kernel_vector([{0: poly(0, 1), 1: poly(0, 1)}], 3)

    def test_full_rank_rows_raise(self):
        identity = [{i: poly(1)} for i in range(3)]
        with pytest.raises(KernelError):
            _kernel_vector(identity, 3)
        with pytest.raises(KernelError):  # determinant t - 1: singular only at t = 1
            _kernel_vector([{0: poly(0, 1), 1: poly(1)}, {0: poly(1), 1: poly(1)}], 2)

    def test_points_of_lower_rank_are_skipped(self):
        # (t - 2)(x0 + x1) = 0 has rank 0 at t = 2 and rank 1 elsewhere
        vec = _kernel_vector([{0: poly(-2, 1), 1: poly(-2, 1)}], 2)
        assert vec[0] == -vec[1] and vec[0].degree == 0

    def test_modular_solve_matches_the_bareiss_oracle(self):
        for counts in [(2, 1, 1), (1, 1, 1, 1), (2, 1, 1, 2)]:
            m = Multiplicity(counts)
            assert stationary_kernel(m) == bareiss_stationary(m), counts

    def test_an_early_stop_test_never_returns_a_wrong_vector(self, monkeypatch):
        import asepx.asep_core as core

        # accept after the first fit: the lifts from too few points must
        # fail the exact residual, and the solver take more points
        lifts = []

        def counted(polys):
            lifts.append(1)
            return lift_polys(polys)

        monkeypatch.setattr(core, "_fit_holds", lambda *args: True)
        monkeypatch.setattr(core, "lift_polys", counted)
        for counts in [(2, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1)]:
            m = Multiplicity(counts)
            lifts.clear()
            assert stationary_kernel(m) == bareiss_stationary(m), counts
            assert len(lifts) > 1, counts

    def test_a_lift_that_fails_the_residual_is_never_returned(self, monkeypatch):
        import asepx.asep_core as core

        def doubled_first(polys):
            vec = lift_polys(polys)
            return vec and [vec[0].scale(2)] + vec[1:]

        monkeypatch.setattr(core, "lift_polys", doubled_first)
        with pytest.raises(KernelError):
            stationary_kernel(Multiplicity((2, 1, 1)))

    def test_full_and_reduced_paths_agree(self):
        for counts in [(1, 2, 1), (2, 1, 1), (1, 1, 1, 1)]:
            m = Multiplicity(counts)
            basis = SectorBasis(m)
            rows = _rows_of(markov_sector(m, basis), basis.dim)
            for solve in (_kernel_vector, bareiss_kernel_vector):
                full = solve(rows, basis.dim)
                oracle = canonicalize_values(basis, dict(zip(basis.configs, full)))
                assert stationary_kernel(m) == oracle, (counts, solve.__name__)

    def test_solve_and_residual_stay_in_the_polynomial_ring(self, monkeypatch):
        import asepx.asep_core as core
        import asepx.scalar as scalar

        m = Multiplicity((2, 1, 1, 1))
        basis = SectorBasis(m)
        mat = markov_sector(m, basis)
        calls = {"poly_gcd": 0, "RatFunc": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        gcd = counted("poly_gcd", scalar.poly_gcd)
        monkeypatch.setattr(scalar, "poly_gcd", gcd)
        monkeypatch.setattr(core, "poly_gcd", gcd)
        monkeypatch.setattr(
            RatFunc, "__init__", counted("RatFunc", RatFunc.__init__)
        )
        core._orbit_reduced_kernel(mat, basis)
        assert calls == {"poly_gcd": 0, "RatFunc": 0}
        canon = stationary_kernel(m)
        calls.update(poly_gcd=0, RatFunc=0)
        assert nonzero_residual(mat, basis, canon) == []
        assert calls == {"poly_gcd": 0, "RatFunc": 0}

    def test_canonical_vectors_match_the_recorded_digest(self):
        # sha256 of the canonical kernel vectors of 40 basic sectors,
        # recorded before `canonicalize_values` took polynomial numerators
        vectors = {}
        for n, lengths in ((1, range(2, 7)), (2, range(3, 7)), (3, range(4, 6))):
            for L in lengths:
                for m in basic_multiplicities(n, L):
                    vectors[str(m.counts)] = {
                        "".join(map(str, c)): p.to_json()
                        for c, p in stationary_kernel(m).items()
                    }
        assert len(vectors) == 40
        digest = hashlib.sha256(json.dumps(vectors, sort_keys=True).encode()).hexdigest()
        assert digest == "feeffa7ebca943759a8131b61a6c09b51dd2179bec56fce5e9e2652d1aa38256"

    def test_cyclic_orbit_reps(self):
        rep_of = cyclic_orbit_reps(SectorBasis(Multiplicity((2, 1, 1, 1))).configs)
        assert len(rep_of) == 60 and len(set(rep_of.values())) == 12
        for sigma, rep in rep_of.items():
            assert rep == min(sigma[i:] + sigma[:i] for i in range(len(sigma)))


# (1,1,1,1,2) and the other four n = 4, L = 6 sectors, and the twenty n = 3, L = 7 sectors
EXTENDED_SECTORS = [m.counts for n, L in ((4, 6), (3, 7)) for m in basic_multiplicities(n, L)]


@pytest.mark.extended
@pytest.mark.parametrize("counts", EXTENDED_SECTORS, ids=str)
def test_modular_solve_matches_bareiss_on_extended_sectors(counts):
    m = Multiplicity(counts)
    assert stationary_kernel(m) == bareiss_stationary(m)


def _rows_of(mat, dim):
    """Oracle input: the sparse Markov matrix as one {col: Poly} dict per row."""
    rows = [dict() for _ in range(dim)]
    for (r, c), v in mat.items():
        rows[r][c] = v
    return rows


def _column_sums(mat, dim):
    sums = [P_ZERO] * dim
    for (_, col), v in mat.items():
        sums[col] = sums[col] + v
    return sums


def _adjugate_column(mat, row):
    """Kernel vector of a singular matrix via signed minors of one row."""
    dim = len(mat)
    out = []
    for i in range(dim):
        minor = [
            [mat[r][c] for c in range(dim) if c != i]
            for r in range(dim)
            if r != row
        ]
        det = _det_fraction(minor)
        out.append(det if (row + i) % 2 == 0 else -det)
    assert any(out), "adjugate column vanished; pick another row"
    return out


def _det_fraction(mat):
    mat = [row[:] for row in mat]
    dim = len(mat)
    det = Fraction(1)
    for k in range(dim):
        piv = next((i for i in range(k, dim) if mat[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            det = -det
        det *= mat[k][k]
        inv = 1 / mat[k][k]
        for i in range(k + 1, dim):
            if mat[i][k]:
                f = mat[i][k] * inv
                for j in range(k, dim):
                    mat[i][j] -= f * mat[k][j]
    return det


def _lagrange(xs, ys):
    """Interpolating polynomial through exact points (xs, ys)."""
    total = Poly()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num = poly(yi)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * poly(-xj, 1).scale(Fraction(1, xi - xj))
        total = total + num
    return total


_SIX = SectorBasis(Multiplicity((1, 1, 1)))


class TestCanonicalize:
    def test_scaling_invariance(self):
        m = Multiplicity((1, 1, 1))
        basis = SectorBasis(m)
        base = {c: poly(1, k + 1) for k, c in enumerate(basis.configs)}
        scale = poly(3, 0, 7).scale(Fraction(-5, 2))
        scaled = {c: v * scale for c, v in base.items()}
        assert canonicalize_values(basis, base) == canonicalize_values(
            basis, scaled
        )

    def test_sign_and_content(self):
        m = Multiplicity((1, 1))
        basis = SectorBasis(m)
        values = {c: poly(Fraction(-2, 3)) for c in basis.configs}
        canon = canonicalize_values(basis, values)
        assert all(p == poly(1) for p in canon.values())

    def test_equal_coefficients_are_one_object(self):
        m = Multiplicity((2, 1, 1))
        basis = SectorBasis(m)
        values = {
            c: poly(2, k % 3, 4).scale(Fraction(1, 6)) for k, c in enumerate(basis.configs)
        }
        canon = canonicalize_values(basis, values)
        by_value = {}
        for p in canon.values():
            for c in p.coeffs:
                assert by_value.setdefault(c, c) is c
        assert len(by_value) < sum(len(p.coeffs) for p in canon.values())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_polys, min_size=6, max_size=6).filter(any), _nonzero_polys,
           _coeffs.filter(bool))
    def test_canonical_form_is_primitive_and_scale_free(self, polys, s, r):
        values = dict(zip(_SIX.configs, polys))
        canon = canonicalize_values(_SIX, values)
        scaled = {c: (p * s).scale(r) for c, p in values.items()}
        assert canonicalize_values(_SIX, scaled) == canon
        coeffs = [a for p in canon.values() for a in p.coeffs]
        assert all(a.denominator == 1 for a in coeffs)
        assert gcd(*(a.numerator for a in coeffs)) == 1
        first = next(canon[c] for c in _SIX.configs if canon[c])
        assert first.leading() > 0


class TestBasicMultiplicities:
    def test_counts(self):
        assert len(list(basic_multiplicities(2, 4))) == 3
        assert len(list(basic_multiplicities(3, 6))) == 10

    def test_all_basic_and_correct_length(self):
        for m in basic_multiplicities(3, 6):
            assert m.is_basic and m.L == 6 and m.n == 3


class TestGillespie:
    def test_symmetric_single_species_uniform(self):
        m = Multiplicity((2, 1))
        runs = [
            gillespie(m, 1.0, horizon=400.0, burn_in=20.0, seed=s)
            for s in range(10)
        ]
        basis = SectorBasis(m)
        for c in basis.configs:
            vals = [r.get(c, 0.0) for r in runs]
            mean = sum(vals) / len(vals)
            se = (sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)) ** 0.5
            se /= len(vals) ** 0.5
            assert abs(mean - 1 / 3) <= 3 * se + 1e-9

    def test_three_species_ratio(self):
        # class mass ratio |012>-type to |021>-type is 2.5/2 at t = 1/2
        m = Multiplicity((1, 1, 1))
        ratios = []
        for s in range(10):
            dist = gillespie(m, 0.5, horizon=600.0, burn_in=30.0, seed=s)
            a = sum(
                dist.get(c, 0.0)
                for c in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]
            )
            b = sum(
                dist.get(c, 0.0)
                for c in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
            )
            ratios.append(a / b)
        mean = sum(ratios) / len(ratios)
        se = (sum((v - mean) ** 2 for v in ratios) / (len(ratios) - 1)) ** 0.5
        se /= len(ratios) ** 0.5
        assert abs(mean - 1.25) <= 3 * se + 1e-9

    def test_frozen_sector(self):
        dist = gillespie(Multiplicity((3, 0)), 0.7, horizon=10.0, seed=4)
        assert dist == {(0, 0, 0): pytest.approx(1.0)}

    def test_total_time_is_normalized(self):
        dist = gillespie(Multiplicity((1, 1, 1)), 0.5, horizon=50.0, seed=1)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_runs_match_the_recorded_digest(self):
        # sha256 of the repr of sorted occupations and event counts, so every
        # float bit counts; recorded before the rate table replaced the
        # per-event rescan of the ring.  (1,1,1) at t = 0 drops rate-0 moves,
        # and (3,0) is frozen, so it runs no event.
        cases = [((2, 1, 1), 0.5, s) for s in range(3)]
        cases += [((1, 1, 1), 0.0, 0), ((3, 0), 0.5, 0)]
        runs = []
        for counts, t, seed in cases:
            stats = {}
            dist = gillespie(
                Multiplicity(counts), t, horizon=2000.0, burn_in=20.0, seed=seed, stats=stats
            )
            runs.append((counts, t, seed, sorted(dist.items()), stats["events"]))
        assert [run[-1] for run in runs] == [5007, 4913, 5035, 2641, 0]
        digest = hashlib.sha256(repr(runs).encode()).hexdigest()
        assert digest == "1fe132008927cbfbf202370640c9ef9b825f34c0a9b709f434a72817e0d0bba0"
