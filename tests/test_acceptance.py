"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Exact equality always means equality of canonical
polynomial / rational-function forms.
"""

import time
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from asepx.algebra_checks import (
    check_ms_theorem,
    run_check,
)
from asepx.asep_core import (
    Multiplicity,
    SectorBasis,
    basic_multiplicities,
    canonicalize_values,
    cyclic_shift,
    gillespie,
    markov_sector,
    stationary_kernel,
)
from asepx.ctm import build_T, build_X, check_recursion, mp_stationary
from asepx.mlq import BallSystem, iter_mlqs, m_element, mlq_state
from asepx.oscillator import FockTruncation, s_element
from asepx.scalar import P_ZERO, Poly, RatFunc, random_point

from conftest import (
    local_markov,
    mlq_enumerate_direct,
    one_minus_t_pow,
    poly,
    rf,
    sparse,
)
from test_asep_core import _PRINTED_MATRIX, _PRINTED_ORDER, _SYMBOLS


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _config(s):
    return tuple(int(ch) for ch in s)


def _expand_cyclic(L, xi):
    out = {}
    for s, coeffs in xi.items():
        c = _config(s)
        for _ in range(L):
            out[c] = out.get(c, Poly()) + poly(*coeffs)
            c = cyclic_shift(c)
    return out


# ---------------------------------------------------------------------------
# criterion 1: Markov matrix fixtures


def test_criterion_1_markov_fixtures():
    start = time.monotonic()
    ok = True

    h = local_markov(1)
    block = [[h[1][1], h[1][2]], [h[2][1], h[2][2]]]
    ok &= block == [[poly(0, -1), poly(1)], [poly(0, 1), poly(-1)]]
    ok &= all(h[r][0].is_zero() and h[r][3].is_zero() for r in range(4))

    # ring of three sites, single species: every nontrivial sector block
    # is [[A, 1, t], [t, A, 1], [1, t, A]] with A = -t-1
    basis = SectorBasis(Multiplicity((2, 1)))
    mat = markov_sector(Multiplicity((2, 1)), basis)
    A = poly(-1, -1)
    expected3 = [
        [A, poly(1), poly(0, 1)],
        [poly(0, 1), A, poly(1)],
        [poly(1), poly(0, 1), A],
    ]
    for r in range(3):
        for c in range(3):
            ok &= mat.get((r, c), P_ZERO) == expected3[r][c]

    m = Multiplicity((2, 1, 1))
    basis = SectorBasis(m)
    mat = markov_sector(m, basis)
    order = [basis.index[_config(s)] for s in _PRINTED_ORDER]
    for r in range(12):
        for c in range(12):
            ok &= mat.get((order[r], order[c]), P_ZERO) == _SYMBOLS[_PRINTED_MATRIX[r][c]]

    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _report(1, ok, f"{elapsed:.2f}s (< 1 s)")


# ---------------------------------------------------------------------------
# criterion 2: the eight printed stationary vectors


_XI_TABLE = {
    (1, 1, 1): {"012": (2, 1), "021": (1, 2)},
    (2, 1, 1): {"0012": (3, 1), "0102": (2, 2), "1002": (1, 3)},
    (1, 2, 1): {"0112": (2, 1, 1), "1012": (1, 2, 1), "1102": (1, 1, 2)},
    (1, 1, 2): {"1220": (3, 1), "2120": (2, 2), "2210": (1, 3)},
    # The |12120> value is forced: with (2, 1, 2) in its place the
    # expanded vector is not annihilated by the sector matrix (nonzero
    # residual at 25 configurations) and the ring-reversal symmetry
    # pairing |12120> with |21210> breaks.  With (2, 2, 1) the residual
    # vanishes exactly and all three construction methods agree.
    (1, 2, 2): {
        "11220": (3, 1, 1),
        "12120": (2, 2, 1),
        "12210": (1, 3, 1),
        "21120": (2, 1, 2),
        "21210": (1, 2, 2),
        "22110": (1, 1, 3),
    },
    (2, 1, 2): {
        "00221": (1, 6, 7, 6),
        "02021": (2, 7, 6, 5),
        "02201": (3, 7, 7, 3),
        "20021": (3, 7, 7, 3),
        "20201": (5, 6, 7, 2),
        "22001": (6, 7, 6, 1),
    },
    (2, 2, 1): {
        "00112": (3, 1, 1),
        "01012": (2, 2, 1),
        "01102": (2, 1, 2),
        "10012": (1, 3, 1),
        "10102": (1, 2, 2),
        "11002": (1, 1, 3),
    },
    (1, 1, 1, 1): {
        "0123": (9, 7, 7, 1),
        "0213": (3, 11, 5, 5),
        "1023": (3, 9, 9, 3),
        "1203": (5, 5, 11, 3),
        "2013": (3, 9, 9, 3),
        "2103": (1, 7, 7, 9),
    },
}


def test_criterion_2_stationary_fixtures():
    start = time.monotonic()
    ok = True
    for counts, xi in _XI_TABLE.items():
        m = Multiplicity(counts)
        basis = SectorBasis(m)
        expanded = _expand_cyclic(m.L, xi)
        expected = canonicalize_values(basis, expanded)
        got = stationary_kernel(m)
        if got != expected:
            ok = False
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _report(2, ok, f"8 sectors, {elapsed:.2f}s (< 10 s)")


# ---------------------------------------------------------------------------
# criteria 3 and 8: three-way equivalence and exact stationarity


@pytest.fixture(scope="module")
def sector_sweep():
    sectors = []
    for n in (1, 2, 3):
        for L in range(n + 1, 7):
            sectors.extend(basic_multiplicities(n, L))
    sectors.extend(basic_multiplicities(2, 7))
    sectors.append(Multiplicity((1, 1, 1, 1, 1)))  # the first n = 4 sector
    start = time.monotonic()
    results = []
    for m in sectors:
        kernel = stationary_kernel(m)
        mlq_canon = mlq_state(m, Fraction(1)).canonical()
        mp_vec = mp_stationary(m)
        mp_canon = mp_vec.canonical()
        basis = mp_vec.basis
        mat = markov_sector(m, basis)
        # the entries share one denominator, so H v = 0 on the numerators
        residual = {c: Poly() for c in basis.configs}
        for (r, c), h in mat.items():
            num = mp_vec.nums[basis.configs[c]]
            if num:
                cfg = basis.configs[r]
                residual[cfg] = residual[cfg] + h * num
        results.append(
            {
                "counts": m.counts,
                "equal": kernel == mlq_canon == mp_canon,
                "h_times_mp_zero": all(not v for v in residual.values()),
            }
        )
    return {"results": results, "elapsed": time.monotonic() - start}


def test_criterion_3_three_way_equivalence(sector_sweep):
    results = sector_sweep["results"]
    elapsed = sector_sweep["elapsed"]
    bad = [r["counts"] for r in results if not r["equal"]]
    ok = not bad and elapsed < 600.0
    _report(3, ok, f"{len(results)} sectors, {elapsed:.0f}s (< 600 s); mismatches: {bad}")


def test_criterion_8_exact_stationarity(sector_sweep):
    results = sector_sweep["results"]
    bad = [r["counts"] for r in results if not r["h_times_mp_zero"]]
    _report(8, not bad, f"H v = 0 exactly on {len(results)} sectors; failures: {bad}")


# ---------------------------------------------------------------------------
# criterion 4: pairing sums equal oscillator traces


def test_criterion_4_trace_theorem():
    start = time.monotonic()
    report = check_ms_theorem(200, seed=2024)
    ok = report.passed

    # closed-form fixture for the two-ball worked example
    for alpha in (1, 2):
        for beta in (1, 2):
            q = random_point(4000 + 10 * alpha + beta)
            a = (1,) + (0,) * (beta - 1) + (0, 1, 0) + (0,) * alpha
            b = (0,) + (1,) * (beta - 1) + (0, 0, 0) + (1,) * alpha
            i = (0,) + (0,) * (beta - 1) + (1, 0, 1) + (0,) * alpha
            j = (1,) + (1,) * (beta - 1) + (0, 1, 0) + (1,) * alpha
            num = (
                one_minus_t_pow(1)
                * one_minus_t_pow(1)
                * Poly((1,) + (0,) * (alpha + beta - 1) + (q,))
            ).shift(beta - 1)
            den = Poly((1,) + (0,) * (alpha + beta - 1) + (-q,)) * Poly(
                (1,) + (0,) * (alpha + beta) + (-q,)
            )
            expected = RatFunc(num, den)
            ok &= m_element(q, i, j, a, b) == expected
            ok &= s_element(q, i, j, a, b) == expected

    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _report(4, ok, f"200 instances x 3 q + closed form, {elapsed:.1f}s (< 120 s)")


# ---------------------------------------------------------------------------
# criterion 5: operator construction fixtures


def test_criterion_5_operator_fixtures():
    def W(pattern):
        out = {}
        for part in pattern.split():
            letter, mode = part[0], int(part[1:])
            out[mode] = out.get(mode, ()) + (letter,)
        return tuple(sorted(out.items()))

    ok = True
    x2 = {
        0: {(0, W("")), (1, W("+1"))},
        1: {(1, W("k1"))},
        2: {(1, W("-1")), (2, W(""))},
    }
    for alpha, terms in x2.items():
        ok &= {(t.zdeg, sparse(t.words)) for t in build_X(2, alpha).terms} == terms

    x3 = {
        0: {(0, W("")), (1, W("+1 k3")), (1, W("+2 -3")), (1, W("+3")),
            (2, W("+2"))},
        1: {(1, W("k1 k2")), (2, W("k1 k2 +3"))},
        2: {(1, W("-1 k2")), (2, W("-1 k2 +3")), (2, W("k2 k3"))},
        3: {(1, W("-2")), (2, W("-2 +3")), (2, W("-3")), (2, W("+1 -2 k3")),
            (3, W(""))},
    }
    total = 0
    for alpha, terms in x3.items():
        got = build_X(3, alpha)
        ok &= {(t.zdeg, sparse(t.words)) for t in got.terms} == terms
        total += len(got.terms)
    ok &= total == 15

    t3 = build_T(3)
    expected_t3 = {
        (0, 0): (0, W("")), (0, 1): (1, W("k1 k2")), (0, 2): (1, W("-1 k2")),
        (0, 3): (1, W("-2")), (1, 0): (0, W("+1")), (1, 2): (1, W("k2")),
        (1, 3): (1, W("+1 -2")), (2, 0): (0, W("+2")), (2, 3): (1, W("")),
    }
    for key, (zdeg, words) in expected_t3.items():
        entry = t3.get(key)
        ok &= entry is not None and (entry.zdeg, sparse(entry.words)) == (zdeg, words)
    ok &= all(t3.get((i, j)) is None for i in range(3) for j in range(1, i + 1))

    t4 = build_T(4)
    expected_t4 = {
        (0, 0): (0, W("")), (0, 1): (1, W("k1 k2 k3")),
        (0, 2): (1, W("-1 k2 k3")), (0, 3): (1, W("-2 k3")),
        (0, 4): (1, W("-3")), (1, 0): (0, W("+1")), (1, 2): (1, W("k2 k3")),
        (1, 3): (1, W("+1 -2 k3")), (1, 4): (1, W("+1 -3")),
        (2, 0): (0, W("+2")), (2, 3): (1, W("k3")), (2, 4): (1, W("+2 -3")),
        (3, 0): (0, W("+3")), (3, 4): (1, W("")),
    }
    for key, (zdeg, words) in expected_t4.items():
        entry = t4.get(key)
        ok &= entry is not None and (entry.zdeg, sparse(entry.words)) == (zdeg, words)
    ok &= all(t4.get((i, j)) is None for i in range(4) for j in range(1, i + 1))

    _report(5, ok, "layer terms (n=2, 3) and column operators (n=3, 4)")


# ---------------------------------------------------------------------------
# criterion 6: rank recursion on the truncated window


def test_criterion_6_rank_recursion():
    start = time.monotonic()
    trunc = FockTruncation(10)
    ok = True
    for n in (2, 3, 4):
        for k in range(5):
            z0 = random_point(5000 + 20 * n + 2 * k)
            t0 = random_point(5001 + 20 * n + 2 * k)
            ok &= check_recursion(n, z0, t0, trunc).passed
    elapsed = time.monotonic() - start
    _report(6, ok, f"n in 2..4, 5 points each, D=10, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: the identity ladder


def test_criterion_7_identity_ladder():
    start = time.monotonic()
    ok = True
    details = []
    # trials: at least 5 everywhere; for the single-variable relation
    # (hat, t only) and for the exchange relation the count exceeds the
    # smallest per-variable degree bound, making that variable's
    # coverage deterministic rather than probabilistic
    plans = (
        [("ybe", {"n": n}, 5) for n in (1, 2, 3)]
        + [("rll", {"n": n, "l": l}, 5) for n in (1, 2) for l in (1, 2, 3)]
        + [("qp", {"n": n}, 5) for n in (1, 2, 3)]
        + [("lt-link", {"n": n, "l": 2}, 5) for n in (1, 2, 3, 4)]
        + [("rtt", {"n": n, "fock_dim": 12}, 5) for n in (1, 2, 3, 4)]
        + [("zf", {"n": n, "fock_dim": 10}, 2 * n + 3) for n in (1, 2, 3)]
        + [
            ("hat", {"n": n, "fock_dim": 10},
             2 * max(n * (n - 1) // 2, 1) * 9 + 5)
            for n in (1, 2, 3)
        ]
    )
    for kind, kwargs, trials in plans:
        report = run_check(kind, trials=max(5, trials), seed=77, **kwargs)
        ok &= report.passed
        if not report.passed:
            details.append((kind, kwargs, report.witnesses[:1]))
    elapsed = time.monotonic() - start
    ok &= elapsed < 600.0
    _report(7, ok, f"{len(plans)} suites x 5 points, {elapsed:.1f}s (< 600 s) {details}")


# ---------------------------------------------------------------------------
# criterion 9: statistical oracle


def test_criterion_9_statistical_oracle():
    m = Multiplicity((2, 1, 1))
    kernel = stationary_kernel(m)
    t_half = Fraction(1, 2)
    partition = sum(v.eval(t_half) for v in kernel.values())
    exact = {c: float(v.eval(t_half) / partition) for c, v in kernel.items()}

    runs = []
    total_events = 0
    for seed in range(10):
        stats = {}
        dist = gillespie(
            m, 0.5, horizon=50000.0, burn_in=500.0, seed=seed, stats=stats
        )
        runs.append(dist)
        total_events += stats["events"]

    ok = total_events >= 10**6
    worst = 0.0
    for c, p in exact.items():
        vals = [r.get(c, 0.0) for r in runs]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        se = (var / len(vals)) ** 0.5
        pull = abs(mean - p) / se if se > 0 else float("inf")
        worst = max(worst, pull)
        ok &= abs(mean - p) <= 3 * se
    _report(9, ok, f"{total_events} events, worst pull {worst:.2f} sigma (<= 3)")


# ---------------------------------------------------------------------------
# criterion 10: multiline-queue micro fixtures


def test_criterion_10_mlq_micro_fixtures():
    ok = True
    q = Fraction(2, 5)

    # the four labelled pairings of the nine-column worked example
    m = Multiplicity((2, 3, 2, 2))
    bs = BallSystem(
        (
            (0, 0, 1, 0, 1, 0, 0, 0, 0),
            (1, 1, 0, 1, 0, 0, 0, 1, 0),
            (0, 1, 1, 1, 1, 1, 1, 0, 1),
        )
    )
    arrows = {(2, 7, 3), (4, 3, 3), (3, 3, 2), (7, 5, 2), (0, 4, 2), (1, 1, 2)}
    found = None
    for rec in iter_mlqs(m, q, ball_system=bs):
        if set(rec.arrows) == arrows:
            found = rec
            break
    nums = (one_minus_t_pow(1).shift(2).scale(q), one_minus_t_pow(1),
            one_minus_t_pow(1).shift(1), one_minus_t_pow(1).shift(2).scale(q))
    dens = (Poly((1, 0, 0, 0, -q)), Poly((1, 0, 0, -q)),
            Poly((1, 0, 0, 0, 0, 0, -q * q)), Poly((1, 0, 0, 0, 0, -q)))
    product = RatFunc(reduce(mul, nums), reduce(mul, dens))
    ok &= found is not None and found.weight == product
    ok &= found is not None and found.config == (0, 2, 1, 3, 2, 3, 1, 0, 1)

    # weight table of the four-site sector at generic q
    qq = Fraction(3, 11)
    direct = mlq_enumerate_direct(Multiplicity((1, 2, 1)), qq)
    unit = rf(poly(1))
    denom = Poly((1, 0, 0, -qq))
    table = {
        (1, 0, 1, 2): unit + RatFunc(one_minus_t_pow(1).shift(1).scale(qq), denom),
        (1, 0, 2, 1): unit + RatFunc(one_minus_t_pow(1).shift(2).scale(qq), denom),
        (2, 0, 1, 1): unit + RatFunc(one_minus_t_pow(1), denom),
    }
    for config, expected in table.items():
        ok &= direct.values[config] == expected

    _report(10, ok, "worked-example weights and generic-q table")
