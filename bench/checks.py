"""Correctness checks run after the timed part of every benchmark run.

Each check is computed apart from the method it checks: the sector
generator is rebuilt here from the hopping rule, polynomials are
handled as plain integer or Fraction coefficient lists, and the exact
law that the simulator is tested against is solved here by Gaussian
elimination over Fractions.  Nothing in this file calls into asepx.

Every checker returns a `Verdict`.  A checker that compares nothing
fails, so no check can pass vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import sqrt

Config = tuple[int, ...]

#: Pull bound for the simulator check.  The check averages 10 seeds, so
#: each pull is Student-t with 9 degrees of freedom, and its two-sided
#: tail beyond 17 is 3.8e-8.  A union bound over the 12 configurations
#: of the simulated sector keeps the chance that a correct simulator
#: fails below 4.6e-7, under the 1e-6 the benchmark allows.
PULL_BOUND = 17.0
PULL_SEEDS = 10
PULL_MAX_CONFIGS = 12


@dataclass
class Verdict:
    name: str
    ok: bool
    compared: int
    detail: str = ""

    def __post_init__(self):
        if self.compared == 0:
            self.ok = False
            self.detail = (self.detail + "; " if self.detail else "") + "compared nothing"


# ---------------------------------------------------------------------------
# integer polynomials, lowest degree first


def int_coeffs(poly) -> list[int]:
    """Coefficients of an asepx Poly as Python ints; raises if not integral."""
    out = []
    for c in poly.coeffs:
        if Fraction(c).denominator != 1:
            raise ValueError(f"non-integer coefficient {c}")
        out.append(int(c))
    return out


def _padd(acc: list, p: list, scale=1, shift: int = 0) -> None:
    """acc += scale * t**shift * p, in place."""
    need = len(p) + shift
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, c in enumerate(p):
        acc[i + shift] += scale * c


def _pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _peval(p: list, t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


# ---------------------------------------------------------------------------
# sector generator from the hopping rule


def sector_configs(counts: tuple[int, ...]) -> list[Config]:
    symbols = [v for v, c in enumerate(counts) for _ in range(c)]
    return sorted(set(permutations(symbols)))


def hops(sigma: Config):
    """(target, rate exponent) for every move out of sigma.

    The pair (a, b) on sites (i, i+1), cyclically, becomes (b, a) at
    rate t when a < b and at rate 1 when a > b.
    """
    L = len(sigma)
    for i in range(L):
        j = (i + 1) % L
        a, b = sigma[i], sigma[j]
        if a == b:
            continue
        tau = list(sigma)
        tau[i], tau[j] = b, a
        yield tuple(tau), (1 if a < b else 0)


# ---------------------------------------------------------------------------
# sweep checks


def vectors_equal(vectors: dict[str, dict]) -> Verdict:
    """The canonical vectors of every method are identical entry by entry."""
    methods = sorted(vectors)
    if len(methods) < 2:
        return Verdict("three-way equality", False, 0, f"only {methods}")
    ref = vectors[methods[0]]
    compared = 0
    bad = []
    for other in methods[1:]:
        vec = vectors[other]
        if set(vec) != set(ref):
            bad.append(f"{other} has other configurations than {methods[0]}")
            continue
        for cfg, p in ref.items():
            compared += 1
            if vec[cfg] != p:
                bad.append(f"{other} differs from {methods[0]} at {cfg}")
    return Verdict("three-way equality", not bad, compared, "; ".join(bad[:3]))


def generator_residual(counts: tuple[int, ...], vec: dict) -> Verdict:
    """The generator of the sector, built here, annihilates vec exactly."""
    configs = sector_configs(counts)
    if set(vec) != set(configs):
        return Verdict("H v = 0", False, 0, "vector is not indexed by the sector")
    coeffs = {c: int_coeffs(p) for c, p in vec.items()}
    residual = {c: [] for c in configs}
    for sigma in configs:
        v = coeffs[sigma]
        for tau, e in hops(sigma):
            _padd(residual[tau], v, 1, e)
            _padd(residual[sigma], v, -1, e)
    bad = [c for c, r in residual.items() if _trim(r)]
    return Verdict("H v = 0", not bad, len(configs), f"nonzero at {bad[:3]}" if bad else "")


def uniform_at_one(vec: dict) -> Verdict:
    """At t = 1 the process is symmetric and its law is uniform."""
    values = {c: _peval(int_coeffs(p), 1) for c, p in vec.items()}
    distinct = set(values.values())
    ok = len(distinct) == 1 and 0 not in distinct
    return Verdict("uniform at t=1", ok, len(values), "" if ok else f"values {sorted(distinct)[:4]}")


def positive_at_half(vec: dict) -> Verdict:
    """No entry vanishes at t = 1/2, and all entries share one sign."""
    values = [_peval(int_coeffs(p), Fraction(1, 2)) for p in vec.values()]
    ok = all(v > 0 for v in values) or all(v < 0 for v in values)
    return Verdict("nonvanishing at t=1/2", ok, len(values), "" if ok else "an entry vanishes or flips sign")


# ---------------------------------------------------------------------------
# verify checks


def two_ball_closed_form(q: Fraction, alpha: int, beta: int):
    """Rows (i, j, a, b) and the closed form num/den of the two-ball element.

    num = (1 - t)^2 (1 + q t^(alpha+beta)) t^(beta-1),
    den = (1 - q t^(alpha+beta)) (1 - q t^(alpha+beta+1)).
    """
    a = (1,) + (0,) * (beta - 1) + (0, 1, 0) + (0,) * alpha
    b = (0,) + (1,) * (beta - 1) + (0, 0, 0) + (1,) * alpha
    i = (0,) + (0,) * (beta - 1) + (1, 0, 1) + (0,) * alpha
    j = (1,) + (1,) * (beta - 1) + (0, 1, 0) + (1,) * alpha
    s = alpha + beta
    num = [0] * (beta - 1) + _pmul(_pmul([1, -1], [1, -1]), [1] + [0] * (s - 1) + [q])
    den = _pmul([1] + [0] * (s - 1) + [-q], [1] + [0] * s + [-q])
    return (i, j, a, b), num, den


def equals_closed_form(name: str, value, num: list, den: list) -> Verdict:
    """value (an asepx RatFunc) equals num/den, by cross-multiplication."""
    vnum = [Fraction(c) for c in value.num.coeffs]
    vden = [Fraction(c) for c in value.den.coeffs]
    if not vden:
        return Verdict(name, False, 0, "zero denominator")
    lhs = _trim(_pmul(vnum, den))
    rhs = _trim(_pmul(num, vden))
    ok = lhs == rhs
    return Verdict(name, ok, max(len(lhs), len(rhs)), "" if ok else "differs from the closed form")


def reports_pass(reports: list) -> Verdict:
    """Every CheckReport passed and recorded at least one trial."""
    bad = [r.name for r in reports if not r.passed or r.trials < 1]
    return Verdict("identity reports", not bad, len(reports), f"failed: {bad}" if bad else "")


def rounds_agree(labels: list[str], rounds: list[list]) -> Verdict:
    """Every round gave the first round's result for every operation; None is a failure."""
    if len(rounds) < 2:
        return Verdict("rounds agree", False, 0, "fewer than two rounds")
    bad = [label for k, label in enumerate(labels)
           if rounds[0][k] is not None
           and any(r[k] is not None and r[k] != rounds[0][k] for r in rounds[1:])]
    return Verdict("rounds agree", not bad, len(labels) * (len(rounds) - 1),
                   f"results differ between rounds for {bad[:3]}" if bad else "")


def windows_nonempty(windows: dict[str, int]) -> Verdict:
    """Every truncation used keeps a safe window of at least one level."""
    bad = [k for k, w in windows.items() if w < 1]
    return Verdict("safe windows", not bad, len(windows), f"empty window for {bad}" if bad else "")


def exact_law(counts: tuple[int, ...], t: Fraction) -> dict[Config, Fraction]:
    """Stationary law of the sector at rate t, solved in Fractions."""
    configs = sector_configs(counts)
    index = {c: k for k, c in enumerate(configs)}
    n = len(configs)
    # rows: d p(tau)/dt = sum_sigma rate(sigma->tau) p(sigma) - out(tau) p(tau)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for sigma in configs:
        s = index[sigma]
        for tau, e in hops(sigma):
            rate = t if e else Fraction(1)
            rows[index[tau]][s] += rate
            rows[s][s] -= rate
    rows[-1] = [Fraction(1)] * n  # normalization replaces one dependent row
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for k in range(n):
        piv = next(r for r in range(k, n) if rows[r][k] != 0)
        rows[k], rows[piv] = rows[piv], rows[k]
        rhs[k], rhs[piv] = rhs[piv], rhs[k]
        for r in range(n):
            if r != k and rows[r][k] != 0:
                f = rows[r][k] / rows[k][k]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
                rhs[r] -= f * rhs[k]
    return {c: rhs[index[c]] / rows[index[c]][index[c]] for c in configs}


def simulation_pulls(law: dict[Config, Fraction], runs: list[dict]) -> Verdict:
    """Mean occupation over the seeds is within PULL_BOUND standard errors."""
    if len(runs) != PULL_SEEDS or len(law) > PULL_MAX_CONFIGS:
        return Verdict("simulator pulls", False, 0,
                       f"bound derived for {PULL_SEEDS} seeds and <= {PULL_MAX_CONFIGS} configurations")
    worst = 0.0
    bad = []
    for cfg, p in law.items():
        vals = [r.get(cfg, 0.0) for r in runs]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        se = sqrt(var / len(vals))
        pull = abs(mean - float(p)) / se if se > 0 else float("inf")
        worst = max(worst, pull)
        if not pull <= PULL_BOUND:
            bad.append(cfg)
    return Verdict("simulator pulls", not bad, len(law),
                   f"worst pull {worst:.2f} (bound {PULL_BOUND})")
