"""Identity ladder: R matrix, L operators, and the relations tying the
layer operators to stationarity.

The symbolic checks (qp, lt-link's word comparison, ms-theorem,
stationary) are exact in t.  The point checks (ybe, rll, lt-link's L(0)
action, the window identities rtt, zf and hat, and the rank recursion
`ctm.check_recursion`) evaluate mod the prime P = 2^61 - 1 at the
residues of a sampled rational point; R enters them only through
`r_element`, its numerator and denominator evaluated mod P.  Operator
identities are compared as truncated-Fock matrix identities on the safe
window, organized through the tensor factorization of the terms so the
product state space is never enumerated.  The window identities share
one harness, `_window_report`: each check only builds the term sums of
its cases with `_products`, and the harness runs the zero test, scans a
failing case for a witness and writes the report.  Every report records
the degree bounds that make the randomized checks sound.

Soundness mod P.  `residue` is injective on the sample set, because
RANDOM_POINT_BOUND**2 < P, and no pole t z = 1 of a check vanishes mod P
unless it vanishes exactly.  Write a compared difference as G / H with G
an integer polynomial in (x, y, t).  If G is nonzero mod P, Schwartz-
Zippel over GF(P) on the image of the sample set gives the same bound
as over Q, total degree / 1e9 per trial.  So a difference nonzero over
Q could pass at every point only if P divided all the coefficients of
G.  They stay below P: G is a sum of N products of m binomials with
coefficients +-1 (a factor 1 - t^d per a- letter of the Fock action,
one cleared R entry or pole factor), times at most one integer up to n
(a hat coefficient (1 - t) deg_z), so every coefficient is at most
N n 2^m.  rll sums at most 4 products of 3 binomials and ybe at most
16, so theirs are at most 32 and 128; lt-link's L(0) check compares
single products.  The window checks have N <= 4 M_n^2, M_n the most
terms of a layer operator (1, 2, 5, 15, 52, 203, 877 for n = 1..7), and
m <= 2 n - 1, so N n 2^m < 2^38 for n <= 7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import product
from typing import Iterable, Optional, Sequence

from .asep_core import (
    Multiplicity,
    SectorBasis,
    compositions,
    markov_sector,
    nonzero_residual,
    stationary_kernel,
)
from .ctm import (
    EvalTerm,
    XOperator,
    XTerm,
    _x_eval_terms,
    build_T,
    build_X,
    mp_stationary,
)
from .mlq import m_element, mlq_state
from .oscillator import (
    AMINUS,
    APLUS,
    FockTruncation,
    K,
    ModeWords,
    apply_word_to_level,
    multimode_sum_is_zero,
    multimode_words_mul,
    normal_order,
    s_element,
)
from .scalar import P, Poly, RatFunc, RF_ONE, RF_ZERO, random_point, residue


@dataclass
class CheckReport:
    """Outcome of one verification, with sampling/soundness metadata."""

    name: str
    passed: bool
    params: dict = field(default_factory=dict)
    trials: int = 1
    witnesses: list = field(default_factory=list)
    degree_bound: dict = field(default_factory=dict)
    notes: str = ""

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "params": {k: str(v) for k, v in self.params.items()},
            "trials": self.trials,
            "witnesses": [str(w) for w in self.witnesses],
            "degree_bound": self.degree_bound,
            "notes": self.notes,
        }


# the soundness condition of the point checks (module docstring)
MOD_P_NOTE = (
    "zero test mod P = 2^61 - 1 at the point's residues; a difference nonzero"
    " over Q could pass at every point only if P divided all its coefficients"
    " after clearing denominators, which stay below 2^38 (for n <= 7)"
)


# ---------------------------------------------------------------------------
# R matrix


def r_element(z: Fraction, a: int, b: int, i: int, j: int) -> RatFunc:
    """Element R(z)^{a,b}_{i,j}, symbolic in t with z substituted.

    Nonzero patterns: equal quadruple (value 1), diagonal-unequal
    (1-z) t^[i<j] / (1-tz), and swap (1-t) z^[i>j] / (1-tz).
    """
    den = Poly((1, -z))
    if den.is_zero():
        raise ZeroDivisionError("pole t z = 1")
    if a == b == i == j:
        return RF_ONE
    if i == j:
        return RF_ZERO
    if (a, b) == (i, j):
        num = Poly((1 - z,)) if i > j else Poly((0, 1 - z))
        return RatFunc(num, den)
    if (a, b) == (j, i):
        num = Poly((1, -1)).scale(z if i > j else 1)
        return RatFunc(num, den)
    return RF_ZERO


def r_value(z: Fraction, t: int, a: int, b: int, i: int, j: int) -> int:
    """R(z)^{a,b}_{i,j} mod P at the residue t: the numerator and the
    denominator of `r_element`, each evaluated mod P."""
    v = r_element(z, a, b, i, j)
    den = v.den.residue_at(t)
    if not den:
        raise ZeroDivisionError("pole t z = 1")
    return v.num.residue_at(t) * pow(den, -1, P) % P


def r_output_pairs(i: int, j: int) -> tuple[tuple[int, int], ...]:
    """Output pairs (a, b) with R^{a,b}_{i,j} possibly nonzero."""
    return ((i, j),) if i == j else ((i, j), (j, i))


def check_ybe(n: int, x0: Fraction, y0: Fraction, t0: Fraction) -> CheckReport:
    """Braided Yang-Baxter relation on the triple tensor space, mod P at the point."""
    t = residue(t0)
    r_at = {z: cache(partial(r_value, z, t)) for z in (x0, y0, x0 * y0)}

    def rcheck_apply(pos: int, z: Fraction, vec):
        # braided matrix PR at tensor slots (pos, pos+1)
        rv = r_at[z]
        out: dict[tuple[int, ...], int] = {}
        for state, coeff in vec.items():
            i, j = state[pos], state[pos + 1]
            for (a, b) in r_output_pairs(i, j):
                nstate = state[:pos] + (b, a) + state[pos + 2:]
                out[nstate] = (out.get(nstate, 0) + coeff * rv(a, b, i, j)) % P
        return out

    witnesses = []
    for state in product(range(n + 1), repeat=3):
        start = {state: 1}
        lhs = rcheck_apply(0, x0 * y0, rcheck_apply(1, x0, start))
        lhs = rcheck_apply(1, y0, lhs)
        rhs = rcheck_apply(1, x0 * y0, rcheck_apply(0, y0, start))
        rhs = rcheck_apply(0, x0, rhs)
        if any(lhs.get(k, 0) != rhs.get(k, 0) for k in lhs.keys() | rhs.keys()):
            witnesses.append({"input": state})
    return CheckReport(
        name="ybe",
        passed=not witnesses,
        params={"n": n, "x": x0, "y": y0},
        witnesses=witnesses[:5],
        degree_bound={"t": 6, "x": 4, "y": 4},
        notes=f"one (x, y, t) sample per call; {MOD_P_NOTE}",
    )


def check_quasi_periodicity(n: int, z0: Fraction) -> CheckReport:
    """Index-shift covariance of R, all (n+1)^4 components, exact in t."""
    t_pow = RatFunc(Poly((0, 1)))
    witnesses = []
    for a, b, i2, j2 in product(range(n + 1), repeat=4):
        lhs = r_element(z0, a, b, i2, j2)
        zexp = (1 if j2 == 0 else 0) - (1 if b == 0 else 0)
        texp = (1 if (a == 0 and b != 0) else 0) - (
            1 if (i2 != 0 and j2 == 0) else 0
        )
        rhs = r_element(
            z0, (a - 1) % (n + 1), (b - 1) % (n + 1),
            (i2 - 1) % (n + 1), (j2 - 1) % (n + 1),
        ).scale(z0**zexp)
        if texp == 1:
            rhs = rhs * t_pow
        elif texp == -1:
            rhs = rhs / t_pow
        if lhs != rhs:
            witnesses.append({"abij": (a, b, i2, j2)})
    return CheckReport(
        name="quasi-periodicity",
        passed=not witnesses,
        params={"n": n, "z": z0},
        witnesses=witnesses[:5],
        degree_bound={"t": 3, "z": 2},
        notes="exact in t; one z sample per call",
    )


# ---------------------------------------------------------------------------
# L operators on the symmetric tensor levels


def l_element(
    z: int,
    l: int,
    beta: int,
    b: tuple[int, ...],
    alpha: int,
    a: tuple[int, ...],
    t: int,
) -> int:
    """Element L(z)^{beta, b}_{alpha, a} mod P at the residues (z, t)."""
    if sum(a) != l or sum(b) != l:
        raise ValueError("compositions must have weight l")
    ea = list(a)
    ea[alpha] += 1
    eb = list(b)
    eb[beta] += 1
    if ea != eb:
        return 0
    val = pow(t, sum(a[beta + 1:]), P)
    val *= 1 - pow(t, a[beta], P) * (z if alpha == beta else 1)
    if alpha > beta:
        val *= z
    return val % P


def _l_component_map(
    z: int, t: int, n: int, l: int, alpha: int, beta: int
) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """Action of L(z)^beta_alpha on level-l compositions: a -> (a', coeff)."""
    if l < 0:
        raise ValueError(f"level l = {l} has no states to compare; need l >= 0")
    out = {}
    for a in compositions(l, n + 1):
        target = list(a)
        target[alpha] += 1
        target[beta] -= 1
        if target[beta] < 0:
            continue
        coeff = l_element(z, l, beta, tuple(target), alpha, a, t)
        if coeff:
            out[a] = (tuple(target), coeff)
    return out


def check_rll(
    n: int, l: int, x0: Fraction, y0: Fraction, t0: Fraction
) -> CheckReport:
    """RLL = LLR on the level-l space, all (a, b, i, j), mod P at the point."""
    z = x0 / y0
    if 1 - t0 * z == 0:
        raise ZeroDivisionError("pole t x/y = 1")
    t, x, y = residue(t0), residue(x0), residue(y0)
    rv = cache(partial(r_value, z, t))
    lmap = {
        (zv, al, be): _l_component_map(zv, t, n, l, al, be)
        for zv in (x, y)
        for al, be in product(range(n + 1), repeat=2)
    }
    basis = compositions(l, n + 1)
    witnesses = []
    for a, b, i, j in product(range(n + 1), repeat=4):
        # (R-coefficient, L applied first, L applied second): L(x)^a_{a'}
        # then L(y)^b_{b'} on the left, L(y) then L(x) on the right
        sides = [
            (rv(a2, b2, i, j), lmap[(x, a2, a)], lmap[(y, b2, b)])
            for a2, b2 in r_output_pairs(i, j)
        ] + [
            (-rv(a, b, i2, j2), lmap[(y, j, j2)], lmap[(x, i, i2)])
            for i2, j2 in r_output_pairs(a, b)
        ]
        for start in basis:
            acc: dict[tuple[int, ...], int] = {}
            for r, first, second in sides:
                # a level map holds only nonzero coefficients, so c2 = 0
                # means that first or second annihilates the state
                mid, c1 = first.get(start, (None, 0))
                end, c2 = second.get(mid, (None, 0))
                if r and c2:
                    acc[end] = (acc.get(end, 0) + r * c1 * c2) % P
            bad = {k: v for k, v in acc.items() if v}
            if bad:
                witnesses.append({"abij": (a, b, i, j), "state": start, "diff": bad})
    return CheckReport(
        name="rll",
        passed=not witnesses,
        params={"n": n, "l": l, "x": x0, "y": y0, "t": t0},
        witnesses=witnesses[:5],
        degree_bound={"t": 2 * (l + 1) + 3, "x": 4, "y": 4},
        notes=f"operators on the full level-l space; no truncation; {MOD_P_NOTE}",
    )


# ---------------------------------------------------------------------------
# oscillator form of L(0) and the link to the column operator


def build_calL(n: int) -> dict[tuple[int, int], Optional[ModeWords]]:
    """Upper-triangular oscillator matrix on modes 1..n.

    Diagonal: k_{b+1}..k_n; above it a+_a a-_b k_{b+1}..k_n with a+_0
    read as 1; zero below.
    """
    out: dict[tuple[int, int], Optional[ModeWords]] = {}
    for al in range(n + 1):
        for be in range(n + 1):
            if al > be:
                out[(al, be)] = None
                continue
            words = [()] * be + [(K,)] * (n - be)
            if al < be:
                if al >= 1:
                    words[al - 1] = (APLUS,)
                words[be - 1] = (AMINUS,)
            out[(al, be)] = tuple(words)
    return out


def check_LtT(n: int, z0: Optional[Fraction] = None) -> CheckReport:
    """Oscillator matrix equals the column operator up to the mode-n dressing.

    Entry (a, b) of the former must equal T(z)_{a, b+1} (a-_n)^[b=n]
    (z^{-1} k_n)^[b<n] with column n+1 read as column 0; verified as
    exact per-mode normal-form equality with the z-degrees cancelling.
    """
    call = build_calL(n)
    tmat = build_T(n)
    witnesses = []
    for al in range(n):
        for be in range(n + 1):
            lhs = call[(al, be)]
            col = be + 1 if be < n else 0
            tentry = tmat.get((al, col))
            if tentry is None:
                rhs_words = None
                rhs_zdeg = 0
            else:
                if be == n:
                    dress = (AMINUS,)
                    rhs_zdeg = tentry.zdeg
                else:
                    dress = (K,)
                    rhs_zdeg = tentry.zdeg - 1
                rhs_words = tentry.words + (dress,)
            if lhs is None:
                ok = rhs_words is None
            elif rhs_words is None:
                ok = False
            else:
                ok = rhs_zdeg == 0 and _same_modewords(lhs, rhs_words)
            if not ok:
                witnesses.append({"entry": (al, be)})
    return CheckReport(
        name="lt-link",
        passed=not witnesses,
        params={"n": n, "z": z0 if z0 is not None else "symbolic"},
        witnesses=witnesses[:5],
        degree_bound={},
        notes="symbolic identity: z-degrees cancel entrywise, words match",
    )


def _same_modewords(a: ModeWords, b: ModeWords) -> bool:
    return len(a) == len(b) and all(
        normal_order(x).terms == normal_order(y).terms for x, y in zip(a, b)
    )


def check_L0_oscillator(n: int, l: int, t0: Fraction) -> CheckReport:
    """Drop-first-mode image of L(0) acts as the oscillator matrix.

    Compares l_element(0, ...) transitions on level-l compositions with
    the oscillator words applied to the Fock levels (m_1, ..., m_n).
    """
    call = build_calL(n)
    t = residue(t0)
    witnesses = []
    for al, be in product(range(n + 1), repeat=2):
        comp_map = _l_component_map(0, t, n, l, al, be)
        words = call[(al, be)]
        for a in compositions(l, n + 1):
            hit = comp_map.get(a)
            expected = None if hit is None else (hit[0][1:], hit[1])
            osc = None if words is None else _apply_modewords(words, a[1:], t)
            if osc != expected:
                witnesses.append({"entry": (al, be), "state": a})
    return CheckReport(
        name="lt-link-l0",
        passed=not witnesses,
        params={"n": n, "l": l, "t": t0},
        witnesses=witnesses[:5],
        degree_bound={"t": 2 * (l + 1)},
        notes=f"constant term of the level-l operator vs oscillator action; {MOD_P_NOTE}",
    )


# ---------------------------------------------------------------------------
# truncated-window operator identities


def _products(
    scale: int, left: Sequence[EvalTerm], right: Sequence[EvalTerm]
) -> list[EvalTerm]:
    """The expanded terms of scale * (sum of left) * (sum of right), mod P."""
    return [
        (scale * c1 * c2 % P, multimode_words_mul(w1, w2))
        for c1, w1 in left
        for c2, w2 in right
    ]


def _apply_modewords(
    modewords: ModeWords,
    levels: Sequence[int],
    t: int,
    window: Optional[int] = None,
) -> Optional[tuple[tuple[int, ...], int]]:
    """Act with a multi-mode word on the Fock levels (m_1, m_2, ...), mod P.

    Returns the image levels and the coefficient, or None when the word
    annihilates the state or, with a window given, leaves it.
    """
    out = []
    coeff = 1
    for word, d in zip(modewords, levels, strict=True):
        d2, c = apply_word_to_level(word, d, t)
        if not c or (window is not None and d2 > window):
            return None
        coeff = coeff * c % P
        out.append(d2)
    return tuple(out), coeff


def _direct_witness(terms: Sequence[EvalTerm], window: int, t: int):
    """Slow fallback: scan window states for a matrix element nonzero mod P."""
    if not terms:
        return None
    for state in product(range(window + 1), repeat=len(terms[0][1])):
        acc: dict[tuple[int, ...], int] = {}
        for coeff, modewords in terms:
            hit = _apply_modewords(modewords, state, t, window)
            if hit is not None:
                key, c = hit
                acc[key] = (acc.get(key, 0) + coeff * c) % P
        for key, v in acc.items():
            if v:
                return {"in": state, "out": key, "value": v}
    return None


def _window_report(
    name: str,
    label: str,
    cases: Iterable[tuple[tuple[int, ...], list[EvalTerm]]],
    nmodes: int,
    trunc: FockTruncation,
    t0: Fraction,
    params: dict,
    t_extra: int,
    bounds: dict,
) -> CheckReport:
    """Zero-test the term sum of every (index, terms) case on the safe window.

    The terms' coefficients are residues mod P at the point, t0 among
    its coordinates.  A case whose sum is not zero becomes a witness
    {label: index, "element": the first nonzero matrix element of the
    direct scan}.  The t-degree bound counts the window levels of every
    mode plus `t_extra` for the coefficients; `bounds` holds the bounds
    in the other variables.
    """
    window = trunc.safe_window(2)
    t = residue(t0)
    witnesses = [
        {label: index, "element": _direct_witness(terms, window, t)}
        for index, terms in cases
        if not multimode_sum_is_zero(terms, window, t)
    ]
    return CheckReport(
        name=name,
        passed=not witnesses,
        params={**params, "t": t0, "fock_dim": trunc.dim},
        witnesses=witnesses[:5],
        degree_bound={"t": 2 * max(nmodes, 1) * (window + 2) + t_extra, **bounds},
        notes=f"window comparison via tensor-factorized reduction; {MOD_P_NOTE}",
    )


def check_rtt(
    n: int, x0: Fraction, y0: Fraction, trunc: FockTruncation, t0: Fraction
) -> CheckReport:
    """Rank-reducing RTT = TTR for the column operators, on the safe window."""
    z = y0 / x0
    if 1 - t0 * z == 0:
        raise ZeroDivisionError("pole t y/x = 1")
    t, x, y = residue(t0), residue(x0), residue(y0)
    rv = cache(partial(r_value, z, t))
    tmat = build_T(n)

    def tev(i: int, j: int, zval: int) -> list[EvalTerm]:
        entry = tmat.get((i, j))
        return [] if entry is None else [(pow(zval, entry.zdeg, P), entry.words)]

    def cases():
        for a, b, i, j in product(range(n + 1), range(n + 1), range(n), range(n)):
            terms: list[EvalTerm] = []
            for (a2, b2) in r_output_pairs(i, j):
                if r := rv(a2, b2, i, j):
                    terms += _products(r, tev(b2, b, y), tev(a2, a, x))
            for (i2, j2) in r_output_pairs(a, b):
                if r := rv(a, b, i2, j2):
                    terms += _products(-r, tev(i, i2, x), tev(j, j2, y))
            yield (a, b, i, j), terms

    return _window_report(
        "rtt", "abij", cases(), n - 1, trunc, t0,
        {"n": n, "x": x0, "y": y0}, 6, {"x": 4, "y": 4},
    )


def check_zf(
    n: int, x0: Fraction, y0: Fraction, trunc: FockTruncation, t0: Fraction
) -> CheckReport:
    """Exchange algebra of the layer operators on the safe window."""
    z = y0 / x0
    if 1 - t0 * z == 0:
        raise ZeroDivisionError("pole t y/x = 1")
    t, x, y = residue(t0), residue(x0), residue(y0)
    rv = cache(partial(r_value, z, t))
    ops = [build_X(n, alpha) for alpha in range(n + 1)]
    ex = {
        (alpha, zv): _x_eval_terms(ops[alpha], zv, t)
        for alpha in range(n + 1)
        for zv in (x, y)
    }

    def cases():
        for alpha, beta in product(range(n + 1), repeat=2):
            terms = _products(1, ex[(alpha, y)], ex[(beta, x)])
            for (g, d) in r_output_pairs(beta, alpha):
                if r := rv(beta, alpha, g, d):
                    terms += _products(-r, ex[(g, x)], ex[(d, y)])
            yield (alpha, beta), terms

    return _window_report(
        "zf", "alphabeta", cases(), n * (n - 1) // 2, trunc, t0,
        {"n": n, "x": x0, "y": y0}, 4, {"x": 2 * n + 2, "y": 2 * n + 2},
    )


def hat_operators(n: int) -> list[XOperator]:
    """Companion operators (1-t) dX/dz at z = 1 satisfying the local relation."""
    out = []
    one_minus_t = Poly((1, -1))
    for alpha in range(n + 1):
        x = build_X(n, alpha)
        terms = tuple(
            XTerm(0, t.words, t.coeff * one_minus_t.scale(t.zdeg))
            for t in x.terms
            if t.zdeg >= 1
        )
        out.append(XOperator(n, x.nmodes, terms))
    return out


def check_hat(n: int, trunc: FockTruncation, t0: Fraction) -> CheckReport:
    """Local stationarity relation between the layer and companion operators.

    t^[a>b] X_b X_a - t^[a<b] X_a X_b = X_a Xhat_b - Xhat_a X_b on the
    safe window, with every operator taken at z = 1.
    """
    t = residue(t0)
    xev = [_x_eval_terms(build_X(n, alpha), 1, t) for alpha in range(n + 1)]
    hev = [_x_eval_terms(h, 1, t) for h in hat_operators(n)]
    cases = (
        (
            (a, b),
            _products(t if a > b else 1, xev[b], xev[a])
            + _products(-t if a < b else -1, xev[a], xev[b])
            + _products(-1, xev[a], hev[b])
            + _products(1, hev[a], xev[b]),
        )
        for a, b in product(range(n + 1), repeat=2)
    )
    return _window_report(
        "hat", "alphabeta", cases, n * (n - 1) // 2, trunc, t0, {"n": n}, 4, {}
    )


# ---------------------------------------------------------------------------
# the MLQ trace theorem and full stationarity


# shape of the random ms-theorem instances: rows of at most MS_L_MAX
# sites with at most MS_M_MAX balls above, each compared at
# MS_QS_PER_INSTANCE values of q
MS_L_MAX = 7
MS_M_MAX = 5
MS_QS_PER_INSTANCE = 3


def check_ms_theorem(trials: int, seed: int) -> CheckReport:
    """Random equality runs of the pairing sum against the oscillator trace.

    Each instance draws rows (i, j) and an admissible image a, then
    compares the two elements symbolically in t at several rational q.
    """
    rng = random.Random(seed)
    witnesses = []
    done = 0
    while done < trials:
        L = rng.randint(2, MS_L_MAX)
        m = rng.randint(1, min(MS_M_MAX, L))
        l = rng.randint(0, m - 1)
        cols = list(range(L))
        jcols = rng.sample(cols, m)
        icols = rng.sample(cols, l)
        acols = rng.sample(jcols, l)
        i = tuple(1 if c in icols else 0 for c in range(L))
        j = tuple(1 if c in jcols else 0 for c in range(L))
        a = tuple(1 if c in acols else 0 for c in range(L))
        b = tuple(j[c] - a[c] for c in range(L))
        for k in range(MS_QS_PER_INSTANCE):
            q = random_point(seed * 100003 + done * 17 + k)
            lhs = m_element(q, i, j, a, b)
            rhs = s_element(q, i, j, a, b)
            if lhs != rhs:
                witnesses.append({"L": L, "i": i, "j": j, "a": a, "q": q})
        done += 1
    return CheckReport(
        name="ms-theorem",
        passed=not witnesses,
        params={
            "l_max": MS_L_MAX,
            "m_max": MS_M_MAX,
            "qs_per_instance": MS_QS_PER_INSTANCE,
        },
        trials=trials,
        witnesses=witnesses[:5],
        degree_bound={"q": 2 * (MS_M_MAX + 1)},
        notes="exact in t for every sampled q",
    )


def verify_stationary(m: Multiplicity) -> CheckReport:
    """H times the matrix-product vector is exactly zero, and the three
    stationary constructions agree after canonical normalization."""
    basis = SectorBasis(m)
    mat = markov_sector(m, basis)
    mp_canon = mp_stationary(m).canonical()
    witnesses = []
    nonzero = nonzero_residual(mat, basis, mp_canon)
    if nonzero:
        witnesses.append({"residual_at": nonzero[:3]})

    kernel = stationary_kernel(m)
    mlq_canon = mlq_state(m, Fraction(1)).canonical()
    if mp_canon != kernel:
        witnesses.append({"mismatch": "matrix-product vs kernel"})
    if mlq_canon != kernel:
        witnesses.append({"mismatch": "mlq vs kernel"})
    return CheckReport(
        name="stationary",
        passed=not witnesses,
        params={"mult": m.counts},
        witnesses=witnesses,
        degree_bound={},
        notes="exact residual and three-way canonical equality",
    )


# ---------------------------------------------------------------------------
# multi-trial driver


def _draw_points(seed: int, count: int):
    """Deterministic (x, y, t) triples with x != y, off every pole t z = 1
    of the checks (z among x, y, x y, x/y and y/x)."""
    out = []
    k = 0
    while len(out) < count:
        x = random_point(seed * 7919 + 3 * k)
        y = random_point(seed * 7919 + 3 * k + 1)
        t = random_point(seed * 7919 + 3 * k + 2)
        k += 1
        if x == y or 1 in (t * x, t * y, t * x * y, t * y / x, t * x / y):
            continue
        out.append((x, y, t))
    return out


def run_check(
    kind: str,
    n: int = 2,
    l: int = 1,
    fock_dim: int = 10,
    trials: int = 5,
    seed: int = 1,
    mult: Optional[tuple[int, ...]] = None,
) -> CheckReport:
    """Run a named check over `trials` random points and merge the reports."""
    if trials < 1 or n < 1:
        raise ValueError(f"need trials >= 1 and n >= 1, got trials={trials}, n={n}")
    trunc = FockTruncation(fock_dim)
    reports: list[CheckReport] = []
    if kind == "ybe":
        for x, y, t in _draw_points(seed, trials):
            reports.append(check_ybe(n, x, y, t))
    elif kind == "qp":
        for x, _, _ in _draw_points(seed, trials):
            reports.append(check_quasi_periodicity(n, x))
    elif kind == "rll":
        for x, y, t in _draw_points(seed, trials):
            reports.append(check_rll(n, l, x, y, t))
    elif kind == "lt-link":
        reports.append(check_LtT(n))
        for _, _, t in _draw_points(seed, max(trials - 1, 1)):
            reports.append(check_L0_oscillator(n, l, t))
    elif kind == "rtt":
        for x, y, t in _draw_points(seed, trials):
            reports.append(check_rtt(n, x, y, trunc, t))
    elif kind == "zf":
        for x, y, t in _draw_points(seed, trials):
            reports.append(check_zf(n, x, y, trunc, t))
    elif kind == "hat":
        for _, _, t in _draw_points(seed, trials):
            reports.append(check_hat(n, trunc, t))
    elif kind == "ms-theorem":
        reports.append(check_ms_theorem(trials, seed))
    elif kind == "stationary":
        if mult is None:
            raise ValueError("stationary check needs an explicit multiplicity")
        reports.append(verify_stationary(Multiplicity(mult)))
    else:
        raise ValueError(f"unknown check {kind!r}")
    bound = reports[-1].degree_bound
    coverage = {
        var: {"degree_bound": b, "points": len(reports)} for var, b in bound.items()
    }
    deterministic = [
        var for var, b in bound.items() if len(reports) > b
    ]
    notes = (
        reports[-1].notes
        + "; sampled points are exact rationals drawn from >1e9 values, "
        "Schwartz-Zippel failure bound <= total degree / 1e9 per trial"
    )
    if deterministic:
        notes += f"; point count exceeds the degree bound in {deterministic}"
    merged = CheckReport(
        name=kind,
        passed=all(r.passed for r in reports),
        params={**reports[-1].params, "coverage": coverage},
        trials=sum(r.trials for r in reports),
        witnesses=[w for r in reports for w in r.witnesses][:10],
        degree_bound=bound,
        notes=notes,
    )
    return merged
