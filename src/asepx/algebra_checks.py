"""Identity ladder: R matrix, L operators, and the relations tying the
layer operators to stationarity.

The symbolic checks (qp, lt-link's word comparison, ms-theorem,
stationary) are exact in t.  The point checks (ybe, rll, lt-link's L(0)
action, the window identities rtt, zf and hat, and the rank recursion
`ctm.check_recursion`) evaluate mod the prime P = 2^61 - 1 at the
residues of a sampled rational point.  R exists in one form,
`r_element`'s unreduced pair (numerator, denominator) of polynomials in
t: the point checks read it through `r_value`, the two residues mod P
and one inverse, and qp cross-multiplies the pairs exactly.  Operator
identities are compared as truncated-Fock matrix identities on the safe
window by `oscillator.multimode_sum_is_zero`, which merges equal terms
and eliminates once per mode, so the product state space is never
enumerated.  They share one harness with
`ctm.check_recursion`, `oscillator._window_report`: each check builds
the term sums of its cases with `_products`, and the harness zero-tests
them, names a witness per failing case and writes the report, with the
degree bounds that make the randomized checks sound.

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
    XOperator,
    XTerm,
    _x_eval_terms,
    build_T,
    build_X,
    mp_stationary,
)
from .mlq import m_parts, mlq_state
from .oscillator import (
    AMINUS,
    APLUS,
    CheckReport,
    EvalTerm,
    FockTruncation,
    K,
    MOD_P_NOTE,
    ModeWords,
    _apply_modewords,
    _window_report,
    multimode_words_mul,
    normal_order,
    s_parts,
)
from .scalar import (
    P, P_ONE, P_ZERO, Poly, over_common_map, random_point, residue, signed_residue,
)


# ---------------------------------------------------------------------------
# R matrix


def r_element(z: Fraction, a: int, b: int, i: int, j: int) -> tuple[Poly, Poly]:
    """Element R(z)^{a,b}_{i,j} as an unreduced pair (numerator,
    denominator) of polynomials in t with z substituted.

    Nonzero patterns: equal quadruple (1, 1), diagonal-unequal
    (1-z) t^[i<j] over 1-tz, and swap (1-t) z^[i>j] over 1-tz; every
    other entry is (0, 1).
    """
    if a == b == i == j:
        return P_ONE, P_ONE
    if i == j or (a, b) not in ((i, j), (j, i)):
        return P_ZERO, P_ONE
    if (a, b) == (i, j):
        return Poly.t_power(i < j, 1 - z), Poly((1, -z))
    return Poly((1, -1)).scale(z if i > j else 1), Poly((1, -z))


def r_value(z: Fraction, t: int, a: int, b: int, i: int, j: int) -> int:
    """R(z)^{a,b}_{i,j} mod P at the residue t: the numerator and the
    denominator of `r_element`, each evaluated mod P."""
    num, den = r_element(z, a, b, i, j)
    d = den.residue_at(t)
    if not d:
        raise ZeroDivisionError("pole t z = 1")
    return num.residue_at(t) * pow(d, -1, P) % P


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
    """Index-shift covariance of R, all (n+1)^4 components, exact in t.

    Each component n1/d1 = z^zexp t^texp n2/d2 is compared cross-multiplied,
    n1 d2 t^[texp<0] = z^zexp n2 d1 t^[texp>0], in Q[t].
    """
    witnesses = []
    for a, b, i2, j2 in product(range(n + 1), repeat=4):
        n1, d1 = r_element(z0, a, b, i2, j2)
        zexp = (1 if j2 == 0 else 0) - (1 if b == 0 else 0)
        texp = (1 if (a == 0 and b != 0) else 0) - (
            1 if (i2 != 0 and j2 == 0) else 0
        )
        n2, d2 = r_element(
            z0, (a - 1) % (n + 1), (b - 1) % (n + 1),
            (i2 - 1) % (n + 1), (j2 - 1) % (n + 1),
        )
        lhs = (n1 * d2).shift(texp < 0)
        rhs = (n2 * d1).scale(z0**zexp).shift(texp > 0)
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
            bad = {k: signed_residue(v) for k, v in acc.items() if v}
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


def check_LtT(n: int) -> CheckReport:
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
        params={"n": n, "z": "symbolic"},
        witnesses=witnesses[:5],
        degree_bound={},
        notes="symbolic identity: z-degrees cancel entrywise, words match",
    )


def _same_modewords(a: ModeWords, b: ModeWords) -> bool:
    return len(a) == len(b) and all(
        normal_order(x) == normal_order(y) for x, y in zip(a, b)
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
    factors: Iterable[tuple[int, Sequence[EvalTerm], Sequence[EvalTerm]]]
) -> list[EvalTerm]:
    """The terms of the sum of scale * (sum of left) * (sum of right) over
    the (scale, left, right) of `factors`, mod P: one term per distinct
    product word, in the order of first appearance.  A word whose
    coefficients cancel stays, with coefficient 0, so that the direct
    scan of `_window_report` meets the matrix elements in the same order
    as over the expanded terms; the zero test drops it.
    """
    terms: dict[ModeWords, int] = {}
    for scale, left, right in factors:
        for c1, w1 in left:
            for c2, w2 in right:
                w = multimode_words_mul(w1, w2)
                terms[w] = (terms.get(w, 0) + scale * c1 * c2) % P
    return [(c, w) for w, c in terms.items()]


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
            rt = [(r, tev(b2, b, y), tev(a2, a, x))
                  for (a2, b2) in r_output_pairs(i, j) if (r := rv(a2, b2, i, j))]
            tr = [(-r, tev(i, i2, x), tev(j, j2, y))
                  for (i2, j2) in r_output_pairs(a, b) if (r := rv(a, b, i2, j2))]
            yield (a, b, i, j), _products(rt + tr)

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
            rx = [(-r, ex[(g, x)], ex[(d, y)])
                  for (g, d) in r_output_pairs(beta, alpha) if (r := rv(beta, alpha, g, d))]
            yield (alpha, beta), _products([(1, ex[(alpha, y)], ex[(beta, x)])] + rx)

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
            _products([
                (t if a > b else 1, xev[b], xev[a]),
                (-t if a < b else -1, xev[a], xev[b]),
                (-1, xev[a], hev[b]),
                (1, hev[a], xev[b]),
            ]),
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
    Both sides are numerators over exponent maps of prod_k (1 - q t^k)
    (`m_parts`, `s_parts`), compared by cross-multiplication with no gcd:
    they are equal in Q(t) iff their numerators lifted to one common map
    by `over_common_map` are.
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
            nums, _ = over_common_map(q, {0: m_parts(q, i, j, a, b), 1: s_parts(q, i, j, a, b)})
            if nums[0] != nums[1]:
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
