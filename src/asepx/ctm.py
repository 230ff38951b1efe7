"""Matrix-product layer operators and stationary probabilities as traces.

The layer operator for local state alpha is a finite sum of terms
(z-degree, oscillator word per Fock mode), built by the rank recursion
from a column operator T; `check_recursion` tests that recursion again
as a truncated-matrix identity.  Stationary probabilities are traces of
layer products at z = 1 over all modes, normal-ordered mode by mode by
`oscillator.mul_word` (each (monomial, word) once) and summed in closed
form at q = 1 by `oscillator.trace_sum`.  The rewrite rules keep each
mode's ladder imbalance, so a partial product is expanded only if the
terms of the remaining sites can bring every mode back to balance.  A
trace is invariant under cyclic shift, so a sector's traces are taken
once per cyclic orbit.  Every denominator is a product of factors (1 - t^j)
known in advance, carried as an exponent map {j: multiplicity}; a trace
is lifted to a larger map by multiplying in the missing factors
(`scalar.over_common_map`: no gcd, lcm or division), so a sector's
traces share one map, the `SectorVector` denominator.

Mode numbering: a term's words form one `ModeWords`, one word per mode.
The rank-n operator's modes are the n-1 modes of the column operator T
(modes 1..n-1) followed by the modes of the embedded rank-(n-1)
operator, so the recursion builds each term's words as T's words
concatenated with the embedded term's words.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .asep_core import Config, Multiplicity, SectorBasis, SectorVector, cyclic_orbit_reps
from .oscillator import (
    AMINUS,
    APLUS,
    CheckReport,
    EvalTerm,
    FockTruncation,
    K,
    PEM,
    ModeWords,
    OscWord,
    _window_report,
    mul_word,
    trace_sum,
    word_imbalance,
)
from .scalar import P, P_ONE, Poly, over_common_map, qt_product, residue


@dataclass(frozen=True)
class XTerm:
    """One monomial of a layer operator: coeff * z^zdeg * product of mode words."""

    zdeg: int
    words: ModeWords
    coeff: Poly = P_ONE


@dataclass(frozen=True)
class XOperator:
    """Layer operator: rank, mode count, and expanded term list."""

    n: int
    nmodes: int
    terms: tuple[XTerm, ...]


def build_T(n: int) -> dict[tuple[int, int], XTerm]:
    """Column operator of rank n as {(i, j): term}, 0 <= i <= n-1, 0 <= j <= n.

    Entry (i, 0) is a+_i (with a+_0 = 1); for j >= 1, z k_j..k_{n-1} on
    the superdiagonal and z a+_i a-_{j-1} k_j..k_{n-1} above it.  Entries
    at or below the diagonal (1 <= j <= i) are zero and absent.  Words
    act on modes 1..n-1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    entries: dict[tuple[int, int], XTerm] = {}
    for i in range(n):
        words = [()] * (n - 1)
        if i >= 1:
            words[i - 1] = (APLUS,)
        entries[(i, 0)] = XTerm(0, tuple(words))
        for j in range(i + 1, n + 1):
            words = [()] * (j - 1) + [(K,)] * (n - j)
            if j >= i + 2:
                if i >= 1:
                    words[i - 1] = (APLUS,)
                words[j - 2] = (AMINUS,)
            entries[(i, j)] = XTerm(1, tuple(words))
    return entries


@lru_cache(maxsize=None)
def build_X(n: int, alpha: int) -> XOperator:
    """Layer operator by the rank recursion X_a = sum_i X~_i(z) T(z)_{i a}.

    Base cases: rank 0 has X_0 = 1; rank 1 has X_0 = 1, X_1 = z.  Each
    term's words are T's n-1 words followed by the embedded term's words.
    """
    if alpha < 0 or alpha > n:
        raise ValueError(f"alpha {alpha} out of range for rank {n}")
    if n == 0:
        return XOperator(0, 0, (XTerm(0, ()),))
    if n == 1:
        return XOperator(1, 0, (XTerm(alpha, ()),))
    tmat = build_T(n)
    terms: list[XTerm] = []
    for i in range(n):
        tentry = tmat.get((i, alpha))
        if tentry is None:
            continue
        for sterm in build_X(n - 1, i).terms:
            terms.append(
                XTerm(
                    sterm.zdeg + tentry.zdeg,
                    tentry.words + sterm.words,
                    sterm.coeff * tentry.coeff,
                )
            )
    return XOperator(n, n * (n - 1) // 2, tuple(terms))


# ---------------------------------------------------------------------------
# traces


@lru_cache(maxsize=None)
def _mul_word(pem: PEM, word: OscWord) -> tuple[tuple[PEM, int, bool], ...]:
    """The monomial pem right-multiplied by word, normal-ordered.

    Returns (monomial, k, negative) items, one per coefficient
    (-1)**negative * t^k.  A layer term's mode words are single letters,
    and one rewrite rule takes a monomial to monomials with such signed
    monomial coefficients, so the expansion applies each by a shift and a
    sign; any other coefficient raises.
    """
    out = []
    for pem2, c in mul_word({pem: P_ONE}, word).items():
        k = c.degree
        if c.coeffs[k] not in (1, -1) or any(c.coeffs[:k]):
            raise AssertionError(f"coefficient {c} of {pem} * {word} is not a signed monomial")
        out.append((pem2, k, c.coeffs[k] < 0))
    return tuple(out)


def _signed_shift(p: Poly, k: int, negative: bool) -> Poly:
    """p * (-1)**negative * t^k."""
    if k:
        p = p.shift(k)
    return -p if negative else p


@lru_cache(maxsize=None)
def _reachable(n: int, alphas: Config) -> frozenset[tuple[int, ...]]:
    """Per-mode imbalance vectors that one term per site of X_{alphas} can sum to."""
    if not alphas:
        return frozenset({(0,) * (n * (n - 1) // 2)})
    rest = _reachable(n, alphas[1:])
    heads = {tuple(map(word_imbalance, term.words)) for term in build_X(n, alphas[0]).terms}
    return frozenset(tuple(map(add, h, r)) for h in heads for r in rest)


def _balanced_terms(sigma: Config) -> dict[tuple[PEM, ...], Poly]:
    """The layer product X_{s_1} ... X_{s_L} at z = 1 as {normal monomials: coeff}.

    Keys hold one normal monomial (p, e, m) per mode.  The product is
    expanded site by site, each mode normal-ordered by the memoized
    `_mul_word`.  The rewrite rules keep each mode's ladder imbalance
    p - m, so a (partial product, term) pair is dropped before any
    normal ordering unless the terms of the remaining sites can cancel
    its imbalance vector (`_reachable`); only balanced monomials
    (p == m in every mode) survive.
    """
    n = max(sigma)
    if n < 1:
        raise ValueError("configuration has no particles")
    nmodes = n * (n - 1) // 2
    ops = [[(term, tuple(map(word_imbalance, term.words))) for term in build_X(n, alpha).terms]
           for alpha in range(n + 1)]

    partial: dict[tuple[PEM, ...], Poly] = {((0, 0, 0),) * nmodes: P_ONE}
    for site, alpha in enumerate(sigma):
        cancel = _reachable(n, sigma[site + 1:])
        nxt: dict[tuple[PEM, ...], Poly] = {}
        for key, coeff in partial.items():
            owed = [m - p for p, _, m in key]
            for term, imbalance in ops[alpha]:
                if tuple(map(sub, owed, imbalance)) not in cancel:
                    continue
                scaled = coeff if term.coeff == P_ONE else coeff * term.coeff
                expansions: list[tuple[tuple[PEM, ...], Poly]] = [((), scaled)]
                for pem, word in zip(key, term.words):
                    parts = _mul_word(pem, word) if word else ((pem, 0, False),)
                    expansions = [
                        (kacc + (pem2,), _signed_shift(cacc, k, negative))
                        for kacc, cacc in expansions
                        for pem2, k, negative in parts
                    ]
                for nkey, ncoeff in expansions:
                    cur = nxt.get(nkey)
                    new = ncoeff if cur is None else cur + ncoeff
                    if new:
                        nxt[nkey] = new
                    elif cur is not None:
                        del nxt[nkey]
        partial = nxt
    return partial


def mp_trace(sigma: Config) -> tuple[Poly, Counter]:
    """Unnormalized stationary probability tr(X_{s_1} ... X_{s_L}) at q = 1, z = 1.

    Returns (numerator, exponent map of the denominator): the
    `oscillator.trace_sum` of the balanced monomials of the layer product.
    """
    return trace_sum(_balanced_terms(sigma), 1)


def mp_stationary(m: Multiplicity) -> SectorVector:
    """Matrix-product stationary vector over one sector-wide exponent map; one trace per orbit."""
    if not m.is_basic:
        raise ValueError("sector must be basic")
    basis = SectorBasis(m)
    rep_of = cyclic_orbit_reps(basis.configs)
    traces = {rep: mp_trace(rep) for rep in sorted(set(rep_of.values()))}
    nums, exps = over_common_map(1, traces)
    return SectorVector(basis, {c: nums[rep_of[c]] for c in basis.configs}, qt_product(1, exps))


# ---------------------------------------------------------------------------
# rank recursion as a truncated-matrix identity


def _x_eval_terms(x: XOperator, z: int, t: int) -> list[EvalTerm]:
    """The operator's terms with coefficients mod P at the residues (z, t)."""
    out = []
    for term in x.terms:
        c = term.coeff.residue_at(t) * pow(z, term.zdeg, P) % P
        if c:
            out.append((c, term.words))
    return out


def check_recursion(
    n: int, z0: Fraction, t0: Fraction, trunc: FockTruncation
) -> CheckReport:
    """Rank recursion X_a = sum_i X~_i T_{i a} as a truncated-matrix identity.

    One case per alpha, X_alpha minus sum_i X~_i T_{i alpha} at the
    residues of (z0, t0), run by `oscillator._window_report`.  Every term
    has coefficient 1 and z-degree at most n, so the degree bounds are n
    in z and, in t, the Fock action's 2 nmodes (window + 2) alone.  Both
    sides come from the same `build_T`, so this tests only `build_X`'s
    loop over T, not T itself; rtt is the check that tests T against R.
    """
    z, t = residue(z0), residue(t0)
    tmat = build_T(n)

    def case(alpha: int) -> list[EvalTerm]:
        rhs = [(-c * pow(z, tentry.zdeg, P), tentry.words + words)
               for (i, a), tentry in tmat.items() if a == alpha
               for c, words in _x_eval_terms(build_X(n - 1, i), z, t)]
        return _x_eval_terms(build_X(n, alpha), z, t) + rhs

    return _window_report(
        "recursion", "alpha", ((alpha, case(alpha)) for alpha in range(n + 1)),
        n * (n - 1) // 2, trunc, t0, {"n": n, "z": z0}, 0, {"z": n},
    )
