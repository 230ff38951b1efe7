"""Matrix-product layer operators and stationary probabilities as traces.

The layer operator for local state alpha is a finite sum of terms
(z-degree, oscillator word per Fock mode), built by the rank recursion
from a column operator T; `check_recursion` tests that recursion again
as a truncated-matrix identity.  Stationary probabilities are traces of
layer products at z = 1 over all modes, normal-ordered mode by mode with
the rewrite rules of `oscillator.NormalForm` and evaluated in closed
form at q = 1.  A trace is invariant under cyclic shift, so a sector's
traces are taken once per cyclic orbit; each is summed over one common
denominator, a product of factors (1 - t^j) known from the closed forms,
and reduced once; the sector's traces are put over the lcm of their
denominators, a `SectorVector`.

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

from .asep_core import Config, Multiplicity, SectorBasis, cyclic_orbit_reps
from .mlq import SectorVector
from .oscillator import (
    AMINUS,
    APLUS,
    DivergentTraceError,
    FockTruncation,
    K,
    ModeWords,
    NormalForm,
    multimode_sum_is_zero,
    trace_pem,
)
from .scalar import P_ONE, P_ZERO, Poly, RatFunc, one_minus_qtk

EvalTerm = tuple[Fraction, ModeWords]


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

PEM = tuple[int, int, int]


def _balanced_terms(sigma: Config) -> dict[tuple[PEM, ...], Poly]:
    """The layer product X_{s_1} ... X_{s_L} at z = 1 as {normal monomials: coeff}.

    Keys hold one normal monomial (p, e, m) per mode.  The product is
    expanded site by site, each mode normal-ordered by
    `NormalForm.mul_word`, pruning any partial product whose per-mode
    ladder imbalance cannot return to zero, so only balanced monomials
    (p == m in every mode) survive.
    """
    n = max(sigma)
    if n < 1:
        raise ValueError("configuration has no particles")
    L = len(sigma)
    nmodes = n * (n - 1) // 2
    ops = [build_X(n, alpha) for alpha in range(n + 1)]

    start: PEM = (0, 0, 0)
    partial: dict[tuple[PEM, ...], Poly] = {(start,) * nmodes: P_ONE}
    for site, alpha in enumerate(sigma):
        remaining = L - site - 1
        nxt: dict[tuple[PEM, ...], Poly] = {}
        for key, coeff in partial.items():
            for term in ops[alpha].terms:
                scaled = coeff if term.coeff == P_ONE else coeff * term.coeff
                expansions: list[tuple[tuple[PEM, ...], Poly]] = [((), scaled)]
                for pem, word in zip(key, term.words):
                    if word:
                        parts = NormalForm({pem: P_ONE}).mul_word(word).terms.items()
                    else:
                        parts = ((pem, P_ONE),)
                    expansions = [
                        (kacc + (pem2,), cacc if c2 == P_ONE else cacc * c2)
                        for kacc, cacc in expansions
                        for pem2, c2 in parts
                        if abs(pem2[0] - pem2[2]) <= remaining
                    ]
                    if not expansions:
                        break
                for nkey, ncoeff in expansions:
                    cur = nxt.get(nkey)
                    new = ncoeff if cur is None else cur + ncoeff
                    if new:
                        nxt[nkey] = new
                    elif cur is not None:
                        del nxt[nkey]
        partial = nxt
    return partial


def mp_trace(sigma: Config) -> RatFunc:
    """Unnormalized stationary probability tr(X_{s_1} ... X_{s_L}) at q = 1, z = 1.

    The trace of each balanced monomial of the layer product factorizes
    over the modes into closed forms `trace_pem(p, e, 1)`, whose
    denominators divide prod_{k=0..p} (1 - t^{e+k}).  The monomials are
    summed over one common denominator D = prod_j (1 - t^j)^{n_j}, n_j
    the largest multiplicity of factor j over the monomials, and the sum
    is reduced once.
    """
    one = Fraction(1)
    by_den: dict[Poly, Poly] = {}
    need: Counter[int] = Counter()
    for key, coeff in _balanced_terms(sigma).items():
        num, den, formal = coeff, P_ONE, Counter()
        for (p, e, m) in key:
            if p != m:
                raise AssertionError("unbalanced key escaped pruning")
            if e == 0:
                raise DivergentTraceError(
                    "divergent trace: non-basic sector or internal error"
                )
            tr = trace_pem(p, e, one)
            num, den = num * tr.num, den * tr.den
            formal.update(range(e, e + p + 1))
        by_den[den] = by_den.get(den, P_ZERO) + num
        need |= formal
    common = P_ONE
    for j, c in need.items():
        common = common * one_minus_qtk(one, j) ** c
    total = P_ZERO
    for den, num in by_den.items():
        cofactor, rem = common.divmod(den)
        if rem:
            raise AssertionError("trace denominator does not divide the common one")
        total = total + num * cofactor
    return RatFunc(total, common)


def mp_stationary(m: Multiplicity) -> SectorVector:
    """Matrix-product stationary vector over one denominator; one trace per orbit."""
    if not m.is_basic:
        raise ValueError("sector must be basic")
    basis = SectorBasis(m)
    rep_of = cyclic_orbit_reps(basis.configs)
    traces = {rep: mp_trace(rep) for rep in sorted(set(rep_of.values()))}
    return SectorVector.over_lcm(basis, {c: traces[rep_of[c]] for c in basis.configs})


# ---------------------------------------------------------------------------
# rank recursion as a truncated-matrix identity


def _x_eval_terms(x: XOperator, zval: Fraction, t0: Fraction) -> list[EvalTerm]:
    """The operator's terms with coefficients evaluated at (z, t) = (zval, t0)."""
    out = []
    for term in x.terms:
        c = term.coeff.eval(t0) * zval**term.zdeg
        if c:
            out.append((c, term.words))
    return out


def check_recursion(
    n: int, z0: Fraction, t0: Fraction, trunc: FockTruncation
) -> bool:
    """Rank recursion X_a = sum_i X~_i T_{i a} as a truncated-matrix identity.

    Both sides are evaluated at (z0, t0), and their difference is tested
    on the safe window by the exact tensor-factorized zero test, so the
    product state space is never enumerated.
    """
    nmodes = n * (n - 1) // 2
    window = trunc.safe_window(2)
    tmat = build_T(n)
    for alpha in range(n + 1):
        terms = _x_eval_terms(build_X(n, alpha), z0, t0)
        for i in range(n):
            tentry = tmat.get((i, alpha))
            if tentry is None:
                continue
            for c, words in _x_eval_terms(build_X(n - 1, i), z0, t0):
                terms.append((-c * z0**tentry.zdeg, tentry.words + words))
        if not multimode_sum_is_zero(terms, nmodes, window, t0):
            return False
    return True
