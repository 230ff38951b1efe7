"""Matrix-product layer operators and stationary probabilities as traces.

The layer operator for local state alpha is a finite sum of terms
(z-degree, oscillator word per Fock mode), built by the rank recursion
X_a = sum_i X~_i T_{i a} from a column operator T; `check_recursion`
tests that recursion again as a truncated-matrix identity.  Stationary
probabilities are traces of layer products at z = 1, q = 1, taken by the
same recursion: T's modes are disjoint from X~'s, so a rank-n trace sums,
over rows tau, T's n-1 mode-word traces times the rank-(n-1) trace of
tau.  Each word is traced once (`oscillator.trace_sum` of its normal
form), each lower-rank trace once per rotation class; rank 2 has one
mode, expanded site by site.  The rewrite rules keep each mode's ladder
imbalance, so a row or partial product is dropped unless the remaining
sites can balance every mode.  Traces are cyclic, so a sector's are
taken once per cyclic orbit.  Every denominator is a product of factors
(1 - t^j) known in advance, carried as an exponent map {j: multiplicity};
a trace is lifted to a larger map by multiplying in the missing factors
(`scalar.over_common_map`: no gcd, lcm or division), so a sector's
traces share one map, the `SectorVector` denominator.

Mode numbering: the rank-n operator's modes are the n-1 modes of T
(modes 1..n-1) followed by the embedded rank-(n-1) operator's, so each
term's words (one `ModeWords`) are T's words followed by the embedded
term's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, mul

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
    normal_order,
    trace_sum,
    word_imbalance,
)
from .scalar import P, P_ONE, P_ZERO, Poly, over_common_map, qt_product, residue


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


def _suffix_bounds(sites: list[list[tuple[int, ...]]]) -> list[tuple[range, ...]]:
    """Per mode, the range of imbalances that sites s, s+1, ... can sum to, for each
    s and past the last site; `sites` holds each site's imbalance vectors."""
    bounds = [(range(1),) * len(sites[0][0])]
    for options in reversed(sites):
        bounds.append(tuple(range(r.start + min(d), r.stop + max(d))
                            for r, d in zip(bounds[-1], zip(*options))))
    return bounds[::-1]


@lru_cache(maxsize=None)
def _word_trace(word: OscWord) -> tuple[Poly, Counter]:
    """tr(word) over one mode at q = 1: the `trace_sum` of its normal form."""
    return trace_sum(normal_order(word), 1)


def _rank_two_terms(sigma: Config) -> dict[PEM, Poly]:
    """The rank-2 layer product at z = 1 as {normal monomial: coeff}, balanced only,
    expanded site by site (every term has coefficient 1).  A (monomial, term)
    pair is dropped before normal ordering unless the remaining sites can
    cancel its imbalance; each site's imbalances form an interval, so the
    suffix bounds are exact."""
    ops = [[term.words[0] for term in build_X(2, alpha).terms] for alpha in range(3)]
    bounds = _suffix_bounds([[(word_imbalance(w),) for w in ops[alpha]] for alpha in sigma])
    partial: dict[PEM, Poly] = {(0, 0, 0): P_ONE}
    for site, alpha in enumerate(sigma):
        nxt: dict[PEM, Poly] = {}
        for word in ops[alpha]:
            d = word_imbalance(word)
            kept = {pem: c for pem, c in partial.items()
                    if pem[2] - pem[0] - d in bounds[site + 1][0]}
            for pem, c in mul_word(kept, word).items():
                nxt[pem] = nxt[pem] + c if pem in nxt else c
        partial = {pem: c for pem, c in nxt.items() if c}
    return partial


@lru_cache(maxsize=None)
def _rank_trace(n: int, sigma: Config) -> tuple[Poly, Counter]:
    """tr(X_{s_1} ... X_{s_L}) of rank n at q = 1, z = 1, as (numerator, exponent map).

    The sum over the rows tau with every T_{tau_s s_s} present (each T
    entry has coefficient 1), walked site by site, of the product of
    T's n-1 mode-word traces and the rank-(n-1) trace of tau's smallest
    rotation.  Terms sharing a rotation class are summed before its
    trace multiplies them in, and numerators sharing an exponent map
    before the maps are lifted to one.  Rank <= 1 traces are 1.
    """
    if n <= 1:
        return P_ONE, Counter()
    if n == 2:
        return trace_sum(_rank_two_terms(sigma), 1)
    tmat = build_T(n)
    columns = [[(i, tuple(map(word_imbalance, t.words)), t.words)
                for (i, a), t in tmat.items() if a == alpha] for alpha in sigma]
    bounds = _suffix_bounds([[d for _, d, _ in options] for options in columns])
    rows = [((), (0,) * (n - 1), ((),) * (n - 1))]
    for site, options in enumerate(columns):
        rows = [(tau + (i,), imb2, tuple(map(add, words, ws)))
                for tau, imb, words in rows for i, d, ws in options
                for imb2 in [tuple(map(add, imb, d))]
                if all(-b in r for b, r in zip(imb2, bounds[site + 1]))]
    by_class: dict[Config, dict[frozenset, Poly]] = {}
    for tau, _, words in rows:
        wnums, wmaps = zip(*map(_word_trace, words))
        num, exps = reduce(mul, wnums), sum(wmaps, Counter())
        sums = by_class.setdefault(min(tau[k:] + tau[:k] for k in range(len(tau))), {})
        key = frozenset(exps.items())
        sums[key] = sums.get(key, P_ZERO) + num
    parts: dict[frozenset, Poly] = {}
    for tau, sums in by_class.items():
        lnum, lexps = _rank_trace(n - 1, tau)
        for key, num in sums.items():
            full = frozenset((Counter(dict(key)) + lexps).items())
            parts[full] = parts.get(full, P_ZERO) + num * lnum
    nums, exps = over_common_map(1, {key: (num, Counter(dict(key)))
                                     for key, num in parts.items() if num})
    return sum(nums.values(), P_ZERO), exps


def mp_trace(sigma: Config) -> tuple[Poly, Counter]:
    """Unnormalized stationary probability tr(X_{s_1} ... X_{s_L}) at q = 1, z = 1,
    as (numerator, exponent map of the denominator): `_rank_trace` at n = max(sigma)."""
    n = max(sigma)
    if n < 1:
        raise ValueError("configuration has no particles")
    return _rank_trace(n, sigma)


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
