"""Matrix-product layer operators and stationary probabilities as traces.

The layer operator for local state alpha is a finite sum of terms
(z-degree, oscillator word per Fock mode), built by the rank recursion
from a column operator T.  Stationary probabilities are traces of layer
products over all modes, evaluated in closed form at q = 1.  A trace is
invariant under cyclic shift, so a sector's traces are taken once per
cyclic orbit; each is summed over one common denominator, a product of
factors (1 - t^j) known from the closed forms, and reduced once.

Mode numbering: the rightmost column of the rank-n operator uses modes
1..n-1; the embedded rank-(n-1) operator uses the higher mode labels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .asep_core import (Config, Multiplicity, SectorBasis, canonicalize_values,
                        cyclic_orbit_reps)
from .mlq import SectorVector
from .oscillator import (
    AMINUS,
    APLUS,
    DivergentTraceError,
    FockTruncation,
    K,
    OscWord,
    apply_word_to_level,
    trace_pem,
)
from .scalar import P_ONE, P_ZERO, Poly, RatFunc, RF_ZERO, one_minus_qtk

ModeWords = tuple[tuple[int, OscWord], ...]


@dataclass(frozen=True)
class XTerm:
    """One monomial of a layer operator: coeff * z^zdeg * product of mode words."""

    zdeg: int
    words: ModeWords
    coeff: Poly = P_ONE

    def word_for(self, mode: int) -> OscWord:
        for m, w in self.words:
            if m == mode:
                return w
        return ()


@dataclass(frozen=True)
class XOperator:
    """Layer operator: rank, mode count, and expanded term list."""

    n: int
    nmodes: int
    terms: tuple[XTerm, ...]


@dataclass
class TMatrix:
    """Column operator of rank n: entries (i, j) for 0 <= i <= n-1, 0 <= j <= n.

    The lower-left triangle (1 <= j <= i) is zero; entries act on modes
    1..n-1.
    """

    n: int
    entries: dict[tuple[int, int], Optional[XTerm]]

    def entry(self, i: int, j: int) -> Optional[XTerm]:
        return self.entries.get((i, j))


def build_T(n: int) -> TMatrix:
    """Column operator: entry (i, 0) is a+_i (with a+_0 = 1); for j >= 1,
    z k_j..k_{n-1} on the superdiagonal, z a+_i a-_{j-1} k_j..k_{n-1} above
    it, zero at or below the diagonal."""
    if n < 1:
        raise ValueError("need n >= 1")
    entries: dict[tuple[int, int], Optional[XTerm]] = {}
    for i in range(n):
        entries[(i, 0)] = XTerm(0, ((i, (APLUS,)),) if i >= 1 else ())
        for j in range(1, n + 1):
            if j <= i:
                entries[(i, j)] = None
                continue
            words: list[tuple[int, OscWord]] = []
            if j >= i + 2:
                if i >= 1:
                    words.append((i, (APLUS,)))
                words.append((j - 1, (AMINUS,)))
            for mode in range(j, n):
                words.append((mode, (K,)))
            entries[(i, j)] = XTerm(1, tuple(sorted(words)))
    return TMatrix(n, entries)


def _shift_modes(term: XTerm, offset: int) -> XTerm:
    return XTerm(
        term.zdeg,
        tuple((m + offset, w) for m, w in term.words),
        term.coeff,
    )


def _merge_words(left: ModeWords, right: ModeWords) -> ModeWords:
    merged: dict[int, OscWord] = {}
    for m, w in left:
        merged[m] = merged.get(m, ()) + w
    for m, w in right:
        merged[m] = merged.get(m, ()) + w
    return tuple(sorted((m, w) for m, w in merged.items() if w))


@lru_cache(maxsize=None)
def build_X(n: int, alpha: int) -> XOperator:
    """Layer operator by the rank recursion X_a = sum_i X~_i(z) T(z)_{i a}.

    Base cases: rank 0 has X_0 = 1; rank 1 has X_0 = 1, X_1 = z.  The
    embedded rank-(n-1) operator has every mode index shifted by n-1.
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
        tentry = tmat.entry(i, alpha)
        if tentry is None:
            continue
        sub = build_X(n - 1, i)
        for sterm in sub.terms:
            shifted = _shift_modes(sterm, n - 1)
            terms.append(
                XTerm(
                    shifted.zdeg + tentry.zdeg,
                    _merge_words(shifted.words, tentry.words),
                    shifted.coeff * tentry.coeff,
                )
            )
    return XOperator(n, n * (n - 1) // 2, tuple(terms))


# ---------------------------------------------------------------------------
# truncated matrices


def x_matrix(
    x: XOperator, z0: Fraction, trunc: FockTruncation
) -> list[list[RatFunc]]:
    """Dense truncated matrix of the operator, entries symbolic in t.

    States are tuples (d_1, ..., d_nmodes); the index of a state is the
    mixed-radix number with mode 1 most significant.  Entries touching
    levels within the safe window are exact.
    """
    D = trunc.dim
    nmodes = x.nmodes
    size = D**nmodes
    mat = [[RF_ZERO] * size for _ in range(size)]

    def idx(state: tuple[int, ...]) -> int:
        v = 0
        for d in state:
            v = v * D + d
        return v

    states: list[tuple[int, ...]] = [()]
    for _ in range(nmodes):
        states = [s + (d,) for s in states for d in range(D)]
    for col_state in states:
        col = idx(col_state)
        for term in x.terms:
            coeff = term.coeff.scale(z0**term.zdeg)
            out_state = []
            dead = False
            for mode in range(1, nmodes + 1):
                d2, c = apply_word_to_level(
                    term.word_for(mode), col_state[mode - 1], dim=D
                )
                if not c:
                    dead = True
                    break
                coeff = coeff * c
                out_state.append(d2)
            if dead:
                continue
            row = idx(tuple(out_state))
            mat[row][col] = mat[row][col] + RatFunc(coeff)
    return mat


# ---------------------------------------------------------------------------
# traces

PEM = tuple[int, int, int]


def _pem_mul_word(pem: PEM, word: OscWord) -> list[tuple[PEM, Poly]]:
    """Right-multiply a normal monomial by a word, staying normal ordered."""
    items: list[tuple[PEM, Poly]] = [(pem, P_ONE)]
    for letter in word:
        nxt: list[tuple[PEM, Poly]] = []
        for (p, e, m), c in items:
            if letter == AMINUS:
                nxt.append(((p, e, m + 1), c))
            elif letter == K:
                nxt.append(((p, e + 1, m), c.shift(m) if m else c))
            else:
                if m == 0:
                    nxt.append(((p + 1, e, 0), c.shift(e) if e else c))
                else:
                    nxt.append(((p, e, m - 1), c))
                    nxt.append(((p, e + 1, m - 1), -c.shift(m)))
        items = nxt
    return items


def _balanced_terms(sigma: Config, z0: Fraction) -> dict[tuple[PEM, ...], Poly]:
    """The layer product X_{s_1} ... X_{s_L} as {normal monomial per mode: coeff}.

    The product is expanded site by site, pruning any partial product
    whose per-mode ladder imbalance cannot return to zero, so only
    balanced monomials (p == m in every mode) survive.
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
                scaled = coeff.scale(z0**term.zdeg)
                if term.coeff != P_ONE:
                    scaled = scaled * term.coeff
                expansions: list[tuple[tuple[PEM, ...], Poly]] = [((), scaled)]
                dead = False
                for mode in range(1, nmodes + 1):
                    word = term.word_for(mode)
                    pem = key[mode - 1]
                    if word:
                        parts = _pem_mul_word(pem, word)
                    else:
                        parts = [(pem, P_ONE)]
                    grown: list[tuple[tuple[PEM, ...], Poly]] = []
                    for (kacc, cacc) in expansions:
                        for (pem2, c2) in parts:
                            if abs(pem2[0] - pem2[2]) > remaining:
                                continue
                            grown.append(
                                (kacc + (pem2,), cacc if c2 == P_ONE else cacc * c2)
                            )
                    if not grown:
                        dead = True
                        break
                    expansions = grown
                if dead:
                    continue
                for nkey, ncoeff in expansions:
                    cur = nxt.get(nkey)
                    new = ncoeff if cur is None else cur + ncoeff
                    if new:
                        nxt[nkey] = new
                    elif cur is not None:
                        del nxt[nkey]
        partial = nxt
    return partial


def mp_trace(sigma: Config, z0: Fraction = Fraction(1)) -> RatFunc:
    """Unnormalized stationary probability tr(X_{s_1} ... X_{s_L}) at q = 1.

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
    for key, coeff in _balanced_terms(sigma, z0).items():
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
    """Matrix-product stationary vector, canonically normalized; one trace per orbit."""
    if not m.is_basic:
        raise ValueError("sector must be basic")
    basis = SectorBasis(m)
    rep_of = cyclic_orbit_reps(basis.configs)
    traces = {rep: mp_trace(rep) for rep in sorted(set(rep_of.values()))}
    raw = {sigma: traces[rep_of[sigma]] for sigma in basis.configs}
    canonical = canonicalize_values(basis, raw)
    return SectorVector(basis, {c: RatFunc(p) for c, p in canonical.items()})


# ---------------------------------------------------------------------------
# rank recursion as a truncated-matrix identity


def _sparse_term_map(
    term: XTerm, nmodes: int, zval: Fraction, t0: Fraction, dim: int
) -> dict[tuple[int, ...], tuple[tuple[int, ...], Fraction]]:
    """Truncated action of one term: state -> (state', coefficient)."""
    base = term.coeff.eval(t0) * zval**term.zdeg
    out = {}
    if not base:
        return out
    states: list[tuple[int, ...]] = [()]
    for _ in range(nmodes):
        states = [s + (d,) for s in states for d in range(dim)]
    for state in states:
        coeff = base
        tgt = []
        dead = False
        for mode in range(1, nmodes + 1):
            d2, c = apply_word_to_level(
                term.word_for(mode), state[mode - 1], t0=t0, dim=dim
            )
            if not c:
                dead = True
                break
            coeff *= c
            tgt.append(d2)
        if not dead:
            out[state] = (tuple(tgt), coeff)
    return out


def _sparse_op(x: XOperator, nmodes, zval, t0, dim):
    """Truncated matrix of an operator as {col_state: {row_state: coeff}}."""
    out: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for term in x.terms:
        for col, (row, c) in _sparse_term_map(term, nmodes, zval, t0, dim).items():
            dst = out.setdefault(col, {})
            new = dst.get(row, Fraction(0)) + c
            if new:
                dst[row] = new
            elif row in dst:
                del dst[row]
    return out


def check_recursion(
    n: int, z0: Fraction, t0: Fraction, trunc: FockTruncation
) -> bool:
    """Rank recursion as a truncated-matrix identity on the safe window.

    For n <= 3 the two sides are compared by genuine sparse matrix
    composition over the whole truncated space; for larger ranks the
    window comparison runs through the exact tensor-factorized zero
    test (the product state space is too large to enumerate).
    """
    from .oscillator import multimode_sum_is_zero, multimode_words_mul

    nmodes = n * (n - 1) // 2
    window = trunc.safe_window(2)
    tmat = build_T(n)
    sub = [build_X(n - 1, i) for i in range(n)]
    if nmodes <= 3:
        D = trunc.dim
        for alpha in range(n + 1):
            lhs = _sparse_op(build_X(n, alpha), nmodes, z0, t0, D)
            rhs: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
            for i in range(n):
                tentry = tmat.entry(i, alpha)
                if tentry is None:
                    continue
                tmap = _sparse_term_map(tentry, nmodes, z0, t0, D)
                xop = _sparse_op(
                    XOperator(
                        n,
                        nmodes,
                        tuple(_shift_modes(t, n - 1) for t in sub[i].terms),
                    ),
                    nmodes, z0, t0, D,
                )
                for col, (mid, c1) in tmap.items():
                    for row, c2 in xop.get(mid, {}).items():
                        dst = rhs.setdefault(col, {})
                        new = dst.get(row, Fraction(0)) + c1 * c2
                        if new:
                            dst[row] = new
                        elif row in dst:
                            del dst[row]
            for col in set(lhs) | set(rhs):
                if not all(d <= window for d in col):
                    continue
                lrow = {
                    r: c for r, c in lhs.get(col, {}).items()
                    if all(d <= window for d in r)
                }
                rrow = {
                    r: c for r, c in rhs.get(col, {}).items()
                    if all(d <= window for d in r)
                }
                if lrow != rrow:
                    return False
        return True
    for alpha in range(n + 1):
        terms = []
        for term in build_X(n, alpha).terms:
            c = term.coeff.eval(t0) * z0**term.zdeg
            terms.append((c, term.words))
        for i in range(n):
            tentry = tmat.entry(i, alpha)
            if tentry is None:
                continue
            for sterm in sub[i].terms:
                shifted = _shift_modes(sterm, n - 1)
                c = -(shifted.coeff.eval(t0) * z0 ** (shifted.zdeg + tentry.zdeg))
                terms.append(
                    (c, multimode_words_mul(shifted.words, tentry.words))
                )
        if not multimode_sum_is_zero(terms, nmodes, window, t0):
            return False
    return True
