"""t-deformed oscillator algebra, Fock representation, and exact traces.

Generators act on the bosonic Fock space F = span{|0>, |1>, ...} as

    k|d> = t^d |d>,   a+|d> = |d+1>,   a-|d> = (1 - t^d)|d-1>,

and satisfy k a+- = t^{+-1} a+- k, a- a+ = 1 - t k, a+ a- = 1 - k.

A word is a tuple of letters '+', '-', 'k' (leftmost letter acts last).
Normal ordering rewrites any word into a sum of monomials
(a+)^p k^e (a-)^m, a plain dict {(p, e, m): Poly coefficient in t},
using the confluent, terminating rules of `mul_letter`

    a- a+  ->  1 - t k
    k  a+  ->  t a+ k
    a- k   ->  t k a-

The trace tr(q^h (a+)^p k^e (a-)^p) over F is a finite sum of geometric
series (`trace_pem`), with q substituted as a rational number.  One
path sums such traces: `trace_sum` takes a sum of normal-ordered
monomials, so it serves the traces of `trace_qh`, `s_element` and
`ctm`'s word and rank-2 traces alike, and returns a numerator over an
exponent map of factors (1 - q t^k).

The point action `apply_word_to_level`, the window zero test
`multimode_sum_is_zero` and `_window_report`, the one harness that runs
it on every case of a truncated identity (rtt, zf, hat, `ctm`'s rank
recursion) and names a witness per failing case, work mod the prime
P = 2^61 - 1 of `scalar`, at the residue of the sampled t: exact linear
algebra over GF(P), so a sum passes iff every window matrix element is
0 mod P; the zero test merges equal words, then eliminates once per
mode over one echelon basis of the mode's window rows.  A matrix element
nonzero over Q is 0 mod P only if P divides its numerator;
`algebra_checks` bounds the coefficients of the identities it tests
below P, which keeps the randomized checks sound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence, Union

from .scalar import (
    P,
    P_ONE,
    P_ZERO,
    Poly,
    RatFunc,
    one_minus_qtk,
    over_common_map,
    qt_product,
    residue,
    signed_residue,
)

APLUS = "+"
AMINUS = "-"
K = "k"

LETTERS = (APLUS, AMINUS, K)

OscWord = tuple[str, ...]

# A multi-mode word: one OscWord per Fock mode, mode 1 first; the empty
# word () is the identity on its mode.  Distinct modes commute.
ModeWords = tuple[OscWord, ...]

# a term with its coefficient as a residue mod P
EvalTerm = tuple[int, ModeWords]
Row = tuple[int, ...]  # a 0/1 row of ball sites, as in `mlq`


class UnbalancedWordError(ValueError):
    """Trace of a word whose a+ and a- counts differ."""


class DivergentTraceError(ArithmeticError):
    """A required geometric series has ratio q*t^c = 1."""


def word_from_str(s: str) -> OscWord:
    w = tuple(s)
    for ch in w:
        if ch not in LETTERS:
            raise ValueError(f"bad oscillator letter {ch!r}")
    return w


def word_to_str(w: OscWord) -> str:
    return "".join(w)


def word_imbalance(w: OscWord) -> int:
    """a+ count minus a- count; invariant under the rewrite rules."""
    return sum(1 if c == APLUS else -1 if c == AMINUS else 0 for c in w)


PEM = tuple[int, int, int]


def mul_letter(terms: dict[PEM, Poly], letter: str) -> dict[PEM, Poly]:
    """Right-multiply a sum {(p, e, m): coeff} of monomials (a+)^p k^e (a-)^m
    by one generator, re-normal-ordered; zero coefficients are dropped."""
    out: dict[PEM, Poly] = {}

    def add(key, coeff):
        out[key] = out[key] + coeff if key in out else coeff

    for (p, e, m), c in terms.items():
        if letter == AMINUS:
            add((p, e, m + 1), c)
        elif letter == K:
            # (a-)^m k = t^m k (a-)^m
            add((p, e + 1, m), c.shift(m) if m else c)
        elif m == 0:  # APLUS
            # (a+)^p k^e a+ = t^e (a+)^{p+1} k^e
            add((p + 1, e, 0), c.shift(e) if e else c)
        else:  # APLUS
            # (a-)^m a+ = (a-)^{m-1} - t^m k (a-)^{m-1}
            add((p, e, m - 1), c)
            add((p, e + 1, m - 1), -c.shift(m))
    return {k: v for k, v in out.items() if v}


def mul_word(terms: dict[PEM, Poly], word: OscWord) -> dict[PEM, Poly]:
    return reduce(mul_letter, word, terms)


def normal_order(w: Union[OscWord, str]) -> dict[PEM, Poly]:
    """Unique expansion of a word as {(p, e, m): coeff} over the monomials
    (a+)^p k^e (a-)^m; every key shares the word's imbalance p - m."""
    if isinstance(w, str):
        w = word_from_str(w)
    return mul_word({(0, 0, 0): P_ONE}, w)


def apply_word_to_level(w: OscWord, d: int, t: int) -> tuple[int, int]:
    """Act with a word on the Fock state |d>, mod P at the residue t.

    Returns (d', coeff); an annihilated state gives (0, 0).
    """
    coeff = 1
    for letter in reversed(w):
        if letter == K:
            coeff = coeff * pow(t, d, P) % P
        elif letter == AMINUS:
            if d == 0:
                return 0, 0
            coeff = coeff * (1 - pow(t, d, P)) % P
            d -= 1
        else:
            d += 1
    return d, coeff


def _product_coeffs(p: int) -> list[Poly]:
    """Coefficients c_k(t) of x^k in prod_{j=1..p} (1 - t^j x)."""
    coeffs = [P_ONE]
    for j in range(1, p + 1):
        nxt = [P_ZERO] * (len(coeffs) + 1)
        tj = Poly.t_power(j, -1)
        for k, c in enumerate(coeffs):
            nxt[k] = nxt[k] + c
            nxt[k + 1] = nxt[k + 1] + c * tj
        coeffs = nxt
    return coeffs


# keyed by q: one sector at q = 1 needs at most 9 entries up to L = 7, while
# each random q of the ms-theorem check adds entries never read again
@lru_cache(maxsize=1024)
def trace_pem(p: int, e: int, q: Fraction) -> Poly:
    """tr(q^h (a+)^p k^e (a-)^p) in closed form, as its numerator over the
    formal denominator prod_{k=0..p} (1 - q t^{e+k}); nothing is reduced.
    `trace_sum` is the one reader of that denominator.

    Summing d = p + s gives q^p * sum_k c_k(t) / (1 - q t^{e+k}) where
    prod_{j=1..p}(1 - t^j x) = sum_k c_k(t) x^k.
    """
    if not one_minus_qtk(q, e):
        raise DivergentTraceError(
            f"divergent trace: geometric ratio q*t^{e} = 1 at q = {q}"
        )
    qp = q**p
    total = P_ZERO
    for k, c in enumerate(_product_coeffs(p)):
        others = {e + j: 1 for j in range(p + 1) if j != k}
        total = total + c.scale(qp) * qt_product(q, others)
    return total


def trace_sum(terms: Mapping[PEM, Poly], q: Fraction) -> tuple[Poly, Counter]:
    """tr(q^h . sum) of a sum {(p, e, m): coeff} of normal-ordered monomials, as
    (numerator, exponent map {k: multiplicity} of prod_k (1 - q t^k)).

    A monomial's trace is its `trace_pem` closed form, which depends only
    on its (e, p): the coefficients are summed per (e, p), each closed
    form multiplied in once, and the forms lifted to one map.  Raises
    UnbalancedWordError when some monomial has p != m.
    """
    groups: dict[tuple[int, int], Poly] = {}
    for (p, e, m), coeff in terms.items():
        if p != m:
            raise UnbalancedWordError("unbalanced word")
        groups[e, p] = groups.get((e, p), P_ZERO) + coeff
    nums, exps = over_common_map(q, {
        (e, p): (coeff * trace_pem(p, e, q), Counter(range(e, e + p + 1)))
        for (e, p), coeff in groups.items()})
    return sum(nums.values(), P_ZERO), exps


def trace_qh(w: Union[OscWord, str], q: Fraction) -> RatFunc:
    """Exact tr(q^h . w) over the Fock space as a rational function in t.

    The `trace_sum` of the normal-ordered word, reduced once.  Raises
    UnbalancedWordError when the word does not conserve the level, and
    DivergentTraceError when some required geometric series fails to
    converge (only possible at q = 1 with a k-free term).
    """
    num, exps = trace_sum(normal_order(w), q)
    return RatFunc(num, qt_product(q, exps))


# ---------------------------------------------------------------------------
# strange five vertex weights


def s_weight(i: int, a: int, j: int, b: int) -> Optional[OscWord]:
    """Oscillator-valued vertex weight for edge bits (i, a, j, b).

    Exactly five configurations are nonzero; each satisfies a + b = j.
    Returns the weight as a word (empty word means 1) or None for zero.
    """
    key = (i, a, j, b)
    if key == (0, 0, 0, 0) or key == (1, 1, 1, 0):
        return ()
    if key == (0, 0, 1, 1):
        return (K,)
    if key == (0, 1, 1, 0):
        return (AMINUS,)
    if key == (1, 0, 0, 0):
        return (APLUS,)
    return None


def s_parts(q: Fraction, i: Row, j: Row, a: Row, b: Row) -> tuple[Poly, Counter]:
    """`s_element` as (numerator, exponent map of prod_k (1 - q t^k)): the
    `trace_sum` of the word, with 1 - q t^{m-l} folded in."""
    if not (len(i) == len(j) == len(a) == len(b)):
        raise ValueError("row length mismatch")
    l, m = sum(i), sum(j)
    if l >= m:
        raise ValueError("need l < m")
    weights = [s_weight(*bits) for bits in zip(i, a, j, b)]
    if None in weights:
        return P_ZERO, Counter()
    num, exps = trace_sum(normal_order(sum(weights, ())), q)
    if exps[m - l]:  # 1 - q t^{m-l} cancels a factor of the trace's own map
        return num, exps - Counter({m - l: 1})
    return num * one_minus_qtk(q, m - l), exps


def s_element(q: Fraction, i: Row, j: Row, a: Row, b: Row) -> RatFunc:
    """Two-row transfer element as a single oscillator trace: (1 - q t^{m-l})
    tr(q^h S^{a1 b1}_{i1 j1} ... S^{aL bL}_{iL jL}) for rows with l = |i| balls
    below and m = |j| above, l < m (`s_parts`, reduced).  Vanishes unless a + b = j."""
    num, exps = s_parts(q, i, j, a, b)
    return RatFunc(num, qt_product(q, exps))


@dataclass(frozen=True)
class FockTruncation:
    """Finite cut of the Fock space: states |0> .. |dim-1>, a+ kills the top."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("truncation needs dim >= 2")

    def safe_window(self, ladder_bound: int) -> int:
        """Largest level whose matrix elements are truncation-free."""
        return self.dim - 1 - ladder_bound


# ---------------------------------------------------------------------------
# multi-mode helpers shared by the layer-operator and identity-check code


def multimode_word_to_str(words: ModeWords) -> str:
    """Serialize a multi-mode word: per-mode letter strings joined by '|'."""
    return "|".join(word_to_str(w) for w in words)


def multimode_words_mul(a: ModeWords, b: ModeWords) -> ModeWords:
    """Product of two multi-mode words over the same modes.

    Distinct modes commute; within a mode the left factor's letters act
    after the right factor's, i.e. words concatenate in written order.
    """
    return tuple(x + y for x, y in zip(a, b, strict=True))


# a check reads a few dozen distinct mode vectors, all at its own t, so a
# small bound keeps every hit within a check
@lru_cache(maxsize=128)
def _mode_vector(word: OscWord, shift: int, window: int, t: int) -> tuple[int, ...]:
    """(⟨d+shift| word |d⟩)_d over the window, mod P at the residue t."""
    vals = []
    for d in range(max(0, -shift), window + 1 - max(0, shift)):
        d2, coeff = apply_word_to_level(word, d, t)
        vals.append(coeff if d2 == d + shift else 0)
    return tuple(vals)


def multimode_sum_is_zero(terms: Iterable[EvalTerm], window: int, t: int) -> bool:
    """Zero test mod P for sum_k c_k * (tensor of mode words) on the window.

    The coefficients c_k and t are residues mod P.  Equivalent to
    comparing truncated matrices entrywise for all states with every
    mode level (in and out) at most `window`, but the product states are
    never enumerated: equal words are merged, then, mode by mode, every
    term is split along one echelon basis of that mode's window rows.
    Products of basis rows are independent, so the sum is zero iff no
    term survives.  Every term must carry the same number of mode
    words.  A window below 1 would compare at most the vacuum, so it is
    refused.
    """
    if window < 1:
        raise ValueError(
            f"safe window {window} leaves no truncation-free level to compare;"
            " need a Fock dimension of at least 4"
        )
    # {(basis indices of the reduced modes, words of the others): coeff}
    state: dict[tuple[tuple[int, ...], ModeWords], int] = {}
    for coeff, words in terms:
        key = ((), words)
        state[key] = (state.get(key, 0) + coeff) % P
    if len({len(words) for _, words in state}) > 1:
        raise ValueError("terms carry different numbers of mode words")
    state = {key: c for key, c in state.items() if c}
    while state and next(iter(state))[1]:
        # per shift, the echelon rows (pivot, row scaled to a unit pivot)
        basis: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        parts: dict[OscWord, list[tuple[int, int]]] = {}
        nxt: dict[tuple[tuple[int, ...], ModeWords], int] = {}
        for (prefix, words), coeff in state.items():
            word, rest = words[0], words[1:]
            if word not in parts:
                parts[word] = _basis_coordinates(word, window, t, basis)
            for index, alpha in parts[word]:
                key = (prefix + (index,), rest)
                nxt[key] = (nxt.get(key, 0) + coeff * alpha) % P
        state = {key: c for key, c in nxt.items() if c}
    return not state


def _basis_coordinates(
    word: OscWord, window: int, t: int, basis: dict[int, list[tuple[int, tuple[int, ...]]]]
) -> list[tuple[int, int]]:
    """The word's window row over the echelon `basis`, as its nonzero
    [(basis index, coordinate)]; a row outside the span joins the basis.
    Rows of different shifts share no coordinate (shift, position), and a
    basis row's index is its pivot's, flattened to shift * (window + 1) + position.
    """
    shift = word_imbalance(word)
    if abs(shift) > window:
        return []  # no representable matrix element on the window
    row = _mode_vector(word, shift, window, t)
    rows = basis.setdefault(shift, [])
    out = []
    for piv, brow in rows:
        if f := row[piv]:
            out.append((shift * (window + 1) + piv, f))
            row = tuple((x - f * y) % P for x, y in zip(row, brow))
    piv = next((i for i, x in enumerate(row) if x), None)
    if piv is not None:
        inv = pow(row[piv], -1, P)
        rows.append((piv, tuple(x * inv % P for x in row)))
        out.append((shift * (window + 1) + piv, row[piv]))
    return out


# ---------------------------------------------------------------------------
# window harness of the truncated-operator identities


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


# the soundness condition of the point checks (`algebra_checks` docstring)
MOD_P_NOTE = (
    "zero test mod P = 2^61 - 1 at the point's residues; a difference nonzero"
    " over Q could pass at every point only if P divided all its coefficients"
    " after clearing denominators, which stay below 2^38 (for n <= 7)"
)


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
                return {"in": state, "out": key, "value": signed_residue(v)}
    return None


def _window_report(
    name: str,
    label: str,
    cases: Iterable[tuple[object, list[EvalTerm]]],
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
