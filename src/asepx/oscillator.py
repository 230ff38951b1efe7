"""t-deformed oscillator algebra, Fock representation, and exact traces.

Generators act on the bosonic Fock space F = span{|0>, |1>, ...} as

    k|d> = t^d |d>,   a+|d> = |d+1>,   a-|d> = (1 - t^d)|d-1>,

and satisfy k a+- = t^{+-1} a+- k, a- a+ = 1 - t k, a+ a- = 1 - k.

A word is a tuple of letters '+', '-', 'k' (leftmost letter acts last).
Normal ordering rewrites any word into a sum of monomials
(a+)^p k^e (a-)^m with polynomial coefficients in t, using the
confluent, terminating rules

    a- a+  ->  1 - t k
    k  a+  ->  t a+ k
    a- k   ->  t k a-

Traces tr(q^h . word) over F are evaluated in closed form as finite
sums of geometric series, producing exact rational functions in t with
q substituted as a rational number.

The point action `apply_word_to_level` and the window zero test
`multimode_sum_is_zero` of the identity checks run mod the prime
P = 2^61 - 1 of `scalar`, at the residue of the sampled t: exact linear
algebra over GF(P), so a sum passes iff every window matrix element is
0 mod P.  A matrix element nonzero over Q is 0 mod P only if P divides
its numerator; `algebra_checks` bounds the coefficients of the
identities it tests below P, which keeps the randomized checks sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

from .scalar import (
    P,
    P_ONE,
    P_ZERO,
    Poly,
    RatFunc,
    RF_ZERO,
    one_minus_qtk,
)

APLUS = "+"
AMINUS = "-"
K = "k"

LETTERS = (APLUS, AMINUS, K)

OscWord = tuple[str, ...]

# A multi-mode word: one OscWord per Fock mode, mode 1 first; the empty
# word () is the identity on its mode.  Distinct modes commute.
ModeWords = tuple[OscWord, ...]


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


class NormalForm:
    """Sum of monomials (a+)^p k^e (a-)^m with Poly coefficients.

    Keys are (p, e, m); zero coefficients are dropped.  Every key of a
    normal-ordered word shares the same p - m.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[tuple[int, int, int], Poly]] = None):
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    @staticmethod
    def one() -> "NormalForm":
        return NormalForm({(0, 0, 0): P_ONE})

    def imbalance(self) -> Optional[int]:
        for (p, _, m) in self.terms:
            return p - m
        return None

    def mul_letter(self, letter: str) -> "NormalForm":
        """Right-multiply by a single generator, re-normal-ordering."""
        out: dict[tuple[int, int, int], Poly] = {}

        def add(key, coeff):
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff

        for (p, e, m), c in self.terms.items():
            if letter == AMINUS:
                add((p, e, m + 1), c)
            elif letter == K:
                # (a-)^m k = t^m k (a-)^m
                add((p, e + 1, m), c.shift(m) if m else c)
            else:  # APLUS
                if m == 0:
                    # (a+)^p k^e a+ = t^e (a+)^{p+1} k^e
                    add((p + 1, e, 0), c.shift(e) if e else c)
                else:
                    # (a-)^m a+ = (a-)^{m-1} - t^m k (a-)^{m-1}
                    add((p, e, m - 1), c)
                    add((p, e + 1, m - 1), -c.shift(m))
        return NormalForm(out)

    def mul_word(self, word: OscWord) -> "NormalForm":
        nf = self
        for letter in word:
            nf = nf.mul_letter(letter)
        return nf

    def __eq__(self, other) -> bool:
        return isinstance(other, NormalForm) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (p, e, m), c in sorted(self.terms.items()):
            bits.append(f"({c!r})*[p={p},e={e},m={m}]")
        return " + ".join(bits)


def normal_order(w: Union[OscWord, str]) -> NormalForm:
    """Unique expansion of a word as sum of (a+)^p k^e (a-)^m monomials."""
    if isinstance(w, str):
        w = word_from_str(w)
    return NormalForm.one().mul_word(w)


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


@lru_cache(maxsize=None)
def trace_pem(p: int, e: int, q: Fraction) -> RatFunc:
    """tr(q^h (a+)^p k^e (a-)^p) in closed form.

    Summing d = p + s gives q^p * sum_k c_k(t) / (1 - q t^{e+k}) where
    prod_{j=1..p}(1 - t^j x) = sum_k c_k(t) x^k.
    """
    total = RF_ZERO
    qp = q**p
    for k, c in enumerate(_product_coeffs(p)):
        if c.is_zero():
            continue
        den = one_minus_qtk(q, e + k)
        if den.is_zero():
            raise DivergentTraceError(
                f"divergent trace: geometric ratio q*t^{e + k} = 1 at q = {q}"
            )
        total = total + RatFunc(c.scale(qp), den)
    return total


def trace_qh(w: Union[OscWord, str, NormalForm], q: Fraction) -> RatFunc:
    """Exact tr(q^h . w) over the Fock space as a rational function in t.

    Raises UnbalancedWordError when the word does not conserve the
    level, and DivergentTraceError when some required geometric series
    fails to converge (only possible at q = 1 with a k-free term).
    """
    nf = w if isinstance(w, NormalForm) else normal_order(w)
    delta = nf.imbalance()
    if delta not in (None, 0):
        raise UnbalancedWordError("unbalanced word")
    total = RF_ZERO
    for (p, e, m), c in nf.terms.items():
        total = total + RatFunc(c) * trace_pem(p, e, q)
    return total


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


def s_element(
    q: Fraction,
    i: tuple[int, ...],
    j: tuple[int, ...],
    a: tuple[int, ...],
    b: tuple[int, ...],
) -> RatFunc:
    """Two-row transfer element as a single oscillator trace.

    (1 - q t^{m-l}) tr(q^h S^{a1 b1}_{i1 j1} ... S^{aL bL}_{iL jL}) for
    rows with l = |i| balls below and m = |j| above, l < m.  Vanishes
    unless a + b = j sitewise.
    """
    L = len(i)
    if not (len(j) == len(a) == len(b) == L):
        raise ValueError("row length mismatch")
    l, m = sum(i), sum(j)
    if l >= m:
        raise ValueError("need l < m")
    word: list[str] = []
    for r in range(L):
        wr = s_weight(i[r], a[r], j[r], b[r])
        if wr is None:
            return RF_ZERO
        word.extend(wr)
    prefactor = RatFunc(one_minus_qtk(q, m - l))
    return prefactor * trace_qh(tuple(word), q)


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


def multimode_sum_is_zero(
    terms: Iterable[tuple[int, ModeWords]], window: int, t: int
) -> bool:
    """Zero test mod P for sum_k c_k * (tensor of mode words) on the window.

    The coefficients c_k and t are residues mod P.  Equivalent to
    comparing truncated matrices entrywise for all states with every
    mode level (in and out) at most `window`, but organised by the
    tensor factorisation: terms are grouped by their per-mode level
    shifts, then reduced mode by mode against a row basis over GF(P),
    so the product state space is never enumerated.  Every term must
    carry the same number of mode words.  A window below 1 would
    compare at most the vacuum, so it is refused.
    """
    if window < 1:
        raise ValueError(
            f"safe window {window} leaves no truncation-free level to compare;"
            " need a Fock dimension of at least 4"
        )
    terms = list(terms)
    if len({len(words) for _, words in terms}) > 1:
        raise ValueError("terms carry different numbers of mode words")
    groups: dict[tuple[int, ...], list[tuple[int, ModeWords]]] = {}
    for coeff, words in terms:
        if coeff := coeff % P:
            shifts = tuple(word_imbalance(w) for w in words)
            groups.setdefault(shifts, []).append((coeff, words))

    for shifts, group in groups.items():
        if any(abs(s) > window for s in shifts):
            continue  # no representable matrix elements on the window
        vectors = [
            tuple(_mode_vector(w, s, window, t) for w, s in zip(words, shifts))
            for _, words in group
        ]
        if not _tensor_zero([c for c, _ in group], vectors, 0):
            return False
    return True


def _tensor_zero(
    coeffs: list[int], vectors: list[tuple[tuple[int, ...], ...]], mode: int
) -> bool:
    live = [k for k, c in enumerate(coeffs) if c]
    if not live:
        return True
    if mode == len(vectors[live[0]]):
        return sum(coeffs[k] for k in live) % P == 0
    # Express each term's mode vector over a triangular basis of rows
    # with unit pivots: row_k = sum_b alpha[k][b] * basis[b].  The tensor
    # sum vanishes iff it vanishes for every basis row separately.
    basis: list[tuple[int, tuple[int, ...]]] = []
    alphas: dict[int, list[int]] = {}
    for k in live:
        row = vectors[k][mode]
        alpha = []
        for piv, brow in basis:
            f = row[piv]
            alpha.append(f)
            if f:
                row = tuple((x - f * y) % P for x, y in zip(row, brow))
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is not None:
            inv = pow(row[piv], -1, P)
            basis.append((piv, tuple(x * inv % P for x in row)))
            alpha.append(row[piv])
        alphas[k] = alpha
    for bi in range(len(basis)):
        sub = [0] * len(coeffs)
        for k in live:
            ak = alphas[k]
            if bi < len(ak) and ak[bi]:
                sub[k] = coeffs[k] * ak[bi] % P
        if not _tensor_zero(sub, vectors, mode + 1):
            return False
    return True
