from fractions import Fraction

import pytest

from asepx.asep_core import Multiplicity, SectorBasis
from asepx.mlq import SectorVector, iter_mlqs
from asepx.oscillator import word_imbalance
from asepx.scalar import P_ONE, P_ZERO, Poly, RatFunc


def poly(*coeffs) -> Poly:
    """Polynomial from low-degree-first coefficients."""
    return Poly(tuple(Fraction(c) for c in coeffs))


def one_minus_t_pow(e: int) -> Poly:
    """1 - t**e."""
    return Poly((1,) + (0,) * (e - 1) + (-1,))


def fock_action(w, d: int, dim=None) -> tuple[int, Poly]:
    """Oracle: act with a word on |d>, with coefficients Polys in t.

    With `dim` given, the truncated action: a+ kills |dim-1>.  An
    annihilated state gives (0, 0).
    """
    coeff = P_ONE
    for letter in reversed(w):
        if letter == "k":
            coeff = coeff.shift(d)
        elif letter == "-":
            if d == 0:
                return 0, P_ZERO
            coeff = coeff * one_minus_t_pow(d)
            d -= 1
        else:
            d += 1
            if dim is not None and d >= dim:
                return 0, P_ZERO
    return d, coeff


def exact_action(w, d: int, t0: Fraction) -> tuple[int, Fraction]:
    """Oracle: act with a word on |d>, exact at t = t0; (0, 0) if annihilated."""
    coeff = Fraction(1)
    for letter in reversed(w):
        if letter == "k":
            coeff *= t0**d
        elif letter == "-":
            if d == 0:
                return 0, Fraction(0)
            coeff *= 1 - t0**d
            d -= 1
        else:
            d += 1
    return d, coeff


def exact_mode_vector(word, shift: int, window: int, t0: Fraction) -> tuple:
    """Oracle: (<d+shift| word |d>)_d over the window, exact at t = t0."""
    vals = []
    for d in range(max(0, -shift), window + 1 - max(0, shift)):
        d2, coeff = exact_action(word, d, t0)
        vals.append(coeff if d2 == d + shift else Fraction(0))
    return tuple(vals)


def exact_sum_is_zero(terms, window: int, t0: Fraction) -> bool:
    """Oracle: the tensor-factorized window zero test in exact Fractions.

    terms are (Fraction coefficient, multi-mode word) pairs; the sum is
    zero iff every matrix element with all levels at most `window` is.
    """
    groups = {}
    for coeff, words in terms:
        if coeff:
            shifts = tuple(word_imbalance(w) for w in words)
            groups.setdefault(shifts, []).append((coeff, words))
    for shifts, group in groups.items():
        if any(abs(s) > window for s in shifts):
            continue
        vectors = [
            tuple(exact_mode_vector(w, s, window, t0) for w, s in zip(words, shifts))
            for _, words in group
        ]
        if not _exact_tensor_zero([c for c, _ in group], vectors, 0):
            return False
    return True


def _exact_tensor_zero(coeffs, vectors, mode: int) -> bool:
    live = [k for k, c in enumerate(coeffs) if c]
    if not live:
        return True
    if mode == len(vectors[live[0]]):
        return sum(coeffs[k] for k in live) == 0
    width = len(vectors[live[0]][mode])
    # row_k = sum_b alpha[k][b] * basis[b] over an exact triangular basis
    basis = []
    alphas = {}
    for k in live:
        row = list(vectors[k][mode])
        alpha = [Fraction(0)] * len(basis)
        for bi, brow in enumerate(basis):
            piv = next(i for i, x in enumerate(brow) if x)
            if row[piv]:
                f = row[piv] / brow[piv]
                alpha[bi] = f
                for i in range(width):
                    row[i] -= f * brow[i]
        if any(row):
            basis.append(row)
            alpha.append(Fraction(1))
        alphas[k] = alpha
    for bi in range(len(basis)):
        sub = [Fraction(0)] * len(coeffs)
        for k in live:
            ak = alphas[k]
            if bi < len(ak) and ak[bi]:
                sub[k] = coeffs[k] * ak[bi]
        if not _exact_tensor_zero(sub, vectors, mode + 1):
            return False
    return True


def sparse(words) -> tuple:
    """Sparse view ((mode, word), ...) of a multi-mode word, empty words left out."""
    return tuple((m, w) for m, w in enumerate(words, 1) if w)


def rf(num, den=None) -> RatFunc:
    if not isinstance(num, Poly):
        num = poly(num)
    if den is None:
        return RatFunc(num)
    if not isinstance(den, Poly):
        den = poly(den)
    return RatFunc(num, den)


def local_markov(n: int) -> list[list[Poly]]:
    """Dense two-site generator on the basis |a,b> ordered lexicographically.

    Column |a,b| sends the pair to |b,a| at rate t^[a<b]; column sums
    vanish (probability conservation).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    size = (n + 1) ** 2
    mat = [[P_ZERO] * size for _ in range(size)]
    for a in range(n + 1):
        for b in range(n + 1):
            if a == b:
                continue
            col = a * (n + 1) + b
            row = b * (n + 1) + a
            rate = Poly((0, 1)) if a < b else P_ONE
            mat[row][col] = mat[row][col] + rate
            mat[col][col] = mat[col][col] - rate
    return mat


def mlq_enumerate_direct(m: Multiplicity, q: Fraction = Fraction(1)) -> SectorVector:
    """Stationary-state sum by explicit enumeration of all multiline queues.

    Independent of the operator pipeline; intended for small sectors.
    """
    values: dict[tuple[int, ...], RatFunc] = {}
    for rec in iter_mlqs(m, q):
        cur = values.get(rec.config)
        values[rec.config] = rec.weight if cur is None else cur + rec.weight
    return SectorVector.over_lcm(SectorBasis(m), values)


@pytest.fixture
def frac():
    return Fraction
