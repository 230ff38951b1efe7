from fractions import Fraction

import pytest

from asepx.asep_core import Multiplicity, SectorBasis
from asepx.mlq import SectorVector, iter_mlqs
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
