from fractions import Fraction
from unittest.mock import patch

import pytest

from asepx import asep_core
from asepx.asep_core import KernelError, Multiplicity, SectorBasis
from asepx.mlq import SectorVector, iter_mlqs
from asepx.oscillator import word_imbalance
from asepx.scalar import P_ONE, P_ZERO, Poly, RatFunc, content, poly_gcd, primitive


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


def weight_rf(w) -> RatFunc:
    """Oracle: the RatFunc of a factored queue weight (coeff, tpow, factors),
    coeff t^tpow (1 - t)^len(factors) / prod (1 - qe t^j), reduced by gcd."""
    coeff, tpow, factors = w
    den = P_ONE
    for qe, j in factors:
        den = den * Poly((1,) + (0,) * (j - 1) + (-qe,))
    return RatFunc((one_minus_t_pow(1) ** len(factors)).shift(tpow).scale(coeff), den)


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
    den = P_ONE  # the lcm of the denominators
    for v in values.values():
        den = den * v.den // poly_gcd(den, v.den)
    nums = {c: v.num * (den // v.den) for c, v in values.items()}
    return SectorVector(SectorBasis(m), nums, den)


def bareiss_kernel_vector(rows: list[dict[int, Poly]], dim: int) -> list[Poly]:
    """Oracle: the kernel vector of the row system by fraction-free elimination
    in the polynomial ring (Bareiss, Math. Comp. 1968), else KernelError.

    Lowest-degree pivots, exact divisions by the previous pivot, then
    back-substitution from x_last = the last pivot: the solution is the
    vector of maximal minors (Cramer's rule), so every division of the
    back-substitution is exact too; a remainder raises.
    """
    mat = [[row.get(c, P_ZERO) for c in range(dim)] for row in rows]
    nrows = len(mat)
    col_perm = list(range(dim))
    prev = P_ONE
    rank = 0
    for k in range(min(nrows, dim)):
        nonzero = ((i, j) for i in range(k, nrows) for j in range(k, dim) if mat[i][j])
        best = min(((mat[i][j].degree, i, j) for i, j in nonzero), default=None)
        if best is None:
            break
        _, bi, bj = best
        mat[k], mat[bi] = mat[bi], mat[k]
        for r in mat:
            r[k], r[bj] = r[bj], r[k]
        col_perm[k], col_perm[bj] = col_perm[bj], col_perm[k]
        piv = mat[k][k]
        for i in range(k + 1, nrows):
            head = mat[i][k]
            for j in range(k + 1, dim):
                mat[i][j] = _exact_div(piv * mat[i][j] - head * mat[k][j], prev)
            mat[i][k] = P_ZERO
        prev = piv
        rank = k + 1
    if rank != dim - 1:
        raise KernelError(f"kernel dimension {dim - rank} != 1")
    vec_perm = [P_ZERO] * dim
    vec_perm[dim - 1] = prev
    for i in range(rank - 1, -1, -1):
        acc = sum((mat[i][j] * vec_perm[j] for j in range(i + 1, dim)), P_ZERO)
        vec_perm[i] = -_exact_div(acc, mat[i][i])
    vec = [P_ZERO] * dim
    for pos, col in enumerate(col_perm):
        vec[col] = vec_perm[pos]
    return vec


def _exact_div(num: Poly, den: Poly) -> Poly:
    q, r = num.divmod(den)
    if r:
        raise AssertionError("fraction-free division left a remainder")
    return q


def bareiss_stationary(m: Multiplicity) -> dict[tuple[int, ...], Poly]:
    """Oracle: `stationary_kernel` with `bareiss_kernel_vector` as its solver."""
    with patch.object(asep_core, "_kernel_vector", bareiss_kernel_vector):
        return asep_core.stationary_kernel(m)


def canonicalize_per_configuration(
    basis: SectorBasis, values: dict[tuple[int, ...], Poly]
) -> dict[tuple[int, ...], Poly]:
    """Oracle: `canonicalize_values` by one gcd and one division per configuration."""
    polys = [values.get(c, P_ZERO) for c in basis.configs]
    if not any(polys):
        raise ValueError("cannot canonicalize the zero vector")
    g = P_ZERO
    for p in polys:
        if p.is_zero():
            continue
        g = p if g.is_zero() else poly_gcd(g, p)
        if g.degree == 0:
            break
    if g.degree > 0:
        g = primitive(g)  # so that integer numerators give int quotients
        polys = [p // g for p in polys]
    scale = content(polys)
    if next(p for p in polys if not p.is_zero()).leading() < 0:
        scale = -scale
    if scale != 1:
        polys = [p.scale(1 / scale) for p in polys]
    return dict(zip(basis.configs, polys))


@pytest.fixture
def frac():
    return Fraction
