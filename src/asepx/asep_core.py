"""n-species ASEP on a ring: sectors, Markov matrix, exact stationary states.

Configurations are tuples of site values in {0..n}; the Markov matrix
acts within each sector of fixed particle content.  The stationary
vector is computed by fraction-free elimination in the ring of
polynomials in t, on the quotient by cyclic shifts, canonically
normalized to an integer polynomial vector of content 1, and certified
by an exact H v = 0 check on that canonical vector.

A continuous-time simulator with exponential waiting times serves as a
statistical oracle for the exact results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import inf
from typing import Iterable, Iterator, Optional

from .scalar import P_ONE, P_ZERO, Poly, RatFunc, content, poly_gcd, primitive

Config = tuple[int, ...]


class KernelError(ValueError):
    """The sector kernel is not one-dimensional."""


@dataclass(frozen=True)
class Multiplicity:
    """Particle content (m_0, ..., m_n); m_0 counts vacancies."""

    counts: tuple[int, ...]

    def __post_init__(self):
        c = self.counts
        if len(c) < 2 or min(c) < 0 or sum(c) == 0:
            raise ValueError(f"bad multiplicity {c}: need n >= 1, counts >= 0, L >= 1")

    @property
    def L(self) -> int:
        return sum(self.counts)

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    @property
    def is_basic(self) -> bool:
        return all(c >= 1 for c in self.counts)

    def l_values(self) -> tuple[int, ...]:
        """Partial sums l_i = m_i + ... + m_n for i = 0..n."""
        out = []
        acc = 0
        for c in reversed(self.counts):
            acc += c
            out.append(acc)
        return tuple(reversed(out))


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in lexicographic order."""
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def basic_multiplicities(n: int, L: int) -> Iterator[Multiplicity]:
    """All basic sectors of the n-species model on L sites."""
    for c in compositions(L - n - 1, n + 1):
        yield Multiplicity(tuple(x + 1 for x in c))


class SectorBasis:
    """All configurations of a sector in lexicographic order."""

    def __init__(self, m: Multiplicity):
        self.m = m
        symbols = []
        for value, count in enumerate(m.counts):
            symbols.extend([value] * count)
        self.configs: list[Config] = sorted(set(permutations(symbols)))
        self.index: dict[Config, int] = {c: i for i, c in enumerate(self.configs)}

    @property
    def dim(self) -> int:
        return len(self.configs)


def cyclic_shift(c: Config) -> Config:
    """(s_1, ..., s_L) -> (s_L, s_1, ..., s_{L-1})."""
    return (c[-1],) + c[:-1]


def cyclic_orbit_reps(configs: Iterable[Config]) -> dict[Config, Config]:
    """Each configuration's cyclic-orbit representative, its smallest rotation."""
    rep_of: dict[Config, Config] = {}
    for sigma in configs:
        if sigma not in rep_of:
            orbit = {sigma[i:] + sigma[:i] for i in range(len(sigma))}
            rep_of.update(dict.fromkeys(orbit, min(orbit)))
    return rep_of


def markov_sector(
    m: Multiplicity, basis: Optional[SectorBasis] = None
) -> dict[tuple[int, int], Poly]:
    """Markov matrix restricted to the sector of content m (cyclic wrap).

    Sparse: {(row, col): rate polynomial}, an absent entry is zero.
    """
    if basis is None:
        basis = SectorBasis(m)
    L = m.L
    mat: dict[tuple[int, int], Poly] = {}
    t = Poly((0, 1))
    for col, sigma in enumerate(basis.configs):
        for i in range(L):
            a, b = sigma[i], sigma[(i + 1) % L]
            if a == b:
                continue
            target = list(sigma)
            target[i], target[(i + 1) % L] = b, a
            rate = t if a < b else P_ONE
            # rates are positive, so no entry cancels to zero
            row = basis.index[tuple(target)]
            mat[row, col] = mat.get((row, col), P_ZERO) + rate
            mat[col, col] = mat.get((col, col), P_ZERO) - rate
    return mat


# ---------------------------------------------------------------------------
# exact kernel solver

def _kernel_vector(rows: list[dict[int, Poly]], dim: int) -> list[Poly]:
    """Unique (up to scale) kernel vector of the row system, else KernelError.

    Fraction-free elimination in the polynomial ring: Bareiss pivoting
    (lowest-degree pivot, exact divisions by the previous pivot), then
    back-substitution from x_last = the last pivot.  That choice makes
    the solution the vector of maximal minors (Cramer's rule), so every
    division of the back-substitution is exact too; a remainder raises.
    """
    mat = [[row.get(c, P_ZERO) for c in range(dim)] for row in rows]
    nrows = len(mat)
    col_perm = list(range(dim))
    prev = P_ONE
    rank = 0
    for k in range(min(nrows, dim)):
        best = None
        for i in range(k, nrows):
            for j in range(k, dim):
                p = mat[i][j]
                if p.is_zero():
                    continue
                key = (p.degree, i, j)
                if best is None or key < best:
                    best = (p.degree, i, j)
        if best is None:
            break
        _, bi, bj = best
        mat[k], mat[bi] = mat[bi], mat[k]
        if bj != k:
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
    vec_perm: list[Poly] = [P_ZERO] * dim
    vec_perm[dim - 1] = prev
    for i in range(rank - 1, -1, -1):
        acc = P_ZERO
        for j in range(i + 1, dim):
            if mat[i][j] and vec_perm[j]:
                acc = acc + mat[i][j] * vec_perm[j]
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


def _orbit_reduced_kernel(mat: dict[tuple[int, int], Poly], basis: SectorBasis) -> list[Poly]:
    """Solve on the cyclic-orbit quotient and expand to the full sector."""
    rep_of = cyclic_orbit_reps(basis.configs)
    reps = sorted(set(rep_of.values()))
    rep_index = {r: i for i, r in enumerate(reps)}

    reduced: list[dict[int, Poly]] = []
    for rep in reps:
        r = basis.index[rep]
        row: dict[int, Poly] = {}
        for col, sigma in enumerate(basis.configs):
            v = mat.get((r, col))
            if v is not None:
                j = rep_index[rep_of[sigma]]
                row[j] = row.get(j, P_ZERO) + v
        reduced.append({j: p for j, p in row.items() if p})
    wvec = _kernel_vector(reduced, len(reps))
    return [wvec[rep_index[rep_of[sigma]]] for sigma in basis.configs]


def nonzero_residual(
    mat: dict[tuple[int, int], Poly], basis: SectorBasis, values: dict[Config, Poly]
) -> list[Config]:
    """Configurations where H v is nonzero, exactly, in basis order.

    v is a polynomial vector, such as a canonical one, and the Markov
    rates are polynomials, so the sums need no gcd.  An empty list
    certifies that v is a null vector of H.
    """
    sums = [P_ZERO] * basis.dim
    for (r, c), h in mat.items():
        v = values[basis.configs[c]]
        if v:
            sums[r] = sums[r] + h * v
    return [basis.configs[r] for r, s in enumerate(sums) if s]


def canonicalize_values(
    basis: SectorBasis, values: dict[Config, Poly]
) -> dict[Config, Poly]:
    """Canonical normalization used for all cross-method comparisons.

    `values` are polynomial numerators over one shared denominator, which
    the canonical form ignores; a missing configuration counts as zero.
    Scales the vector so that every entry is a polynomial in t with
    integer coefficients, the collective coefficient gcd is 1, and the
    first nonzero entry, in lexicographic order of the configurations,
    has positive leading coefficient.  Equal coefficients of the returned vector are
    one object, so a vector that callers keep holds each distinct
    coefficient once.
    """
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
    shared: dict[Fraction, Fraction] = {}
    return {
        c: Poly([shared.setdefault(x, x) for x in (a / scale for a in p.coeffs)])
        for c, p in zip(basis.configs, polys)
    }


@dataclass
class SectorVector:
    """Polynomial numerators over one shared denominator, per configuration."""

    basis: SectorBasis
    nums: dict[Config, Poly]
    den: Poly = P_ONE

    def canonical(self) -> dict[Config, Poly]:
        return canonicalize_values(self.basis, self.nums)

    @cached_property
    def values(self) -> dict[Config, RatFunc]:
        """The reduced rational-function value of every configuration present."""
        return {c: RatFunc(n, self.den) for c, n in self.nums.items()}


def stationary_kernel(m: Multiplicity) -> dict[Config, Poly]:
    """The unique stationary vector of the sector, canonically normalized.

    Fraction-free elimination in the polynomial ring on the cyclic-orbit
    quotient; the canonical vector it returns is certified by an exact
    H v = 0 check on the full sector.
    """
    basis = SectorBasis(m)
    mat = markov_sector(m, basis)
    kernel = _orbit_reduced_kernel(mat, basis)
    canon = canonicalize_values(basis, dict(zip(basis.configs, kernel)))
    if nonzero_residual(mat, basis, canon):
        raise KernelError("orbit-reduced solution failed exact residual check")
    return canon


# ---------------------------------------------------------------------------
# stochastic oracle


def gillespie(
    m: Multiplicity,
    t_value: float,
    horizon: float,
    burn_in: float = 0.0,
    seed: int = 0,
    stats: Optional[dict] = None,
) -> dict[Config, float]:
    """Continuous-time simulation; returns time-averaged occupation fractions.

    Adjacent unequal pairs (a, b) swap at rate t_value**[a < b]; waiting
    times are exponential.  Occupation is accumulated over the window
    (burn_in, burn_in + horizon].  When a `stats` dict is supplied, the
    executed event count is recorded under "events".

    Gillespie's direct method on a rate table built once per call, in
    O(dim * L): each configuration's total rate and its moves as
    (cumulative rate, target index) pairs, in site order, without rate-0
    moves.  An event is then one table lookup, one exponential and one
    uniform draw, and a linear search for the first cumulative rate at
    or above the uniform.  The rates are summed, and the random numbers
    drawn, in the same order as by a rescan of the ring at every event,
    so a given seed returns the same occupations to the last bit.
    """
    # chained comparisons are False for nan; inf would never end the run
    if not 0 <= t_value < inf:
        raise ValueError(f"t_value must be finite and nonnegative, got {t_value}")
    if not 0 < horizon < inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not 0 <= burn_in < inf:
        raise ValueError(f"burn_in must be finite and nonnegative, got {burn_in}")
    basis = SectorBasis(m)
    L = m.L
    totals: list[float] = []
    moves: list[list[tuple[float, int]]] = []
    for sigma in basis.configs:
        row = []
        acc = 0.0
        for i in range(L):
            j = (i + 1) % L
            a, b = sigma[i], sigma[j]
            if a == b:
                continue
            rate = t_value if a < b else 1.0
            if rate > 0.0:
                target = list(sigma)
                target[i], target[j] = b, a
                acc += rate
                row.append((acc, basis.index[tuple(target)]))
        totals.append(acc)
        moves.append(row)
    rng = random.Random(seed)
    expovariate, uniform = rng.expovariate, rng.uniform
    state = 0
    end = burn_in + horizon
    occ: dict[int, float] = {}
    now = 0.0
    events = 0
    while now < end:
        total = totals[state]
        nxt = now + expovariate(total) if total else end
        overlap = min(nxt, end) - max(now, burn_in)
        if overlap > 0:
            occ[state] = occ.get(state, 0.0) + overlap
        if not total:
            break
        now = nxt
        events += 1
        pick = uniform(0.0, total)
        for acc, target in moves[state]:
            if pick <= acc:
                state = target
                break
    if stats is not None:
        stats["events"] = events
    return {basis.configs[i]: w / horizon for i, w in occ.items()}
