"""n-species ASEP on a ring: sectors, Markov matrix, exact stationary states.

Configurations are tuples of site values in {0..n}; the Markov matrix
acts within each sector of fixed particle content.  The stationary
vector is solved on the quotient by cyclic shifts, by evaluation at
integer points mod P = 2**61 - 1 and interpolation in t, lifted to an
integer polynomial vector that must annihilate the quotient exactly,
canonically normalized to content 1, and certified by an exact H v = 0
check on that canonical vector.

A continuous-time simulator with exponential waiting times serves as a
statistical oracle for the exact results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import inf, log
from operator import mul
from typing import Iterable, Iterator, Optional

from .scalar import (P, P_ONE, P_ZERO, Poly, RatFunc, cauchy_interpolate_mod_p, content,
                     eval_mod_p, interpolate_mod_p, lift_polys, null_vector_mod_p, poly_gcd,
                     primitive)

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
    counts: dict[tuple[int, int], list[int]] = {}  # entry -> coefficients of 1 and t
    for col, sigma in enumerate(basis.configs):
        for i in range(L):
            a, b = sigma[i], sigma[(i + 1) % L]
            if a == b:
                continue
            target = list(sigma)
            target[i], target[(i + 1) % L] = b, a
            k = int(a < b)  # the rate is t**k
            # rates are positive, so no entry cancels to zero
            counts.setdefault((basis.index[tuple(target)], col), [0, 0])[k] += 1
            counts.setdefault((col, col), [0, 0])[k] -= 1
    return {key: Poly(c) for key, c in counts.items()}


# ---------------------------------------------------------------------------
# kernel solver: evaluation and interpolation mod P, certified exactly


def _kernel_vector(rows: list[dict[int, Poly]], dim: int) -> list[Poly]:
    """Unique (up to scale) kernel vector of the row system, else KernelError.

    At t = 2, 3, ... the rows are solved over GF(P), each solution scaled
    to 1 at one entry, the anchor.  A point of rank dim proves the kernel
    zero, one of rank dim - 1 proves rank >= dim - 1 over Q(t); points of
    lower rank are skipped, and if the first D + 1 points all are, the
    rank is below dim - 1, since D, the sum of the rows' largest degrees,
    bounds every (dim - 1)-minor.  A random combination of the solutions
    is fitted as a fraction in t (Cauchy interpolation) to all points but
    the last two.  Once `_fit_holds` on those two, each entry times the
    fit's denominator is interpolated and lifted to an integer polynomial.
    The lift is returned only if it annihilates the rows exactly; else more
    points are taken, up to 2D + 3.
    """
    bound = sum(max((p.degree for p in row.values()), default=0) for row in rows)
    rng = random.Random(dim)
    weights = [rng.randrange(1, P) for _ in range(dim)]  # so no entry's degree cancels
    xs, sols, probes, anchor = [], [], [], None
    for t in range(2, 4 * bound + 6):  # at most D lower ranks and D zeros of the anchor
        mat = [[row[c].residue_at(t) if c in row else 0 for c in range(dim)] for row in rows]
        nullity, x = null_vector_mod_p(mat, dim)
        if nullity == 0:
            raise KernelError("kernel dimension 0 != 1")
        if nullity > 1 or (anchor is not None and not x[anchor]):
            if not xs and t - 1 > bound:
                raise KernelError("kernel dimension > 1 at the first D + 1 points")
            continue
        if anchor is None:
            anchor = next(j for j, v in enumerate(x) if v)
        inv = pow(x[anchor], -1, P)
        xs.append(t)
        sols.append([v * inv % P for v in x])
        probes.append(sum(map(mul, weights, sols[-1])) % P)
        fit = cauchy_interpolate_mod_p(xs[:-2], probes[:-2]) if len(xs) > 2 else None
        if fit and _fit_holds(fit, xs[-2:], probes[-2:]):
            dens = [eval_mod_p(fit[1], x) for x in xs]
            scaled = [[v * d % P for v in sol] for sol, d in zip(sols, dens)]
            vec = lift_polys(interpolate_mod_p(xs, scaled))
            terms = ((r, p, vec[c]) for r, row in enumerate(rows) for c, p in row.items())
            if vec is not None and not _nonzero_rows(terms, len(rows)):
                return vec
        if len(xs) >= 2 * bound + 3:
            break
    raise KernelError("no lift of the solutions mod P passed the exact residual")


def _fit_holds(fit: tuple[list[int], list[int]], xs: list[int], values: list[int]) -> bool:
    """The stop test: whether the fitted fraction (num, den) takes the values at xs."""
    return all(eval_mod_p(fit[0], x) == v * eval_mod_p(fit[1], x) % P for x, v in zip(xs, values))


def _orbit_reduced_kernel(mat: dict[tuple[int, int], Poly], basis: SectorBasis) -> list[Poly]:
    """Solve on the cyclic-orbit quotient and expand to the full sector."""
    rep_of = cyclic_orbit_reps(basis.configs)
    reps = sorted(set(rep_of.values()))
    rep_index = {r: i for i, r in enumerate(reps)}

    reduced: list[dict[int, Poly]] = [{} for _ in reps]  # the rows of the representatives
    for (r, c), v in mat.items():
        if (sigma := basis.configs[r]) in rep_index:
            row, j = reduced[rep_index[sigma]], rep_index[rep_of[basis.configs[c]]]
            row[j] = row.get(j, P_ZERO) + v
    wvec = _kernel_vector([{j: p for j, p in row.items() if p} for row in reduced], len(reps))
    return [wvec[rep_index[rep_of[sigma]]] for sigma in basis.configs]


def nonzero_residual(
    mat: dict[tuple[int, int], Poly], basis: SectorBasis, values: dict[Config, Poly]
) -> list[Config]:
    """Configurations where H v is nonzero, exactly, in basis order.

    v is a polynomial vector, such as a canonical one, and the Markov
    rates are polynomials, so the sums need no gcd.  An empty list
    certifies that v is a null vector of H.
    """
    configs = basis.configs
    terms = ((r, h, values[configs[c]]) for (r, c), h in mat.items())
    return [configs[r] for r in _nonzero_rows(terms, basis.dim)]


def _nonzero_rows(terms: Iterable[tuple[int, Poly, Poly]], nrows: int) -> list[int]:
    """The rows r whose sum of the products h * v of their terms (r, h, v) is nonzero."""
    sums: list[list] = [[] for _ in range(nrows)]
    for r, h, v in terms:
        if v:
            acc = sums[r]
            acc.extend([0] * (len(h.coeffs) + len(v.coeffs) - 1 - len(acc)))
            for i, a in enumerate(h.coeffs):
                for j, b in enumerate(v.coeffs):
                    acc[i + j] += a * b
    return [r for r, s in enumerate(sums) if any(s)]


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
    if scale != 1:
        polys = [p.scale(1 / scale) for p in polys]
    shared: dict[Fraction, Fraction] = {}
    return {
        c: Poly._of(tuple(shared.setdefault(x, x) for x in p.coeffs))
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

    Solved mod P and interpolated on the cyclic-orbit quotient
    (`_kernel_vector`); the canonical vector is certified by an exact
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
    draw = random.Random(seed).random  # expovariate, uniform(0.0, .) inlined: same float ops
    state = 0
    end = burn_in + horizon
    occ: dict[int, float] = {}
    now = 0.0
    events = 0
    while now < end:
        total = totals[state]
        nxt = now - log(1.0 - draw()) / total if total else end
        overlap = (nxt if nxt < end else end) - (now if now > burn_in else burn_in)
        if overlap > 0:
            occ[state] = occ.get(state, 0.0) + overlap
        if not total:
            break
        now = nxt
        events += 1
        pick = total * draw()
        for acc, target in moves[state]:
            if pick <= acc:
                state = target
                break
    if stats is not None:
        stats["events"] = events
    return {basis.configs[i]: w / horizon for i, w in occ.items()}
