"""n-species ASEP on a ring: sectors, Markov matrix, exact stationary states.

Configurations are tuples of site values in {0..n}; the Markov matrix
acts within each sector of fixed particle content.  The stationary
vector is solved on the quotient by cyclic shifts, as a power series
in t - t0 mod P = 2**61 - 1 from one factorization at a point t0, lifted
to an integer polynomial vector that must annihilate the quotient
exactly, canonically normalized to content 1, and certified by an exact
H v = 0 check on that canonical vector.

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

from .scalar import (P, P_ONE, P_ZERO, Poly, RatFunc, content, lift_polys, pade_mod_p, poly_gcd,
                     primitive, residue, taylor_shift_mod_p)

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
    return {key: Poly._of((c0, c1) if c1 else (c0,)) for key, (c0, c1) in counts.items()}


# ---------------------------------------------------------------------------
# kernel solver: t-adic lifting mod P, certified exactly


def _kernel_vector(rows: list[dict[int, Poly]], dim: int) -> list[Poly]:
    """Unique (up to scale) kernel vector of the row system, else KernelError.

    The rows are factored once over GF(P) at a point t0 = 2, 3, ...
    (`_factor_mod_p`).  A t0 of rank dim proves the kernel zero, one of
    rank dim - 1 proves
    rank >= dim - 1 over Q(t); a t0 of lower rank is skipped, and if the
    first D + 1 points all are, the rank is below dim - 1, since D, the sum
    of the rows' largest degrees, bounds every (dim - 1)-minor.  The pivot
    rows' kernel is then a power series in s = t - t0, 1 at the free
    column, the anchor: each term is one sparse product with the rows'
    higher Taylor coefficients at t0 and one replay of the factorization
    (Dixon, Numer. Math. 1982, with s in place of p).  Once a Pade fit of a
    random combination of the entries `_fit_predicts` two more terms, each
    entry times the fit's denominator is shifted back to t and lifted to an
    integer polynomial.  The lift is returned only if it annihilates the rows
    exactly; else more terms are taken, up to 2D + 3: the entries are
    fractions of degrees <= D, so 2D + 1 terms fix the fit.
    """
    bound = sum(max((p.degree for p in row.values()), default=0) for row in rows)
    for t0 in range(2, bound + 3):
        taylor = [{c: taylor_shift_mod_p([residue(a) for a in p.coeffs], t0) for c, p in row.items()}
                  for row in rows]
        steps, free = _factor_mod_p([{c: a[0] for c, a in row.items() if a[0]} for row in taylor],
                                    dim)
        if not free:
            raise KernelError("kernel dimension 0 != 1")
        if len(free) == 1:
            break
    else:
        raise KernelError("kernel dimension > 1 at the first D + 1 points")
    higher = [(r, c, k, a[k]) for r, row in enumerate(taylor) for c, a in row.items()
              for k in range(1, len(a)) if a[k]]
    rng = random.Random(dim)
    weights = [rng.randrange(1, P) for _ in range(dim)]  # so no entry's degree cancels
    xs: list[list[int]] = []  # the series' terms, each a vector
    probes: list[int] = []  # the terms of the random combination
    for n in range(2 * bound + 3):
        b = [0] * len(rows)
        for r, c, k, a in higher:
            if k <= n:
                b[r] -= a * xs[n - k][c]
        x = [0] * dim
        x[free[0]] = int(n == 0)
        _solve_mod_p(steps, b, x)
        xs.append(x)
        probes.append(sum(map(mul, weights, x)) % P)
        fit = pade_mod_p(probes[:-2], n // 2) if n >= 2 else None
        if fit and _fit_predicts(fit, probes):
            num, den = fit
            ys = ([sum(map(mul, den, col[i::-1])) % P for i in range(max(len(num), len(den)))]
                  for col in zip(*xs))
            vec = lift_polys([taylor_shift_mod_p(y, -t0) for y in ys])
            terms = ((r, p, vec[c]) for r, row in enumerate(rows) for c, p in row.items())
            if vec is not None and not _nonzero_rows(terms, len(rows)):
                return vec
    raise KernelError("no lift of the series mod P passed the exact residual")


def _fit_predicts(fit: tuple[list[int], list[int]], series: list[int]) -> bool:
    """The stop test: whether the Pade fit (num, den) of all terms of the series
    but the last two predicts those two, that is, equals den * series there."""
    num, den = fit
    return all(sum(map(mul, den, series[i::-1])) % P == (num[i] if i < len(num) else 0)
               for i in range(len(series) - 2, len(series)))


def _factor_mod_p(rows: list[dict[int, int]], dim: int) -> tuple[list[tuple], list[int]]:
    """Sparse Gaussian elimination of the rows {column: residue}, recorded:
    (steps, the free columns).  Consumes `rows`.

    Each step pivots on the shortest row left, at its column in the fewest
    rows left, and is kept as (pivot row, pivot column, inverse pivot, the
    columns and the values of the pivot row's other entries, [(row, factor)]
    of the rows it eliminated).
    """
    col_rows: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    left = {r for r, row in enumerate(rows) if row}
    steps = []
    while left:
        pr = min(left, key=lambda r: len(rows[r]))
        piv = rows[pr]
        pc = min(piv, key=lambda c: len(col_rows[c]))
        left.discard(pr)
        for c in piv:
            col_rows[c].discard(pr)
        inv = pow(piv.pop(pc), -1, P)
        targets = []
        for r in col_rows.pop(pc):
            row = rows[r]
            f = row.pop(pc) * inv % P
            targets.append((r, f))
            for c, a in piv.items():
                if c not in row:
                    row[c] = -f * a % P
                    col_rows[c].add(r)
                elif v := (row[c] - f * a) % P:
                    row[c] = v
                else:
                    del row[c]
                    col_rows[c].discard(r)
            if not row:
                left.discard(r)
        steps.append((pr, pc, inv, tuple(piv), tuple(piv.values()), targets))
    pivots = {step[1] for step in steps}
    return steps, [c for c in range(dim) if c not in pivots]


def _solve_mod_p(steps: list[tuple], b: list[int], x: list[int]) -> None:
    """Replay the recorded elimination on the right-hand side b, then solve the
    pivot rows for their columns of x, given x's free columns."""
    for pr, _, _, _, _, targets in steps:
        if bp := b[pr] % P:
            for r, f in targets:
                b[r] -= f * bp
    for pr, pc, inv, cols, vals, _ in reversed(steps):
        x[pc] = (b[pr] - sum(map(mul, vals, map(x.__getitem__, cols)))) * inv % P


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

    The work is done once per distinct nonzero value, not once per
    configuration: a stationary vector repeats each value over a cyclic
    orbit.  The gcd runs over the distinct values, smallest degree
    first, and takes a `poly_gcd` only for a value that the running gcd
    does not divide, which one division decides; the quotients of those
    divisions are kept and reused while the gcd stays the same.  The
    result does not depend on this order: the gcd over Q[t] is unique up
    to a constant factor, and content and sign then fix that factor, so
    this is the unique canonical vector.
    """
    polys = [values.get(c, P_ZERO) for c in basis.configs]
    distinct = [p for p in dict.fromkeys(polys) if p]  # in configuration order
    if not distinct:
        raise ValueError("cannot canonicalize the zero vector")
    by_degree = sorted(distinct, key=lambda p: p.degree)
    # primitive, so that integer numerators give int quotients
    g = primitive(by_degree[0])
    quotients: dict[Poly, Poly] = {}  # value: its quotient by the current g
    for p in by_degree[1:]:
        if g.degree == 0:
            break
        q, r = p.divmod(g)
        if r:
            g, quotients = primitive(poly_gcd(g, p)), {}
        else:
            quotients[p] = q
    divided = [quotients.get(p) or p // g for p in distinct] if g.degree > 0 else distinct
    scale = content(divided)
    if divided[0].leading() < 0:
        scale = -scale
    shared: dict[Fraction, Fraction] = {}
    canon = {P_ZERO: P_ZERO}
    for p, d in zip(distinct, divided):
        if scale != 1:
            d = d.scale(1 / scale)
        canon[p] = Poly._of(tuple(shared.setdefault(x, x) for x in d.coeffs))
    return {c: canon[p] for c, p in zip(basis.configs, polys)}


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

    Solved on the cyclic-orbit quotient by t-adic lifting mod P from one
    sparse factorization (`_kernel_vector`), which returns only a lift that
    annihilates the quotient exactly; the canonical vector is then
    certified by an exact H v = 0 check on the full sector.
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
    end = burn_in + horizon  # two finite floats can still sum to inf
    if end == inf:
        raise ValueError(f"burn_in + horizon must be finite, got {burn_in} + {horizon}")
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
