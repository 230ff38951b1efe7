"""Exact scalar arithmetic: rationals, polynomials in t, rational functions in t.

Every quantity that enters an exact pipeline is built from these types.
A polynomial is an immutable tuple of coefficients indexed by degree,
each an int when integral and a Fraction otherwise (never a float), with
no trailing zeros (the zero polynomial has an empty tuple); so integer
polynomials pay no Fraction normalization.  A rational function is a
reduced fraction of two polynomials whose denominator is monic and
nonzero; equality of canonical forms is structural equality.

The variable t stays symbolic throughout.  All other parameters (q, z,
x, y) are substituted as exact Fractions before they reach this layer,
so no multivariate machinery is needed.

The one modular layer: `P` is the prime 2**61 - 1, `residue` reduces a
rational into GF(P) and `Poly.residue_at` evaluates a polynomial there.
The point-evaluated identity checks run on these residues.  The kernel
solver adds elimination (`null_vector_mod_p`), interpolation
(`interpolate_mod_p`, `cauchy_interpolate_mod_p`) and the lift back to
rationals (`lift_residue`, `lift_polys`) over GF(P).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest
from math import gcd, isqrt, lcm
from operator import mul, or_
from typing import Hashable, Iterable, Mapping, Optional, Union

_ZERO = 0

CoeffLike = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


def _coeff(c: CoeffLike) -> Union[int, Fraction]:
    """c as an int if integral, else a Fraction (3 == Fraction(3), same hash and str)."""
    if type(c) is int:
        return c
    c = c if type(c) is Fraction else Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Univariate polynomial in t over the rationals, int-where-integral."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def _of(coeffs: tuple) -> "Poly":
        """A Poly of coefficients already normalized, with no trailing zero."""
        out = object.__new__(Poly)
        object.__setattr__(out, "coeffs", coeffs)
        object.__setattr__(out, "_hash", None)
        return out

    @staticmethod
    def t_power(k: int, c: CoeffLike = 1) -> "Poly":
        """c * t**k."""
        return Poly((0,) * k + (c,))

    # -- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Union[int, Fraction]:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly._of(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return P_ZERO
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    def scale(self, c: CoeffLike) -> "Poly":
        c = _coeff(c)
        if c == 0:
            return P_ZERO
        return Poly(tuple(a * c for a in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by t**k."""
        if not self.coeffs:
            return P_ZERO
        return Poly._of((_ZERO,) * k + self.coeffs)

    def __pow__(self, n: int) -> "Poly":
        result = P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = len(dv) - 1
        lead = dv[-1]
        if len(rem) - 1 < dd:
            return P_ZERO, self
        quot = [_ZERO] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                exact = type(c) is int and type(lead) is int and not c % lead
                q = c // lead if exact else Fraction(c) / lead
                quot[i - dd] = q
                for j, d in enumerate(dv):
                    rem[i - dd + j] -= q * d
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        inv = Fraction(1) / self.coeffs[-1]
        return Poly(tuple(c * inv for c in self.coeffs))

    def eval(self, t0: Fraction) -> Fraction:
        acc = Fraction(0)  # a Fraction even at an int t0: callers divide values
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc

    def residue_at(self, t: int) -> int:
        """The value mod P at the residue t."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * t + (c if type(c) is int else residue(c))) % P
        return acc

    # -- encoding --------------------------------------------------------
    def to_json(self) -> list[str]:
        """Coefficients as "num/den" strings, lowest degree first."""
        return [str(c) for c in self.coeffs]

    # -- dunder plumbing ---------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.coeffs)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(parts)


P_ZERO = Poly()
P_ONE = Poly((1,))

#: the prime of the modular layer, 2**61 - 1
P = (1 << 61) - 1


def residue(c: Union[int, Fraction]) -> int:
    """c mod P, i.e. its numerator times the inverse of its denominator.

    Raises ValueError when P divides the denominator.
    """
    return c.numerator * pow(c.denominator, -1, P) % P


def signed_residue(v: int) -> int:
    """The residue v as the integer of least absolute value: -1 reads -1."""
    return v - P if v > P // 2 else v


#: numerator and denominator bound of `lift_residue`: 2 * LIFT_BOUND**2 < P,
#: so a residue has at most one lift within it
LIFT_BOUND = isqrt(P // 2)


def lift_residue(v: int) -> Optional[Fraction]:
    """The rational a/b with |a|, b <= LIFT_BOUND and a = b*v mod P, or None
    (rational number reconstruction, von zur Gathen-Gerhard, ch. 5.10)."""
    r0, r1, s0, s1 = P, v, 0, 1
    while r1 > LIFT_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1) if abs(s1) <= LIFT_BOUND else None


def lift_polys(polys: list[list[int]]) -> Optional[list[Poly]]:
    """The polynomials mod P as integer polynomials, all scaled by one factor:
    every coefficient lifted by `lift_residue`, then the denominators
    cleared.  None if some coefficient has no lift."""
    lifted = []
    for p in polys:
        coeffs = [lift_residue(c) for c in p]
        if None in coeffs:
            return None
        lifted.append(coeffs)
    scale = lcm(*(c.denominator for cs in lifted for c in cs))
    return [Poly._of(tuple(c.numerator * (scale // c.denominator) for c in cs)) for cs in lifted]


def null_vector_mod_p(mat: list[list[int]], dim: int) -> tuple[int, Optional[list[int]]]:
    """(nullity, v) of a matrix over GF(P) with dim columns; v is the null
    vector, 1 at the free column, when the nullity is 1, else None, and a
    nullity above 1 reads 2.  Consumes `mat`.

    Gaussian elimination column by column: the rows not yet pivots keep
    only the columns not yet eliminated.
    """
    echelon: list[tuple[int, list[int]]] = []  # (column, its pivot row past it, scaled)
    free = None
    for col in range(dim):
        i = next((i for i, r in enumerate(mat) if r[0]), None)
        if i is None:
            if free is not None:
                return 2, None
            free = col
            mat = [r[1:] for r in mat]
            continue
        piv = mat.pop(i)
        inv = pow(piv[0], -1, P)
        piv = [a * inv % P for a in piv[1:]]
        echelon.append((col, piv))
        mat = [[(a - f * b) % P for a, b in zip(r[1:], piv)] if (f := r[0]) else r[1:]
               for r in mat]
    if free is None:
        return 0, None
    x = [0] * dim
    x[free] = 1
    for col, piv in reversed(echelon):
        x[col] = -sum(map(mul, piv, x[col + 1:])) % P
    return 1, x


# Polynomials over GF(P) are lists of residues, lowest degree first, with
# no trailing zero; [] is zero.


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def mul_mod_p(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % P for c in out]  # both leads are nonzero mod P, so is theirs


def divmod_mod_p(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Euclidean division of a by the nonzero b."""
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, P)
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % P
        if c:
            quot[i - db] = c
            for j in range(db):
                rem[i - db + j] = (rem[i - db + j] - c * b[j]) % P
    return _trim(quot), _trim(rem[:db])


def eval_mod_p(a: list[int], x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % P
    return acc


def interpolate_mod_p(xs: list[int], values: list[list[int]]) -> list[list[int]]:
    """For every column j, the polynomial of degree < len(xs) through the
    points (xs[k], values[k][j]): Newton's divided differences, then Horner."""
    coef = [list(v) for v in values]
    for d in range(1, len(xs)):
        for k in range(len(xs) - 1, d - 1, -1):
            inv = pow(xs[k] - xs[k - d], -1, P)
            coef[k] = [(a - b) * inv % P for a, b in zip(coef[k], coef[k - 1])]
    polys = [[c] for c in coef[-1]]
    for k in range(len(xs) - 2, -1, -1):
        x = xs[k]
        polys = [
            [(c - x * p[0]) % P] + [(p[i - 1] - x * p[i]) % P for i in range(1, len(p))] + [p[-1]]
            for c, p in zip(coef[k], polys)
        ]
    return [_trim(p) for p in polys]


def cauchy_interpolate_mod_p(
    xs: list[int], values: list[int]
) -> Optional[tuple[list[int], list[int]]]:
    """The fraction (num, den) through the points (xs[k], values[k]), with
    deg num < k = (len(xs) + 1) // 2, deg den <= len(xs) - k and den monic
    and nonzero at every point; None if there is none.

    Interpolation, then the extended Euclidean algorithm on the modulus
    prod (t - xs[k]) and the interpolant, stopped at the first remainder of
    degree < k (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 5.7).
    """
    modulus = [1]
    for x in xs:
        modulus = mul_mod_p(modulus, [-x % P, 1])
    k = (len(xs) + 1) // 2
    (r1,) = interpolate_mod_p(xs, [[v] for v in values])
    r0, s0, s1 = modulus, [], [1]
    while len(r1) > k:
        q, r = divmod_mod_p(r0, r1)
        s = _trim([(a - b) % P for a, b in zip_longest(s0, mul_mod_p(q, s1), fillvalue=0)])
        r0, r1, s0, s1 = r1, r, s1, s
    inv = pow(s1[-1], -1, P)
    num, den = [c * inv % P for c in r1], [c * inv % P for c in s1]
    if len(den) - 1 > len(xs) - k or not all(eval_mod_p(den, x) for x in xs):
        return None
    return num, den


def content(polys: Iterable[Poly]) -> Fraction:
    """Positive gcd of the coefficient numerators over the lcm of the denominators."""
    cs = [c for p in polys for c in p.coeffs]
    return Fraction(gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs)))


def primitive(p: Poly) -> Poly:
    """p over its content: integer coefficients with gcd 1 and the sign of p."""
    c = content((p,))
    if not p or c == 1:
        return p
    n, d = c.numerator, c.denominator  # exact integer divisions below
    return Poly([a.numerator * (d // a.denominator) // n for a in p.coeffs])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the primitive pseudo-remainder sequence over the integers,
    whose divisions are exact (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 6)."""
    a, b = primitive(a), primitive(b)
    while b:
        r = a.scale(b.leading() ** max(a.degree - b.degree + 1, 0)) % b
        a, b = b, primitive(r)
    return a.monic()


def one_minus_qtk(q: Fraction, k: int) -> Poly:
    """The polynomial 1 - q*t**k (a plain scalar 1-q when k == 0)."""
    if k == 0:
        return Poly((1 - q,))
    return Poly((1,) + (0,) * (k - 1) + (-q,))


@lru_cache(maxsize=256)  # the same few powers recur in every lift of a sector's traces
def _qt_power(q: Fraction, k: int, c: int) -> Poly:
    return one_minus_qtk(q, k) ** c


def qt_product(q: Fraction, exps: Mapping[int, int]) -> Poly:
    """prod_k (1 - q t^k)^exps[k]: the denominator of exponent map {k: multiplicity}."""
    return reduce(mul, (_qt_power(q, k, c) for k, c in exps.items()), P_ONE)


def over_common_map(
    q: Fraction, parts: Mapping[Hashable, tuple[Poly, Counter]]
) -> tuple[dict[Hashable, Poly], Counter]:
    """{key: (numerator, exponent map)} lifted to one map, each factor (1 - q t^k)
    at its largest multiplicity: a numerator gains the factors its map lacks."""
    common = reduce(or_, (exps for _, exps in parts.values()), Counter())
    return {k: num * qt_product(q, common - exps) for k, (num, exps) in parts.items()}, common


class RatFunc:
    """Rational function in t, stored reduced with a monic denominator."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly = P_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = P_ZERO, P_ONE
        elif den.degree == 0:
            if den.coeffs[0] != 1:
                num = num.scale(Fraction(1) / den.coeffs[0])
            den = P_ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading()
            if lead != 1:
                inv = Fraction(1) / lead
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def _of(num: Poly, den: Poly) -> "RatFunc":
        """A RatFunc of a fraction already reduced, with a monic denominator."""
        out = object.__new__(RatFunc)
        for name, value in zip(RatFunc.__slots__, (num, den, None)):
            object.__setattr__(out, name, value)
        return out

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc._of(-self.num, self.den)  # zero stays over den 1

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def scale(self, c: CoeffLike) -> "RatFunc":
        """c times the fraction: a nonzero c keeps it reduced over the same monic den."""
        if c == 0:
            return RF_ZERO
        return RatFunc._of(self.num.scale(c), self.den)

    def eval(self, t0: Fraction) -> Fraction:
        d = self.den.eval(t0)
        if d == 0:
            raise PoleError(f"pole at t = {t0}")
        return self.num.eval(t0) / d

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.den == P_ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


RF_ZERO = RatFunc(P_ZERO)
RF_ONE = RatFunc(P_ONE)


#: numerator/denominator magnitude bound for random evaluation points;
#: RANDOM_POINT_BOUND**2 < P, so `residue` is injective on these points,
#: and a difference x - t*y of three of them is 0 mod P only when it is 0
RANDOM_POINT_BOUND = 10**6


def random_point(seed: int, avoid: Iterable[Fraction] = ()) -> Fraction:
    """Deterministic pseudo-random rational for identity testing.

    Numerator and denominator are bounded by RANDOM_POINT_BOUND.  The
    values 0, 1 and -1 are always excluded (they would collapse the
    common denominators 1 - t**e, 1 - q*t**e), as is everything in
    `avoid`.  The same seed always yields the same point.
    """
    rng = random.Random(seed)
    avoid_set = set(avoid) | {Fraction(0), Fraction(1), Fraction(-1)}
    while True:
        num = rng.randint(-RANDOM_POINT_BOUND, RANDOM_POINT_BOUND)
        den = rng.randint(1, RANDOM_POINT_BOUND)
        r = Fraction(num, den)
        if r not in avoid_set:
            return r
