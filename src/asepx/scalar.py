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
The point-evaluated identity checks run on these residues.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

_ZERO = 0

CoeffLike = Union[int, str, Fraction]


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
        return Poly(tuple(-c for c in self.coeffs))

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
        return Poly((_ZERO,) * k + self.coeffs)

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
            acc = (acc * t + residue(c)) % P
        return acc

    # -- encoding --------------------------------------------------------
    def to_json(self) -> list[str]:
        """Coefficients as "num/den" strings, lowest degree first."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str]) -> "Poly":
        return Poly(data)

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


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return P_ZERO
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


def one_minus_qtk(q: Fraction, k: int) -> Poly:
    """The polynomial 1 - q*t**k (a plain scalar 1-q when k == 0)."""
    if k == 0:
        return Poly((1 - q,))
    return Poly((1,) + (0,) * (k - 1) + (-q,))


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
        if self.num.is_zero():
            return self
        out = RatFunc.__new__(RatFunc)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        object.__setattr__(out, "_hash", None)
        return out

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
        return RatFunc(self.num.scale(c), self.den)

    def eval(self, t0: Fraction) -> Fraction:
        d = self.den.eval(t0)
        if d == 0:
            raise PoleError(f"pole at t = {t0}")
        return self.num.eval(t0) / d

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data: dict) -> "RatFunc":
        return RatFunc(Poly.from_json(data["num"]), Poly.from_json(data["den"]))

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
