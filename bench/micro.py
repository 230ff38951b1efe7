"""Fixed-input microbenchmarks of the scalar layer, in microseconds per call.

The inputs never change between runs or seeds, so a later change to
`asepx.scalar` can be compared call for call.  Each figure is the
median of REPEATS timings of a fixed number of calls.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REPEATS = 5
DEGREES = (5, 20, 40)
# calls per timing, sized to about 20 ms each on a 2-CPU box
CALLS = {
    "poly_mul": {5: 100, 20: 10, 40: 3},
    "poly_divmod": {5: 100, 20: 10, 40: 3},
    "poly_gcd": {5: 60, 20: 5, 40: 2},
    "ratfunc_add": 2,
}
NAMES = [f"scalar.micro.{op}_d{d}_us" for op in ("poly_mul", "poly_divmod", "poly_gcd")
         for d in DEGREES] + ["scalar.micro.ratfunc_add_us"]


def _poly(scalar, rng: random.Random, degree: int):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
    return scalar.Poly(coeffs + [Fraction(rng.randint(1, 9))])


def _time_us(fn, calls: int) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def run(scalar) -> dict[str, float]:
    """All microbenchmark metrics, keyed by their per-layer names."""
    rng = random.Random(20240821)
    out = {}
    for d in DEGREES:
        a, b = _poly(scalar, rng, d), _poly(scalar, rng, d)
        out[f"scalar.micro.poly_mul_d{d}_us"] = _time_us(lambda: a * b, CALLS["poly_mul"][d])
        num = a * b + _poly(scalar, rng, d - 1)
        out[f"scalar.micro.poly_divmod_d{d}_us"] = _time_us(
            lambda: num.divmod(b), CALLS["poly_divmod"][d])
        # degree-d operands sharing a factor of degree d // 2
        g = _poly(scalar, rng, d // 2)
        u, v = _poly(scalar, rng, d - d // 2), _poly(scalar, rng, d - d // 2)
        x, y = g * u, g * v
        out[f"scalar.micro.poly_gcd_d{d}_us"] = _time_us(
            lambda: scalar.poly_gcd(x, y), CALLS["poly_gcd"][d])
    # denominators are unequal products of (1 - q t^k), as in mlq and mp
    q = Fraction(2, 3)

    def den(ks):
        out_den = scalar.Poly((1,))
        for k in ks:
            out_den = out_den * scalar.one_minus_qtk(q, k)
        return out_den

    f = scalar.RatFunc(_poly(scalar, rng, 6), den((1, 2, 3, 5)))
    h = scalar.RatFunc(_poly(scalar, rng, 6), den((2, 3, 4, 6)))
    out["scalar.micro.ratfunc_add_us"] = _time_us(lambda: f + h, CALLS["ratfunc_add"])
    return out
