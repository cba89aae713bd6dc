"""A slow route for `ScaledFunction`: the same function held as a tuple of
Python ints.

`TupleFunction` keeps the numerators in a tuple and computes every
operation by a loop over Python ints, where the library works on one int64
(or object) array; its energy sums a `Counter` of pair sums rather than
calling the convolution engine, and its product is a double loop.
`level_set` is the matching reference for
`transference.verify_l2_reduction`.  The tests fuzz the array
implementation against both, operation by operation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, index, le, mul

import numpy as np


@dataclass(frozen=True)
class TupleFunction:
    """nums / den at offset, N = ambient_n: trimmed and in lowest terms."""

    offset: int
    nums: tuple[int, ...]
    den: int = 1
    ambient_n: int = 1

    def __post_init__(self):
        nums, den = tuple(map(index, self.nums)), index(self.den)
        offset = index(self.offset)
        object.__setattr__(self, "ambient_n", index(self.ambient_n))
        if den < 1 or self.ambient_n < 1:
            raise ValueError(f"den and ambient_n must be positive, got {den}, {self.ambient_n}")
        lo, hi = 0, len(nums)
        while lo < hi and nums[lo] == 0:
            lo += 1
        while hi > lo and nums[hi - 1] == 0:
            hi -= 1
        nums = nums[lo:hi]
        object.__setattr__(self, "offset", offset + lo if nums else 0)
        g = gcd(den, *nums) if den > 1 else 1
        object.__setattr__(self, "nums", tuple(x // g for x in nums) if g > 1 else nums)
        object.__setattr__(self, "den", den // g)

    @property
    def weights(self) -> tuple:
        if self.den == 1:
            return self.nums
        return tuple(Fraction(x, self.den) for x in self.nums)

    def support(self) -> list[int]:
        return [self.offset + j for j, x in enumerate(self.nums) if x]

    def mass(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def energy(self) -> Fraction:
        """sum over t of (sum over a + b = t of f(a) f(b))^2."""
        r = Counter()
        for i, x in enumerate(self.nums):
            for j, y in enumerate(self.nums):
                r[i + j] += x * y
        return Fraction(sum(v * v for v in r.values()), self.den**4)

    def l2_weights(self) -> Fraction:
        return Fraction(sum(map(mul, self.nums, self.nums)), self.den * self.den)

    def scaled_by(self, q) -> "TupleFunction":
        q = Fraction(q)
        return TupleFunction(self.offset, tuple(map(mul, self.nums, repeat(q.numerator))),
                             self.den * q.denominator, self.ambient_n)

    def __add__(self, other: "TupleFunction") -> "TupleFunction":
        # a zero summand adds nothing; spanning its offset 0 could ask for
        # a list of 2^63 zeros
        if not other.nums:
            return self
        if not self.nums:
            return other
        den = lcm(self.den, other.den)
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.nums), other.offset + len(other.nums))
        out = [0] * (hi - lo)
        for f in (self, other):
            k = den // f.den
            a = f.offset - lo
            b = a + len(f.nums)
            out[a:b] = map(add, out[a:b], [k * x for x in f.nums])
        return TupleFunction(lo, tuple(out), den, self.ambient_n)

    def convolved(self, other: "TupleFunction") -> "TupleFunction":
        """sum over x + y = n of f(x) g(y), by a double loop."""
        out = [0] * max(len(self.nums) + len(other.nums) - 1, 0)
        for i, x in enumerate(self.nums):
            for j, y in enumerate(other.nums):
                out[i + j] += x * y
        return TupleFunction(self.offset + other.offset, tuple(out), self.den * other.den,
                             self.ambient_n)

    def dominated_by(self, nu: "TupleFunction") -> bool:
        shift = self.offset - nu.offset
        if self.nums and not 0 <= shift <= len(nu.nums) - len(self.nums):
            return False
        return all(map(le, map(mul, map(abs, self.nums), repeat(nu.den)),
                       map(mul, nu.nums[shift:], repeat(self.den))))

    def at_least(self, t) -> list[int]:
        t = Fraction(t)
        return [self.offset + j for j, x in enumerate(self.nums) if Fraction(x, self.den) >= t]

    def times(self, rs, d: int) -> "TupleFunction":
        return TupleFunction(self.offset, tuple(map(mul, rs, self.nums)), d * self.den,
                             self.ambient_n)

    def float_weights(self) -> np.ndarray:
        if self.den == 1:
            return np.array(self.nums, dtype=float)
        return np.array([x / self.den for x in self.nums], dtype=float)


def level_set(f: TupleFunction, delta: Fraction) -> tuple:
    """(level set, mass hypothesis, l2 hypothesis) of
    `verify_l2_reduction`: the points where nums / den >= delta / 2, and
    sum f >= delta N and sum f^2 <= N."""
    n = f.ambient_n
    p, q = delta.numerator, delta.denominator
    level = tuple(compress(range(f.offset, f.offset + len(f.nums)),
                           map(le, repeat(p * f.den), map(mul, repeat(2 * q), f.nums))))
    return level, f.mass() >= delta * n, f.l2_weights() <= n
