"""Sidon and almost-Sidon sets with exact representation statistics.

A set S inside the integer interval [1, N] is Sidon when all pairwise
differences are distinct, equivalently when its additive energy E(S), the
number of quadruples (x, x', y, y') in S^4 with x - x' = y - y', equals the
trivial-solution count 2|S|^2 - |S|.  Everything in this module is computed
in exact integer or rational arithmetic so that inequalities involving the
energy excess eta and the density delta are decided exactly.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from operator import index

import numpy as np

from .errors import ValidationError

BLOCK_PAIRS = 2**20  # most pairs one numpy block holds in convolve._pairs and bohr_set
# int64 arithmetic is exact while every value and partial sum stays below this
INT64_SAFE = 1 << 62
# the most ordered pairs |S|^2 (so |S| <= 4096) one profile takes, refused first
MAX_PAIRS = 1 << 24
# the most points one dense array (an indicator's span, an interval, a
# dilation, an Erdos-Turan set, a grid m, a Bohr width) or a perturbation's
# ambient may have, refused by check_span before it is made: a complex128
# grid of 2^23 points takes 128 MiB; the ET(401) report at eps 1/5 needs
# m = 2^22 and width 64,525
MAX_POINTS = 1 << 23


@dataclass(frozen=True)
class IntegerSet:
    """A finite set of integers inside the ambient interval [1, ambient_n];
    numpy integers are converted, floats refused (TypeError)."""

    elements: tuple[int, ...]
    ambient_n: int

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(map(index, self.elements)))
        object.__setattr__(self, "ambient_n", index(self.ambient_n))
        if self.ambient_n < 1:
            raise ValidationError(f"ambient_n must be positive, got {self.ambient_n}")
        for prev, cur in zip(self.elements, self.elements[1:]):
            if cur <= prev:
                raise ValidationError("elements must be strictly increasing")
        if self.elements:
            if self.elements[0] < 1 or self.elements[-1] > self.ambient_n:
                raise ValidationError(
                    f"elements must lie in [1, {self.ambient_n}]"
                )

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def profile(self) -> "RepresentationProfile":
        """representation_profile(self), computed once per set."""
        return representation_profile(self)

    def __contains__(self, x) -> bool:
        try:
            i = bisect_left(self.elements, x)
        except TypeError:
            return False
        return i < len(self.elements) and self.elements[i] == x

    @property
    def eta(self) -> Fraction:
        """The energy excess: the least nonnegative rational eta with
        E(S) <= (2 + eta)|S|^2, for a nonempty set."""
        if not self.elements:
            raise ValidationError("eta requires a nonempty set")
        return Fraction(self.profile.excess, self.size ** 2)

    @property
    def density(self) -> Fraction:
        """delta = min(1, |S| / ceil(sqrt(N))), a density witness:
        delta^2 N <= |S|^2 holds exactly, also past sqrt(N) points."""
        return min(Fraction(1), Fraction(self.size, ceil_sqrt(self.ambient_n)))

    def padded_to_square(self) -> "IntegerSet":
        """Same elements with the ambient enlarged to the next perfect square."""
        c = ceil_sqrt(self.ambient_n)
        return IntegerSet(self.elements, c * c)


def exact_dtype(bound: int):
    """The dtype of an array whose every value, partial sum and product is
    at most `bound` in magnitude: int64 while the bound is below INT64_SAFE,
    else object (Python ints, where nothing wraps)."""
    return np.int64 if bound < INT64_SAFE else object


def zero_one(elements, name: str) -> tuple[np.ndarray, int]:
    """Dense 0/1 int64 weights over [min, max] of strictly increasing integer
    elements and its offset min; a span past MAX_POINTS is refused before
    the array is made."""
    if not elements:
        return np.zeros(0, dtype=np.int64), 0
    lo, hi = elements[0], elements[-1]
    w = np.zeros(check_span(hi - lo + 1, f"the indicator of {name} on [{lo}, {hi}]"),
                 dtype=np.int64)
    w[[x - lo for x in elements]] = 1
    return w, lo


def rational(x) -> Fraction:
    """x as an exact Fraction: an int, a Fraction or a string such as "1/5"
    or "0.2".  A float is refused, since its binary value is not the decimal
    it prints as, and so is anything Fraction cannot read."""
    if isinstance(x, (float, np.floating)):
        raise ValidationError(f"cannot parse rational {x!r}: a float is not exact")
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse rational {x!r}: {exc}") from exc


@dataclass(frozen=True)
class RepresentationProfile:
    """What the almost-Sidon hypothesis reads of the differences of S.

    With r_S(n) the number of ordered pairs (n1, n2) in S^2 with
    n1 - n2 = n: `energy` is E(S) = sum r_S(n)^2, `excess` is
    eta |S|^2 = max(0, E(S) - 2|S|^2), and `repeated_difference_sum` is the
    sum of r_S(n) over nonzero n with r_S(n) > 1.  One profile per set is
    cached as IntegerSet.profile.
    """

    energy: int
    excess: int
    repeated_difference_sum: int


def ceil_sqrt(n: int) -> int:
    c = isqrt(n)
    return c if c * c == n else c + 1


def _is_prime(n: int) -> bool:
    # trial division: erdos_turan admits only p <= MAX_POINTS, so d <= 2,896
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def erdos_turan(p: int) -> IntegerSet:
    """Dense Sidon set {2pa + (a^2 mod p) + 1 : 0 <= a < p} in [1, 2p^2].

    Requires p prime.  The set has p elements, so its density against the
    ambient length 2p^2 is p / sqrt(2p^2) = 2^(-1/2); p past MAX_POINTS is
    refused before the primality test.
    """
    if not _is_prime(check_span(p, "the Erdos-Turan set")):
        raise ValidationError(f"erdos_turan requires a prime, got {p}")
    elems = sorted(2 * p * a + (a * a % p) + 1 for a in range(p))
    return IntegerSet(tuple(elems), 2 * p * p)


def mian_chowla(k: int) -> IntegerSet:
    """First k terms of the greedy Sidon sequence 1, 2, 4, 8, 13, ...

    Starting from 1, repeatedly append the least integer that keeps all
    pairwise differences distinct.  The ambient interval ends at the last
    term.
    """
    if k < 1:
        raise ValidationError(f"mian_chowla requires k >= 1, got {k}")
    elems = [1]
    diffs: set[int] = set()
    c = 1
    while len(elems) < k:
        c += 1
        new = [c - x for x in elems]
        if any(d in diffs for d in new):
            continue
        elems.append(c)
        diffs.update(new)
    return IntegerSet(tuple(elems), elems[-1])


def check_span(points: int, what: str) -> int:
    """points itself, refused past MAX_POINTS (before any array)."""
    if points > MAX_POINTS:
        raise ValidationError(
            f"{what} of {points} points is too long to index (the cap is {MAX_POINTS})")
    return points


def check_pairs(size: int) -> int:
    """size itself, refused when its size^2 difference pairs are past
    MAX_PAIRS (before any array)."""
    if size ** 2 > MAX_PAIRS:
        raise ValidationError(f"{size}^2 difference pairs are past the cap of {MAX_PAIRS}")
    return size


def difference_counts(elems) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct differences x - y over elems^2 (int64 below
    INT64_SAFE, else object dtype) and how many ordered pairs give each, for
    any elems; only x - y > 0 is sorted, since r(-d) = r(d) and r(0) is
    k^2 - 2 #{x - y > 0}.  More than MAX_PAIRS pairs are refused first."""
    k = check_pairs(len(elems))
    if not k:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    arr = np.array(elems, dtype=exact_dtype(max(map(abs, elems))))
    outer = np.subtract.outer(arr, arr)
    pos = outer[outer > 0]
    pos.sort()
    # where each run of equal differences starts, then pos.size (alone if 0)
    cuts = np.concatenate(([pos.size > 0], pos[1:] != pos[:-1], [True])).nonzero()[0]
    d, r = pos[cuts[:-1]], cuts[1:] - cuts[:-1]
    return (np.concatenate((-d[::-1], np.zeros(1, arr.dtype), d)),
            np.concatenate((r[::-1], [k * k - 2 * pos.size], r)))


def representation_profile(s: IntegerSet) -> RepresentationProfile:
    """E(S), eta |S|^2 and the repeated-difference sum from the counts r_S(n)
    of difference_counts."""
    diffs, r = difference_counts(s.elements)
    energy, k = int(r @ r), s.size
    return RepresentationProfile(energy, max(0, energy - 2 * k * k),
                                 int(r[(r > 1) & (diffs != 0)].sum()))


def is_sidon(s: IntegerSet) -> bool:
    """True iff E(S) equals the trivial-tuple count 2|S|^2 - |S|."""
    return s.profile.energy == 2 * s.size**2 - s.size


def philox(seed: int) -> np.random.Generator:
    """A Philox counter-based generator keyed by seed, 0 <= seed < 2**128."""
    seed = index(seed)
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def perturb_almost_sidon(s: IntegerSet, extra: int, seed: int) -> IntegerSet:
    """S together with `extra` pseudorandom new points of [1, N].

    Draws are made with a Philox counter-based generator keyed by `seed`
    (chosen for reproducibility and splittability); each draw j picks the
    (j+1)-th point of [1, N] not yet taken, so the result is a deterministic
    function of (S, extra, seed).  A result past MAX_PAIRS difference pairs
    is refused before the first draw.  Note that adding points may either
    create or avoid difference coincidences, so no monotonicity of eta is
    implied.
    """
    if extra < 0:
        raise ValidationError(f"extra must be nonnegative, got {extra}")
    if s.size + extra > s.ambient_n:
        raise ValidationError(
            f"cannot add {extra} points: only {s.ambient_n - s.size} slots free"
        )
    rng = philox(seed)  # checks the seed even when nothing is drawn
    if extra == 0:
        return s
    n = check_span(s.ambient_n, "the ambient of a perturbation")
    check_pairs(s.size + extra)
    taken = list(s.elements)
    for left in range(n - s.size, n - s.size - extra, -1):
        # taken[i] - i - 1 free points lie below taken[i], a nondecreasing
        # count: the rank-th free point is rank + i for the first i whose
        # count reaches rank
        rank = int(rng.integers(0, left)) + 1
        i = bisect_right(range(len(taken)), rank, key=lambda i: taken[i] - i)
        taken.insert(i, rank + i)
    return IntegerSet(tuple(taken), s.ambient_n)


# --- set file format -------------------------------------------------------
#
# Line 1:  "N <ambient_n>"
# then one element per line in increasing order, decimal, newline-terminated.
# Lines starting with '#' are comments and may appear anywhere.


def format_set_file(s: IntegerSet) -> str:
    lines = [f"N {s.ambient_n}"]
    lines.extend(str(x) for x in s.elements)
    return "\n".join(lines) + "\n"


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"line {lineno}: expected an integer, got {text!r}") from None


def parse_set_file(text: str) -> IntegerSet:
    ambient = None
    elems = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ambient is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "N":
                raise ValidationError(f"expected 'N <ambient>' header, got {line!r}")
            ambient = _parse_int(parts[1], lineno)
        else:
            elems.append(_parse_int(line, lineno))
    if ambient is None:
        raise ValidationError("set file has no 'N <ambient>' header")
    return IntegerSet(tuple(elems), ambient)


def write_set_file(s: IntegerSet, path) -> None:
    if isinstance(path, io.TextIOBase):
        path.write(format_set_file(s))
        return
    with open(path, "w") as fh:
        fh.write(format_set_file(s))


def read_set_file(path) -> IntegerSet:
    with open(path) as fh:
        return parse_set_file(fh.read())
