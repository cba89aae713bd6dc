"""Exact counting of solutions to a1*x1 + ... + as*xs = 0.

Every weighted function is a `ScaledFunction`: integer numerators over one
common denominator, held as one read-only int64 array (an object array of
Python ints past INT64_SAFE) with its maximum and mass sum|x| measured
once, when it is made.  The constructor trims, reduces and measures on
the array itself, with no list of Python ints; only the indicators, whose
maximum 1 and mass are known, are stored without it.  A sqrt(N) factor,
as in the dense model, is an integer once the ambient is a perfect square
and lives in the numerators like any other rational weight.  Its sums,
energy, scaling, sums and convolutions with other functions, comparisons
and float weights run on that array: in int64 while a bound from the
maximum and mass keeps them below INT64_SAFE, else over Python ints;
`sets.exact_dtype` picks the dtype of each array made from such a bound.
The fast path divides the coefficients by their gcd and groups the
variables by coefficient.
Dilation commutes with convolution, dil_a(f) * dil_a(g) = dil_a(f * g), so
with at most two groups each group's functions are convolved undilated, a
function repeated k times raised to the k-th power by repeated squaring,
and the count is one strided dot of the two group products P and Q: sum
over t of P(b t) Q(-a t), the solutions of a x + b y = 0 for coprime a and
b.  This plan is taken when every group product's coefficient bound, computed from
lengths and maxima before any convolution, stays below INT64_SAFE.
Otherwise (three or more groups, or a wider product) the numerators of
each input are dilated onto the lattice m = a_i * x_i, the first ceil(s/2)
dilations and the rest are folded separately, and the coefficient at zero
of their product is read off as one dot product (meet in the middle).
Either way the count is an integer over the product of the denominators.

Every product here is a fold (values, offset, top, mass): the values at
offset, offset + 1, ..., top >= max|value| and mass >= sum|value|.  The
values are an int64 array whenever top is below INT64_SAFE, and past it
may be an object array of Python ints (numerators outside int64,
Kronecker's products).  A function's fold is its own array, maximum and
mass, with no conversion and no scan; a dilation writes the values strided
into zeros and keeps both; a product is `_fold_step`, the one product of
the library (the counts, `ScaledFunction.energy` and
`ScaledFunction.convolved` call it), which calls `convolve._product`, the
exact engine below the public list adapter, and carries as its top the
least of the coefficient bound min(len) top top and top mass, taken
either way round, and as its mass the product of the masses, so no
product is scanned.  A dot is taken in int64 when (terms) top top is
below INT64_SAFE, and over Python ints otherwise.

On one set S, `count_distinct_solutions` and `degenerate_bound_check`
share one memo of folds of 1_S dilations, each convolved once: fold(t) for
a sorted coefficient tuple t is fold(t[:-1]) times the last dilation, so
keys share prefixes, and the fold of the mirror (-t, sorted) is fold(t)
reversed (a view), at offset -(offset + len - 1).

The all-variables-distinct count is obtained from the plain counts by
freeing one variable at a time: a variable t that must differ from the
other pairwise-distinct variables either differs from all of them or
equals exactly one, so that count is the count with t free minus, per
other variable, the count with t merged into it (coefficients added).
The recursion is memoised on sorted coefficients.  Merged variables whose
coefficient vanishes contribute a free factor |S|, and merged equations
equal up to scaling, sign and order are counted once.

`brute_force_count` is the independent oracle: direct enumeration over all
tuples of the first s-1 supports, solving for the last variable.  It never
touches the convolution engine or the fold memo, and reads each support and
its weights off the numerator array.  It runs in blocks of at most `_CHUNK`
tuples, each a range of rows of the leading supports times every support
after them, so its peak memory is set by `_CHUNK` and not by the budget; a
tuple is one flat index, so 2^63 tuples or more are refused whatever the
budget.  A block's partial sums t give the last variable x_s = -t / a_s,
and its weight is read by index from the last function's numerators where
a_s divides t and x_s is in that function's span; only the solutions whose
weight is not an interior zero are unravelled into coordinates, gathered
and multiplied, and their h weight products are summed in int64 while h
times the largest weight product stays below INT64_SAFE, else over Python
ints.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from math import gcd, lcm, prod
from numbers import Rational
from operator import index

import numpy as np

from .convolve import _array, _product, product_bound
from .errors import BudgetExceededError, ValidationError
from .sets import INT64_SAFE, IntegerSet, check_span, exact_dtype, zero_one

DEFAULT_BRUTE_BUDGET = 10**9
MAX_DISTINCT_VARS = 12

# tuples per oracle block, so that a block's few temporaries stay in the
# caches: (1,1,1,1,-4) on ET(43)+10, 7.9M tuples in blocks of at most 2^12,
# 2^14, 2^16, 2^18 and 2^21, takes 97, 59, 53, 61 and 91 ms (medians of 9
# interleaved runs, 2 vCPUs)
_CHUNK = 1 << 16


@dataclass(frozen=True)
class EquationCoeffs:
    """Nonzero integer coefficients of a linear equation in s >= 2 variables."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))
        if len(self.coeffs) < 2:
            raise ValidationError("an equation needs at least two variables")
        if any(a == 0 for a in self.coeffs):
            raise ValidationError("all coefficients must be nonzero")

    @property
    def s(self) -> int:
        return len(self.coeffs)

    @property
    def translation_invariant(self) -> bool:
        return sum(self.coeffs) == 0


# every integer of magnitude below it is a float64 exactly
_FLOAT_EXACT = 1 << 53
# the nums of every zero function
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _exact(x: np.ndarray, bound: int) -> np.ndarray:
    """x for an expression whose every value, partial sum and product is at
    most `bound` in magnitude: itself while the bound is below INT64_SAFE,
    else as an object array of Python ints, where nothing wraps."""
    return x if bound < INT64_SAFE else x.astype(object, copy=False)


def _square_sum(x: np.ndarray, bound: int) -> int:
    """sum x^2, for a bound on every partial sum."""
    x = _exact(x, bound)
    return int(np.dot(x, x))


@dataclass(frozen=True, init=False, eq=False)
class ScaledFunction:
    """A finitely supported function nums / den on the ambient [1, N].

    Integer numerators over one common denominator, kept in lowest terms and
    trimmed: the value at the integer offset + j is nums[j] / den, and N is
    `ambient_n`.  Zero numerators at both ends are dropped on construction
    (the offset moves with them), so nonempty nums start and end nonzero and
    the zero function is empty at offset 0.  Values may be signed.
    `from_weights` takes rational weights; `weights` is their tuple.

    nums is one read-only array: int64 exactly when every |nums[j]| is
    below INT64_SAFE, else an object array of Python ints.  The constructor
    takes any sequence of integers or an integer array and reads it by
    `convolve._array`, the one input rule of the library and the public
    `convolve` (a 1-d signed-integer array as int64, anything else value
    by value with `operator.index`), and trims, reduces and measures that
    array in numpy, keeping a fresh copy:
    `_top` = max|nums| and `_mass` = sum|nums| are kept beside it, 0 for
    the zero function, for the exactness guards of this module (the folds,
    the int64 sums and comparisons).  Equality, hashing and repr read nums
    as a tuple of ints.
    """

    offset: int
    nums: np.ndarray
    den: int = 1
    ambient_n: int = 1

    def __init__(self, offset: int, nums, den: int = 1, ambient_n: int = 1):
        den, offset, ambient_n = index(den), index(offset), index(ambient_n)
        _check_positive(den, ambient_n)
        x, top = _array(nums)
        if not top:
            self._store(0, _EMPTY, 1, ambient_n, 0, 0)
            return
        nonzero = np.flatnonzero(x)
        # a fresh copy, in a dtype whose abs cannot wrap
        x = x[nonzero[0]:nonzero[-1] + 1].astype(exact_dtype(top))
        g = gcd(den, int(np.gcd.reduce(x))) if den > 1 else 1
        if g > 1:
            x, den, top = x // g, den // g, top // g
        x = x.astype(exact_dtype(top), copy=False)
        mass = int(_exact(np.abs(x), len(x) * top).sum())
        self._store(offset + int(nonzero[0]), x, den, ambient_n, top, mass)

    @classmethod
    def _of(cls, offset: int, nums: np.ndarray, den: int, ambient_n: int, top: int,
            mass: int) -> "ScaledFunction":
        """The function of an array already in the stored form, with its
        max|x| and sum|x|: no copy, no trim, no gcd and no scan.  For the
        indicators, whose maximum is 1 and mass their size."""
        _check_positive(den, ambient_n)
        f = object.__new__(cls)
        f._store(offset, nums, den, ambient_n, top, mass)
        return f

    def _store(self, offset: int, nums: np.ndarray, den: int, ambient_n: int, top: int,
               mass: int) -> None:
        """Set the fields, with nums made read-only."""
        nums.flags.writeable = False
        vars(self).update(offset=offset, nums=nums, den=den, ambient_n=ambient_n,
                          _top=top, _mass=mass)

    @classmethod
    def from_weights(cls, offset: int, weights, ambient_n: int = 1
                     ) -> "ScaledFunction":
        """Rational weights (anything `Fraction` accepts) over their lcm."""
        ws = [Fraction(w) for w in weights]
        den = lcm(*(w.denominator for w in ws))
        return cls(offset, [w.numerator * (den // w.denominator) for w in ws],
                   den, ambient_n)

    @classmethod
    def from_set(cls, s: IntegerSet) -> "ScaledFunction":
        """Indicator of S with the set's ambient."""
        w, off = zero_one(s.elements, "S")
        return cls._of(off, w, 1, s.ambient_n, min(1, s.size), s.size)

    @classmethod
    def from_interval(cls, lo: int, hi: int, ambient_n: int) -> "ScaledFunction":
        lo, hi = index(lo), index(hi)
        if hi < lo:
            raise ValidationError("empty interval")
        n = check_span(hi - lo + 1, f"interval [{lo}, {hi}]")
        return cls._of(lo, np.ones(n, dtype=np.int64), 1, index(ambient_n), 1, n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.offset, self.den, self.ambient_n)
                == (other.offset, other.den, other.ambient_n)
                and np.array_equal(self.nums, other.nums))

    def __hash__(self):
        return hash((self.offset, tuple(self.nums.tolist()), self.den, self.ambient_n))

    def __reduce__(self):
        # a copy or an unpickled function is rebuilt, so its nums is
        # read-only and measured again
        return type(self), (self.offset, self.nums, self.den, self.ambient_n)

    def __repr__(self):
        return (f"{type(self).__qualname__}(offset={self.offset!r}, "
                f"nums={tuple(self.nums.tolist())!r}, den={self.den!r}, "
                f"ambient_n={self.ambient_n!r})")

    @property
    def weights(self) -> tuple[Rational, ...]:
        """nums[j] / den per point: the ints themselves when den is 1."""
        if self.den == 1:
            return tuple(self.nums.tolist())
        return tuple(Fraction(x, self.den) for x in self.nums.tolist())

    def support(self) -> list[int]:
        return [self.offset + j for j in np.flatnonzero(self.nums).tolist()]

    def weight_at(self, x: int) -> Fraction:
        j = x - self.offset
        if 0 <= j < len(self.nums):
            return Fraction(int(self.nums[j]), self.den)
        return Fraction(0)

    def mass(self) -> Fraction:
        """Sum of the weights."""
        return Fraction(int(_exact(self.nums, self._mass).sum()), self.den)

    @cached_property
    def energy(self) -> Fraction:
        """The additive energy E(f) of the weights, exactly, computed once
        per function: sum over n of (f * f)(n)^2, the solutions of
        x1 + x2 = x3 + x4, from the square of the numerators over den^4,
        summed under the top and mass that the square carries."""
        if not len(self.nums):
            return Fraction(0)
        fold = _as_fold(self)
        square, _, top, mass = _fold_step(fold, fold)
        return Fraction(_square_sum(square, top * mass), self.den**4)

    def l2_weights(self) -> Fraction:
        return Fraction(_square_sum(self.nums, self._top * self._mass), self.den * self.den)

    def scaled_by(self, q) -> "ScaledFunction":
        """q times the function: p nums over den d for q = p / d, which the
        constructor reduces and measures.  The zero function is its own
        multiple, with no array to carry a p past int64."""
        q = Fraction(q)
        if not len(self.nums):
            return self
        p = q.numerator
        return ScaledFunction(self.offset, _exact(self.nums, self._top * abs(p)) * p,
                              self.den * q.denominator, self.ambient_n)

    def __add__(self, other: "ScaledFunction") -> "ScaledFunction":
        if other.ambient_n != self.ambient_n:
            raise ValidationError("can only add functions on the same ambient")
        den = lcm(self.den, other.den)
        # the zero function sits at offset 0, so only the nonzero summands
        # span the sum
        parts = [(f, den // f.den) for f in (self, other) if len(f.nums)]
        lo = min((f.offset for f, _ in parts), default=0)
        hi = max((f.offset + len(f.nums) for f, _ in parts), default=0)
        out = np.zeros(hi - lo, dtype=exact_dtype(sum(k * f._top for f, k in parts)))
        for f, k in parts:
            a = f.offset - lo
            out[a:a + len(f.nums)] += f.nums.astype(out.dtype, copy=False) * k
        return ScaledFunction(lo, out, den, self.ambient_n)

    def convolved(self, other: "ScaledFunction") -> "ScaledFunction":
        """The convolution f * g, (f * g)(n) = sum over x + y = n of
        f(x) g(y): the product of the numerators by `_fold_step` over
        den_f den_g, which the constructor reduces and measures."""
        if other.ambient_n != self.ambient_n:
            raise ValidationError("can only convolve functions on the same ambient")
        if not (len(self.nums) and len(other.nums)):
            return ScaledFunction(0, _EMPTY, 1, self.ambient_n)
        values, offset, _, _ = _fold_step(_as_fold(self), _as_fold(other))
        return ScaledFunction(offset, values, self.den * other.den, self.ambient_n)

    def dominated_by(self, nu: "ScaledFunction") -> bool:
        """Exact pointwise check |self| <= nu (same ambient required), as
        |x| nu.den <= y den."""
        if nu.ambient_n != self.ambient_n:
            raise ValidationError("majorant must live on the same ambient")
        x, shift = self.nums, self.offset - nu.offset
        if not len(x):
            return True
        # self's end values are nonzero, so its span must lie inside nu's
        if not 0 <= shift <= len(nu.nums) - len(x):
            return False
        bound = max(self._top * nu.den, nu._top * self.den)
        x, y = _exact(x, bound), _exact(nu.nums[shift:shift + len(x)], bound)
        return bool((np.abs(x) * nu.den <= y * self.den).all())

    def at_least(self, t) -> list[int]:
        """The points whose weight is at least t > 0, in order: x / den >=
        a / b for t = a / b, in integers b x >= a den."""
        t = Fraction(t)
        if t <= 0:
            raise ValidationError(f"need a positive level, got {t}")
        if not len(self.nums):
            return []
        a, b = t.numerator, t.denominator
        x = _exact(self.nums, max(b * self._top, a * self.den))
        return [self.offset + j for j in np.flatnonzero(b * x >= a * self.den).tolist()]

    def times(self, rs: np.ndarray, d: int) -> "ScaledFunction":
        """The function whose weight at offset + j is rs[j] / d times this
        one's, for an integer array rs as long as nums."""
        bound = self._top * int(np.abs(rs).max(initial=0))
        return ScaledFunction(self.offset, rs * _exact(self.nums, bound), d * self.den,
                              self.ambient_n)

    def float_weights(self) -> np.ndarray:
        """float(weights[j]), correctly rounded: int64 numerators over den
        in numpy when each converts exactly (and at den 1, where numpy
        rounds each like float(int)), else int / int over Python ints; a
        weight past the float range is refused."""
        x, den = self.nums, self.den
        if x.dtype != object and (den == 1 or max(self._top, den) < _FLOAT_EXACT):
            return x / den
        try:
            return np.array([v / den for v in x.tolist()], dtype=float)
        except OverflowError:
            raise ValidationError("a weight is past the float range") from None


def _check_positive(den: int, ambient_n: int) -> None:
    if den < 1 or ambient_n < 1:
        raise ValidationError(
            f"den and ambient_n must be positive, got {den}, {ambient_n}")


@dataclass(frozen=True)
class SolutionCount:
    """An exact weighted solution count."""

    value: Fraction


def _dilation_span(n: int, a: int) -> int:
    """The |a| (n - 1) + 1 slots of a dilation by a of n values, refused
    past MAX_POINTS."""
    return check_span(abs(a) * (n - 1) + 1, f"the dilation by {a}")


def _as_fold(f: ScaledFunction):
    """f's numerators as a fold (see the module docstring), with the
    maximum and mass that f measured when it was made."""
    return f.nums, f.offset, f._top, f._mass


def _dilate(fold, a: int):
    """The fold placed at lattice points a * x: values[j] (at x = offset + j)
    goes to a * (offset + j), written strided into zeros, and the dilation
    by 0 is the sum at 0; the slots are refused past MAX_POINTS before the
    array is made."""
    values, offset, top, mass = fold
    if a == 0:
        total = int(np.sum(values, dtype=object))
        return np.array([total], dtype=exact_dtype(abs(total))), 0, abs(total), abs(total)
    out = np.zeros(_dilation_span(len(values), a), dtype=values.dtype)
    out[::abs(a)] = values if a > 0 else values[::-1]
    return out, a * (offset if a > 0 else offset + len(values) - 1), top, mass


def _fold_step(acc, factor):
    """The product of two folds by the exact engine, with its top and mass
    carried rather than measured: |(a b)[k]| is at most the coefficient
    bound, max|a| sum|b| and max|b| sum|a|, and sum|a b| <= sum|a| sum|b|.
    Kronecker gives object entries from its own coefficient bound, so the
    product takes the dtype of its top."""
    (xa, a_off, max_a, mass_a), (xb, b_off, max_b, mass_b) = acc, factor
    top = min(product_bound(len(xa), max_a, len(xb), max_b),
              max_a * mass_b, max_b * mass_a)
    values = _product(xa, xb, max_a, max_b).astype(exact_dtype(top), copy=False)
    return values, a_off + b_off, top, mass_a * mass_b


def _shape_step(acc, factor):
    """The (length, coefficient bound) of a product of two such shapes: what
    `_fold_step` makes, from lengths and maxima alone."""
    (len_a, max_a), (len_b, max_b) = acc, factor
    return len_a + len_b - 1, product_bound(len_a, max_a, len_b, max_b)


def _power_product(items, step):
    """The product of x^k over the (x, k) items under `step`, each power by
    repeated squaring: x^4 = (x x)(x x) takes two steps where a fold takes
    three, and each square is one product of an array with itself."""
    acc = None
    for x, k in items:
        while k:
            if k & 1:
                acc = x if acc is None else step(acc, x)
            k >>= 1
            if k:
                x = step(x, x)
    return acc


def _dot_at_zero(left, right, a: int = 1, b: int = 1) -> int:
    """sum over integers t of left(b t) * right(-a t) for two folds: for
    coprime a and b the solutions of a x + b y = 0 are (x, y) = (b t, -a t),
    so this is their weighted count.  At (1, 1) it is the coefficient at
    lattice point 0 of left * right.  In int64 when no partial sum can reach
    INT64_SAFE, else over Python ints."""
    (left, left_off, left_top, _), (right, right_off, right_top, _) = left, right
    if b < 0:  # t -> -t
        a, b = -a, -b
    # t with left_off <= b t <= left_last and right_off <= -a t <= right_last
    left_last, right_last = left_off + len(left) - 1, right_off + len(right) - 1
    if a < 0:
        lo = max(-(-left_off // b), -(right_off // a))
        hi = min(left_last // b, right_last // -a)
    else:
        lo = max(-(-left_off // b), -(right_last // a))
        hi = min(left_last // b, -right_off // a)
    if lo > hi:
        return 0
    xs = left[b * lo - left_off:b * hi - left_off + 1:b]
    # right's indices at t = lo and t = hi, a step of -a apart
    i, j = -a * lo - right_off, -a * hi - right_off
    ys = right[i:j + 1:-a] if a < 0 else right[j:i + 1:a][::-1]
    bound = (hi - lo + 1) * left_top * right_top
    return int(np.dot(_exact(xs, bound), _exact(ys, bound)))


def _coefficient_groups(coeffs, folds) -> list[tuple[int, list[list]]]:
    """(coefficient, [[fold, multiplicity], ...]) per group of variables,
    for at most two distinct coefficients; one fold object shares one item.
    When every coefficient is the same c (then c = +-1), the last variable
    is a group of its own: the solutions of c x + c y = 0 are (c t, -c t)
    as well."""
    last = len(folds) - 1 if coeffs.count(coeffs[0]) == len(coeffs) else None
    groups: dict[tuple[int, bool], dict[int, list]] = {}
    for i, (a, fold) in enumerate(zip(coeffs, folds)):
        items = groups.setdefault((a, i == last), {})
        items.setdefault(id(fold), [fold, 0])[1] += 1
    return [(a, list(items.values())) for (a, _), items in groups.items()]


def _group_bound(items) -> int:
    """The coefficient bound of a group's product, from lengths and maxima
    alone; 0 for a single factor, which takes no convolution."""
    if len(items) == 1 and items[0][1] == 1:
        return 0
    return _power_product([((len(values), top), k) for (values, _, top, _), k in items],
                          _shape_step)[1]


def count_solutions(eq: EquationCoeffs, fns) -> SolutionCount:
    """Exact weighted count of solutions to sum a_i x_i = 0.

    Returns sum over integer tuples (x_1, ..., x_s) with a1 x1 + ... = 0 of
    the product of the function values, over the product of the
    denominators.  The coefficients are divided by their gcd (the same
    solutions, shorter lattices), and every dilation span is checked against
    MAX_POINTS before any work.  Each distinct function object becomes an
    array once.

    The variables are grouped by coefficient.  With at most two groups, and
    every group product's coefficient bound (from lengths and maxima alone)
    below INT64_SAFE, the functions of each group are convolved undilated,
    a repeated function object by repeated squaring, and the count is the
    strided dot `_dot_at_zero` of the two group products (with one
    coefficient, the last variable against the rest).  Otherwise the count
    is the coefficient at zero of the product of the dilations, folded in
    two balanced halves.
    """
    fns = list(fns)
    if len(fns) != eq.s:
        raise ValidationError(
            f"equation has {eq.s} variables but {len(fns)} functions given"
        )
    g = gcd(*eq.coeffs)
    coeffs = [a // g for a in eq.coeffs]
    if not all(len(f.nums) for f in fns):
        return SolutionCount(Fraction(0))
    for a, f in zip(coeffs, fns):
        _dilation_span(len(f.nums), a)
    den_product = prod(f.den for f in fns)
    converted = {}  # one fold per function object
    folds = [converted.get(id(f)) or converted.setdefault(id(f), _as_fold(f))
             for f in fns]
    groups = _coefficient_groups(coeffs, folds) if len(set(coeffs)) <= 2 else ()
    if groups and all(_group_bound(items) < INT64_SAFE for _, items in groups):
        (a, left), (b, right) = [(a, _power_product(items, _fold_step))
                                 for a, items in groups]
        value = _dot_at_zero(left, right, a, b)
    else:
        dilations = [_dilate(fold, a) for a, fold in zip(coeffs, folds)]
        half = (eq.s + 1) // 2
        value = _dot_at_zero(reduce(_fold_step, dilations[:half]),
                             reduce(_fold_step, dilations[half:]))
    return SolutionCount(Fraction(value, den_product))


def _normalised(coeffs: list[int]) -> tuple[int, ...]:
    """The equation up to scaling, sign and order: the same count on S^s."""
    g = gcd(*coeffs)
    scaled = sorted(c // g for c in coeffs)
    return min(tuple(scaled), tuple(sorted(-c for c in scaled)))


def _set_counts(s_set: IntegerSet):
    """`fold` and `distinct` on one nonempty set S, over one memo of folds
    of 1_S dilations (see the module docstring)."""
    base = _as_fold(ScaledFunction.from_set(s_set))

    @cache
    def canonical(key: tuple[int, ...]):
        if len(key) < 2:
            return _dilate(base, key[0]) if key else (np.ones(1, dtype=np.int64), 0, 1, 1)
        return _fold_step(fold(key[:-1]), _dilate(base, key[-1]))

    def fold(key: tuple[int, ...]):
        """The fold of the dilations by the sorted `key`."""
        mirror = tuple(-c for c in reversed(key))
        if mirror >= key:
            return canonical(key)
        values, mirror_off, top, mass = canonical(mirror)
        return values[::-1], -(mirror_off + len(values) - 1), top, mass

    @cache
    def count(key: tuple[int, ...]) -> int:
        half = (len(key) + 1) // 2
        return _dot_at_zero(fold(key[:half]), fold(key[half:]))

    @cache
    def distinct(tied: tuple[int, ...], free: tuple[int, ...]) -> int:
        """Solutions with the `tied` variables pairwise distinct."""
        if len(tied) < 2:
            nonzero = [c for c in tied + free if c != 0]
            zeros = len(tied) + len(free) - len(nonzero)
            return s_set.size**zeros * (count(_normalised(nonzero)) if nonzero else 1)
        *rest, t = tied
        total = distinct(tuple(rest), tuple(sorted(free + (t,))))
        for i, c in enumerate(rest):
            total -= distinct(tuple(sorted(rest[:i] + [c + t] + rest[i + 1:])), free)
        return total

    return fold, distinct


def count_distinct_solutions(eq: EquationCoeffs, s_set: IntegerSet
                             ) -> SolutionCount:
    """Count solutions in S with all variables pairwise distinct.

    Frees one constrained variable at a time (see the module docstring);
    each merged equation is counted once per normalised form.  Raises for
    s > 12; use brute_force_count there instead.
    """
    if eq.s > MAX_DISTINCT_VARS:
        raise ValidationError(
            f"s = {eq.s} > {MAX_DISTINCT_VARS} variables for distinct counting, "
            "use brute_force_count(distinct_only=True) instead"
        )
    if s_set.size == 0:
        return SolutionCount(Fraction(0))
    _, distinct = _set_counts(s_set)
    return SolutionCount(Fraction(distinct(tuple(sorted(eq.coeffs)), ())))


def _resolve_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("SIDONLAB_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(
                f"SIDONLAB_BUDGET must be an integer, got {env!r}"
            ) from None
    return DEFAULT_BRUTE_BUDGET


def brute_force_count(eq: EquationCoeffs, fns, distinct_only: bool = False,
                      budget: int | None = None) -> SolutionCount:
    """Oracle: enumerate tuples of the first s-1 supports, solve the last.

    The cost is the product of the first s-1 support sizes; it must not
    exceed the budget (argument, else SIDONLAB_BUDGET, else 10^9), and 2^63
    tuples or more, past the one flat index that numbers them, are refused
    whatever the budget.  The enumeration never uses convolution.  It runs
    in blocks of at most `_CHUNK` tuples, each a range of rows of the
    leading supports times every support after them, so peak memory is set
    by `_CHUNK` and not by the budget.  A block solves a_s x_s = -t for each
    partial sum t and reads the last weight from the last function's
    numerators at x_s - offset, where a_s divides t and x_s is in that
    function's span; a solution that reads an interior zero is dropped, and
    the coordinates of the others are unravelled from their flat indices.
    Positions and weights are int64 when rigorous sum and product bounds
    permit and Python-integer (object) arrays otherwise; a block's h
    solutions are summed in int64 when h times the largest weight product
    is below INT64_SAFE, and over Python ints otherwise.
    """
    fns = list(fns)
    if len(fns) != eq.s:
        raise ValidationError(
            f"equation has {eq.s} variables but {len(fns)} functions given"
        )
    if not all(len(f.nums) for f in fns):
        return SolutionCount(Fraction(0))
    *head, last = fns
    nonzero = [np.flatnonzero(f.nums) for f in head]
    cost = prod(len(j) for j in nonzero)
    limit = _resolve_budget(budget)
    if cost > limit:
        raise BudgetExceededError(
            f"enumeration needs {cost} tuples, budget is {limit}"
        )
    # the blocks number the tuples by one flat intp index
    if cost > np.iinfo(np.intp).max:
        raise BudgetExceededError(f"enumeration needs {cost} tuples, past the index limit")
    den_product = prod(f.den for f in fns)
    wmax = prod(f._top for f in fns)
    # every partial sum of a_i x_i, the last one's offset term included, is
    # at most sum |a_i| * max |x|, and a trimmed function's support starts
    # and ends its span
    xmax = max(max(abs(f.offset), abs(f.offset + len(f.nums) - 1)) for f in fns)
    pmax = sum(abs(a) for a in eq.coeffs) * xmax
    pdtype, dtype = exact_dtype(pmax), exact_dtype(wmax)
    pos = [j.astype(pdtype) + f.offset for j, f in zip(nonzero, head)]
    wts = [f.nums[j].astype(dtype) for j, f in zip(nonzero, head)]
    total = _enumerate(eq.coeffs, pos, wts, last, distinct_only, pdtype, wmax)
    return SolutionCount(Fraction(total, den_product))


def _solve(u, c, nums):
    """The solutions in one block of sums u = c (x_s - offset): the flat
    indices where c divides u and the last function's numerators `nums`
    are nonzero at u / c, and those indices into `nums`."""
    ok = (u >= 0) & (u < c * len(nums))
    if c > 1:
        ok &= u % c == 0
    hits = np.flatnonzero(ok)
    q = u.ravel()[hits]
    q = (q // c if c > 1 else q).astype(np.intp, copy=False)
    live = nums[q] != 0
    return hits[live], q[live]


def _enumerate(coeffs, pos, wts, last, distinct_only, pdtype, wmax) -> int:
    """The sum of the weight products over the tuples of the supports `pos`
    (weights `wts`) with the last variable, of function `last`, solved."""
    # a_s x_s = -t is c (x_s - offset) = u, with c = |a_s| and u the sum
    # of the terms -sign(a_s) a_i x_i less c offset
    sign, c = (-1 if coeffs[-1] > 0 else 1), abs(coeffs[-1])
    terms = [sign * a * p for a, p in zip(coeffs, pos)]
    sizes = [len(p) for p in pos]
    # a block is a range of flat rows over the axes 0..k times every axis
    # after k, whose sums (less c offset) `tail` holds once for all blocks
    k = next(k for k in range(len(pos)) if prod(sizes[k + 1:]) <= _CHUNK)
    tail = np.full(1, -c * last.offset, pdtype)
    for t in terms[k + 1:]:
        tail = np.add.outer(tail, t).ravel()
    width, rows = len(tail), prod(sizes[:k + 1])
    step = _CHUNK // width
    total = 0
    for lo in range(0, rows, step):
        lead = np.unravel_index(np.arange(lo, min(lo + step, rows)), sizes[:k + 1])
        u = reduce(np.add, (t[i] for t, i in zip(terms, lead)))
        hits, q = _solve(u[:, None] + tail, c, last.nums)
        # every coordinate index of each solution, from its flat index
        at = np.unravel_index(hits + lo * width, sizes)
        vals = last.nums[q].astype(exact_dtype(wmax), copy=False)
        for w, i in zip(wts, at):
            vals = vals * w[i]
        if distinct_only:
            coords = [p[i] for p, i in zip(pos, at)] + [q.astype(pdtype) + last.offset]
            keep = np.ones(len(hits), dtype=bool)
            for a in range(len(coords)):
                for b in range(a + 1, len(coords)):
                    keep &= coords[a] != coords[b]
            vals = vals[keep]
        total += (int(vals.sum()) if len(vals) * wmax < INT64_SAFE
                  else sum(vals.tolist()))
    return total


@dataclass(frozen=True)
class DegenerateBoundReport:
    """Per-shift three-variable counts against the energy bound E(S)^(3/4).

    For each shift n realized by the variables x_4 .. x_s with the last two
    merged, `max_shift_count` is the largest observed number of (x1, x2, x3)
    in S^3 with a1 x1 + a2 x2 + a3 x3 = -n.  `bound_holds` is the exact
    comparison count^4 <= E(S)^3 for every shift (fourth powers keep the
    comparison in integer arithmetic).  `degenerate_total` is the number of
    solutions with at least one repeated variable, total minus distinct
    (only filled when s <= 12).
    """

    max_shift_count: int
    bound_holds: bool
    energy: int
    shifts_checked: int
    merged_pair_total: int
    total: int
    distinct: int | None
    degenerate_total: int | None


def degenerate_bound_check(eq: EquationCoeffs, s_set: IntegerSet
                           ) -> DegenerateBoundReport:
    """Check the three-variable counts behind degenerate solutions.

    Fixes x_{s-1} = x_s (one representative of the repeated-pair classes),
    enumerates every realizable shift n = a4 x4 + ... + as xs, and verifies
    count(n)^4 <= E(S)^3 for the exact count of (x1,x2,x3) solving the
    complementary equation.  Requires s >= 5.
    """
    if eq.s < 5:
        raise ValidationError(f"degenerate bound check needs s >= 5, got {eq.s}")
    if s_set.size == 0:
        raise ValidationError("degenerate bound check needs a nonempty set")
    energy = s_set.profile.energy
    fold, distinct = _set_counts(s_set)
    a = eq.coeffs
    head = fold(tuple(sorted(a[:3])))
    tail = fold(tuple(sorted(a[3:-2] + (a[-2] + a[-1],))))
    (head_seq, head_off, _, _), (tail_seq, tail_off, _, _) = head, tail
    # the shifts n the tail realises, and the head's counts at -n inside it
    shifts = np.flatnonzero(tail_seq)
    idx = -(tail_off + shifts) - head_off
    counts = head_seq[idx[(idx >= 0) & (idx < len(head_seq))]]
    max_count = int(counts.max(initial=0))
    # sum over the shifts of mult(n) * count(-n): head * tail at zero
    merged_pair_total = _dot_at_zero(head, tail)

    total = _dot_at_zero(head, fold(tuple(sorted(a[3:]))))
    distinct_total = degenerate = None
    if eq.s <= MAX_DISTINCT_VARS:
        distinct_total = distinct(tuple(sorted(a)), ())
        degenerate = total - distinct_total
    # every count is nonnegative, so the largest decides the bound
    return DegenerateBoundReport(max_count, max_count**4 <= energy**3, energy,
                                 len(shifts), merged_pair_total, total,
                                 distinct_total, degenerate)
