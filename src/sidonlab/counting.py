"""Exact counting of solutions to a1*x1 + ... + as*xs = 0.

Every weighted function is a `ScaledFunction`: integer numerators over one
common denominator.  A sqrt(N) factor, as in the dense model, is an
integer once the ambient is a perfect square and lives in the numerators
like any other rational weight.  The fast path divides the coefficients
by their gcd and groups the variables by coefficient.  Dilation commutes
with convolution, dil_a(f) * dil_a(g) = dil_a(f * g), so with at most two
groups each group's functions are convolved undilated, a function
repeated k times raised to the k-th power by repeated squaring, and the
count is one strided dot of the two group products P and Q: sum over t of
P(b t) Q(-a t), the solutions of a x + b y = 0 for coprime a and b.  This
plan is taken when every group product's coefficient bound, computed from
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
Kronecker's products).  Each distinct function becomes an array once,
with its maximum and mass measured; a dilation writes the values strided
into zeros and keeps both; a product comes from `convolve._product`, the
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
touches the convolution engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import repeat
from math import gcd, lcm, prod
from numbers import Rational
from operator import add, index, le, mul

import numpy as np

from .convolve import _array, _product, convolve, product_bound
from .errors import BudgetExceededError, ValidationError
from .sets import INT64_SAFE, IntegerSet, check_span

DEFAULT_BRUTE_BUDGET = 10**9
MAX_DISTINCT_VARS = 12

_CHUNK = 1 << 21


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


@dataclass(frozen=True)
class ScaledFunction:
    """A finitely supported function nums / den on the ambient [1, N].

    Integer numerators over one common denominator, kept in lowest terms and
    trimmed: the value at the integer offset + j is nums[j] / den, and N is
    `ambient_n`.  Zero numerators at both ends are dropped on construction
    (the offset moves with them), so nonempty nums start and end nonzero and
    the zero function is () at offset 0.  Values may be signed.
    `from_weights` takes rational weights; `weights` is a read-only view.
    """

    offset: int
    nums: tuple[int, ...]
    den: int = 1
    ambient_n: int = 1

    def __post_init__(self):
        nums, den = tuple(map(index, self.nums)), index(self.den)
        offset = index(self.offset)
        object.__setattr__(self, "ambient_n", index(self.ambient_n))
        if den < 1 or self.ambient_n < 1:
            raise ValidationError(
                f"den and ambient_n must be positive, got {den}, {self.ambient_n}")
        lo, hi = 0, len(nums)
        while lo < hi and nums[lo] == 0:
            lo += 1
        while hi > lo and nums[hi - 1] == 0:
            hi -= 1
        nums = nums[lo:hi]  # nums itself when nothing is dropped
        object.__setattr__(self, "offset", offset + lo if nums else 0)
        g = gcd(den, *nums) if den > 1 else 1
        object.__setattr__(self, "nums", tuple(x // g for x in nums) if g > 1 else nums)
        object.__setattr__(self, "den", den // g)

    @classmethod
    def from_weights(cls, offset: int, weights, ambient_n: int = 1
                     ) -> "ScaledFunction":
        """Rational weights (anything `Fraction` accepts) over their lcm."""
        ws = [Fraction(w) for w in weights]
        den = lcm(*(w.denominator for w in ws))
        return cls(offset, tuple(w.numerator * (den // w.denominator) for w in ws),
                   den, ambient_n)

    @classmethod
    def from_set(cls, s: IntegerSet) -> "ScaledFunction":
        """Indicator of S with the set's ambient."""
        w, off = s.indicator()
        return cls(off, tuple(w), 1, s.ambient_n)

    @classmethod
    def from_interval(cls, lo: int, hi: int, ambient_n: int) -> "ScaledFunction":
        if hi < lo:
            raise ValidationError("empty interval")
        return cls(lo, (1,) * check_span(hi - lo + 1, f"interval [{lo}, {hi}]"), 1,
                   ambient_n)

    @property
    def weights(self) -> tuple[Rational, ...]:
        """nums[j] / den per point: the ints themselves when den is 1."""
        if self.den == 1:
            return self.nums
        return tuple(Fraction(x, self.den) for x in self.nums)

    def support(self) -> list[int]:
        return [self.offset + j for j, x in enumerate(self.nums) if x]

    def weight_at(self, x: int) -> Fraction:
        j = x - self.offset
        if 0 <= j < len(self.nums):
            return Fraction(self.nums[j], self.den)
        return Fraction(0)

    def mass(self) -> Fraction:
        """Sum of the weights."""
        return Fraction(sum(self.nums), self.den)

    @cached_property
    def energy(self) -> Fraction:
        """The additive energy E(f) of the weights, exactly, computed once
        per function: sum over n of (f * f)(n)^2, the solutions of
        x1 + x2 = x3 + x4, from the square of the numerators over den^4."""
        square = convolve(self.nums, self.nums)
        return Fraction(sum(map(mul, square, square)), self.den**4)

    def l2_weights(self) -> Fraction:
        return Fraction(sum(map(mul, self.nums, self.nums)), self.den * self.den)

    def scaled_by(self, q) -> "ScaledFunction":
        q = Fraction(q)
        p = q.numerator  # a property: read once, not once per weight
        return ScaledFunction(self.offset, tuple(map(mul, self.nums, repeat(p))),
                              self.den * q.denominator, self.ambient_n)

    def __add__(self, other: "ScaledFunction") -> "ScaledFunction":
        if other.ambient_n != self.ambient_n:
            raise ValidationError("can only add functions on the same ambient")
        den = lcm(self.den, other.den)
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.nums), other.offset + len(other.nums))
        out = [0] * (hi - lo)
        for f in (self, other):
            k = den // f.den
            a = f.offset - lo
            b = a + len(f.nums)
            out[a:b] = map(add, out[a:b], f.nums if k == 1 else [k * x for x in f.nums])
        return ScaledFunction(lo, tuple(out), den, self.ambient_n)

    def dominated_by(self, nu: "ScaledFunction") -> bool:
        """Exact pointwise check |self| <= nu (same ambient required)."""
        if nu.ambient_n != self.ambient_n:
            raise ValidationError("majorant must live on the same ambient")
        shift = self.offset - nu.offset
        # self's end values are nonzero, so its span must lie inside nu's
        if self.nums and not 0 <= shift <= len(nu.nums) - len(self.nums):
            return False
        return all(map(le, map(mul, map(abs, self.nums), repeat(nu.den)),
                       map(mul, nu.nums[shift:], repeat(self.den))))

    def float_weights(self) -> np.ndarray:
        """float(weights[j]): int / int is correctly rounded; a weight past
        the float range is refused.  At den 1 numpy converts each int, also
        correctly rounded."""
        try:
            if self.den == 1:
                return np.array(self.nums, dtype=float)
            return np.array([x / self.den for x in self.nums], dtype=float)
        except OverflowError:
            raise ValidationError("a weight is past the float range") from None


@dataclass(frozen=True)
class SolutionCount:
    """An exact weighted solution count."""

    value: Fraction


def _dilation_span(n: int, a: int) -> int:
    """The |a| (n - 1) + 1 slots of a dilation by a of n values, refused
    past MAX_POINTS."""
    return check_span(abs(a) * (n - 1) + 1, f"the dilation by {a}")


def _as_fold(f: ScaledFunction):
    """f's numerators as a fold (see the module docstring): the maximum
    and the mass measured once, by numpy past 128 entries as `_array`
    measures the maximum, and exactly in int64 when top * len is below
    INT64_SAFE."""
    values, top = _array(f.nums)
    if len(values) > 128 and top * len(values) < INT64_SAFE:
        return values, f.offset, top, int(np.abs(values).sum())
    return values, f.offset, top, sum(map(abs, f.nums))


def _dilate(fold, a: int):
    """The fold placed at lattice points a * x: values[j] (at x = offset + j)
    goes to a * (offset + j), written strided into zeros, and the dilation
    by 0 is the sum at 0; the slots are refused past MAX_POINTS before the
    array is made."""
    values, offset, top, mass = fold
    if a == 0:
        total = int(np.sum(values, dtype=object))
        return _array([total])[0], 0, abs(total), abs(total)
    out = np.zeros(_dilation_span(len(values), a), dtype=values.dtype)
    out[::abs(a)] = values if a > 0 else values[::-1]
    return out, a * (offset if a > 0 else offset + len(values) - 1), top, mass


def _fold_step(acc, factor):
    """The product of two folds by the exact engine, with its top and mass
    carried rather than measured: |(a b)[k]| is at most the coefficient
    bound, max|a| sum|b| and max|b| sum|a|, and sum|a b| <= sum|a| sum|b|.
    Kronecker gives object entries from its own coefficient bound, so a
    product whose top is below INT64_SAFE is made int64."""
    (xa, a_off, max_a, mass_a), (xb, b_off, max_b, mass_b) = acc, factor
    values = _product(xa, xb, max_a, max_b)
    top = min(product_bound(len(xa), max_a, len(xb), max_b),
              max_a * mass_b, max_b * mass_a)
    if top < INT64_SAFE and values.dtype == object:
        values = values.astype(np.int64)
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
    if (hi - lo + 1) * left_top * right_top < INT64_SAFE:
        return int(np.dot(xs, ys))
    return int(np.dot(xs.astype(object, copy=False), ys.astype(object, copy=False)))


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
    if not all(f.nums for f in fns):
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
    ints, off = s_set.indicator()
    base = np.array(ints, dtype=np.int64), off, 1, s_set.size

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
    exceed the budget (argument, else SIDONLAB_BUDGET, else 10^9).  The
    enumeration never uses convolution.  Inner grids are evaluated in
    numpy blocks, with int64 positions and weights when rigorous sum and
    product bounds permit and Python-integer (object) arrays otherwise.
    """
    fns = list(fns)
    if len(fns) != eq.s:
        raise ValidationError(
            f"equation has {eq.s} variables but {len(fns)} functions given"
        )
    if any(not f.nums for f in fns):
        return SolutionCount(Fraction(0))
    supports = [f.support() for f in fns]
    cost = prod(len(sup) for sup in supports[:-1])
    limit = _resolve_budget(budget)
    if cost > limit:
        raise BudgetExceededError(
            f"enumeration needs {cost} tuples, budget is {limit}"
        )
    int_weights = [[x for x in f.nums if x] for f in fns]
    den_product = prod(f.den for f in fns)
    wmax = prod(max(abs(w) for w in ws) for ws in int_weights)
    # every partial sum of a_i x_i is at most sum |a_i| * max |x|
    xmax = max(max(abs(sup[0]), abs(sup[-1])) for sup in supports)
    pmax = sum(abs(a) for a in eq.coeffs) * xmax
    total = _enumerate(eq.coeffs, supports, int_weights, distinct_only,
                       np.int64 if pmax < INT64_SAFE else object,
                       np.int64 if wmax < INT64_SAFE else object)
    return SolutionCount(Fraction(total, den_product))


def _enumerate(coeffs, supports, weights, distinct_only, pdtype, dtype) -> int:
    s = len(coeffs)
    pos = [np.asarray(p, dtype=pdtype) for p in supports]
    wts = [np.asarray(w, dtype=dtype) for w in weights]
    a_last = coeffs[-1]
    pos_last, wts_last = pos[-1], wts[-1]

    def solve_block(tsum, wprod, coords):
        neg = -tsum
        q = neg // a_last  # np.divmod has no loop for object arrays
        mask = q * a_last == neg
        idx = np.clip(np.searchsorted(pos_last, q), 0, len(pos_last) - 1)
        mask = mask & (pos_last[idx] == q)
        if distinct_only:
            for i in range(len(coords)):
                for j in range(i + 1, len(coords)):
                    mask = mask & (coords[i] != coords[j])
                mask = mask & (coords[i] != q)
        vals = wprod * wts_last[idx] * mask
        return int(np.sum(vals, dtype=object))

    def walk(axis, tsum, wprod, fixed):
        rem = prod(len(pos[k]) for k in range(axis, s - 1))
        if rem <= _CHUNK:
            nax = s - 1 - axis
            t = np.asarray(tsum, dtype=pdtype)
            w = np.asarray(wprod, dtype=dtype)
            coords = list(fixed)
            for t_i, k in enumerate(range(axis, s - 1)):
                shape = [1] * nax
                shape[t_i] = len(pos[k])
                pk = pos[k].reshape(shape)
                t = t + coeffs[k] * pk
                w = w * wts[k].reshape(shape)
                coords.append(pk)
            return solve_block(t, w, coords)
        out = 0
        for j in range(len(pos[axis])):
            x = int(pos[axis][j])
            if distinct_only and x in fixed:
                continue
            out += walk(axis + 1, tsum + coeffs[axis] * x,
                        wprod * int(wts[axis][j]), fixed + [x])
        return out

    return walk(0, 0, 1, [])


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
