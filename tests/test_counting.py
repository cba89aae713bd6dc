"""Exact solution counting: engine, inclusion-exclusion, oracle, bounds."""

import collections
import copy
import functools
import itertools
import operator
import pickle
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import factorial, gcd, prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sidonlab.cli as cli_module
import sidonlab.convolve as engine
import sidonlab.counting as counting_module
import sidonlab.sets as sets_module
import sidonlab.transference as transference_module

from sidonlab.counting import (
    EquationCoeffs,
    ScaledFunction,
    brute_force_count,
    count_distinct_solutions,
    count_solutions,
    degenerate_bound_check,
)
from sidonlab.convolve import convolve_many
from sidonlab.errors import BudgetExceededError, ValidationError
from sidonlab.sets import IntegerSet, erdos_turan, perturb_almost_sidon, zero_one

from reference_function import TupleFunction, level_set


def interval(n):
    return ScaledFunction.from_interval(1, n, n)


def indicator(elems, n=None):
    return ScaledFunction.from_set(IntegerSet(tuple(elems), n or max(elems)))


def random_set(rng, n_max):
    n = int(rng.integers(4, n_max + 1))
    size = int(rng.integers(1, max(2, n // 2) + 1))
    elems = sorted(int(v) + 1 for v in rng.choice(n, size=size, replace=False))
    return IntegerSet(tuple(elems), n)


def random_coeffs(rng, s):
    out = []
    for _ in range(s):
        a = 0
        while a == 0:
            a = int(rng.integers(-3, 4))
        out.append(a)
    return EquationCoeffs(tuple(out))


class TestEquationCoeffs:
    def test_validation(self):
        with pytest.raises(ValidationError):
            EquationCoeffs((1,))
        with pytest.raises(ValidationError):
            EquationCoeffs((1, 0, -1))

    def test_floats_refused(self):
        # truncation would make (1.5, -1.5, 2.2) the non-invariant (1, -1, 2)
        with pytest.raises(TypeError):
            EquationCoeffs((1.5, -1.5, 2.2))
        with pytest.raises(TypeError):
            EquationCoeffs((1.0, -1.0))

    def test_numpy_integers_accepted(self):
        eq = EquationCoeffs(tuple(np.array([1, 1, -2], dtype=np.int64)))
        assert eq.coeffs == (1, 1, -2)
        assert all(type(a) is int for a in eq.coeffs)
        assert eq == EquationCoeffs((1, 1, -2))

    def test_translation_invariance_flag(self):
        assert EquationCoeffs((1, 1, -2)).translation_invariant
        assert not EquationCoeffs((1, 1, -3)).translation_invariant


class TestScaledFunction:
    def test_trim_and_support(self):
        f = ScaledFunction.from_weights(3, (0, 0, 1, 0, 2, 0), 10)
        assert f.offset == 5 and f.weights == (1, 0, 2)
        assert f.support() == [5, 7]

    def test_zero_padding_does_not_change_the_function(self):
        assert (ScaledFunction.from_weights(3, (0, 1, 2, 0), 10)
                == ScaledFunction.from_weights(4, (1, 2), 10))
        zero = ScaledFunction(0, (), 1, 10)
        assert ScaledFunction(7, (0, 0), 5, 10) == zero
        assert ScaledFunction.from_weights(-4, (Fraction(0, 3),), 10) == zero

    def test_add_and_scale(self):
        f = indicator([1, 3], 4) + indicator([2, 3], 4).scaled_by(Fraction(1, 2))
        assert f.weight_at(1) == 1
        assert f.weight_at(2) == Fraction(1, 2)
        assert f.weight_at(3) == Fraction(3, 2)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 6),
                              st.lists(st.integers(-9, 9), max_size=12)),
                    min_size=2, max_size=2),
           st.fractions(min_value=-5, max_value=5, max_denominator=7))
    def test_add_and_scale_pointwise(self, parts, q):
        # the per-point Fraction sum is the reference for the slice arithmetic
        f, g = (ScaledFunction(off, tuple(nums), den, 50) for off, den, nums in parts)
        total, scaled = f + g, f.scaled_by(q)
        for x in range(-31, 43):
            assert total.weight_at(x) == f.weight_at(x) + g.weight_at(x)
            assert scaled.weight_at(x) == q * f.weight_at(x)

    def test_add_scale_mismatch(self):
        a = ScaledFunction.from_weights(0, (1,), 4)
        b = ScaledFunction.from_weights(0, (1,), 9)
        with pytest.raises(ValidationError):
            a + b

    def test_dominated_by(self):
        nu = ScaledFunction.from_weights(0, (2, 3, 1), 4)
        f = ScaledFunction.from_weights(0, (Fraction(-2), Fraction(3), Fraction(-1)),
                                        4)
        assert f.dominated_by(nu)
        g = ScaledFunction.from_weights(0, (Fraction(-3), 0, 0), 4)
        assert not g.dominated_by(nu)

    @staticmethod
    def dominated_loop(f, nu):
        """|f| <= nu point by point over f's span, nu 0 outside its own."""
        shift = f.offset - nu.offset
        nu_nums = nu.nums.tolist()  # Python ints: no product may wrap
        for j, x in enumerate(f.nums.tolist()):
            k = j + shift
            b = nu_nums[k] if 0 <= k < len(nu_nums) else 0
            if abs(x) * nu.den > b * f.den:
                return False
        return True

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-12, 12), st.lists(st.integers(-3, 3), max_size=9),
           st.integers(1, 4), st.integers(-12, 12), st.lists(st.integers(-1, 4), max_size=9),
           st.integers(1, 4), st.sampled_from([1, 2**63 + 1, 3**50]))
    def test_dominated_by_matches_the_loop(self, off, nums, den, nu_off, nu_nums,
                                           nu_den, big):
        # spans overlapping, nested or apart; numerators past 2^63; a
        # denominator of either side may exceed the other's
        f = ScaledFunction(off, tuple(x * big for x in nums), den, 4)
        nu = ScaledFunction(nu_off, tuple(x * big for x in nu_nums), nu_den, 4)
        assert f.dominated_by(nu) == self.dominated_loop(f, nu)
        assert nu.dominated_by(f) == self.dominated_loop(nu, f)

    def test_dominated_by_at_the_span_edges(self):
        nu = ScaledFunction(5, (1, 2, 1), 1, 9)
        assert not ScaledFunction(4, (1, 1), 1, 9).dominated_by(nu)  # one slot left
        assert not ScaledFunction(7, (1, 1), 1, 9).dominated_by(nu)  # one slot right
        assert ScaledFunction(5, (-1, 2, 1), 1, 9).dominated_by(nu)  # exactly nu's span
        assert not ScaledFunction(5, (1, 2, 2), 1, 9).dominated_by(nu)
        assert ScaledFunction(3, (0, 0, 1, 0, 1, 0, 0), 1, 9).dominated_by(nu)
        # the zero function, stored at offset 0 outside nu's span
        assert ScaledFunction(0, (), 1, 9).dominated_by(nu)
        assert ScaledFunction(0, (), 1, 9).dominated_by(ScaledFunction(0, (), 1, 9))
        assert not nu.dominated_by(ScaledFunction(0, (), 1, 9))

    def test_dominated_by_support_outside_nu(self):
        nu = ScaledFunction(5, (1, 1, 1), 1, 9)
        for off, nums in ((2, (0, 0, 1, 1)), (2, (1, 0, 0)), (7, (1, 0, 1)),
                          (6, (1, 1, 0, 0, 0, 2)), (-20, (1,)), (20, (1,))):
            f = ScaledFunction(off, nums, 1, 9)
            assert not f.dominated_by(nu) and not self.dominated_loop(f, nu)
        for off, nums in ((2, (0, 0, 0, 1, 1, 1, 0)), (-20, (0,)), (20, ())):
            f = ScaledFunction(off, nums, 1, 9)
            assert f.dominated_by(nu) and self.dominated_loop(f, nu)

    @pytest.mark.parametrize("x", [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**54 - 1,
                                   2**63 + 1, 2**1024 - 2**970 - 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_weights_at_den_one_are_int_over_one(self, x, sign):
        got = ScaledFunction(0, (sign * x, 0, 1), 1, 1).float_weights()
        assert got.tobytes() == np.array([sign * x / 1, 0.0, 1.0]).tobytes()

    @pytest.mark.parametrize("x", [2**1024, -2**1024, 2**1024 - 2**970, 2**2000])
    def test_float_weights_past_the_range_refused_at_den_one(self, x):
        with pytest.raises(ValidationError, match="float range"):
            ScaledFunction(0, (1, x), 1, 1).float_weights()

    def test_energy_is_the_weight_energy_computed_once(self, monkeypatch):
        f = ScaledFunction(-3, (2, 0, -1, 5), 3, 7)
        g = ScaledFunction(-3, (2, 0, -1, 5), 3, 7)
        before = (repr(f), hash(f))
        calls = []
        real = counting_module._product
        monkeypatch.setattr(counting_module, "_product",
                            lambda a, b, *tops: calls.append(a) or real(a, b, *tops))
        assert f.energy == f.energy and len(calls) == 1
        monkeypatch.undo()
        # sum over n of (g * g)(n)^2, from the pair sums of the numerators
        r = collections.Counter()
        for (i, x), (j, y) in itertools.product(enumerate(g.nums.tolist()), repeat=2):
            r[i + j] += x * y
        assert g.energy == Fraction(sum(v * v for v in r.values()), 3**4) == f.energy
        # the cached value is no field: equality, hashing and repr ignore it
        assert (repr(f), hash(f)) == before == (repr(g), hash(g))
        assert f == g and f == ScaledFunction(-3, (2, 0, -1, 5), 3, 7)
        assert "energy" not in repr(f)

    def test_integerized(self):
        # rational weights are stored over their lcm, in lowest terms
        f = ScaledFunction.from_weights(0, (Fraction(1, 2), Fraction(2, 3)), 4)
        assert f.den == 6 and tuple(f.nums.tolist()) == (3, 4)
        assert f.weights == (Fraction(1, 2), Fraction(2, 3))
        g = ScaledFunction(0, (4, 0, 6), 8)
        assert tuple(g.nums.tolist()) == (2, 0, 3) and g.den == 4
        with pytest.raises(ValidationError):
            ScaledFunction(0, (1,), 0)
        with pytest.raises(TypeError):
            ScaledFunction(0, (Fraction(1, 2),))

    def test_interval_past_an_index_refused(self):
        with pytest.raises(ValidationError, match="index"):
            ScaledFunction.from_interval(1, 10**20, 10**20)

    def test_interval_past_the_span_cap_refused(self, monkeypatch):
        monkeypatch.setattr(sets_module, "MAX_POINTS", 4)
        assert tuple(ScaledFunction.from_interval(2, 5, 5).nums.tolist()) == (1, 1, 1, 1)
        with pytest.raises(ValidationError, match="too long to index"):
            ScaledFunction.from_interval(1, 5, 5)

    def test_float_offset_and_ambient_refused(self):
        # a float offset used to surface later as a raw slicing TypeError
        with pytest.raises(TypeError):
            ScaledFunction(0.5, (1, 1), 1, 4)
        with pytest.raises(TypeError):
            ScaledFunction(0, (1, 1), 1, 4.0)
        f = ScaledFunction(np.int64(-2), (1, 1), 1, np.int64(4))
        assert type(f.offset) is int and type(f.ambient_n) is int
        assert f == ScaledFunction(-2, (1, 1), 1, 4)


class TestCountSolutions:
    def test_progression_on_interval(self):
        eq = EquationCoeffs((1, 1, -2))
        assert count_solutions(eq, [interval(5)] * 3).value == 13

    def test_every_dilation_checked_before_the_first(self, monkeypatch):
        # with a cap of 1000 slots, [1, 600] fits dilated by 1 but not by -2
        # (1199 slots): the refusal comes before any dilation is made, in
        # whatever order the coefficients come
        monkeypatch.setattr(sets_module, "MAX_POINTS", 1000)
        f = interval(600)
        assert count_solutions(EquationCoeffs((1, -1)), [f, f]).value == 600
        monkeypatch.setattr(counting_module, "_dilate",
                            mock.Mock(side_effect=AssertionError))
        for coeffs in ((1, 1, -2), (-2, 1, 1), (2, 2, -4)):
            with pytest.raises(ValidationError, match="dilation by -2"):
                count_solutions(EquationCoeffs(coeffs), [f] * 3)

    def test_diagonal(self):
        eq = EquationCoeffs((1, -1))
        f = indicator([2, 5, 9, 11])
        assert count_solutions(eq, [f, f]).value == 4

    def test_four_term(self):
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        f = indicator([1, 2])
        assert count_solutions(eq, [f] * 5).value == 2

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            count_solutions(EquationCoeffs((1, -1)), [interval(3)])

    def test_empty_support(self):
        eq = EquationCoeffs((1, 1, -2))
        z = ScaledFunction.from_weights(0, (0, 0), 5)
        assert count_solutions(eq, [interval(5), z, interval(5)]).value == 0

    def test_rational_weights_exact(self):
        eq = EquationCoeffs((1, -1))
        f = ScaledFunction.from_weights(1, (Fraction(1, 3), Fraction(2, 7)), 2)
        assert count_solutions(eq, [f, f]).value == \
            Fraction(1, 9) + Fraction(4, 49)

    def test_scale_covariance(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        eq = EquationCoeffs((1, 2, -3))
        fns = [ScaledFunction.from_set(random_set(rng, 20)) for _ in range(3)]
        base = count_solutions(eq, fns).value
        q = Fraction(5, 7)
        scaled = count_solutions(eq, [fns[0].scaled_by(q), fns[1], fns[2]])
        assert scaled.value == q * base

    def test_reflection(self):
        rng = np.random.Generator(np.random.Philox(key=22))
        for _ in range(10):
            s = int(rng.integers(2, 5))
            eq = random_coeffs(rng, s)
            neg = EquationCoeffs(tuple(-a for a in eq.coeffs))
            fns = [ScaledFunction.from_set(random_set(rng, 20))
                   for _ in range(s)]
            assert count_solutions(eq, fns).value == \
                count_solutions(neg, fns).value

    def test_translation_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        eq = EquationCoeffs((1, 1, -2))
        for _ in range(10):
            fns = [ScaledFunction.from_set(random_set(rng, 20))
                   for _ in range(3)]
            t = int(rng.integers(-10, 11))
            shifted = [ScaledFunction.from_weights(f.offset + t, f.weights,
                                                   f.ambient_n)
                       for f in fns]
            assert count_solutions(eq, fns).value == \
                count_solutions(eq, shifted).value

    def test_energy_as_count(self):
        rng = np.random.Generator(np.random.Philox(key=24))
        eq = EquationCoeffs((1, -1, -1, 1))
        from sidonlab.sets import representation_profile
        for _ in range(10):
            s = random_set(rng, 30)
            f = ScaledFunction.from_set(s)
            assert count_solutions(eq, [f] * 4).value == \
                representation_profile(s).energy

    def test_sqrt_n_in_numerators(self):
        # sqrt(N) 1_S with N = 4 is the integer function 2 * 1_S
        f = ScaledFunction.from_set(IntegerSet((1, 2), 4)).scaled_by(2)
        c = count_solutions(EquationCoeffs((1, -1)), [f, f])
        assert c.value == 8  # 2 solutions, each weighted N = 4

    def test_gcd_divided_before_dilating(self, monkeypatch):
        # (6, 6, -12) counts as (1, 1, -2), on dilations six times shorter
        lengths = []
        inner = counting_module._product

        def spy(xa, xb, max_a, max_b):
            lengths.append((len(xa), len(xb)))
            return inner(xa, xb, max_a, max_b)

        monkeypatch.setattr(counting_module, "_product", spy)
        fns = [interval(9)] * 3
        reduced = count_solutions(EquationCoeffs((1, 1, -2)), fns).value
        reduced_lengths = list(lengths)
        lengths.clear()
        assert count_solutions(EquationCoeffs((6, 6, -12)), fns).value == reduced
        assert lengths == reduced_lengths

    def test_coefficients_past_int64_share_a_gcd(self):
        big = 10**22
        eq = EquationCoeffs((big, -big))
        assert count_solutions(eq, [interval(5)] * 2).value == 5

    def test_dilation_past_an_index_refused(self):
        big = 10**22
        with pytest.raises(ValidationError, match="index"):
            count_solutions(EquationCoeffs((big, 1 - big)), [interval(5)] * 2)

    def test_meet_in_middle_same_answer(self):
        # the split count equals the zero coefficient of the full product
        eq = EquationCoeffs((1, 1, -2))
        fns = [interval(40)] * 3
        full = convolve_many([[1] * 40, [1] * 40, [1] + [0, 1] * 39])
        assert count_solutions(eq, fns).value == full[-(1 + 1 - 2 * 40)] == 800

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_meet_in_middle_fuzz(self, s):
        # odd and even s split unevenly and evenly; signed rational weights
        # and wide integer weights reach both convolution routes
        rng = np.random.Generator(np.random.Philox(key=25 + s))
        for _ in range(12):
            eq = random_coeffs(rng, s)
            fns = []
            for _ in range(s):
                base = ScaledFunction.from_set(random_set(rng, 25))
                kind = int(rng.integers(0, 3))
                if kind == 1:
                    base = ScaledFunction.from_weights(base.offset, tuple(
                        Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                        * w for w in base.weights), base.ambient_n)
                elif kind == 2:
                    base = base.scaled_by(Fraction(2**70 + 1, 3))
                fns.append(base)
            assert count_solutions(eq, fns).value == \
                brute_force_count(eq, fns).value


@st.composite
def grouped_instances(draw):
    """An equation with one, two or three distinct coefficients, scaled by a
    common factor up to 3 (gcd > 1), over one to three functions with
    signed rational weights, not all zero, at offsets in [-6, 6], so that
    one function object and distinct ones share a coefficient."""
    groups = draw(st.integers(1, 3))
    pool = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=groups,
                         max_size=groups, unique=True))
    s = draw(st.integers(max(2, groups), 5))
    scale = draw(st.integers(1, 3))
    coeffs = draw(st.permutations(
        pool + [draw(st.sampled_from(pool)) for _ in range(s - groups)]))
    weights = st.lists(small_fractions, min_size=1, max_size=5).filter(any)
    fns = [function(draw(st.integers(-6, 6)), draw(weights))
           for _ in range(draw(st.integers(1, 3)))]
    picks = [draw(st.sampled_from(fns)) for _ in range(s)]
    return EquationCoeffs(tuple(scale * a for a in coeffs)), picks


class TestCoefficientGroups:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(grouped_instances())
    def test_against_brute_force(self, instance):
        eq, fns = instance
        assert count_solutions(eq, fns) == brute_force_count(eq, fns)

    def test_repeated_function_is_squared_undilated(self, monkeypatch):
        # (1,1,1,1,-4) on [f] * 5: f^4 = (f f)(f f) is two squares, and the
        # count is the dot of f^4 at -4t against f at -t; nothing is dilated
        convolutions = self.spy(monkeypatch, counting_module, "_product")
        monkeypatch.setattr(counting_module, "_dilate",
                            mock.Mock(side_effect=AssertionError))
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        fns = [ScaledFunction.from_set(perturb_almost_sidon(erdos_turan(11), 2, 3))] * 5
        assert count_solutions(eq, fns) == brute_force_count(eq, fns)
        assert [a is b for a, b, _, _ in convolutions] == [True, True]

    def test_past_int64_takes_the_balanced_split(self, monkeypatch):
        # ten weights up to 2^16: f^4 has the coefficient bound 19 * 10^2 *
        # 2^64, past INT64_SAFE, so the count dilates and folds in two
        # halves, whose bounds stay below it; no product reaches Kronecker
        rng = np.random.Generator(np.random.Philox(key=41))
        nums = [int(x) for x in rng.integers(-2**16, 2**16, size=10, endpoint=True)]
        nums[0] = 2**16
        f = ScaledFunction(-3, tuple(nums))
        assert counting_module._group_bound([[counting_module._as_fold(f), 4]]) \
            >= counting_module.INT64_SAFE
        dilations = self.spy(monkeypatch, counting_module, "_dilate")
        kronecker = self.spy(monkeypatch, engine, "_kronecker")
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        assert count_solutions(eq, [f] * 5) == brute_force_count(eq, [f] * 5)
        assert len(dilations) == 5 and kronecker == []

    @pytest.mark.parametrize("top, kinds", [(2**21, "OO"), (2**21 - 1, "ii")])
    def test_dot_at_the_int64_bound(self, top, kinds, monkeypatch):
        # (1, 1, -1) on single weights 2^20, 2^21 and top at 0: the group
        # product carries its bound 2^41 as its top, so the dot's bound is
        # 2^62 = INT64_SAFE at top = 2^21, summed over Python ints, and one
        # step below it is summed in int64
        seen = []
        real = np.dot

        def dot(x, y):
            seen.append(x.dtype.kind + y.dtype.kind)
            return real(x, y)

        monkeypatch.setattr(np, "dot", dot)
        fns = [ScaledFunction(0, (2**20,)), ScaledFunction(0, (2**21,)),
               ScaledFunction(0, (top,))]
        value = count_solutions(EquationCoeffs((1, 1, -1)), fns).value
        assert value == 2**41 * top and seen == [kinds]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grouped_instances())
    def test_exact_across_int64(self, instance):
        # the instance with its numerators times 2^e + 1 for e = 0, 4, ...,
        # 68: as e grows, the dot's bound and then every group bound of two
        # or more factors pass INT64_SAFE, and by e = 60 the numerators
        # leave int64 (object folds, and Kronecker on the dilated halves)
        eq, fns = instance
        kinds, dilated = set(), set()
        real = np.dot

        def dot(x, y):
            kinds.add(x.dtype.kind + y.dtype.kind)
            return real(x, y)

        with mock.patch.object(np, "dot", dot), \
                mock.patch.object(counting_module, "_dilate",
                                  wraps=counting_module._dilate) as dilate:
            for e in range(0, 69, 4):
                scaled = {id(f): f.scaled_by(2**e + 1) for f in fns}
                picks = [scaled[id(f)] for f in fns]
                dilate.reset_mock()
                assert count_solutions(eq, picks) == brute_force_count(eq, picks)
                dilated.add(dilate.called)
        # the same dot runs at every e, in int64 only while its bound allows
        assert kinds in (set(), {"ii", "OO"})
        g = gcd(*eq.coeffs)
        if eq.s > 2 and len({a // g for a in eq.coeffs}) <= 2 and kinds:
            assert dilated == {False, True}  # a group of two factors flips

    @staticmethod
    def spy(monkeypatch, module, name):
        """Record the calls to `module.name`."""
        calls = []
        inner = getattr(module, name)

        def spy(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(module, name, spy)
        return calls


class TestArrayFolds:
    """Counting multiplies arrays below the public `convolve`."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.lists(st.integers(-2**40, 2**40), min_size=1,
                                       max_size=10),
                              st.integers(-3, 3)),
                    min_size=2, max_size=5))
    def test_carried_bounds_hold(self, steps):
        # dilations folded one by one, as the memo folds them: each product
        # is exact, carries top = the least of min(len) top top, top_a mass_b
        # and top_b mass_a and mass = mass_a mass_b, and both bound what it
        # holds; a product whose top is below INT64_SAFE is int64
        acc = exact = None
        for nums, a in steps:
            f = ScaledFunction(0, tuple(nums))
            if not len(f.nums):
                continue
            step = counting_module._dilate(counting_module._as_fold(f), a)
            dense = [int(v) for v in step[0]]
            if acc is None:
                acc, exact = step, dense
                continue
            (xa, _, top_a, mass_a), (xb, _, top_b, mass_b) = acc, step
            acc = counting_module._fold_step(acc, step)
            exact = [sum(exact[i] * dense[k - i] for i in range(len(exact))
                         if 0 <= k - i < len(dense))
                     for k in range(len(exact) + len(dense) - 1)]
            values, _, top, mass = acc
            assert [int(v) for v in values] == exact
            assert top == min(min(len(xa), len(xb)) * top_a * top_b,
                              top_a * mass_b, top_b * mass_a)
            assert mass == mass_a * mass_b
            assert max(map(abs, exact)) <= top and sum(map(abs, exact)) <= mass
            assert top >= counting_module.INT64_SAFE or values.dtype == np.int64

    def test_kronecker_product_below_the_bound_is_int64(self):
        # eight weights 2^30 times two 2^30 seven apart: the coefficient
        # bound 8 * 2^60 = 2^63 sends the product to Kronecker, whose object
        # entries are at most 2^30 * 2^31 = 2^61 by the mass, so int64
        a = counting_module._as_fold(ScaledFunction(0, (2**30,) * 8))
        b = counting_module._as_fold(ScaledFunction(0, (2**30,) + (0,) * 6 + (2**30,)))
        values, offset, top, mass = counting_module._fold_step(a, b)
        assert (top, mass) == (2**61, 2**64) and values.dtype == np.int64
        assert values.tolist() == engine.convolve([2**30] * 8, [2**30] + [0] * 6 + [2**30])

    def test_no_counting_path_calls_the_public_convolve(self, monkeypatch):
        for name, module in list(sys.modules.items()):
            if name == "sidonlab" or name.startswith("sidonlab."):
                for attr, value in list(vars(module).items()):
                    if value is engine.convolve:
                        monkeypatch.setattr(module, attr,
                                            mock.Mock(side_effect=AssertionError))
        s_set = perturb_almost_sidon(erdos_turan(11), 2, 3)
        f = ScaledFunction.from_set(s_set)
        wide = f.scaled_by(2**40 + 1)
        # squares in the group plan, three groups dilated, and weights whose
        # products pass int64 (Kronecker on the dilated halves)
        for coeffs, fns in (((1, 1, 1, 1, -4), [f] * 5), ((1, 2, -3), [f] * 3),
                            ((1, 1, 1, -3), [wide] * 4)):
            eq = EquationCoeffs(coeffs)
            assert count_solutions(eq, fns) == brute_force_count(eq, fns)
        eq = EquationCoeffs((1, 1, -1, -1, 1, -1))
        assert count_distinct_solutions(eq, s_set) == brute_force_count(
            eq, [f] * 6, distinct_only=True)
        assert degenerate_bound_check(EquationCoeffs((1, 1, 1, 1, -4)), s_set).total \
            == brute_force_count(EquationCoeffs((1, 1, 1, 1, -4)), [f] * 5).value

    def test_counts_are_python_ints(self, monkeypatch):
        # an np.int64 in a Fraction would wrap in later arithmetic
        s_set = perturb_almost_sidon(erdos_turan(11), 2, 3)
        f = ScaledFunction.from_set(s_set)
        values = [count_solutions(EquationCoeffs(coeffs), [g] * len(coeffs)).value
                  for coeffs in ((1, -1), (1, 1, 1, 1, -4), (1, 2, -3))
                  for g in (f, f.scaled_by(Fraction(2**70 + 1, 3)))]
        values.append(count_distinct_solutions(EquationCoeffs((1, 1, -1, -1)),
                                               s_set).value)
        assert all(type(v.numerator) is int and type(v.denominator) is int
                   for v in values)
        rep = degenerate_bound_check(EquationCoeffs((1, 2, -1, 3, -5)), s_set)
        assert type(rep.bound_holds) is bool
        assert all(type(getattr(rep, name)) is int for name in (
            "max_shift_count", "energy", "shifts_checked", "merged_pair_total",
            "total", "distinct", "degenerate_total"))
        # the count command's document, before it is serialised
        docs = []
        real = cli_module._emit_json
        monkeypatch.setattr(cli_module, "_emit_json",
                            lambda doc, file=None: docs.append(doc) or real(doc, file))
        et11 = str(Path(__file__).resolve().parent / "golden" / "et11.txt")
        for extra in ([], ["--distinct"]):
            assert cli_module.main(["count", "--coeffs", "1,1,1,-1,-1,-1",
                                    "--sets", et11, *extra]) == 0
        assert len(docs) == 2 and all(
            type(doc[key]) is int for doc in docs
            for key in ("value_numerator", "value_denominator"))


class TestDistinct:
    def test_worked_witness(self):
        eq = EquationCoeffs((1, 1, -2))
        s = IntegerSet((1, 2, 3), 3)
        assert count_distinct_solutions(eq, s).value == 2

    def test_diagonal_impossible(self):
        eq = EquationCoeffs((1, -1))
        assert count_distinct_solutions(eq, IntegerSet((1, 5, 9), 9)).value == 0

    def test_sidon_has_no_progression(self):
        eq = EquationCoeffs((1, 1, -2))
        assert count_distinct_solutions(eq, IntegerSet((1, 2, 4), 4)).value == 0

    def test_too_many_variables(self):
        eq = EquationCoeffs((1,) * 12 + (-12,))
        with pytest.raises(ValidationError, match="brute_force"):
            count_distinct_solutions(eq, IntegerSet((1, 2), 4))

    def test_degenerate_merge_blocks(self):
        # all-variable merge has zero coefficient for invariant equations,
        # exercising the free-factor path
        eq = EquationCoeffs((2, -1, -1))
        s = IntegerSet((1, 2, 3, 5), 5)
        brute = brute_force_count(eq, [ScaledFunction.from_set(s)] * 3,
                                  distinct_only=True)
        assert count_distinct_solutions(eq, s).value == brute.value


@st.composite
def distinct_instances(draw):
    """s = 2..6 coefficients in [-3, 3] minus 0, some with forced repeats
    or a zero sum, and a set in [1, 30] of at most eight points (six at
    s = 6, to keep the oracle's |S|^(s-1) tuples small)."""
    s = draw(st.integers(2, 6))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=s,
                           max_size=s))
    shape = draw(st.sampled_from(["free", "repeat", "invariant"]))
    if shape == "repeat":
        coeffs[-1] = coeffs[0]
    elif shape == "invariant" and 0 < abs(sum(coeffs[:-1])) <= 3:
        coeffs[-1] = -sum(coeffs[:-1])
    elems = draw(st.lists(st.integers(1, 30), max_size=8 if s < 6 else 6,
                          unique=True))
    return EquationCoeffs(tuple(coeffs)), IntegerSet(tuple(sorted(elems)), 30)


class TestDistinctProperties:
    @settings(max_examples=150, deadline=None)
    @given(distinct_instances())
    def test_against_brute_force(self, instance):
        eq, s_set = instance
        brute = brute_force_count(eq, [ScaledFunction.from_set(s_set)] * eq.s,
                                  distinct_only=True)
        assert count_distinct_solutions(eq, s_set).value == brute.value


# --- the set-partition lattice: an independent route to distinct counts ---


def set_partitions(items):
    """Every set partition of `items`, Bell(len(items)) of them."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def normalised_key(nonzero):
    """A merged equation up to scale, sign and order."""
    g = 0
    for c in nonzero:
        g = gcd(g, c)
    up = sorted(c // g for c in nonzero)
    return min(tuple(up), tuple(sorted(-c for c in up)))


@functools.cache
def lattice_terms(coeffs):
    """Rota's inclusion-exclusion over the set partitions P of the
    variables: {(merged nonzero coefficients, zero blocks): sum of
    mu(P) = prod (-1)^(|b|-1) (|b|-1)!} with each block of P merged."""
    terms = collections.Counter()
    for part in set_partitions(list(range(len(coeffs)))):
        merged = [sum(coeffs[i] for i in block) for block in part]
        nonzero = tuple(sorted(c for c in merged if c))
        mobius = prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in part)
        terms[nonzero, len(merged) - len(nonzero)] += mobius
    return terms


def lattice_walk(coeffs, s_set):
    """The distinct count from the lattice terms and plain counts."""
    ind = ScaledFunction.from_set(s_set)
    total = 0
    for (nonzero, zeros), mobius in lattice_terms(coeffs).items():
        if len(nonzero) >= 2:
            count = count_solutions(EquationCoeffs(nonzero), [ind] * len(nonzero)).value
        else:  # a x = 0 needs x = 0; no x at all leaves one empty tuple
            count = int(0 in s_set.elements) if nonzero else 1
        total += mobius * s_set.size**zeros * count
    return total


class TestDistinctLattice:
    @pytest.mark.parametrize("coeffs", [
        (1, 1, 2, -1, -1, -2, 3, -3),     # six values, two of them repeated
        (1, 2, 3, 4, -5, -6, 7),          # all values distinct
        (1, 1, 1, 1, -1, -1, -1, -1),     # one value repeated four times
        (1, 1, 1, 1, 1, 1, -3, -3),       # repeats, zero-sum blocks of 4
        (2, -2, 1, -1, 3, -3, 1, -1, 2),  # many zero-sum pairs, s = 9
        (1, 1, 1, 1, 1, 1, 1, 1, -8),     # (1^8, -8), s = 9
    ])
    @pytest.mark.parametrize("s_set", [
        erdos_turan(11), erdos_turan(13), perturb_almost_sidon(erdos_turan(13), 2, 5),
    ], ids=["ET11", "ET13", "ET13+2"])
    def test_against_lattice_walk(self, coeffs, s_set):
        # s = 7..9: past what brute_force_count enumerates in a test
        assert count_distinct_solutions(EquationCoeffs(coeffs), s_set).value == \
            lattice_walk(coeffs, s_set)

    def test_lattice_walk_against_brute_force(self):
        s_set = IntegerSet((1, 2, 3, 5, 8, 9), 9)
        for coeffs in [(1, 1, -2), (2, -1, -1, 3), (1, 1, 1, -1, -1, -1)]:
            brute = brute_force_count(
                EquationCoeffs(coeffs), [ScaledFunction.from_set(s_set)] * len(coeffs),
                distinct_only=True).value
            assert lattice_walk(coeffs, s_set) == brute


class TestDistinctMemo:
    @staticmethod
    def merged_keys(coeffs):
        """Distinct merged equations up to scale, sign and order."""
        keys = set()
        for part in set_partitions(list(range(len(coeffs)))):
            merged = [sum(coeffs[i] for i in block) for block in part]
            nonzero = [c for c in merged if c]
            if nonzero:
                keys.add(normalised_key(nonzero))
        return keys

    @staticmethod
    def balanced_keys(ones, minus_ones):
        """merged_keys of (1^ones, -1^minus_ones) without the Bell walk: a
        block is fixed by its counts (j, l) of +1s and -1s, so walk the
        multisets of blocks in non-increasing order."""
        blocks = [(j, l) for j in range(ones + 1) for l in range(minus_ones + 1)
                  if j or l]
        keys = set()

        def walk(j_left, l_left, start, merged):
            if j_left == l_left == 0:
                nonzero = [c for c in merged if c]
                if nonzero:
                    keys.add(normalised_key(nonzero))
                return
            for b in range(start, len(blocks)):
                j, l = blocks[b]
                if j <= j_left and l <= l_left:
                    walk(j_left - j, l_left - l, b, merged + [j - l])

        walk(ones, minus_ones, 0, [])
        return keys

    @staticmethod
    def fold_keys(split_keys, whole_keys=()):
        """Canonical fold keys that need a convolution: every prefix of two
        or more coefficients of the halves of each split key and of each
        whole key, each taken as the lesser of itself and its mirror."""
        out = set()

        def add(key):
            key = min(key, tuple(-c for c in reversed(key)))
            if len(key) >= 2 and key not in out:
                out.add(key)
                add(key[:-1])

        for key in split_keys:
            half = (len(key) + 1) // 2
            add(key[:half])
            add(key[half:])
        for key in whole_keys:
            add(key)
        return out

    @staticmethod
    def spy(monkeypatch, name):
        """Record the calls to the counting module's `name`."""
        calls = []
        inner = getattr(counting_module, name)

        def spy(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(counting_module, name, spy)
        return calls

    @pytest.mark.parametrize("coeffs", [(1, 1, 1, -1, -1, -1),
                                        (1, 1, 1, 1, -4), (2, -2, 1, -1)])
    def test_memoised_matches_brute_force(self, coeffs, monkeypatch):
        # (2, -2, 1, -1) has merged blocks (2, -2) and (1, -1), equal up to
        # sign and scale; each normalised equation is counted once, and
        # each canonical fold of 1_S dilations is convolved once
        dots = self.spy(monkeypatch, "_dot_at_zero")
        convolutions = self.spy(monkeypatch, "_product")
        eq = EquationCoeffs(coeffs)
        keys = self.merged_keys(coeffs)
        for s_set in (erdos_turan(5), IntegerSet((1, 2, 3, 5, 8, 9), 9)):
            dots.clear()
            convolutions.clear()
            fast = count_distinct_solutions(eq, s_set).value
            brute = brute_force_count(eq, [ScaledFunction.from_set(s_set)] * eq.s,
                                      distinct_only=True).value
            assert fast == brute
            assert len(dots) == len(keys)
            assert len(convolutions) == len(self.fold_keys(keys))

    @pytest.mark.parametrize("ones,minus_ones", [(3, 3), (4, 3), (2, 5)])
    def test_balanced_keys_match_the_walk(self, ones, minus_ones):
        coeffs = (1,) * ones + (-1,) * minus_ones
        assert self.balanced_keys(ones, minus_ones) == self.merged_keys(coeffs)

    def test_frontier_s12(self, monkeypatch):
        # (1^6, -1^6) on ET(17): s = 12, the cap, where the lattice has
        # Bell(12) = 4,213,597 set partitions; the count must not walk them.
        # CPU time of this process, so a busy host does not fail the bound.
        dots = self.spy(monkeypatch, "_dot_at_zero")
        convolutions = self.spy(monkeypatch, "_product")
        eq = EquationCoeffs((1,) * 6 + (-1,) * 6)
        start = time.process_time()
        assert count_distinct_solutions(eq, erdos_turan(17)).value == 1_989_619_200
        assert time.process_time() - start < 1.0
        keys = self.balanced_keys(6, 6)
        assert len(dots) == len(keys)
        # 105 normalised keys share 61 canonical folds (431 convolutions
        # when each key folded its own halves)
        assert len(convolutions) == len(self.fold_keys(keys)) == 61

    @pytest.mark.parametrize("coeffs", [(1, 1, 1, 1, -4), (1, 2, -1, 3, -3),
                                        (1, -1, 1, -1, 1, -1)])
    def test_degenerate_check_shares_the_memo(self, coeffs, monkeypatch):
        # the head, merged tail and rest folds join the distinct count's
        # folds in one memo; nothing is counted a second time
        convolutions = self.spy(monkeypatch, "_product")
        plain_recounts = self.spy(monkeypatch, "count_solutions")
        distinct_recounts = self.spy(monkeypatch, "count_distinct_solutions")
        s_set = perturb_almost_sidon(erdos_turan(11), 2, 3)
        rep = degenerate_bound_check(EquationCoeffs(coeffs), s_set)
        fns = [ScaledFunction.from_set(s_set)] * len(coeffs)
        assert rep.distinct == brute_force_count(EquationCoeffs(coeffs), fns,
                                                 distinct_only=True).value
        assert plain_recounts == distinct_recounts == []
        whole = (tuple(sorted(coeffs[:3])),
                 tuple(sorted(coeffs[3:-2] + (coeffs[-2] + coeffs[-1],))),
                 tuple(sorted(coeffs[3:])))
        assert len(convolutions) == len(self.fold_keys(self.merged_keys(coeffs),
                                                       whole))


@st.composite
def degenerate_instances(draw):
    """s = 2..7 coefficients in [-3, 3] minus 0, drawn free, as +-pairs
    (a tuple equal to its own mirror when s is even) or with the last two
    summing to zero (a merge that zeroes a coefficient), and a set in
    [1, 20] of one to six points."""
    s = draw(st.integers(2, 7))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=s,
                           max_size=s))
    shape = draw(st.sampled_from(["free", "mirror", "zero_merge"]))
    if shape == "mirror":
        half = coeffs[:s // 2]
        coeffs[:2 * len(half)] = half + [-c for c in half]
    elif shape == "zero_merge":
        coeffs[-1] = -coeffs[-2]
    elems = draw(st.lists(st.integers(1, 20), min_size=1, max_size=6,
                          unique=True))
    return EquationCoeffs(tuple(coeffs)), IntegerSet(tuple(sorted(elems)), 20)


def brute_on_set(coeffs, s_set, distinct_only=False):
    """brute_force_count of `coeffs` on S^s; a zero coefficient, allowed in
    plain counts only, is a free factor |S|."""
    nonzero = tuple(c for c in coeffs if c)
    fns = [ScaledFunction.from_set(s_set)] * len(nonzero)
    value = brute_force_count(EquationCoeffs(nonzero), fns, distinct_only).value
    return s_set.size ** (len(coeffs) - len(nonzero)) * value


def check_memo_counts(eq, s_set):
    """count_distinct_solutions and degenerate_bound_check against brute
    force and dictionaries of sums over explicit tuples."""
    a = eq.coeffs
    distinct = brute_on_set(a, s_set, distinct_only=True)
    assert count_distinct_solutions(eq, s_set).value == distinct
    if eq.s < 5:
        return
    # the shifts by a dictionary of sums over explicit tuples
    tail_coeffs = a[3:-2] + (a[-2] + a[-1],)
    head = collections.Counter(
        sum(map(operator.mul, a[:3], xs))
        for xs in itertools.product(s_set.elements, repeat=3))
    tail = collections.Counter(
        sum(map(operator.mul, tail_coeffs, xs))
        for xs in itertools.product(s_set.elements, repeat=len(tail_coeffs)))
    max_count = max(head[-n] for n in tail)
    energy = brute_on_set((1, 1, -1, -1), s_set)
    total = brute_on_set(a, s_set)
    rep = degenerate_bound_check(eq, s_set)
    assert rep == counting_module.DegenerateBoundReport(
        max_shift_count=max_count,
        bound_holds=max_count**4 <= energy**3,
        energy=energy,
        shifts_checked=len(tail),
        merged_pair_total=brute_on_set(a[:-2] + (a[-2] + a[-1],), s_set),
        total=total,
        distinct=distinct,
        degenerate_total=total - distinct,
    )
    assert rep.merged_pair_total == sum(m * head[-n] for n, m in tail.items())


class TestMemoProperties:
    @settings(max_examples=100, deadline=None)
    @given(degenerate_instances())
    def test_distinct_and_degenerate_against_brute_force(self, instance):
        check_memo_counts(*instance)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(degenerate_instances())
    def test_exact_across_a_lowered_int64_bound(self, instance):
        # INT64_SAFE lowered to 1 and 2^6 as well as the real 2^62, so that
        # on these small sets every nonzero bound, of the folds and of the
        # dots, reaches it at the lowest: folds come from Kronecker as
        # object arrays, their mirrors are reversed object views, a merge to
        # 0 is the dilation by 0, and the dots sum Python ints
        kinds = set()
        real_dot = np.dot

        def dot(x, y):
            kinds.add((x.dtype.kind, y.dtype.kind))
            return real_dot(x, y)

        with mock.patch.object(np, "dot", dot):
            for safe in (1, 2**6, counting_module.INT64_SAFE):
                with mock.patch.object(counting_module, "INT64_SAFE", safe), \
                        mock.patch.object(engine, "_INT64_SAFE", safe):
                    check_memo_counts(*instance)
        # the same dots run at every bound: in int64 only below it
        assert kinds in (set(), {("i", "i"), ("O", "O")})


class TestBruteForce:
    def test_mirrors_fast_path(self):
        eq = EquationCoeffs((1, 1, -2))
        assert brute_force_count(eq, [interval(5)] * 3).value == 13

    def test_empty_support(self):
        eq = EquationCoeffs((1, -1))
        z = ScaledFunction.from_weights(0, (0,), 3)
        assert brute_force_count(eq, [interval(3), z]).value == 0

    def test_budget_exceeded(self):
        eq = EquationCoeffs((1, 1, -2))
        with pytest.raises(BudgetExceededError):
            brute_force_count(eq, [interval(10)] * 3, budget=50)

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("SIDONLAB_BUDGET", "50")
        eq = EquationCoeffs((1, 1, -2))
        with pytest.raises(BudgetExceededError):
            brute_force_count(eq, [interval(10)] * 3)

    def test_exact_path_matches_vectorized(self):
        # huge weights force the big-integer recursion; same answers
        eq = EquationCoeffs((1, 2, -3))
        small = [ScaledFunction.from_set(IntegerSet((1, 2, 5), 6))] * 3
        big = [f.scaled_by(2**70) for f in small]
        a = brute_force_count(eq, small).value
        b = brute_force_count(eq, big).value
        assert b == a * 2**210
        ad = brute_force_count(eq, small, distinct_only=True).value
        bd = brute_force_count(eq, big, distinct_only=True).value
        assert bd == ad * 2**210

    def test_signed_weights(self):
        eq = EquationCoeffs((1, -1))
        f = ScaledFunction.from_weights(1, (Fraction(1), Fraction(-2)), 2)
        assert brute_force_count(eq, [f, f]).value == 1 + 4
        assert count_solutions(eq, [f, f]).value == 5


class TestBruteForcePastInt64:
    @pytest.mark.parametrize("base", [2**62, 2**63, 2**70])
    def test_three_term_progression(self, base):
        # x1 + x2 = 2 x3 on a 3-term progression: 3 diagonal solutions and
        # the 2 orderings of the outer pair; the partial sums reach
        # 4 * base, past int64, so positions are Python ints
        s = IntegerSet((base, base + 1, base + 2), base + 2)
        eq = EquationCoeffs((1, 1, -2))
        fns = [ScaledFunction.from_set(s)] * 3
        assert brute_force_count(eq, fns).value == 5
        assert brute_force_count(eq, fns, distinct_only=True).value == 2
        assert count_solutions(eq, fns).value == 5

    def test_negative_positions(self):
        base = -(2**63)
        f = ScaledFunction(base, (1, 1, 1), 1, 4)
        eq = EquationCoeffs((1, 1, -2))
        assert brute_force_count(eq, [f] * 3).value == 5

    def test_int64_route_kept_below_the_bound(self, monkeypatch):
        seen = []
        inner = counting_module._enumerate

        def spy(*args):
            seen.append(args[-2])
            return inner(*args)

        monkeypatch.setattr(counting_module, "_enumerate", spy)
        eq = EquationCoeffs((1, 1, -2))
        brute_force_count(eq, [interval(30)] * 3)
        big = ScaledFunction(2**61, (1, 1), 1, 2**62)
        brute_force_count(eq, [big] * 3)
        assert seen == [np.int64, object]


@pytest.fixture
def solved_blocks(monkeypatch):
    """The number of tuples in each block the oracle solves."""
    sizes = []
    inner = counting_module._solve

    def spy(u, c, nums):
        sizes.append(u.size)
        return inner(u, c, nums)

    monkeypatch.setattr(counting_module, "_solve", spy)
    return sizes


class TestOracleBlocks:
    """brute_force_count's blocks: ranges of rows over the leading axes times
    every later axis, at most _CHUNK tuples, whose last variable is read by
    index."""

    def test_axis_longer_than_the_chunk(self, monkeypatch, solved_blocks):
        monkeypatch.setattr(counting_module, "_CHUNK", 8)
        f = interval(100)
        assert brute_force_count(EquationCoeffs((1, -1)), [f, f]).value == 100
        assert solved_blocks == [8] * 12 + [4]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 12, 1 << 16])
    def test_slices_tile_every_axis(self, monkeypatch, solved_blocks, chunk):
        monkeypatch.setattr(counting_module, "_CHUNK", chunk)
        fns = [ScaledFunction.from_weights(0, (1, 2, 0, 3, 1)),
               ScaledFunction.from_weights(1, (2, 1, 1)),
               ScaledFunction.from_weights(-2, (1, 0, 0, 1, -1, 2, 1)),
               ScaledFunction.from_weights(0, (3, 1, 0, 2))]
        eq = EquationCoeffs((2, 1, -1, -3))
        assert brute_force_count(eq, fns).value == count_solutions(eq, fns).value
        assert max(solved_blocks) <= chunk
        s_set = IntegerSet((1, 2, 4, 8, 9, 13), 13)
        eq = EquationCoeffs((1, 1, -1, -1))
        assert brute_force_count(eq, [ScaledFunction.from_set(s_set)] * 4,
                                 distinct_only=True).value == \
            count_distinct_solutions(eq, s_set).value

    def test_last_variable_at_both_ends_of_its_span(self):
        # the last function spans [1, 3] with an interior zero at 2; x1 = 0
        # and x1 = 4 solve x1 = x2 one slot outside it
        last = ScaledFunction.from_weights(1, (1, 0, 2))
        assert brute_force_count(EquationCoeffs((1, -1)),
                                 [interval(5), last]).value == 1 + 2
        # x1 = 2 x2 on [0, 8]: the odd x1 are in range but not divisible,
        # and x1 = 8 solves it one slot past the end
        wide = ScaledFunction.from_weights(0, (1,) * 9)
        assert brute_force_count(EquationCoeffs((1, -2)), [wide, last]).value == 1 + 2
        assert brute_force_count(EquationCoeffs((-1, 2)), [wide, last]).value == 1 + 2

    def test_block_sums_on_both_sides_of_the_int64_cut(self):
        # h solutions of weight w each: in int64 while h w < 2^62, over
        # Python ints past it, where an int64 sum of 5 (2^61 - 1) would wrap.
        # At h w = 2^62 exactly an int64 sum still fits, so the cut's `<`
        # is not pinned by a value
        eq = EquationCoeffs((1, -1))
        for w, h in ((2**60 - 1, 4), (2**61 - 1, 5), (2**62 - 1, 3)):
            heavy = ScaledFunction.from_weights(1, (w,) * h)
            assert brute_force_count(eq, [heavy, interval(h)]).value == h * w
            assert brute_force_count(eq, [interval(h), heavy]).value == h * w

    def test_peak_memory_is_set_by_the_chunk(self, solved_blocks):
        # 28^4 = 614,656 tuples of (1,1,1,1,-4), about 1 MB traced in
        # blocks of 2^16 tuples; one block of them all takes about 30 MB
        s_set = perturb_almost_sidon(erdos_turan(23), 5, 1)
        fns = [ScaledFunction.from_set(s_set)] * 5
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        tracemalloc.start()
        try:
            value = brute_force_count(eq, fns).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == count_solutions(eq, fns).value
        assert peak < 4 * 2**20
        assert sum(solved_blocks) == 28**4
        assert max(solved_blocks) <= counting_module._CHUNK

    def test_every_block_but_the_last_is_full(self, solved_blocks):
        # 53^4 tuples: blocks of _CHUNK // 53^2 rows over the first two
        # axes times the 53^2 pairs of the last two
        s_set = perturb_almost_sidon(erdos_turan(43), 10, 1)
        fns = [ScaledFunction.from_set(s_set)] * 5
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        assert brute_force_count(eq, fns).value == count_solutions(eq, fns).value
        n = s_set.size
        width = next(n**m for m in (3, 2, 1, 0) if n**m <= counting_module._CHUNK)
        full = counting_module._CHUNK // width * width
        assert solved_blocks[:-1] == [full] * (len(solved_blocks) - 1)
        assert 0 < solved_blocks[-1] <= full
        assert sum(solved_blocks) == n**4

    def test_distinct_peak_memory(self):
        # every coordinate of a solution is read off its index, so the
        # distinct count keeps no coordinate table of the trailing axes
        s_set = perturb_almost_sidon(erdos_turan(11), 2, 1)
        eq = EquationCoeffs((1, 1, 1, -1, -1, -1))
        fns = [ScaledFunction.from_set(s_set)] * 6
        tracemalloc.start()
        try:
            value = brute_force_count(eq, fns, distinct_only=True).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == count_distinct_solutions(eq, s_set).value
        assert peak < 2.5 * 2**20

    def test_refused_at_the_index_limit(self, solved_blocks):
        # 2^64 tuples are past the one flat index that numbers them: refused
        # before any block, whatever the budget
        f = ScaledFunction.from_interval(1, 2**16, 2**16)
        with pytest.raises(BudgetExceededError, match="index limit"):
            brute_force_count(EquationCoeffs((1, 1, 1, 1, -4)), [f] * 5,
                              budget=2**70)
        assert solved_blocks == []


class TestOracleIndependence:
    def test_never_touches_the_engine_or_the_memo(self):
        # the oracle convolves nothing and reads no fold memo, so it agrees
        # with the fast counts with their every product forbidden
        s_set = perturb_almost_sidon(erdos_turan(11), 2, 1)
        one = ScaledFunction.from_set(s_set)
        big = one.scaled_by(2**70)
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        cases = [([one] * 5, False, count_solutions(eq, [one] * 5).value),
                 ([one] * 5, True, count_distinct_solutions(eq, s_set).value),
                 ([big] * 5, False, count_solutions(eq, [big] * 5).value)]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the fast route")

        with mock.patch.multiple(counting_module, _product=forbidden,
                                 _fold_step=forbidden, _dilate=forbidden,
                                 _set_counts=forbidden):
            for fns, distinct, fast in cases:
                assert brute_force_count(eq, fns, distinct_only=distinct).value == fast
        assert cases[2][2] == cases[0][2] * 2**350


class TestOracleEquivalence:
    def test_seeded_instances(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        for _ in range(60):
            s = int(rng.integers(2, 6))
            eq = random_coeffs(rng, s)
            fns = [ScaledFunction.from_set(random_set(rng, 40))
                   for _ in range(s)]
            assert count_solutions(eq, fns).value == \
                brute_force_count(eq, fns).value

    def test_seeded_distinct_instances(self):
        rng = np.random.Generator(np.random.Philox(key=32))
        for _ in range(40):
            s = int(rng.integers(2, 6))
            eq = random_coeffs(rng, s)
            s_set = random_set(rng, 25)
            assert count_distinct_solutions(eq, s_set).value == \
                brute_force_count(eq, [ScaledFunction.from_set(s_set)] * s,
                                  distinct_only=True).value

    def test_negative_offset_instances(self):
        # supports straddling zero, engine against the oracle
        rng = np.random.Generator(np.random.Philox(key=34))
        for _ in range(20):
            s = int(rng.integers(2, 6))
            eq = random_coeffs(rng, s)
            fns = []
            for _ in range(s):
                off = int(rng.integers(-20, 5))
                ws = tuple(Fraction(int(x))
                           for x in rng.integers(0, 3, size=int(rng.integers(1, 12))))
                fns.append(ScaledFunction.from_weights(off, ws, 25))
            assert count_solutions(eq, fns).value == \
                brute_force_count(eq, fns).value

    def test_rational_weight_instances(self):
        rng = np.random.Generator(np.random.Philox(key=33))
        for _ in range(15):
            s = int(rng.integers(2, 5))
            eq = random_coeffs(rng, s)
            fns = []
            for _ in range(s):
                base = random_set(rng, 15)
                w, off = zero_one(base.elements, "S")
                ws = tuple(
                    Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                    * x for x in w
                )
                fns.append(ScaledFunction.from_weights(off, ws, base.ambient_n))
            assert count_solutions(eq, fns).value == \
                brute_force_count(eq, fns).value


class TestDegenerateBound:
    def test_erdos_turan_5(self):
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        rep = degenerate_bound_check(eq, erdos_turan(5))
        assert rep.bound_holds
        assert rep.max_shift_count**4 <= rep.energy**3
        assert rep.energy == 45

    def test_singleton(self):
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        rep = degenerate_bound_check(eq, IntegerSet((1,), 1))
        assert rep.max_shift_count in (0, 1)
        assert rep.bound_holds
        assert rep.energy == 1

    def test_degenerate_total_cross_check(self):
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        s = IntegerSet((1, 2), 2)
        rep = degenerate_bound_check(eq, s)
        fns = [ScaledFunction.from_set(s)] * 5
        total = int(brute_force_count(eq, fns).value)
        distinct = int(brute_force_count(eq, fns, distinct_only=True).value)
        assert rep.total == total
        assert rep.distinct == distinct
        assert rep.degenerate_total == total - distinct

    def test_needs_five_variables(self):
        with pytest.raises(ValidationError):
            degenerate_bound_check(EquationCoeffs((1, 1, -2)),
                                   IntegerSet((1, 2), 2))


# --- property tests: the integer representation against plain Fractions ---
#
# The oracles below use only Fraction weights, dictionaries and
# itertools.product; they share no code with ScaledFunction's numerators,
# the convolution engine or brute_force_count.

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
wide_fractions = st.builds(Fraction, st.integers(-2**80, 2**80),
                           st.integers(1, 2**40))


def weight_lists(elements=small_fractions, max_size=6):
    return st.lists(elements, max_size=max_size)


def as_points(offset, ws):
    """{x: w} over the nonzero weights."""
    return {offset + j: w for j, w in enumerate(ws) if w}


def oracle_count(coeffs, fns, distinct=False):
    """sum over tuples with sum a_i x_i = 0 of the weight products; under
    `distinct` only over tuples of pairwise distinct x_i."""
    total = Fraction(0)
    for pts in itertools.product(*(as_points(off, ws).items() for off, ws in fns)):
        xs = [x for x, _ in pts]
        if distinct and len(set(xs)) < len(xs):
            continue
        if sum(a * x for a, x in zip(coeffs, xs)) == 0:
            total += prod(w for _, w in pts)
    return total


def function(offset, ws, ambient_n=4):
    return ScaledFunction.from_weights(offset, ws, ambient_n)


def trimmed_points(offset, ws):
    """(offset, weights) without the zero weights at both ends; (0, ()) when
    every weight vanishes."""
    nonzero = [j for j, w in enumerate(ws) if w]
    if not nonzero:
        return 0, ()
    lo, hi = nonzero[0], nonzero[-1] + 1
    return offset + lo, tuple(ws[lo:hi])


def canonical(f):
    """Nonzero end numerators, or the zero function () at offset 0."""
    return bool(f.nums[0] and f.nums[-1]) if len(f.nums) else f.offset == 0


class TestRepresentationProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(2, 5))
    def test_count_solutions_against_fraction_oracle(self, data, s):
        coeffs = data.draw(st.lists(st.integers(-3, 3).filter(bool),
                                    min_size=s, max_size=s))
        fns = [(data.draw(st.integers(-5, 5)), data.draw(weight_lists(max_size=5)))
               for _ in range(s)]
        got = count_solutions(EquationCoeffs(coeffs),
                              [function(off, ws) for off, ws in fns])
        assert got.value == oracle_count(coeffs, fns)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 4), st.booleans(), st.integers(1, 6),
           st.sampled_from([0, -7, 2**62 - 3, 2**63 - 2, -2**63]),
           st.sampled_from([None, 40, 58, 60, 61]))
    def test_brute_force_against_fraction_oracle(self, data, s, distinct,
                                                 chunk, base, heavy):
        # blocks of at most `chunk` tuples, so slices, block edges and axes
        # longer than a block are crossed; a base near 2^63 puts positions
        # past int64, and `heavy` gives the first function integer weights
        # near ±2^heavy and the others weights in [-2, 2], so that a
        # block's solutions times the largest weight product fall on both
        # sides of 2^62
        head = data.draw(st.lists(st.integers(-3, 3).filter(bool),
                                  min_size=s - 1, max_size=s - 1))
        # a balanced last coefficient, |a_s| up to 9, gives solutions at
        # any base; the others leave sums it does not divide
        last = st.integers(-3, 3).filter(bool)
        if sum(head):
            last = st.just(-sum(head)) | last
        last = data.draw(last)
        coeffs = head + [last]
        weights = [small_fractions] * s
        if heavy:
            near = st.integers(2**heavy - 7, 2**heavy)
            weights = [near | near.map(operator.neg) | st.just(0)]
            weights += [st.integers(-2, 2)] * (s - 1)
        fns = [(base + data.draw(st.integers(-3, 3)),
                data.draw(st.lists(ws, min_size=1, max_size=6)))
               for ws in weights]
        with mock.patch.object(counting_module, "_CHUNK", chunk):
            got = brute_force_count(EquationCoeffs(coeffs),
                                    [function(off, ws) for off, ws in fns],
                                    distinct_only=distinct)
        assert got.value == oracle_count(coeffs, fns, distinct)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-6, 6), weight_lists(), st.integers(-6, 6), weight_lists())
    def test_add(self, off_a, a, off_b, b):
        got = function(off_a, a) + function(off_b, b)
        want = as_points(off_a, a)
        for x, w in as_points(off_b, b).items():
            want[x] = want.get(x, 0) + w
        want = {x: w for x, w in want.items() if w}
        assert as_points(got.offset, got.weights) == want
        # the sum on the union of the spans, then trimmed
        lo = min(off_a, off_b)
        hi = max(off_a + len(a), off_b + len(b))
        dense = [want.get(x, 0) for x in range(lo, hi)]
        assert (got.offset, got.weights) == trimmed_points(lo, dense)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-6, 6), weight_lists(), small_fractions)
    def test_scaled_by_mass_l2(self, off, ws, q):
        f = function(off, ws)
        g = f.scaled_by(q)
        assert (g.offset, g.weights) == trimmed_points(off, [w * q for w in ws])
        assert f.mass() == sum(ws, Fraction(0))
        assert f.l2_weights() == sum((w * w for w in ws), Fraction(0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-6, 6), weight_lists(), st.integers(-6, 6),
           weight_lists(small_fractions.map(abs)))
    def test_dominated_by(self, off, ws, nu_off, nu_ws):
        nu = as_points(nu_off, nu_ws)
        want = all(abs(w) <= nu.get(x, 0) for x, w in as_points(off, ws).items())
        assert function(off, ws).dominated_by(function(nu_off, nu_ws)) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-6, 6), st.lists(st.sampled_from([Fraction(0), Fraction(-1, 3),
                                                         Fraction(2)]), max_size=8))
    def test_trimmed(self, off, ws):
        f = function(off, ws)
        assert (f.offset, f.weights) == trimmed_points(off, ws)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-6, 6), st.lists(st.integers(-3, 3), max_size=8),
           st.integers(1, 6), weight_lists(max_size=8), st.integers(-3, 3),
           st.lists(st.integers(-2, 2), max_size=3))
    def test_every_result_is_canonical(self, off, nums, den, ws, shift, pad):
        f = ScaledFunction(off, tuple(nums), den, 4)
        g = function(off, ws)
        # the negated end values of g: g + ends cancels both ends
        ends = ScaledFunction(g.offset, tuple(
            -x if j in (0, len(g.nums) - 1) else 0 for j, x in enumerate(g.nums)),
            g.den, 4)
        padded = tuple(pad) + tuple(f.nums.tolist()) + tuple(pad)
        results = [f, g, f + g, g + ends, f + f.scaled_by(-1), f.scaled_by(0),
                   g.scaled_by(0), replace(f, nums=padded),
                   replace(g, offset=g.offset + shift), replace(f, den=2 * den)]
        assert all(canonical(h) for h in results)
        assert (g + ends).support() == g.support()[1:-1]

    @settings(max_examples=80, deadline=None)
    @given(weight_lists(wide_fractions, max_size=8))
    def test_float_weights_match_fraction_floats(self, ws):
        got = function(0, ws).float_weights()
        want = np.array([float(w) for w in trimmed_points(0, ws)[1]], dtype=float)
        assert got.tobytes() == want.tobytes()


# --- the array representation against the tuple reference ------------------

# magnitudes on both sides of INT64_SAFE = 2^62 and of int64 itself
EDGES = [2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**64, 2**70]
numerators = st.one_of(
    st.integers(-9, 9), st.integers(-2**40, 2**40), st.integers(-2**70, 2**70),
    st.sampled_from(EDGES).flatmap(lambda b: st.sampled_from([b, -b])))
dens = st.one_of(st.integers(1, 12), st.integers(1, 2**60),
                 st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**60]))
# small offsets, and offsets about and past +-2^63
bases = st.one_of(st.just(0), st.sampled_from([2**63 - 3, -2**63 - 2, 2**70]))


@st.composite
def raw_functions(draw, base=None):
    """(offset, nums, den): empty, all-zero or zero-padded numerators too,
    at an offset near `base` (drawn when None)."""
    if base is None:
        base = draw(bases)
    core = draw(st.one_of(st.lists(numerators, max_size=8),
                          st.lists(st.just(0), max_size=4)))
    pad = [0] * draw(st.integers(0, 2)), [0] * draw(st.integers(0, 2))
    return (base + draw(st.integers(-6, 6)), pad[0] + core + pad[1], draw(dens))


def reference_of(f):
    return TupleFunction(f.offset, tuple(f.nums.tolist()), f.den, f.ambient_n)


def stored(f):
    """What a function holds, in Python ints, and its reference's."""
    if isinstance(f, TupleFunction):
        return f.offset, f.nums, f.den, f.ambient_n
    return f.offset, tuple(f.nums.tolist()), f.den, f.ambient_n


def check_form(f):
    """int64 exactly below INT64_SAFE, read-only, and the kept bounds."""
    values = f.nums.tolist()
    top = max(map(abs, values), default=0)
    assert (f.nums.dtype == np.int64) == (top < counting_module.INT64_SAFE)
    assert f.nums.dtype in (np.int64, object) and f.nums.ndim == 1
    assert all(type(x) is int for x in values)
    assert (f._top, f._mass) == (top, sum(map(abs, values)))
    if values:
        with pytest.raises(ValueError, match="read-only"):
            f.nums[0] = 1


class TestTupleReference:
    """Each operation on the array against reference_function.TupleFunction."""

    @settings(max_examples=300, deadline=None)
    @given(raw_functions(), st.sampled_from([1, 5, 2**64]))
    def test_construction_and_readers(self, raw, ambient_n):
        offset, nums, den = raw
        f, ref = ScaledFunction(offset, nums, den, ambient_n), \
            TupleFunction(offset, nums, den, ambient_n)
        assert stored(f) == stored(ref)
        check_form(f)
        # the same function from an object array, and from one past int64
        # until the gcd takes 2^64 out of den and nums
        same = [(offset, np.array(nums, dtype=object), den),
                (offset, np.array([x << 64 for x in nums], dtype=object), den << 64)]
        if all(abs(x) < 2**63 for x in nums):
            # int64, a reversed int64 view (a negative stride) and a long
            # zero-padded int64 array
            same += [(offset, np.array(nums, dtype=np.int64), den),
                     (offset, np.array(nums[::-1], dtype=np.int64)[::-1], den),
                     (offset - 130, np.array([0] * 130 + nums + [0] * 130, dtype=np.int64),
                      den)]
        if all(abs(x) < 2**31 for x in nums):
            same.append((offset, np.array(nums, dtype=np.int32), den))
        for args in same:
            g = ScaledFunction(*args, ambient_n)
            assert stored(g) == stored(ref)
            check_form(g)
        assert f.weights == ref.weights and type(f.weights) is tuple
        assert f.support() == ref.support()
        assert all(type(x) is int for x in f.support())
        assert f.mass() == ref.mass()
        assert f.l2_weights() == ref.l2_weights()
        assert f.energy == ref.energy()
        assert f.float_weights().tobytes() == ref.float_weights().tobytes()
        assert repr(f) == repr(ref).replace("TupleFunction", "ScaledFunction")
        assert hash(f) == hash(ref)

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(1, 40), max_size=12), st.sampled_from([-2**64, -3, 0, 2**63]),
           st.integers(0, 40), st.sampled_from([1, 40, 2**64]))
    def test_indicators_match_the_constructor(self, elements, lo, length, ambient_n):
        # the three indicators skip the constructor's trim, gcd and scan,
        # and must store what it would store
        positive = tuple(sorted(elements))
        bohr = transference_module.BohrSet(
            40, tuple(-x for x in reversed(positive)) + (0,) + positive, ambient_n)
        for f in (ScaledFunction.from_set(IntegerSet(positive, 40)),
                  ScaledFunction.from_interval(lo, lo + length, ambient_n), bohr.measure()):
            g = ScaledFunction(f.offset, f.nums, f.den, f.ambient_n)
            assert stored(f) == stored(g) and f.nums.dtype == g.nums.dtype
            assert (f._top, f._mass) == (g._top, g._mass)
            check_form(f)

    @settings(max_examples=300, deadline=None)
    @given(raw_functions(), st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        st.builds(Fraction, numerators, dens)))
    def test_scaled_by(self, raw, q):
        f = ScaledFunction(*raw, 7)
        got = f.scaled_by(q)
        assert stored(got) == stored(TupleFunction(*raw, 7).scaled_by(q))
        check_form(got)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), bases)
    def test_add_and_dominated_by(self, data, base):
        # two functions on spans near one base offset
        (fa, ra), (fb, rb) = [
            (ScaledFunction(*raw, 9), TupleFunction(*raw, 9))
            for raw in (data.draw(raw_functions(base)), data.draw(raw_functions(base)))]
        total = fa + fb
        assert stored(total) == stored(ra + rb)
        check_form(total)
        assert fa.dominated_by(fb) == ra.dominated_by(rb)
        assert fb.dominated_by(fa) == rb.dominated_by(ra)
        assert (fa == fb) == (ra == rb) and (fa != fb) == (ra != rb)
        if fa == fb:
            assert hash(fa) == hash(fb)

    @settings(max_examples=300, deadline=None)
    @given(raw_functions(), raw_functions(), st.integers(1, 60),
           st.sampled_from([1, 6, 2**30, 3**37, 2**60]))
    def test_convolved(self, raw_a, raw_b, reps, k):
        # b's numerators repeated up to 60 times (skewed lengths) and times
        # k, with k in a's denominator: the product's den k den_a den_b
        # reduces against its numerators, and the result is stored as the
        # constructor would store it, with its exact max and mass
        (off_a, nums_a, den_a), (off_b, nums_b, den_b) = raw_a, raw_b
        raw_a, raw_b = (off_a, nums_a, den_a * k), (off_b, [k * x for x in nums_b] * reps, den_b)
        (fa, ra), (fb, rb) = [(ScaledFunction(*raw, 7), TupleFunction(*raw, 7))
                              for raw in (raw_a, raw_b)]
        for got, want in ((fa.convolved(fb), ra.convolved(rb)),
                          (fb.convolved(fa), rb.convolved(ra)),
                          (fa.convolved(fa), ra.convolved(ra))):
            assert stored(got) == stored(want)
            check_form(got)
        for f in (fa, fb):
            assert f.energy == f.convolved(f).l2_weights()

    def test_convolved_needs_one_ambient(self):
        with pytest.raises(ValidationError, match="same ambient"):
            ScaledFunction(0, (1,), 1, 4).convolved(ScaledFunction(0, (1,), 1, 5))

    @settings(max_examples=200, deadline=None)
    @given(raw_functions(), st.lists(st.integers(-3, 3), max_size=8), st.integers(1, 2**44))
    def test_dominated_by_a_fraction_of_nu(self, raw, cs, k):
        # f = (c_j / k) nu with |c_j| <= k, so |f| <= nu wherever nu >= 0,
        # up to the equality c_j = +-k; the spans nest
        offset, nums, den = raw
        nu = ScaledFunction(offset, [abs(x) for x in nums], den, 9)
        values = nu.nums.tolist()
        cs = [k * c // 3 for c in cs[:len(values)]] + [k] * (len(values) - len(cs))
        f = ScaledFunction(nu.offset, [c * x for c, x in zip(cs, values)], nu.den * k, 9)
        assert f.dominated_by(nu) == reference_of(f).dominated_by(reference_of(nu))
        assert f.dominated_by(nu)

    @settings(max_examples=300, deadline=None)
    @given(raw_functions(), st.integers(1, 2**60), st.integers(1, 2**60))
    def test_level_set(self, raw, p, q):
        p, q = sorted((p, q))  # delta = p/q in (0, 1]
        delta = Fraction(p, q)
        offset, nums, den = raw
        nums = [abs(x) for x in nums]  # f must be nonnegative
        ambient_n = 2**64 + 1
        got = transference_module.verify_l2_reduction(
            ScaledFunction(offset, nums, den, ambient_n), delta)
        want = level_set(TupleFunction(offset, nums, den, ambient_n), delta)
        assert (got.level_set, got.hyp_mass_ok, got.hyp_l2_ok) == want
        assert all(type(x) is int for x in got.level_set)

    @settings(max_examples=300, deadline=None)
    @given(raw_functions(), st.builds(Fraction, numerators, dens).map(abs).filter(bool),
           st.data())
    def test_at_least_and_times(self, raw, t, data):
        f, ref = ScaledFunction(*raw, 7), TupleFunction(*raw, 7)
        got = f.at_least(t)
        assert got == ref.at_least(t) and all(type(x) is int for x in got)
        # int64 multipliers, or an object array of them up to 2^70
        rs = data.draw(st.one_of(
            st.lists(st.integers(-2**40, 2**40), min_size=len(f.nums),
                     max_size=len(f.nums)).map(lambda r: np.array(r, dtype=np.int64)),
            st.lists(numerators, min_size=len(f.nums),
                     max_size=len(f.nums)).map(lambda r: np.array(r, dtype=object))))
        d = data.draw(st.sampled_from([1, 8, 2**61]))
        product = f.times(rs, d)
        assert stored(product) == stored(ref.times(rs.tolist(), d))
        check_form(product)

    def test_level_must_be_positive(self):
        f = ScaledFunction(2, (1, 3), 2)
        assert f.at_least(1) == [3]
        for t in (0, Fraction(-1, 2)):
            with pytest.raises(ValidationError, match="positive level"):
                f.at_least(t)

    def test_zero_summand_spans_nothing(self):
        # the zero function sits at offset 0: a sum with it must not span
        # [0, 2^63), which no memory holds
        far = ScaledFunction(2**63 - 3, (1,), 1, 4)
        assert ScaledFunction(0, (), 1, 4) + far == far == far + ScaledFunction(5, (0,), 1, 4)

    def test_floats_refused(self):
        # and an integer array that is not 1-d, whose entries are rows
        for nums in ((1.0,), [1, 2.5], np.array([0.5, 1.0]), (np.float64(2.0),),
                     np.array([[1, 2], [3, 4]])):
            with pytest.raises(TypeError):
                ScaledFunction(0, nums)

    def test_made_functions_are_read_only(self):
        s_set = IntegerSet((1, 3, 4), 5)
        model = transference_module.dense_model(
            IntegerSet(tuple(range(2, 65, 2)), 64), Fraction(1, 4))
        for f in (ScaledFunction.from_set(s_set), ScaledFunction.from_interval(1, 4, 4),
                  model.bohr.measure(), model.base, model.majorant_base, model.model_f,
                  ScaledFunction.from_set(s_set).scaled_by(Fraction(2, 3)),
                  ScaledFunction.from_set(s_set) + ScaledFunction.from_interval(2, 6, 5)):
            check_form(f)
            assert stored(f) == stored(reference_of(f))

    @pytest.mark.parametrize("nums", [(0, 4, -6), (2**70, 3)])
    def test_copies_stay_read_only(self, nums):
        f = ScaledFunction(5, nums, 2, 9)
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and stored(g) == stored(f)
            check_form(g)

    def test_caller_array_is_copied(self):
        nums = np.array([0, 4, 6, 0], dtype=np.int64)
        f = ScaledFunction(0, nums, 2)
        nums[1] = 100
        assert stored(f) == (1, (2, 3), 1, 1) and nums.flags.writeable

    @pytest.mark.parametrize("nums, den, kind", [
        ((2**62 - 1,), 1, "i"), ((2**62,), 1, "O"), ((-2**62,), 1, "O"),
        ((2**62, 2**62 + 2), 2, "i"), ((2**63 + 2, 2), 2, "O"), ((2**70, 0, 2**70), 2**70, "i"),
    ])
    def test_int64_cut_after_the_gcd(self, nums, den, kind):
        f = ScaledFunction(0, nums, den)
        assert f.nums.dtype.kind == kind
        check_form(f)

    def test_guards_at_the_first_value_past_them(self):
        # each int64 route next to a value that would wrap or round in it
        nu = ScaledFunction(0, (2**30, 2**30), 1, 5)
        small = ScaledFunction(0, (1, 1), 2**40, 5)  # nu's values times 2^40 pass 2^63
        assert small.dominated_by(nu) and not nu.dominated_by(small)
        # 2^53 + 1 rounds to 2^53 as a double: x / 3 must divide the int
        odd = ScaledFunction(0, (2**53 + 1, 1), 3)
        assert odd.float_weights().tolist() == [(2**53 + 1) / 3, 1 / 3]
        # c 1_[1, n]: entries of the square below 2^35, its sum of squares
        # (2n^3 + n) c^4 / 3 past 2^77
        n, c = 2**10, 2**12
        flat = ScaledFunction(1, (c,) * n, 1, n)
        assert flat.energy == (2 * n**3 + n) * c**4 // 3
        # 2q x = 2^71 for delta = 1/2^40 and x = 2^30
        level = transference_module.verify_l2_reduction(ScaledFunction(0, (2**30, 1), 1, 4),
                                                         Fraction(1, 2**40))
        assert level.level_set == (0, 1)
        # the zero function's level set is empty however fine the level:
        # 2q = 2^64 is past int64
        zero = ScaledFunction(0, (), 1, 4)
        assert transference_module.verify_l2_reduction(zero, Fraction(1, 2**63)).level_set == ()
        assert zero.at_least(Fraction(1, 2**64)) == []
        # r x = 2^70 for r = 2^40 and x = 2^30
        assert nu.times(np.array([2**40, -1]), 8).weights == (2**67, Fraction(-2**30, 8))
