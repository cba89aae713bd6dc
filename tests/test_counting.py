"""Exact solution counting: engine, inclusion-exclusion, oracle, bounds."""

import numpy as np
import pytest
from fractions import Fraction

from sidonlab.counting import (
    EquationCoeffs,
    ScaledFunction,
    SolutionCount,
    brute_force_count,
    count_distinct_solutions,
    count_solutions,
    degenerate_bound_check,
)
from sidonlab.convolve import convolve_many
from sidonlab.errors import BudgetExceededError, ValidationError
from sidonlab.sets import IntegerSet, erdos_turan


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

    def test_translation_invariance_flag(self):
        assert EquationCoeffs((1, 1, -2)).translation_invariant
        assert not EquationCoeffs((1, 1, -3)).translation_invariant


class TestScaledFunction:
    def test_trim_and_support(self):
        f = ScaledFunction(3, (0, 0, 1, 0, 2, 0), 0, 10)
        t = f.trimmed()
        assert t.offset == 5 and t.weights == (1, 0, 2)
        assert f.support() == [5, 7]

    def test_add_and_scale(self):
        f = indicator([1, 3], 4) + indicator([2, 3], 4).scaled_by(Fraction(1, 2))
        assert f.weight_at(1) == 1
        assert f.weight_at(2) == Fraction(1, 2)
        assert f.weight_at(3) == Fraction(3, 2)

    def test_add_scale_mismatch(self):
        a = ScaledFunction(0, (1,), 0, 4)
        b = ScaledFunction(0, (1,), 1, 4)
        with pytest.raises(ValidationError):
            a + b

    def test_dominated_by(self):
        nu = ScaledFunction(0, (2, 3, 1), 0, 4)
        f = ScaledFunction(0, (Fraction(-2), Fraction(3), Fraction(-1)), 0, 4)
        assert f.dominated_by(nu)
        g = ScaledFunction(0, (Fraction(-3), 0, 0), 0, 4)
        assert not g.dominated_by(nu)

    def test_integerized(self):
        f = ScaledFunction(0, (Fraction(1, 2), Fraction(2, 3)), 0, 4)
        ints, den = f.integerized()
        assert den == 6 and ints == [3, 4]

    def test_scale_exact(self):
        # N^(h/2) of one unit: rational for even h or square N, else refused
        assert SolutionCount(Fraction(1), 2, 7).scaled() == 7
        assert SolutionCount(Fraction(1), 1, 9).scaled() == 3
        with pytest.raises(ValidationError):
            SolutionCount(Fraction(1), 1, 7).scaled()

    def test_scaled_count(self):
        c = SolutionCount(Fraction(3), 2, 5)
        assert c.scaled() == 15
        c = SolutionCount(Fraction(3), 1, 9)
        assert c.scaled() == 9
        with pytest.raises(ValidationError):
            SolutionCount(Fraction(1), 1, 7).scaled()


class TestCountSolutions:
    def test_progression_on_interval(self):
        eq = EquationCoeffs((1, 1, -2))
        assert count_solutions(eq, [interval(5)] * 3).value == 13

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

    def test_mixed_ambient_scaled_rejected(self):
        a = ScaledFunction(1, (1, 1), 1, 4)
        b = ScaledFunction(1, (1, 1), 1, 9)
        with pytest.raises(ValidationError):
            count_solutions(EquationCoeffs((1, -1)), [a, b])

    def test_empty_support(self):
        eq = EquationCoeffs((1, 1, -2))
        z = ScaledFunction(0, (0, 0), 0, 5)
        assert count_solutions(eq, [interval(5), z, interval(5)]).value == 0

    def test_rational_weights_exact(self):
        eq = EquationCoeffs((1, -1))
        f = ScaledFunction(1, (Fraction(1, 3), Fraction(2, 7)), 0, 2)
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
            shifted = [ScaledFunction(f.offset + t, f.weights, f.half_power,
                                      f.ambient_n) for f in fns]
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

    def test_half_power_accumulates(self):
        f = ScaledFunction.from_set(IntegerSet((1, 2), 4), half_power=1)
        c = count_solutions(EquationCoeffs((1, -1)), [f, f])
        assert c.half_power == 2
        assert c.scaled() == 8  # 2 solutions, each weighted N = 4

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
                    base = ScaledFunction(base.offset, tuple(
                        Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                        * w for w in base.weights), 0, base.ambient_n)
                elif kind == 2:
                    base = base.scaled_by(Fraction(2**70 + 1, 3))
                fns.append(base)
            assert count_solutions(eq, fns).value == \
                brute_force_count(eq, fns).value


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


class TestBruteForce:
    def test_mirrors_fast_path(self):
        eq = EquationCoeffs((1, 1, -2))
        assert brute_force_count(eq, [interval(5)] * 3).value == 13

    def test_empty_support(self):
        eq = EquationCoeffs((1, -1))
        z = ScaledFunction(0, (0,), 0, 3)
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
        f = ScaledFunction(1, (Fraction(1), Fraction(-2)), 0, 2)
        assert brute_force_count(eq, [f, f]).value == 1 + 4
        assert count_solutions(eq, [f, f]).value == 5


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
                fns.append(ScaledFunction(off, ws, 0, 25))
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
                w, off = base.indicator()
                ws = tuple(
                    Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                    * x for x in w
                )
                fns.append(ScaledFunction(off, ws, 0, base.ambient_n))
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
