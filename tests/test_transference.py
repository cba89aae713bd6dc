"""Bohr sets, dense models, and the certified inequalities."""

from dataclasses import replace

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

import sidonlab.counting as counting_module
import sidonlab.sets as sets_module
import sidonlab.spectral as spectral_module
import sidonlab.suites as suites_module
import sidonlab.transference as transference_module

from sidonlab.counting import (
    EquationCoeffs,
    ScaledFunction,
    brute_force_count,
    count_solutions,
)
from sidonlab.errors import ValidationError
from sidonlab.spectral import dft_values, large_spectrum
from sidonlab.sets import (
    IntegerSet,
    difference_counts,
    erdos_turan,
    mian_chowla,
    perturb_almost_sidon,
    representation_profile,
    zero_one,
)
from sidonlab.suites import (
    DENSE_MODEL_GRID,
    scale_to_counting_hypotheses,
    suite_dense_model,
)
from sidonlab.transference import (
    BOHR_BLOCK,
    BohrSet,
    InequalityVerdict,
    bohr_set,
    bohr_size_bound,
    dense_model,
    transference_report,
    verify_counting_bound,
    verify_l2_reduction,
    verify_model_l2,
    verify_repeated_difference_bound,
    verify_size_bound,
)


def _bohr_member(n: int, k: int, m: int, radius: Fraction) -> bool:
    """||n k/m|| <= radius, decided per point: min(nk mod m, m - nk mod m) q
    <= p m for radius = p/q, the reference for bohr_set's vectorised scan."""
    r = (n * k) % m
    return min(r, m - r) * radius.denominator <= radius.numerator * m


def with_cached(model, name, value):
    """A copy of the dense model whose derived `name` reads `value`, written
    into the copy's cache in place of the computed one."""
    copy = replace(model)
    copy.__dict__[name] = value
    return copy


def fail_model_verdict(model, verdict):
    """The dense model with one theorem-backed verdict set to fail."""
    if verdict == "mass_identity":
        return with_cached(model, "mass", model.mass + 1)
    if verdict == "containment":
        return with_cached(model, "containment_holds", False)
    return with_cached(model, "size_bound", replace(model.size_bound, holds=False))


def evens(n):
    return IntegerSet(tuple(range(2, n + 1, 2)), n)


def interval_fn(n):
    return ScaledFunction.from_interval(1, n, n)


def et17_with(start):
    """ET(17) joined with the numbers of [1, 578] of the parity of start."""
    et = erdos_turan(17)
    n = et.ambient_n
    return IntegerSet(tuple(sorted(set(et.elements) | set(range(start, n + 1, 2)))), n)


# (set, eps, |B|): every instance smooths, so B has nonzero differences
SMOOTHING = [
    (et17_with(1), Fraction(1, 5), 79),
    (et17_with(2), Fraction(1, 5), 75),
    (evens(64), Fraction(1, 4), 17),
]


class TestBohrSet:
    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError, match="n >= 0"):
            bohr_set([1], 3, Fraction(1, 4), -10)
        with pytest.raises(ValidationError):
            bohr_set([], 1, Fraction(1, 4), -1)

    def test_grid_size_validated(self):
        for m in (0, -3):
            with pytest.raises(ValidationError, match="grid size"):
                bohr_set([0], m, Fraction(1, 4), 10)
            with pytest.raises(ValidationError, match="grid size"):
                bohr_set([], m, Fraction(1, 4), 10)

    def test_width_cap(self, monkeypatch):
        # refused before the scan allocates; the grid m itself is a modulus
        with pytest.raises(ValidationError, match="Bohr width"):
            bohr_set([1], 3, Fraction(1, 4), 10**11)
        monkeypatch.setattr(sets_module, "MAX_POINTS", 10)
        assert bohr_set([1], 3, Fraction(1, 4), 40).width == 10
        with pytest.raises(ValidationError, match="Bohr width"):
            bohr_set([1], 3, Fraction(1, 4), 44)
        assert bohr_set([1], 2**70, Fraction(1, 4), 40).width == 10

    def test_indices_reduced_mod_grid(self):
        # k and k + c m name the same frequency, negative k included
        want = bohr_set([1, 4], 7, Fraction(1, 6), 90).elements
        assert bohr_set([8, -3], 7, Fraction(1, 6), 90).elements == want
        assert bohr_set([1 + 7 * 2**70, 4], 7, Fraction(1, 6), 90).elements == want

    def test_zero_n(self):
        b = bohr_set([1], 3, Fraction(1, 4), 0)
        assert (b.width, b.elements) == (0, (0,))

    def test_no_frequencies(self):
        b = bohr_set([], 1, Fraction(1, 10), 100)
        assert b.elements == tuple(range(-10, 11))
        assert b.size == 21

    def test_half_frequency(self):
        b = bohr_set([1], 2, Fraction(1, 10), 100)
        assert b.elements == tuple(range(-10, 11, 2))
        assert b.size == 11

    def test_third_frequency(self):
        b = bohr_set([1], 3, Fraction(1, 4), 60)
        assert b.elements == tuple(range(-15, 16, 3))
        assert b.size == 11

    def test_contains_zero_and_symmetric(self):
        # 3/7 and 1/5 on the grid 35
        b = bohr_set([15, 7], 35, Fraction(1, 8), 64)
        assert 0 in b.elements
        assert set(b.elements) == {-v for v in b.elements}

    def test_membership_both_directions(self):
        eps = Fraction(1, 6)
        freqs = [Fraction(2, 9), Fraction(1, 4)]
        b = bohr_set([8, 9], 36, eps, 80)
        members = set(b.elements)
        for n in range(-b.width, b.width + 1):
            # ||n alpha|| <= eps in Fraction arithmetic
            expected = all(
                min((n * f) % 1, 1 - (n * f) % 1) <= eps for f in freqs
            )
            assert (n in members) == expected
        assert b.contains(0) and not b.contains(b.width + 5)

    def test_eps_validation(self):
        with pytest.raises(ValidationError):
            bohr_set([], 1, Fraction(3, 5), 10)
        with pytest.raises(ValidationError):
            bohr_set([], 1, Fraction(0), 10)

    def test_model_bohr_membership_exact(self):
        # the production path builds B from hundreds of spectrum
        # frequencies; every reported member must satisfy the integer
        # criterion for all of them, every non-member must violate one
        model = dense_model(evens(64), Fraction(1, 4))
        b, sp = model.bohr, model.spectrum
        eps, m = sp.threshold, sp.grid_m
        assert len(sp.entries) > 1 and b.size > 1
        members = set(b.elements)
        for n in range(-b.width, b.width + 1):
            passes = all(
                min((n * k) % m, m - (n * k) % m)
                * eps.denominator <= eps.numerator * m
                for k in sp.entries
            )
            assert (n in members) == passes

    def test_size_bound_verdict(self):
        v = bohr_size_bound(11, Fraction(1, 4), 1, 60)
        assert v.lhs == 11 * 16**2 and v.rhs == 60 and v.holds

    def test_size_bound_holds_at_equality(self):
        # |B| ceil(4/eps)^(1+R) = N exactly: the bound is >=, so it holds
        v = bohr_size_bound(1, Fraction(1, 2), 0, 8)
        assert v.lhs == v.rhs == 8 and v.holds
        assert not bohr_size_bound(1, Fraction(1, 2), 0, 9).holds

    @pytest.mark.parametrize("elements", [
        (), (0, 0), (-1, 1), (1, 0, -1), (-2, 0, 1), (-1, 0, 0, 1), (-11, 0, 11),
    ])
    def test_hand_built_shape_refused(self, elements):
        # not strictly increasing, not symmetric, without 0, or past the width
        with pytest.raises(ValidationError, match="Bohr set elements"):
            BohrSet(10, elements, 40)

    def test_hand_built_shape_accepted(self):
        b = bohr_set([1], 3, Fraction(1, 4), 40)
        assert b.elements == (-9, -6, -3, 0, 3, 6, 9)
        assert BohrSet(10, list(b.elements), 40) == b
        assert BohrSet(0, (0,), 0).trivial

    def test_big_denominator_falls_back_to_loop(self):
        eps = Fraction(1, 10**15)
        b = bohr_set([1], 3, eps, 2 * 10**15)
        # width 2, and only multiples of 3 pass a radius this small
        assert b.elements == (0,)


def scan_oracle(ks, m, eps, n):
    """Per-point membership over the whole window, both signs scanned."""
    width = (eps.numerator * n) // eps.denominator
    return tuple(v for v in range(-width, width + 1)
                 if all(_bohr_member(v, k, m, eps) for k in ks))


radii = st.builds(Fraction, st.integers(1, 40), st.integers(2, 200)).filter(
    lambda e: e <= Fraction(1, 2))
# denominators past 10^15: (width + 1) m q reaches 2^62 and the scan runs on
# Python ints
big_radii = st.integers(10**15 + 1, 10**18).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q // 2), st.just(q)))


@st.composite
def grid_indices(draw, min_m, max_m, max_size=2 * BOHR_BLOCK + 10):
    """One grid m and indices on it with repeats, conjugate pairs k and
    m - k, and k = 0."""
    m = draw(st.integers(min_m, max_m))
    base = draw(st.lists(st.integers(0, m - 1), max_size=max_size))
    picks = draw(st.lists(st.sampled_from(base), max_size=6)) if base else []
    twins = [(m - k) % m for k in picks]
    zeros = [0] if draw(st.booleans()) else []
    return draw(st.permutations(base + picks + twins + zeros)), m


class TestBohrScanProperties:
    """The blocked survivor scan of bohr_set against per-point _bohr_member."""

    @staticmethod
    def check(ks, m, eps, n):
        b = bohr_set(ks, m, eps, n)
        assert b.width == (eps.numerator * n) // eps.denominator
        assert b.elements == scan_oracle(ks, m, eps, n)
        assert 0 in b.elements
        assert b.elements == tuple(-v for v in reversed(b.elements))
        return b

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(grid_indices(1, 4), grid_indices(1, 3600)), radii,
           st.integers(0, 300),
           st.sampled_from([1, 50, transference_module.BLOCK_PAIRS]))
    def test_matches_per_point_scan(self, grid, eps, n, block_pairs):
        # a small pair cap narrows the blocks down to one frequency
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transference_module, "BLOCK_PAIRS", block_pairs)
            self.check(*grid, eps, n)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 200).flatmap(lambda m: st.tuples(
               st.lists(st.integers(0, m - 1), max_size=20, unique=True), st.just(m))),
           st.one_of(radii, big_radii), st.integers(0, 300))
    @example(([1, 7, 150], 200), Fraction(10**17 // 5, 10**17 + 3), 300)
    # 2 * 5 == 1 * 10: n = 2 is on the Bohr condition's boundary
    @example(([1], 10), Fraction(1, 5), 30)
    def test_elements_and_contains_are_the_bohr_condition(self, grid, eps, n):
        # the elements are every point of [-width, width] that passes the
        # per-point test for every k, and contains() answers membership
        # inside the window and just outside it
        b = self.check(*grid, eps, n)
        for x in range(-b.width - 3, b.width + 4):
            assert b.contains(x) == (x in b.elements)

    @settings(max_examples=40, deadline=None)
    @given(grid_indices(1, 3600), radii, st.integers(0, 1))
    def test_width_zero(self, grid, eps, n):
        assert self.check(*grid, eps, n).elements == (0,)

    @settings(max_examples=40, deadline=None)
    @given(grid_indices(2**62, 2**66, BOHR_BLOCK + 3), radii, st.integers(2, 60))
    def test_object_route_past_int64(self, grid, eps, n):
        ks, m = grid
        ks.append(1)
        # the int64 guard fails, so the scan runs on Python ints
        assert m * eps.denominator >= 2**62
        self.check(ks, m, eps, n)

    def test_survivors_cross_several_blocks(self):
        # frequencies that keep every point, with the one that keeps only
        # the even points moved across two block boundaries
        for at in range(2 * BOHR_BLOCK + 2):
            ks = [0] * (2 * BOHR_BLOCK + 1)
            ks.insert(at, 1)
            b = self.check(ks, 2, Fraction(1, 10), 200)
            assert b.elements == tuple(range(-20, 21, 2))


class TestDenseModel:
    def test_degenerate_limit(self):
        # spectrally flat Sidon set: the Bohr set collapses to {0}, the
        # model is exactly sqrt(N) 1_S and the Fourier distance vanishes
        model = dense_model(erdos_turan(11), Fraction(1, 5))
        assert model.bohr.elements == (0,)
        assert model.fourier_distance == 0.0
        assert model.mass_identity_holds
        padded = model.padded
        w, off = zero_one(padded.elements, "S")
        g = model.base
        assert g.offset == off
        assert [int(x) for x in g.weights] == w.tolist()

    @pytest.mark.parametrize("verdict", ["mass_identity", "containment", "size_bound"])
    def test_theorem_verdicts_read_by_the_report(self, verdict):
        rep = transference_report(evens(64), EquationCoeffs((1, 1, 1, -1, -2)),
                                  Fraction(1, 4))
        assert rep.model.theorem_verdicts_hold and rep.theorem_verdicts_hold
        broken = fail_model_verdict(rep.model, verdict)
        assert not broken.theorem_verdicts_hold
        assert not replace(rep, model=broken).theorem_verdicts_hold

    def test_mass_identity_nontrivial_bohr(self):
        model = dense_model(evens(64), Fraction(1, 4))
        assert model.bohr.size > 1
        assert model.mass_identity_holds
        assert model.mass == 32 * model.bohr.size

    def test_support_inside_padded_window(self):
        model = dense_model(evens(64), Fraction(1, 4))
        f = model.model_f
        lo = f.offset
        hi = f.offset + len(f.weights) - 1
        eps_n = Fraction(1, 4) * model.n_padded
        assert lo > -eps_n
        assert hi <= (1 + Fraction(1, 4)) * model.n_padded

    def test_l2_value_matches_direct_sum(self):
        model = dense_model(evens(64), Fraction(1, 4))
        f = model.model_f
        direct = sum(w * w for w in f.weights)
        assert model.l2_value == direct

    def test_convolution_theorem_on_grid(self):
        # f_hat must equal sqrt(N) S_hat B_hat / |B| pointwise on the grid
        from sidonlab.spectral import dft_values
        from math import isqrt

        model = dense_model(evens(64), Fraction(1, 4))
        n = model.n_padded
        m = model.spectrum.grid_m
        root = isqrt(n)
        padded = model.padded
        s_hat = dft_values(ScaledFunction.from_set(padded), m)
        b_hat = dft_values(model.bohr.measure(), m)
        f_hat = dft_values(model.model_f, m)
        assert np.allclose(f_hat, root * s_hat * b_hat, atol=1e-8)

    def test_containment_and_size_bound(self):
        for s_set, eps in ((erdos_turan(11), Fraction(1, 5)),
                           (evens(64), Fraction(1, 4))):
            model = dense_model(s_set, eps)
            assert model.containment_holds
            assert model.size_bound.holds

    @pytest.mark.parametrize("s_set, eps, m", [
        (erdos_turan(13), Fraction(1, 5), None),
        (evens(64), Fraction(1, 4), None),
        (perturb_almost_sidon(erdos_turan(11), 3, 5), Fraction(1, 10), 1000),
    ])
    def test_spectrum_is_large_spectrum_of_padded(self, s_set, eps, m):
        # one transform of 1_S serves the spectrum and the Fourier distance;
        # the spectrum, magnitudes included, is the one large_spectrum builds
        model = dense_model(s_set, eps, m)
        assert model.spectrum == large_spectrum(model.padded, eps, m)

    def test_eps_above_delta_rejected(self):
        # |S| = 2 in [1, 16]: delta = 1/2 exactly, so eps = 1/2 passes and
        # anything larger is out of range anyway
        sparse = IntegerSet((1, 5), 16)
        dense_model(sparse, Fraction(1, 2))
        with pytest.raises(ValidationError):
            dense_model(IntegerSet((1,), 16), Fraction(1, 2))

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            dense_model(IntegerSet((), 16), Fraction(1, 4))


class TestDenseModelFields:
    """A dense model whose fields lie on different ambients is refused on
    construction."""

    @pytest.fixture(scope="class")
    def model(self):
        return dense_model(evens(64), Fraction(1, 4))

    def test_real_model_accepted(self, model):
        assert replace(model) == model

    @pytest.mark.parametrize("field", ["bohr", "base", "padded"])
    def test_ambients_differ(self, model, field):
        changed = replace(getattr(model, field), ambient_n=model.n_padded + 1)
        with pytest.raises(ValidationError, match="ambient"):
            replace(model, **{field: changed})

    def test_base_must_be_integer(self, model):
        # g = 1_S * 1_B has integer weights, and mass and square_sum read
        # its numerators as they are: g / 2 (den 2, g has odd entries) is
        # refused, and 2 g, on the same ambient, is taken
        half = model.base.scaled_by(Fraction(1, 2))
        assert half.den == 2
        with pytest.raises(ValidationError, match="den 2"):
            replace(model, base=half)
        assert replace(model, base=model.base.scaled_by(2)).mass == 2 * model.mass


class TestOneProfile:
    """Every verdict on a set reads the profile that set computed once."""

    def test_report_computes_one_profile(self, profile_calls):
        s = perturb_almost_sidon(erdos_turan(11), 2, seed=5)
        rep = transference_report(s, EquationCoeffs((1, 1, 1, 1, -4)),
                                  Fraction(1, 5))
        assert len(profile_calls) == 1
        assert profile_calls[0] is rep.model.padded
        assert rep.model.padded.profile == representation_profile(
            IntegerSet(s.elements, rep.model.n_padded))

    def test_dense_model_suite_one_profile_per_instance(self, profile_calls):
        assert suite_dense_model().ok
        assert len(profile_calls) == len(DENSE_MODEL_GRID)
        assert len({id(s) for s in profile_calls}) == len(DENSE_MODEL_GRID)

    def test_forged_spectrum_fails_the_r_bound(self, monkeypatch):
        # the sieve refuses a spectrum it does not cover (see
        # TestLargeSieve in test_spectral.py), so the forgery is a report
        # whose bound on R fails while the fourth moment still passes
        real = suites_module.large_sieve_diagnostic

        def forged(s_set, spectrum):
            return replace(real(s_set, spectrum), r_bound_holds=False)

        monkeypatch.setattr(suites_module, "large_sieve_diagnostic", forged)
        res = suite_dense_model()
        assert res.passes == 0
        assert res.failures == [f"p={p} eps={eps}: failed ['r_bound']"
                                for p, eps in DENSE_MODEL_GRID]

    def test_padded_set(self):
        s = evens(64)
        model = dense_model(s, Fraction(1, 4))
        assert model.padded == IntegerSet(s.elements, 64)
        assert model.n_padded == model.padded.ambient_n == 64
        s = erdos_turan(11)
        model = dense_model(s, Fraction(1, 5))
        assert model.padded == IntegerSet(s.elements, 256)


class TestRepeatedDifferenceBound:
    def test_sidon_lhs_zero(self):
        v = verify_repeated_difference_bound(erdos_turan(7))
        assert v.lhs == 0 and v.holds

    def test_progression_equality(self):
        v = verify_repeated_difference_bound(IntegerSet((1, 2, 3), 3))
        assert v.lhs == 4 and v.rhs == 4 and v.holds

    def test_four_points_exact(self):
        s = IntegerSet((1, 2, 3, 5), 5)
        diffs, counts = difference_counts(s.elements)
        lhs = sum(c for d, c in zip(diffs.tolist(), counts.tolist()) if d != 0 and c > 1)
        v = verify_repeated_difference_bound(s)
        assert v.lhs == lhs and v.holds

    def test_random_sets_always_hold(self):
        rng = np.random.Generator(np.random.Philox(key=70))
        for _ in range(30):
            n = int(rng.integers(2, 40))
            size = int(rng.integers(1, n + 1))
            elems = sorted(int(v) + 1
                           for v in rng.choice(n, size=size, replace=False))
            assert verify_repeated_difference_bound(
                IntegerSet(tuple(elems), n)).holds


class TestSizeBound:
    def test_two_points(self):
        v = verify_size_bound(IntegerSet((1, 2), 2))
        assert v.lhs == 4 and v.rhs == 8 and v.holds

    def test_erdos_turan_13(self):
        v = verify_size_bound(erdos_turan(13))
        assert v.lhs == 169 and v.rhs == 4 * 338 and v.holds

    def test_progression(self):
        v = verify_size_bound(IntegerSet((1, 2, 3), 3))
        assert v.lhs == 8 and v.rhs == 12 and v.holds

    def test_vacuous_when_eta_large(self):
        s = IntegerSet(tuple(range(1, 11)), 10)
        v = verify_size_bound(s)
        assert not v.applicable and v.holds

    def test_empty_set_rejected(self):
        # eta of the empty set is undefined: IntegerSet.eta refuses it
        with pytest.raises(ValidationError, match="nonempty"):
            verify_size_bound(IntegerSet((), 5))


class TestL2Reduction:
    def test_full_interval_delta_one(self):
        res = verify_l2_reduction(interval_fn(20), Fraction(1))
        assert res.hypotheses_ok
        assert res.level_set == tuple(range(1, 21))
        assert res.holds

    def test_half_weight(self):
        f = interval_fn(16).scaled_by(Fraction(1, 2))
        res = verify_l2_reduction(f, Fraction(1, 2))
        assert res.hypotheses_ok
        assert res.level_set == tuple(range(1, 17))
        assert res.holds

    def test_dense_model_hypotheses_reported(self):
        model = dense_model(erdos_turan(11), Fraction(1, 5))
        delta = Fraction(11, 16)
        res = verify_l2_reduction(model.model_f, delta)
        # mass holds with equality; the mean square exceeds N for a
        # degenerate model, which must be reported, not asserted
        assert res.hyp_mass_ok
        assert not res.hyp_l2_ok
        assert res.holds is None

    def test_delta_validation(self):
        with pytest.raises(ValidationError):
            verify_l2_reduction(interval_fn(4), Fraction(3, 2))

    def test_report_reads_the_public_level_set(self):
        s_set = erdos_turan(11)
        rep = transference_report(s_set, EquationCoeffs((1, 1, 1, 1, -4)),
                                  Fraction(1, 5))
        assert rep.level_set == verify_l2_reduction(rep.model.model_f,
                                                    rep.model.padded.density)


class TestCountingBound:
    def test_full_interval_witness(self):
        n = 10
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        nu = interval_fn(n)
        fns = [nu] * 5
        # frozen from direct four-fold loop enumeration
        oracle = int(brute_force_count(eq, fns).value)
        assert oracle == 2498
        # the energy hypothesis value, frozen from sum (10-|d|)^2
        assert nu.energy == 670
        v = verify_counting_bound(nu, fns, eq)
        assert v.lhs_abs == pytest.approx(2498.0)
        assert v.premise_mass_ok and v.premise_energy_ok
        assert v.holds
        assert v.rhs == pytest.approx(10.0**4, rel=1e-12)

    def test_zero_function(self):
        n = 8
        nu = interval_fn(n)
        zero = ScaledFunction.from_weights(1, (Fraction(0),) * n, n)
        v = verify_counting_bound(nu, [zero] * 5,
                                  EquationCoeffs((1, 1, 1, 1, -4)))
        assert v.lhs_abs == 0 and v.holds

    def test_randomized_signed_cases(self):
        rng = np.random.Generator(np.random.Philox(key=71))
        model = dense_model(erdos_turan(7), Fraction(1, 5))
        nu = scale_to_counting_hypotheses(model.majorant_nu)
        for _ in range(10):
            coeffs = []
            for _ in range(5):
                a = 0
                while a == 0:
                    a = int(rng.integers(-3, 4))
                coeffs.append(a)
            eq = EquationCoeffs(tuple(coeffs))
            fns = []
            for _ in range(5):
                ws = tuple(Fraction(int(rng.integers(-8, 9)), 8) * w
                           for w in nu.weights)
                fns.append(ScaledFunction.from_weights(nu.offset, ws,
                                                       nu.ambient_n))
            v = verify_counting_bound(nu, fns, eq)
            assert v.holds

    @pytest.mark.parametrize("s", [513, 514])
    def test_decided_past_the_float_range(self, s):
        # 1_S on {1, 2, 3, 4} in N = 4 with s - 1 ones and -(s - 1): N^(s-2)
        # overflows a float, which once made a vacuous pass (s = 513) or
        # raised OverflowError (s = 514)
        nu = ScaledFunction.from_set(IntegerSet((1, 2, 3, 4), 4))
        v = verify_counting_bound(nu, [nu] * s, EquationCoeffs((1,) * (s - 1) + (1 - s,)))
        assert v.min_sup == 4.0 and v.rhs == float("inf")
        exact = abs(v.lhs_value) / (4 ** (s - 2) * Fraction(v.min_sup))
        assert v.holds and v.slack_ratio == float(exact)
        assert 1e-25 < v.slack_ratio < 1e-24
        assert v.lhs_abs == float(v.lhs_value)

    @pytest.mark.parametrize("power", [308, 309])
    def test_weights_past_the_float_range_refused(self, power):
        # at 10^308 the weights are floats but the grid sup is inf; at 10^309
        # the weights themselves are past the float range
        f = ScaledFunction(1, (10**power,) * 3, 1, 3)
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValidationError, match="float range|not finite"):
            verify_counting_bound(f, [f] * 5, eq)

    def test_domination_violation_rejected(self):
        nu = interval_fn(6)
        too_big = nu.scaled_by(2)
        with pytest.raises(ValidationError):
            verify_counting_bound(nu, [too_big] * 5,
                                  EquationCoeffs((1, 1, 1, 1, -4)))

    def test_energy_monotone_under_domination(self):
        # the proof-step inequality E(f) <= E(nu) for |f| <= nu, exactly
        rng = np.random.Generator(np.random.Philox(key=72))
        model = dense_model(erdos_turan(7), Fraction(1, 5))
        nu = scale_to_counting_hypotheses(model.majorant_nu)
        e_nu = nu.energy
        for _ in range(5):
            ws = tuple(Fraction(int(rng.integers(-8, 9)), 8) * w
                       for w in nu.weights)
            f = ScaledFunction.from_weights(nu.offset, ws, nu.ambient_n)
            assert f.energy <= e_nu


class TestMajorantNormalisation:
    @staticmethod
    def halved(nu):
        """The halving loop: the reference for the closed form."""
        n = nu.ambient_n
        while nu.mass() > n or nu.energy > n**3:
            nu = nu.scaled_by(Fraction(1, 2))
        return nu

    def test_weight_energy_is_the_energy_count(self):
        # the autocorrelation form against the (1,-1,-1,1) count, on signed
        # rational weights built with zeros at both ends
        rng = np.random.Generator(np.random.Philox(key=73))
        energy_eq = EquationCoeffs((1, -1, -1, 1))
        for _ in range(8):
            ws = [Fraction(int(x), int(y)) for x, y in
                  zip(rng.integers(-9, 10, size=int(rng.integers(1, 30))),
                      rng.integers(1, 7, size=40))]
            f = ScaledFunction.from_weights(int(rng.integers(-20, 20)),
                                            [0, *ws, 0], 50)
            assert f.energy == count_solutions(energy_eq, [f] * 4).value

    @pytest.mark.parametrize("nu", [
        dense_model(erdos_turan(7), Fraction(1, 5)).majorant_nu,
        dense_model(erdos_turan(11), Fraction(1, 5)).majorant_nu,
        dense_model(evens(64), Fraction(1, 4)).majorant_nu,
        interval_fn(10).scaled_by(17),       # mass needs j = 5, energy 4
        ScaledFunction.from_weights(1, [20], 16),  # mass needs 1, energy 2
        interval_fn(10),                     # nothing to halve: j = 0
    ])
    def test_closed_form_matches_halving(self, nu):
        assert scale_to_counting_hypotheses(nu) == self.halved(nu)


class TestModelL2:
    def test_degenerate_bohr(self):
        model = dense_model(erdos_turan(11), Fraction(1, 5))
        v = verify_model_l2(model)
        assert model.bohr.size == 1
        assert v.lhs == 11  # r_S(0) * r_B(0) only
        assert v.holds

    def test_sidon_exact(self):
        model = dense_model(erdos_turan(11), Fraction(1, 10))
        v = verify_model_l2(model)
        k, b = 11, model.bohr.size
        assert v.rhs == b * b + 2 * k * b  # eta = 0
        assert v.holds

    def test_structured_set(self):
        model = dense_model(evens(64), Fraction(1, 4))
        v = verify_model_l2(model)
        assert v.holds
        # lhs equals sum g^2 computed independently
        direct = sum(int(w) ** 2 for w in model.base.weights)
        assert v.lhs == direct

    @staticmethod
    def joined(model):
        """The reference route: sum_d r_S(d) r_B(d) over both profiles."""
        d_s, r_s = difference_counts(model.padded.elements)
        d_b, r_b = difference_counts(model.bohr.elements)
        _, i, j = np.intersect1d(d_s, d_b, assume_unique=True, return_indices=True)
        return int(r_s[i] @ r_b[j])

    @pytest.mark.parametrize("s_set, eps, size", SMOOTHING)
    def test_sum_of_g_squared_is_the_profile_join(self, s_set, eps, size):
        model = dense_model(s_set, eps)
        assert model.bohr.size == size
        v = verify_model_l2(model)
        assert v.lhs == self.joined(model)
        assert v.holds

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 90).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(1, n), min_size=1))),
        st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 5),
                         Fraction(1, 10)]))
    def test_sum_of_g_squared_property(self, drawn, eps):
        n, elems = drawn
        s_set = IntegerSet(tuple(sorted(elems)), n)
        try:
            model = dense_model(s_set, eps)
        except ValidationError:  # eps above the density of the padded set
            return
        assert verify_model_l2(model).lhs == self.joined(model)


class TestOneRoute:
    """Each quantity the dense model certifies is built once; the removed
    hand-built routes serve as references here."""

    @pytest.mark.parametrize("s_set, eps, size", SMOOTHING)
    def test_majorant_base_is_the_hand_loop(self, s_set, eps, size):
        model = dense_model(s_set, eps)
        nums = list(model.base.nums)
        for x in model.padded.elements:
            nums[x - model.base.offset] += size
        want = ScaledFunction(model.base.offset, tuple(nums), 1, model.n_padded)
        assert model.majorant_base == want

    @pytest.mark.parametrize("s_set, eps, size", SMOOTHING)
    def test_measure_spans_the_bohr_set(self, s_set, eps, size):
        model = dense_model(s_set, eps)
        b, mu = model.bohr, model.bohr.measure()
        assert mu.offset == b.elements[0] == -b.elements[-1]
        assert mu.offset + len(mu.nums) - 1 == b.elements[-1]
        assert tuple(mu.support()) == b.elements
        assert (mu.den, mu.mass()) == (size, 1)
        # the window [-width, width] only adds zeros: the transform is unchanged
        window = [0] * (2 * b.width + 1)
        for v in b.elements:
            window[v + b.width] = 1
        padded = ScaledFunction(-b.width, tuple(window), b.size, b.ambient_n)
        for m in (model.spectrum.grid_m, 97):
            assert np.array_equal(dft_values(mu, m), dft_values(padded, m))

    @pytest.mark.parametrize("s_set, eps, size", SMOOTHING)
    def test_square_sum_is_stored_once(self, s_set, eps, size):
        model = dense_model(s_set, eps)
        assert model.square_sum == sum(x * x for x in model.base.nums)
        assert model.l2_value == model.n_padded * Fraction(model.square_sum, size**2)
        # the verdict reads the cached sum rather than summing g again
        v = verify_model_l2(with_cached(model, "square_sum", model.square_sum + 1))
        assert type(v) is InequalityVerdict and v.name == "model_l2"
        assert v.lhs == model.square_sum + 1

    def test_mass_identity_reads_the_stored_mass(self):
        model = dense_model(evens(64), Fraction(1, 4))
        assert model.mass == sum(model.base.nums) == model.padded.size * model.bohr.size
        assert not with_cached(model, "mass", model.mass - 1).mass_identity_holds

    def test_sums_follow_the_base(self):
        # the sums are derived from g, so a record with another g cannot
        # carry the old ones
        model = dense_model(evens(64), Fraction(1, 4))
        assert model.mass and model.square_sum  # cache both on the original
        g2 = ScaledFunction(model.base.offset, tuple(3 * x for x in model.base.nums),
                            1, model.n_padded)
        other = replace(model, base=g2)
        assert other.mass == sum(g2.nums) == 3 * model.mass
        assert other.square_sum == sum(x * x for x in g2.nums) == 9 * model.square_sum
        assert not other.mass_identity_holds and model.mass_identity_holds

    def test_weight_energy_has_one_home(self):
        # the report's nu energy is the majorant's own cached energy, and no
        # module keeps an energy function beside it
        rep = transference_report(evens(64), EquationCoeffs((1, 1, 1, -1, -2)),
                                  Fraction(1, 4))
        assert rep.nu_energy == rep.model.majorant_nu.energy
        for module in (counting_module, spectral_module, transference_module):
            assert not hasattr(module, "weight_energy")


class TestTransferenceReport:
    def test_degenerate_difference_zero(self):
        rep = transference_report(erdos_turan(11),
                                  EquationCoeffs((1, 1, 1, 1, -4)),
                                  Fraction(1, 5))
        assert rep.model.bohr.elements == (0,) and rep.model.bohr.trivial
        assert rep.model.base == ScaledFunction.from_set(rep.model.padded)
        assert rep.model.fourier_distance == 0.0
        assert rep.model_count == rep.set_count
        assert rep.difference == 0
        assert rep.theorem_verdicts_hold
        assert rep.nu_mass_bound_holds and rep.nu_energy_bound_holds

    def test_model_count_matches_oracle(self):
        rep = transference_report(erdos_turan(11),
                                  EquationCoeffs((1, 1, 1, 1, -4)),
                                  Fraction(1, 5))
        f = rep.model.model_f
        fast = count_solutions(rep.eq, [f] * 5)
        slow = brute_force_count(rep.eq, [f] * 5)
        assert fast.value == slow.value
        assert rep.model_count == fast.value

    def test_mian_chowla_five_term(self):
        s = mian_chowla(10)  # ambient 81 is already a perfect square
        rep = transference_report(s, EquationCoeffs((1, 2, -3, 1, -1)),
                                  Fraction(1, 2))
        assert rep.model.n_padded == 81
        assert rep.theorem_verdicts_hold

    def test_nontrivial_bohr_instance(self):
        rep = transference_report(evens(64),
                                  EquationCoeffs((1, 1, 1, 1, -4)),
                                  Fraction(1, 4))
        assert rep.model.bohr.size > 1
        assert rep.theorem_verdicts_hold
        # evens are far from almost-Sidon, so the majorant premises must
        # be reported as failed
        assert not rep.nu_mass_bound_holds
        # set count: solutions of x1+x2+x3+x4 = 4 x5 inside the evens,
        # scaled by N^(5/2) = 8^5
        raw = int(brute_force_count(
            rep.eq, [ScaledFunction.from_set(evens(64))] * 5).value)
        assert rep.set_count_raw == raw
        assert rep.set_count == Fraction(8**5) * raw

    def test_dilated_sidon_in_regime(self):
        # a Sidon set inside the evens: eta = 0, nontrivial Bohr set, and
        # the majorant premises hold, so the run sits inside the regime
        # where the counting bound is meaningful
        eq = EquationCoeffs((1, 1, 1, 1, -4))
        dilated = IntegerSet(tuple(2 * x for x in erdos_turan(7).elements),
                             196)
        rep = transference_report(dilated, eq, Fraction(11, 24))
        assert rep.model.padded.eta == 0
        assert rep.model.bohr.size > 1
        assert rep.nu_mass_bound_holds and rep.nu_energy_bound_holds
        assert rep.theorem_verdicts_hold
        assert abs(float(rep.difference)) <= rep.counting_comparison
        # oracle equality on the genuinely smoothed model weights
        f = rep.model.model_f
        fast = count_solutions(eq, [f] * 5)
        slow = brute_force_count(eq, [f] * 5)
        assert fast.value == slow.value
        assert rep.model_count == fast.value

    def test_validation(self):
        with pytest.raises(ValidationError):
            transference_report(erdos_turan(5), EquationCoeffs((1, 1, -2)),
                                Fraction(1, 5))
        with pytest.raises(ValidationError):
            transference_report(erdos_turan(5),
                                EquationCoeffs((1, 1, 1, 1, -5)),
                                Fraction(1, 5))


class TestCollapsedModel:
    """When B = {0} the model is sqrt(N) 1_S itself: one transform of 1_S,
    no convolution, and one count serves the model and the set."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of the counts and transforms, as seen from the transference
        module, and of the functions' product, g = 1_S * 1_B."""
        seen = dict.fromkeys(("count_solutions", "dft_values", "convolved"), 0)
        for name in seen:
            home = ScaledFunction if name == "convolved" else transference_module
            real = getattr(home, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                seen[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(home, name, counted)
        return seen

    @pytest.mark.parametrize("s_set, eps, coeffs, size, want", [
        (erdos_turan(11), Fraction(1, 5), (1, 1, 1, 1, -4), 1, (1, 1, 0)),
        (evens(64), Fraction(1, 4), (1, 1, 1, -1, -2), 17, (2, 2, 1)),
    ])
    def test_work_per_report(self, calls, s_set, eps, coeffs, size, want):
        # dft_values and convolved are called in the dense model alone
        rep = transference_report(s_set, EquationCoeffs(coeffs), eps)
        assert rep.model.bohr.size == size
        assert tuple(calls.values()) == want
