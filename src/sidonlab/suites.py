"""Seeded verification suites.

Every suite is a deterministic function of its seed: instances are drawn
from a Philox counter-based generator, so a failure can be replayed from
the (seed, trial index) pair alone.  Each suite is written as a generator
of one outcome per trial, None for a pass or a human-readable witness for
a failure, and `_suite` turns it into a function returning a SuiteResult.

These back both the command-line `verify` subcommand and the acceptance
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

import numpy as np

from .counting import (
    EquationCoeffs,
    ScaledFunction,
    brute_force_count,
    count_distinct_solutions,
    count_solutions,
)
from .errors import ValidationError
from .sets import (
    IntegerSet,
    erdos_turan,
    mian_chowla,
    perturb_almost_sidon,
    philox,
)
from .spectral import energy_via_fourier, large_sieve_diagnostic
from .transference import (
    DEFAULT_FOURIER_C,
    dense_model,
    verify_counting_bound,
    verify_model_l2,
    verify_repeated_difference_bound,
    verify_size_bound,
)

DENSE_MODEL_GRID = (
    (11, Fraction(1, 5)),
    (11, Fraction(1, 10)),
    (13, Fraction(1, 5)),
    (13, Fraction(1, 10)),
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: list[str]

    @property
    def passes(self) -> int:
        return self.trials - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {"name": self.name, "trials": self.trials, "passes": self.passes,
                "ok": self.ok, "failures": list(self.failures)}


def _suite(name: str):
    """Make a generator of one outcome per trial, None for a pass and the
    witness text for a failure, return the SuiteResult `name`."""
    def wrap(gen):
        @wraps(gen)
        def run(*args, **kwargs) -> SuiteResult:
            outcomes = list(gen(*args, **kwargs))
            return SuiteResult(name, len(outcomes),
                               [w for w in outcomes if w is not None])
        return run
    return wrap


def _random_set(rng: np.random.Generator, n_max: int) -> IntegerSet:
    n = int(rng.integers(4, n_max + 1))
    size = int(rng.integers(1, max(2, n // 2) + 1))
    elems = sorted(int(x) + 1 for x in rng.choice(n, size=size, replace=False))
    return IntegerSet(tuple(elems), n)


def _random_coeffs(rng: np.random.Generator, s: int) -> EquationCoeffs:
    coeffs = []
    for _ in range(s):
        a = 0
        while a == 0:
            a = int(rng.integers(-3, 4))
        coeffs.append(a)
    return EquationCoeffs(tuple(coeffs))


@_suite("oracle_equivalence")
def suite_oracle_equivalence(seed: int, trials: int = 200):
    """count_solutions against brute-force enumeration on random instances
    (N <= 40, 2 <= s <= 5, |a_i| <= 3), exact equality."""
    rng = philox(seed)
    for t in range(trials):
        s = int(rng.integers(2, 6))
        eq = _random_coeffs(rng, s)
        fns = [ScaledFunction.from_set(_random_set(rng, 40)) for _ in range(s)]
        fast = count_solutions(eq, fns).value
        slow = brute_force_count(eq, fns).value
        yield None if fast == slow else (
            f"trial {t}: eq {eq.coeffs} fast {fast} != brute {slow}")


@_suite("distinct_equivalence")
def suite_distinct_equivalence(seed: int, trials: int = 100):
    """count_distinct_solutions against brute-force distinct counting on
    random instances (N <= 25, s <= 5), exact equality."""
    rng = philox(seed)
    for t in range(trials):
        s = int(rng.integers(2, 6))
        eq = _random_coeffs(rng, s)
        s_set = _random_set(rng, 25)
        ie = count_distinct_solutions(eq, s_set).value
        slow = brute_force_count(
            eq, [ScaledFunction.from_set(s_set)] * s, distinct_only=True).value
        yield None if ie == slow else (
            f"trial {t}: eq {eq.coeffs} S {s_set.elements} IE {ie} != brute {slow}")


@_suite("energy_three_ways")
def suite_energy_three_ways(seed: int, trials: int = 50):
    """Profile energy, brute-force quadruple enumeration, and the
    convolution route must agree exactly on random sets with N <= 64."""
    rng = philox(seed)
    eq = EquationCoeffs((1, -1, -1, 1))
    for t in range(trials):
        s_set = _random_set(rng, 64)
        e_profile = s_set.profile.energy
        e_brute = int(
            brute_force_count(eq, [ScaledFunction.from_set(s_set)] * 4).value
        )
        e_fourier = energy_via_fourier(s_set)
        yield None if e_profile == e_brute == e_fourier else (
            f"trial {t}: S {s_set.elements} profile {e_profile} "
            f"brute {e_brute} fourier {e_fourier}")


@_suite("lemma_inequalities")
def suite_lemma_inequalities(seed: int, trials: int = 100):
    """Repeated-difference and cardinality bounds on seeded almost-Sidon
    perturbations with eta < 1; both are theorems, any failure is a bug.
    Perturbations with eta >= 1 are redrawn, up to 50 attempts per trial."""
    rng = philox(seed)
    bases = [erdos_turan(p) for p in (5, 7, 11, 13)] + [
        mian_chowla(k) for k in (8, 12, 20)
    ]
    done = 0
    for _ in range(50 * trials):
        if done == trials:
            break
        base = bases[int(rng.integers(0, len(bases)))]
        extra = int(rng.integers(0, max(2, base.size // 2) + 1))
        s_set = perturb_almost_sidon(base, extra, seed=int(rng.integers(0, 2**31)))
        if s_set.eta >= 1:
            continue
        done += 1
        rd = verify_repeated_difference_bound(s_set)
        sb = verify_size_bound(s_set)
        yield None if rd.holds and sb.holds else (
            f"trial {done}: S {s_set.elements} repeated-difference "
            f"{rd.lhs}<={rd.rhs}:{rd.holds} size {sb.lhs}<={sb.rhs}:{sb.holds}")


def scale_to_counting_hypotheses(nu: ScaledFunction) -> ScaledFunction:
    """nu / 2^j for the smallest j >= 0 with sum nu / 2^j <= N and
    E(nu / 2^j) <= N^3, both exact.

    This realizes the absolute-constant normalization of the majorant with
    a power of two, keeping every weight an exact rational.
    """
    n = nu.ambient_n
    mass, energy = nu.mass(), nu.energy
    # nu / 2^j has mass mass / 2^j and energy energy / 16^j
    j = 0
    while mass > n << j or energy > n**3 << 4 * j:
        j += 1
    return nu.scaled_by(Fraction(1, 1 << j))


@_suite("counting_bound")
def suite_counting_bound(seed: int, trials: int = 50):
    """Counting inequality on signed functions dominated by a dense-model
    majorant, s = 5.  The majorant nu = f + sqrt(N) 1_S is halved until its
    mass and energy hypotheses hold exactly; each trial draws signed
    rational multipliers in [-1, 1] per support point."""
    rng = philox(seed)
    majorants = []
    for p in (7, 11):
        model = dense_model(erdos_turan(p), Fraction(1, 5))
        majorants.append(scale_to_counting_hypotheses(model.majorant_nu))
    # a structured set whose Bohr set is nontrivial, so one majorant has
    # genuinely smoothed weights
    evens = IntegerSet(tuple(range(2, 65, 2)), 64)
    model = dense_model(evens, Fraction(1, 4))
    majorants.append(scale_to_counting_hypotheses(model.majorant_nu))
    for t in range(trials):
        nu = majorants[int(rng.integers(0, len(majorants)))]
        eq = _random_coeffs(rng, 5)
        fns = []
        for _ in range(5):
            rs = rng.integers(-8, 9, size=len(nu.nums))  # weight r/8 * nu
            fns.append(nu.times(rs, 8))
        v = verify_counting_bound(nu, fns, eq)
        yield None if v.holds and v.premise_mass_ok and v.premise_energy_ok else (
            f"trial {t}: eq {eq.coeffs} lhs {v.lhs_abs:.6g} "
            f"rhs {v.rhs:.6g} premises {v.premise_mass_ok},{v.premise_energy_ok}")


@_suite("dense_model")
def suite_dense_model():
    """Dense-model certification on the fixed grid of instances.

    For each (p, eps): the mass identity sum g = |S||B|, the exact
    autocorrelation bound, the Fourier distance against 16 eps N, the
    separated-frequency Bohr containment, the sign-corrected size bound,
    and the large-sieve diagnostic on the separated spectrum with its exact
    bound R eps^4 |S|^4 <= 2N (2 + eta) |S|^2 on the separated count R.
    """
    for p, eps in DENSE_MODEL_GRID:
        model = dense_model(erdos_turan(p), eps)
        sieve = large_sieve_diagnostic(model.padded, model.spectrum)
        checks = {
            "mass_identity": model.mass_identity_holds,
            "model_l2": verify_model_l2(model).holds,
            "fourier_distance": model.fourier_bound_holds(DEFAULT_FOURIER_C),
            "containment": model.containment_holds,
            "size_bound": model.size_bound.holds,
            "large_sieve": sieve.holds,
            "r_bound": sieve.r_bound_holds,
        }
        bad = [k for k, v in checks.items() if not v]
        yield f"p={p} eps={eps}: failed {bad}" if bad else None


def run_suites(which: str, seed: int, trials: int) -> list[SuiteResult]:
    """Suites for the `verify` command: lemmas, counting, model, or all."""
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if which == "lemmas":
        return [suite_lemma_inequalities(seed, trials)]
    if which == "counting":
        return [
            suite_oracle_equivalence(seed, trials),
            suite_distinct_equivalence((seed + 1) % 2**128, trials),
            suite_energy_three_ways((seed + 2) % 2**128, trials),
            suite_counting_bound((seed + 3) % 2**128, trials),
        ]
    if which == "model":
        return [suite_dense_model()]
    if which == "all":
        return [item for part in ("lemmas", "counting", "model")
                for item in run_suites(part, seed, trials)]
    raise ValueError(f"unknown suite {which!r}")
