"""Bohr sets, dense models, and exact certification of the pipeline bounds.

The dense model of an almost-Sidon set S in [1, N] is f = sqrt(N) * 1_S
convolved with the normalized indicator of the Bohr set B of the large
spectrum of S at radius eps; B records the integers its scan found, and the
spectrum its frequencies, grid and eps.  The ambient is first padded to a
perfect square so sqrt(N) is an integer: f is the integer convolution
g = 1_S * 1_B times the rational sqrt(N)/|B|, and every mass, energy and
count below is an exact rational; only Fourier magnitudes are floating point.
g is `ScaledFunction.convolved` of 1_S and 1_B, the majorant g + |B| 1_S
is a `ScaledFunction` sum, and their sums and the level set of f are read
off the functions' arrays, in int64 while their bounds allow and over
Python ints past that; Python ints appear where a value is returned as a
count or verdict.  This module convolves nothing itself.

Every inequality that is a theorem (the repeated-difference bound, the
cardinality bound, the model autocorrelation bound, Bohr membership and the
sign-corrected Bohr size bound) is checked in exact integer or rational
arithmetic, and a failure can only mean an implementation bug.  Statements
whose constants are inexplicit (the Fourier approximation constant, the
model L2 ceiling, the telescoped count comparison) are measured and
reported, with the configurable certified ceiling fourier_c for the
Fourier distance.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, isfinite, isqrt
from operator import index, lt, neg

import numpy as np

from .counting import EquationCoeffs, ScaledFunction, count_solutions
from .errors import ValidationError
from .sets import BLOCK_PAIRS, IntegerSet, check_span, exact_dtype, rational, zero_one
from .spectral import (
    FLOAT_SLACK,
    OVERSAMPLE,
    Spectrum,
    _grid_sups,
    _spectrum_from_magnitudes,
    default_grid,
    dft_values,
)

# the "suitable absolute constant" fixed for the majorant nu = f + sqrt(N) 1_S:
# its mass must stay below NU_MASS_FACTOR * N and its energy below
# NU_ENERGY_FACTOR * N^3
NU_MASS_FACTOR = 4
NU_ENERGY_FACTOR = 64

DEFAULT_FOURIER_C = 16
BOHR_BLOCK = 64  # spectrum frequencies per block of the Bohr scan


@dataclass(frozen=True)
class InequalityVerdict:
    """An exact inequality check with both sides kept as witnesses."""

    name: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    applicable: bool = True


@dataclass(frozen=True)
class BohrSet:
    """The integers that bohr_set found in [-width, width], for the
    ambient [1, ambient_n].

    The elements increase strictly, are symmetric, contain 0 and lie in
    [-width, width]; `trivial` and `contains` rely on this, and a hand-built
    set that breaks it is refused.  The frequencies and radius that define
    B stay with whoever chose them: a dense model's spectrum holds both.
    """

    width: int
    elements: tuple[int, ...]
    ambient_n: int

    def __post_init__(self):
        for name in ("width", "ambient_n"):
            object.__setattr__(self, name, index(getattr(self, name)))
        el = tuple(self.elements)
        object.__setattr__(self, "elements", el)
        if not (0 in el and all(map(lt, el, el[1:]))
                and el == tuple(map(neg, reversed(el))) and el[-1] <= self.width):
            raise ValidationError(
                "Bohr set elements must increase strictly, be symmetric, "
                f"contain 0 and lie in [-width, width] (width {self.width})")

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def trivial(self) -> bool:
        """B = {0}: B is symmetric and contains 0, so size 1 says it."""
        return self.size == 1

    def contains(self, n: int) -> bool:
        """n in B, by bisection in the sorted elements."""
        i = bisect_left(self.elements, n)
        return i < self.size and self.elements[i] == n

    def measure(self) -> ScaledFunction:
        """The normalized indicator 1_B / |B| on [min B, max B]: 0/1
        numerators, which end at elements of B and share no factor with
        |B|, so the array is stored as it is made."""
        nums, lo = zero_one(self.elements, "B")
        return ScaledFunction._of(lo, nums, self.size, self.ambient_n, 1, self.size)


def _radius(eps) -> Fraction:
    """eps read by sets.rational, refused outside (0, 1/2]."""
    eps = rational(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValidationError(f"need 0 < eps <= 1/2, got {eps}")
    return eps


def bohr_set(ks, m: int, eps, n: int) -> BohrSet:
    """Enumerate the Bohr set of the frequencies k/m, k in ks, on
    [-floor(eps n), floor(eps n)], 0 < eps <= 1/2; the grid size m >= 1
    is shared by every k, and each k is taken mod m.  A width past
    MAX_POINTS is refused before the scan.

    B is symmetric and contains 0, so only n = 1..width is scanned: the
    survivors meet BOHR_BLOCK frequencies at a time (fewer past BLOCK_PAIRS
    pairs) until none are left.  Each test is the exact integer comparison
    min(nk mod m, m - nk mod m) * q <= p * m for eps = p/q, in int64 while
    products stay below sets.INT64_SAFE, else Python ints.
    """
    ks, m, n = tuple(map(index, ks)), index(m), index(n)
    eps = _radius(eps)
    if n < 0:
        raise ValidationError(f"need n >= 0, got {n}")
    if m < 1:
        raise ValidationError(f"grid size must be positive, got {m}")
    p, q = eps.numerator, eps.denominator
    width = check_span((p * n) // q, "the Bohr width")
    dtype = exact_dtype((width + 1) * m * q)
    ns, i = np.arange(1, width + 1, dtype=dtype), 0
    while ns.size and i < len(ks):
        j = i + max(1, min(BOHR_BLOCK, BLOCK_PAIRS // ns.size))
        # reduced per block: the scan often ends after the first few blocks
        residues = np.array([k % m for k in ks[i:j]], dtype=dtype)
        r = np.multiply.outer(ns, residues) % m
        ns = ns[(np.minimum(r, m - r) * q <= p * m).all(axis=1)]
        i = j
    elements = tuple([-v for v in ns[::-1].tolist()] + [0] + ns.tolist())
    return BohrSet(width, elements, n)


def bohr_size_bound(size: int, eps, r: int, n: int) -> InequalityVerdict:
    """Sign-corrected size bound |B| >= ceil(4/eps)^-(1+R) * N, compared as
    the integer inequality |B| * ceil(4/eps)^(1+R) >= N, for the radii
    0 < eps <= 1/2 of bohr_set."""
    eps = _radius(eps)
    ceil4 = -((-4 * eps.denominator) // eps.numerator)
    lhs = size * ceil4 ** (1 + r)
    return InequalityVerdict("bohr_size_bound", Fraction(lhs), Fraction(n), lhs >= n)


@dataclass(frozen=True)
class DenseModel:
    """g = 1_S * 1_B with its Bohr set, spectrum and Fourier distance.

    `base` has integer weights (denominator 1); the model function
    f = sqrt(N) 1_S * mu_B is `scale` * g with scale = sqrt(N)/|B|.
    `padded` is S in the ambient padded to a perfect square.  `spectrum`
    alone holds B's frequencies, grid and radius eps (its threshold).  The
    sums and verdicts are read off these fields, once each, so they cannot
    disagree with g; fields on different ambients, and a base whose
    denominator is not 1, are refused.
    """

    base: ScaledFunction
    bohr: BohrSet
    padded: IntegerSet
    spectrum: Spectrum
    fourier_distance: float

    def __post_init__(self):
        for ours in (self.bohr.ambient_n, self.base.ambient_n):
            if ours != self.n_padded:
                raise ValidationError(
                    f"dense model fields disagree on the ambient: {ours} != {self.n_padded}")
        if self.base.den != 1:
            raise ValidationError(f"the dense model's g must be integer, den {self.base.den}")

    @property
    def n_padded(self) -> int:
        return self.padded.ambient_n

    @property
    def sqrt_n(self) -> int:
        """sqrt(N), an integer because N is a perfect square."""
        return isqrt(self.n_padded)

    @cached_property
    def mass(self) -> int:
        """sum g."""
        return int(self.base.mass())

    @cached_property
    def square_sum(self) -> int:
        """sum g^2: sum f^2 = N sum g^2 / |B|^2, and the left side of the
        model autocorrelation bound."""
        return int(self.base.l2_weights())

    @cached_property
    def containment_holds(self) -> bool:
        """The Bohr set on the separated frequencies at radius eps/2 lies
        inside B."""
        sp = self.spectrum
        half = bohr_set(sp.separated, sp.grid_m, sp.threshold / 2, self.n_padded)
        return set(half.elements) <= set(self.bohr.elements)

    @cached_property
    def size_bound(self) -> InequalityVerdict:
        """The sign-corrected size bound of B, with R the separated count."""
        sp = self.spectrum
        return bohr_size_bound(self.bohr.size, sp.threshold, sp.r_count, self.n_padded)

    @property
    def mass_identity_holds(self) -> bool:
        """sum g = |S||B|."""
        return self.mass == self.padded.size * self.bohr.size

    @property
    def l2_value(self) -> Fraction:
        """sum f^2 = N sum g^2 / |B|^2, exactly."""
        return self.scale**2 * self.square_sum

    @property
    def theorem_verdicts_hold(self) -> bool:
        """The mass identity, the containment and the size bound."""
        return self.mass_identity_holds and self.containment_holds and self.size_bound.holds

    def fourier_bound_holds(self, fourier_c: int) -> bool:
        """fourier_distance <= fourier_c * eps * N, in floats."""
        return self.fourier_distance <= fourier_c * float(self.spectrum.threshold) * self.n_padded

    @property
    def scale(self) -> Fraction:
        """sqrt(N) / |B|."""
        return Fraction(self.sqrt_n, self.bohr.size)

    @property
    def model_f(self) -> ScaledFunction:
        return self.base.scaled_by(self.scale)

    @property
    def majorant_base(self) -> ScaledFunction:
        """The integer function g + |B| 1_S."""
        return self.base + ScaledFunction.from_set(self.padded).scaled_by(self.bohr.size)

    @property
    def majorant_nu(self) -> ScaledFunction:
        """nu = f + sqrt(N) 1_S, i.e. scale * (g + |B| 1_S)."""
        return self.majorant_base.scaled_by(self.scale)


def dense_model(s_set: IntegerSet, eps, m: int | None = None) -> DenseModel:
    """Build the Bohr-set dense model of S at radius eps.

    The ambient is padded to the next perfect square N; eps must satisfy
    0 < eps <= min(1/2, delta) with delta = |S|/sqrt(N) the exact density of
    the padded set.  The large spectrum is computed on the grid of size m
    (default: smallest power of two at or above 8N), the Bohr set uses every
    spectrum frequency, and g = 1_S * 1_B is an exact integer convolution.
    When B = {0}, g is 1_S itself: no convolution and no second transform,
    and the Fourier distance is 0.  Otherwise fourier_distance is the grid
    maximum of |sqrt(N) 1_S hat - f hat|.
    """
    eps = rational(eps)
    if s_set.size == 0:
        raise ValidationError("dense_model requires a nonempty set")
    padded = s_set.padded_to_square()
    n = padded.ambient_n
    delta = padded.density
    if not 0 < eps <= min(Fraction(1, 2), delta):
        raise ValidationError(
            f"need 0 < eps <= min(1/2, delta) = min(1/2, {delta}), got {eps}"
        )
    if m is None:
        m = default_grid(n)
    ind_s = ScaledFunction.from_set(padded)
    s_hat = dft_values(ind_s, m)
    spectrum = _spectrum_from_magnitudes(padded, eps, np.abs(s_hat))
    bohr = bohr_set(spectrum.entries, m, eps, n)

    if bohr.trivial:
        g, fourier_distance = ind_s, 0.0
    else:
        g = ind_s.convolved(bohr.measure().scaled_by(bohr.size))  # 1_S * 1_B
        g_hat = dft_values(g, m)
        root = isqrt(n)
        fourier_distance = float(np.max(np.abs(root * s_hat - root * g_hat / bohr.size)))

    return DenseModel(g, bohr, padded, spectrum, fourier_distance)


def verify_repeated_difference_bound(s_set: IntegerSet) -> InequalityVerdict:
    """Exact check of sum over repeated nonzero differences of r_S(n)
    against eta |S|^2 + |S|.

    This is a theorem for every finite set, so `holds` can only be False if
    the implementation is wrong.
    """
    lhs = s_set.profile.repeated_difference_sum
    rhs = s_set.profile.excess + s_set.size
    return InequalityVerdict(
        name="repeated_difference_bound",
        lhs=Fraction(lhs),
        rhs=Fraction(rhs),
        holds=lhs <= rhs,
    )


def verify_size_bound(s_set: IntegerSet) -> InequalityVerdict:
    """Exact check of |S| <= 2 sqrt(N / (1 - eta)), via squares:
    (1 - eta) |S|^2 <= 4N.  Vacuous (reported as inapplicable) when
    eta >= 1."""
    eta, rhs = s_set.eta, Fraction(4 * s_set.ambient_n)
    if eta >= 1:
        return InequalityVerdict("size_bound", Fraction(0), rhs, True, applicable=False)
    lhs = (1 - eta) * s_set.size ** 2
    return InequalityVerdict("size_bound", lhs, rhs, lhs <= rhs)


@dataclass(frozen=True)
class LevelSetResult:
    """Level set A = {x : f(x) >= delta/2} with the density check 4|A| >= delta^2 N.

    The mass and mean-square hypotheses (sum f >= delta N, sum f^2 <= N) are
    verified exactly first; when they fail the check is reported as
    `hypotheses_ok = False` with `holds = None`, not as a failure of the
    density statement.
    """

    level_set: tuple[int, ...]
    hyp_mass_ok: bool
    hyp_l2_ok: bool
    lhs: int
    rhs: Fraction
    holds: bool | None

    @property
    def hypotheses_ok(self) -> bool:
        return self.hyp_mass_ok and self.hyp_l2_ok


def verify_l2_reduction(f: ScaledFunction, delta) -> LevelSetResult:
    """Exact level-set density check for a nonnegative f on [1, N]."""
    delta = rational(delta)
    if not 0 < delta <= 1:
        raise ValidationError(f"need 0 < delta <= 1, got {delta}")
    if f.nums.min(initial=0) < 0:
        raise ValidationError("f must be nonnegative")
    return _level_set(f, delta)


def _level_set(f: ScaledFunction, delta: Fraction) -> LevelSetResult:
    """`verify_l2_reduction` on arguments known to be valid, such as a dense
    model's f, nonnegative by construction, and its set's density in (0, 1]:
    no pass over the numerators refuses a negative one."""
    n = f.ambient_n
    hyp_mass = f.mass() >= delta * n
    hyp_l2 = f.l2_weights() <= n
    level = tuple(f.at_least(delta / 2))
    lhs = 4 * len(level)
    rhs = delta * delta * n
    ok = (lhs >= rhs) if (hyp_mass and hyp_l2) else None
    return LevelSetResult(level, hyp_mass, hyp_l2, lhs, rhs, ok)


@dataclass(frozen=True)
class CountingBoundVerdict:
    """The counting inequality |sum prod f_i| <= N^(s-2) min_i sup|f_i hat|.

    holds compares in rationals, within the relative spectral.FLOAT_SLACK,
    the exact left side and N^(s-2) times the float grid sup; that sup is
    below the true one by at most the reported grid factor
    1/cos(pi/OVERSAMPLE), so a pass certifies the inequality up to that
    factor.  lhs_abs, rhs and slack_ratio are display floats (inf past the
    float range).  The majorant hypotheses (sum nu <= N, E(nu) <= N^3) are
    checked exactly and reported.
    """

    lhs_abs: float
    lhs_value: Fraction
    rhs: float
    min_sup: float
    holds: bool
    slack_ratio: float
    grid_factor: float
    premise_mass_ok: bool
    premise_energy_ok: bool


def _float(x) -> float:
    """x as a float, inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return inf


def verify_counting_bound(nu: ScaledFunction, fns, eq: EquationCoeffs
                          ) -> CountingBoundVerdict:
    """Check the bounded-energy counting inequality for |f_i| <= nu.

    Validates the domination |f_i| <= nu pointwise (exact, rational);
    checks the majorant hypotheses exactly; computes the left side by exact
    signed convolution counting and the right side from grid sups.  Weights
    or a grid sup past the float range are refused.
    """
    fns = list(fns)
    if eq.s < 5:
        raise ValidationError(f"counting bound needs s >= 5, got {eq.s}")
    if nu.nums.min(initial=0) < 0:
        raise ValidationError("majorant nu must be nonnegative")
    for i, f in enumerate(fns):
        if not f.dominated_by(nu):
            raise ValidationError(f"function {i} is not dominated by nu")
    n = nu.ambient_n
    premise_mass = nu.mass() <= n
    premise_energy = nu.energy <= n**3
    count = count_solutions(eq, fns)
    min_sup = min(sup for sup, _ in _grid_sups(fns))
    if not isfinite(min_sup):
        raise ValidationError(f"the grid sup {min_sup} is not finite")
    lhs = abs(count.value)
    rhs = n ** (eq.s - 2) * Fraction(min_sup)
    slack = lhs / rhs if rhs else inf if lhs else 0
    return CountingBoundVerdict(
        lhs_abs=_float(lhs),
        lhs_value=count.value,
        rhs=_float(rhs),
        min_sup=min_sup,
        holds=lhs <= rhs * (1 + FLOAT_SLACK),
        slack_ratio=_float(slack),
        grid_factor=1.0 / float(np.cos(np.pi / OVERSAMPLE)),
        premise_mass_ok=premise_mass,
        premise_energy_ok=premise_energy,
    )


def verify_model_l2(model: DenseModel) -> InequalityVerdict:
    """Exact autocorrelation bound for the model,
    sum_n r_S(n) r_B(n) <= |B|^2 + (eta |S|^2 + 2|S|) |B|."""
    # s1 + b1 = s2 + b2 iff s1 - s2 = b2 - b1: sum_d r_S(d) r_B(d) = sum_n g(n)^2
    lhs, b = model.square_sum, model.bohr.size
    rhs = b * b + (model.padded.profile.excess + 2 * model.padded.size) * b
    return InequalityVerdict(name="model_l2", lhs=Fraction(lhs), rhs=Fraction(rhs),
                             holds=lhs <= rhs)


@dataclass(frozen=True)
class TransferenceReport:
    """End-to-end run: dense model, majorant checks, counts and verdicts.

    Exact fields are rationals; the telescoped-difference comparison value
    c_s * eps * N^(s-1) with c_s = s * fourier_distance / (eps N) is a
    measured float, reported beside eps * N^(s-1) rather than asserted.
    """

    n_original: int
    eq: EquationCoeffs
    model: DenseModel
    nu_mass: Fraction
    nu_energy: Fraction
    nu_mass_bound_holds: bool
    nu_energy_bound_holds: bool
    model_count: Fraction
    set_count_raw: int
    set_count: Fraction
    difference: Fraction
    counting_comparison: float
    c_s: float
    eps_n_power: float
    fourier_c: int
    repeated_difference: InequalityVerdict
    size_bound: InequalityVerdict
    model_l2: InequalityVerdict
    level_set: LevelSetResult

    @property
    def theorem_verdicts_hold(self) -> bool:
        """Every theorem-backed exact verdict in this report."""
        return (
            self.model.theorem_verdicts_hold
            and self.repeated_difference.holds
            and self.size_bound.holds
            and self.model_l2.holds
        )


def transference_report(s_set: IntegerSet, eq: EquationCoeffs, eps,
                        m: int | None = None,
                        fourier_c: int = DEFAULT_FOURIER_C
                        ) -> TransferenceReport:
    """Run the full pipeline on one instance and collect every verdict.

    Requires a translation-invariant equation in s >= 5 variables.  The
    ambient is padded to a perfect square, the dense model is built at
    radius eps, the majorant nu = f + sqrt(N) 1_S is formed, and the model
    and set counts are computed by exact convolution on identical weights;
    when B = {0}, f = sqrt(N) 1_S and the one set count gives both.
    The majorant bounds sum nu <= 4N and E(nu) <= 64 N^3 are exact checks;
    the telescoped difference is compared against
    s * N^(s-2) * fourier_distance and printed beside eps * N^(s-1); when
    one of these floats is not finite the report is refused before the
    counts.
    """
    eps = rational(eps)
    if eq.s < 5:
        raise ValidationError(f"transference needs s >= 5, got {eq.s}")
    if fourier_c < 0:
        raise ValidationError(f"fourier_c must be nonnegative, got {fourier_c}")
    if not eq.translation_invariant:
        raise ValidationError(
            f"equation must be translation invariant, coefficients sum to "
            f"{sum(eq.coeffs)}"
        )
    model = dense_model(s_set, eps, m)
    padded = model.padded
    n = padded.ambient_n

    # the measured floats first: an overflow is refused before the counts
    fdist = model.fourier_distance
    c_s = eq.s * fdist / (float(eps) * n) if fdist > 0 else 0.0
    try:
        comparison = eq.s * float(n) ** (eq.s - 2) * fdist
        eps_n_power = float(eps) * float(n) ** (eq.s - 1)
    except OverflowError:
        comparison = eps_n_power = inf
    if not all(map(isfinite, (fdist, c_s, comparison, eps_n_power))):
        raise ValidationError(
            f"the report's measured floats are not finite at s = {eq.s}, N = {n}")

    # count the integer g and g + |B| 1_S, then scale: sqrt(N) in the counted
    # numerators would only widen the convolutions
    scale = model.scale
    nu_base = model.majorant_base
    nu_mass = nu_base.mass() * scale
    nu_energy = nu_base.energy * scale**4
    mass_ok = nu_mass <= NU_MASS_FACTOR * n
    energy_ok = nu_energy <= NU_ENERGY_FACTOR * Fraction(n) ** 3

    # when B = {0}, g is 1_S and scale is sqrt(N): one count gives both
    fns = [model.base]
    if not model.bohr.trivial:
        fns.append(ScaledFunction.from_set(padded))
    values = [count_solutions(eq, [f] * eq.s).value for f in fns]
    model_count = values[0] * scale**eq.s
    set_count_raw = int(values[-1])
    set_count = Fraction(model.sqrt_n) ** eq.s * set_count_raw
    difference = model_count - set_count

    return TransferenceReport(
        n_original=s_set.ambient_n,
        eq=eq,
        model=model,
        nu_mass=nu_mass,
        nu_energy=nu_energy,
        nu_mass_bound_holds=mass_ok,
        nu_energy_bound_holds=energy_ok,
        model_count=model_count,
        set_count_raw=set_count_raw,
        set_count=set_count,
        difference=difference,
        counting_comparison=comparison,
        c_s=c_s,
        eps_n_power=eps_n_power,
        fourier_c=fourier_c,
        repeated_difference=verify_repeated_difference_bound(padded),
        size_bound=verify_size_bound(padded),
        model_l2=verify_model_l2(model),
        level_set=_level_set(model.model_f, padded.density),
    )
