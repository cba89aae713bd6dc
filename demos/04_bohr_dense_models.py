"""Bohr sets and the dense model f = sqrt(N) 1_S convolved with mu_B.

A Bohr set collects integers that nearly annihilate a list of frequencies.
Convolving a sparse set's indicator with the normalized Bohr indicator
smooths it into a function with dense-set statistics while barely moving
its Fourier transform.  For spectrally flat Sidon sets the Bohr set of the
(huge) large spectrum collapses to {0} at desk scale and the model is the
scaled indicator itself, exactly; structured sets give genuine smoothing.
"""

from fractions import Fraction
from math import isqrt

from sidonlab import (
    IntegerSet,
    bohr_set,
    dense_model,
    erdos_turan,
    verify_model_l2,
)

# ---------------------------------------------------------------------------
# Bohr sets from explicit frequencies k/m on one grid m: each rational
# constraint carves out a subgroup-like pattern inside the window.

for ks, m, eps, n in (((), 1, Fraction(1, 10), 100),
                      ((1,), 2, Fraction(1, 10), 100),
                      ((1,), 3, Fraction(1, 4), 60),
                      ((4, 3), 12, Fraction(1, 8), 120)):
    b = bohr_set(ks, m, eps, n)
    shown = [str(Fraction(k, m)) for k in ks] or ["none"]
    print(f"freqs {','.join(shown):9s} eps = {eps}: width {b.width}, "
          f"|B| = {b.size}, elements {b.elements[:7]}...")

# ---------------------------------------------------------------------------
# Dense model of a Sidon set: the spectrum is so rich that B = {0} and the
# model is exact, with zero Fourier distance.

model = dense_model(erdos_turan(13), Fraction(1, 5))
d = model.diagnostics
print(f"\nSidon p = 13: padded N = {model.n_padded}, |B| = {model.bohr.size}, "
      f"R = {model.spectrum.r_count}")
print(f"mass = {d.mass} = |S||B|? {d.mass_identity_holds},  "
      f"fourier distance = {d.fourier_distance}")

# ---------------------------------------------------------------------------
# Dense model of a structured set: the evens have spectrum {0, 1/2} plus
# sidelobes, the Bohr set keeps even integers in the window, and the model
# genuinely smooths across the sumset S + B.

evens = IntegerSet(tuple(range(2, 65, 2)), 64)
model = dense_model(evens, Fraction(1, 4))
d = model.diagnostics
print(f"\nevens in [1,64]: |B| = {model.bohr.size}, "
      f"B = {model.bohr.elements}")
print(f"mass identity holds: {d.mass_identity_holds},  "
      f"sum f^2 = {d.l2_value} ~ {float(d.l2_value):.1f} vs N = {model.n_padded}")
print(f"fourier distance = {d.fourier_distance:.3f} "
      f"<= 16 eps N = {16 * 0.25 * model.n_padded}")

# the exact autocorrelation inequality behind the model's mean square
v = verify_model_l2(model)
print(f"autocorrelation bound: {v.lhs} <= {v.rhs}: {v.holds}")

# a slice of the smoothed model across the middle of the window: the values
# f(x) = sqrt(N) (1_S * mu_B)(x) carry sqrt(N) = 8, exactly
f = model.model_f
mid = [f"{float(f.weight_at(x)):.3f}" for x in range(30, 41)]
print(f"model values f(x) on [30, 40], sqrt(N) = {isqrt(model.n_padded)}: {mid}")
