"""Fourier magnitudes on a rational grid, large spectra, and the sieve test.

A Sidon set is spectrally flat: no frequency carries much more mass than
the square-root average, so its large spectrum at a modest threshold is
enormous and scattered.  Structured sets concentrate their spectrum on a
few frequencies.  The large sieve inequality caps the fourth-moment mass
that any (1/N)-separated family of frequencies can carry.
"""

from fractions import Fraction

from sidonlab import (
    IntegerSet,
    ScaledFunction,
    dft_magnitudes,
    energy_via_fourier,
    erdos_turan,
    large_sieve_diagnostic,
    large_spectrum,
    representation_profile,
)

# ---------------------------------------------------------------------------
# Grid magnitudes: the full interval concentrates everything at 0, the
# evens put half their mass at frequency 1/2.

n = 16
full = IntegerSet(tuple(range(1, n + 1)), n)
evens = IntegerSet(tuple(range(2, n + 1, 2)), n)
m = 8 * n
mags_full = dft_magnitudes(ScaledFunction.from_set(full), m)
mags_even = dft_magnitudes(ScaledFunction.from_set(evens), m)
print(f"interval [1,16]: |hat| at 0 = {mags_full[0]:.1f}, "
      f"at 1/2 = {mags_full[m//2]:.2e}")
print(f"evens in [1,16]: |hat| at 0 = {mags_even[0]:.1f}, "
      f"at 1/2 = {mags_even[m//2]:.1f}")

# ---------------------------------------------------------------------------
# Large spectra at threshold eps |S|, with the greedy maximal
# (1/N)-separated subsequence.  A frequency is a grid index k, standing
# for k/m on the grid of size m.

for label, s_set, eps in (("interval", full, Fraction(1, 2)),
                          ("evens   ", evens, Fraction(3, 4)),
                          ("Sidon 11", erdos_turan(11), Fraction(1, 5))):
    spec = large_spectrum(s_set, eps)
    head = ", ".join(f"{k}/{spec.grid_m}" for k in spec.separated[:3])
    print(f"{label}: eps = {eps}, grid = {spec.grid_m}, "
          f"|Spec| = {len(spec.entries)}, separated R = {spec.r_count}, "
          f"first k/m: {head}")

# ---------------------------------------------------------------------------
# The grid sup norm is a certified lower bound on the true sup; doubling
# the oversampling can only help, and 8x (sup_norm_estimate's grid) is
# already within ~8 percent.

s = erdos_turan(7)
balanced = ScaledFunction.from_set(s) + \
    ScaledFunction.from_interval(1, s.ambient_n, s.ambient_n).scaled_by(
        Fraction(-s.size, s.ambient_n))
width = len(balanced.nums)
for rho in (8, 16, 64):
    mags = dft_magnitudes(balanced, rho * width)
    k = int(mags.argmax())
    print(f"oversample {rho:2d}: sup |balanced hat| >= {mags[k]:.6f} "
          f"at alpha = {Fraction(k, rho * width)}")

# ---------------------------------------------------------------------------
# Energy through the spectrum: the autocorrelation route must reproduce the
# profile count exactly, and the sieve bound caps the separated mass.

s = erdos_turan(11)
print(f"\nE(S) by profile = {representation_profile(s).energy}, "
      f"by autocorrelation = {energy_via_fourier(s)}")
spec = large_spectrum(s, Fraction(1, 5))
sieve = large_sieve_diagnostic(s, spec)
print(f"sieve: sum of 4th powers over R = {sieve.r_count} separated "
      f"frequencies = {sieve.lhs:.1f} <= 2 N E(S) = {sieve.rhs}: {sieve.holds}")
