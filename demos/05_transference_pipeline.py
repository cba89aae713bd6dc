"""The full pipeline: model a sparse set, count in the model, compare.

The run pads the ambient to a perfect square (so sqrt(N) is an integer and
every count is an exact rational), builds the dense model, forms the
majorant nu = f + sqrt(N) 1_S, checks its mass and energy ceilings exactly,
counts solutions under the model weights and under the raw set on identical
convolutions, and certifies every theorem-backed inequality along the way.
"""

from fractions import Fraction

from sidonlab import (
    EquationCoeffs,
    IntegerSet,
    ScaledFunction,
    brute_force_count,
    count_solutions,
    erdos_turan,
    transference_report,
)

eq = EquationCoeffs((1, 1, 1, 1, -4))

# ---------------------------------------------------------------------------
# A dense Sidon set.  The model degenerates (B = {0}), so the model count
# and the scaled set count agree exactly and the telescoped difference is
# zero: transference is lossless here.

rep = transference_report(erdos_turan(13), eq, Fraction(1, 5))
model = rep.model
print(f"Sidon p = 13, eq {eq.coeffs}, eps = {model.spectrum.threshold}")
print(f"  N {rep.n_original} -> {model.n_padded} (sqrt = {model.sqrt_n}), "
      f"delta = {model.padded.density}, eta = {model.padded.eta}")
print(f"  majorant: sum nu = {rep.nu_mass} <= 4N: {rep.nu_mass_bound_holds}; "
      f"E(nu) = {rep.nu_energy} <= 64N^3: {rep.nu_energy_bound_holds}")
print(f"  model count = {rep.model_count}")
print(f"  set count   = {rep.set_count}  (raw solutions: {rep.set_count_raw})")
print(f"  telescoped difference = {rep.difference}, "
      f"vs eps N^(s-1) = {rep.eps_n_power:.4g}")
print(f"  theorem verdicts all hold: {rep.theorem_verdicts_hold}")

# the oracle sees the model f itself, sqrt(N) included, and must agree to
# the last digit with the engine and with the report's count
f = rep.model.model_f
assert brute_force_count(eq, [f] * 5).value == count_solutions(eq, [f] * 5).value \
    == rep.model_count
print("  oracle on the model f: equals the model count, exactly")

# ---------------------------------------------------------------------------
# A Sidon set living inside the even numbers: dilating by 2 keeps eta = 0
# but plants a spectral spike at 1/2, so at a generous radius the Bohr set
# is nontrivial and the model genuinely smooths.  The majorant premises
# still hold, and the telescoped difference sits below both the reported
# counting bound and eps N^(s-1).

dilated = IntegerSet(tuple(2 * x for x in erdos_turan(13).elements), 676)
rep = transference_report(dilated, eq, Fraction(11, 24))
print(f"\ndilated Sidon p = 13 (all even), eps = {rep.model.spectrum.threshold}: "
      f"|B| = {rep.model.bohr.size}, eta = {rep.model.padded.eta}")
print(f"  majorant premises hold: mass {rep.nu_mass_bound_holds}, "
      f"energy {rep.nu_energy_bound_holds}")
print(f"  model count = {float(rep.model_count):.6g}, "
      f"set count = {float(rep.set_count):.6g}")
print(f"  difference = {float(rep.difference):.6g} <= "
      f"s N^(s-2) fdist = {rep.counting_comparison:.6g}; "
      f"eps N^(s-1) = {rep.eps_n_power:.6g}")
print(f"  measured constant c_s = {rep.c_s:.3f}")
print(f"  theorem verdicts all hold: {rep.theorem_verdicts_hold}")

# ---------------------------------------------------------------------------
# For contrast, a dense structured set far outside the almost-Sidon regime:
# the evens have eta >> 1, the majorant premises fail (and the report says
# so), and the difference is large.  The exact verdicts still hold; the
# regime flags are what separate a meaningful run from a vacuous one.

evens = IntegerSet(tuple(range(2, 65, 2)), 64)
rep = transference_report(evens, eq, Fraction(1, 4))
print(f"\nevens in [1,64], eps = {rep.model.spectrum.threshold}: |B| = {rep.model.bohr.size}, "
      f"eta = {float(rep.model.padded.eta):.1f}")
print(f"  majorant premises: mass {rep.nu_mass_bound_holds}, "
      f"energy {rep.nu_energy_bound_holds}  (outside the regime)")
print(f"  difference = {float(rep.difference):.6g} vs "
      f"eps N^(s-1) = {rep.eps_n_power:.6g}")
print(f"  theorem verdicts all hold: {rep.theorem_verdicts_hold}")
