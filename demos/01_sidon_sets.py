"""Constructing Sidon sets and measuring how far a set is from Sidon.

A Sidon set has all pairwise differences distinct.  The additive energy
E(S) counts quadruples with x - x' = y - y'; a set is Sidon exactly when
E(S) equals the trivial count 2|S|^2 - |S|, and the excess is captured by
the exact rational eta with E(S) = (2 + eta)|S|^2.
"""

from fractions import Fraction

from sidonlab import (
    IntegerSet,
    erdos_turan,
    is_sidon,
    mian_chowla,
    perturb_almost_sidon,
    representation_profile,
)
from sidonlab.sets import difference_counts

# ---------------------------------------------------------------------------
# The quadratic-residue construction: p points inside [1, 2p^2], so the
# density |S| / sqrt(N) is 1/sqrt(2) ~ 0.707 no matter how large p gets.

for p in (5, 11, 23):
    s = erdos_turan(p)
    prof = representation_profile(s)
    print(f"p = {p:3d}: |S| = {s.size}, N = {s.ambient_n}, "
          f"E(S) = {prof.energy} = 2|S|^2 - |S|? {is_sidon(s)}, "
          f"delta = {s.density} ~ {float(s.density):.4f}")

# ---------------------------------------------------------------------------
# The greedy sequence grows much more slowly (its k-th term is around k^3),
# but every prefix is Sidon.

s = mian_chowla(10)
print(f"\ngreedy prefix: {s.elements}")
print(f"is_sidon = {is_sidon(s)}")

# ---------------------------------------------------------------------------
# Sprinkling random extra points on top of a Sidon set usually creates
# repeated differences.  eta measures the damage, exactly.

base = erdos_turan(11)
print(f"\nbase eta = {base.eta}")
for extra in (1, 3, 6, 10):
    noisy = perturb_almost_sidon(base, extra, seed=42)
    eta = noisy.eta
    print(f"extra = {extra:2d}: |S| = {noisy.size}, eta = {eta} "
          f"~ {float(eta):.4f}")

# ---------------------------------------------------------------------------
# The representation profile itself: differences of the progression
# {1, 2, 3} pile up, which is what pushes its energy to 19 > 15.

ap = IntegerSet((1, 2, 3), 3)
diffs, counts = difference_counts(ap.elements)
print(f"\nr_S of {ap.elements}: {dict(zip(diffs.tolist(), counts.tolist()))}")
prof = representation_profile(ap)
print(f"E(S) = {prof.energy}, eta |S|^2 = {prof.excess}, repeated nonzero "
      f"differences carry mass {prof.repeated_difference_sum}")
