"""Counting solutions of a1 x1 + ... + as xs = 0, exactly.

The engine groups the variables by coefficient.  With at most two groups it
convolves each group's functions undilated (a repeated function by repeated
squaring) and reads the count as one strided dot; otherwise it dilates each
weight function to the lattice a_i * x_i and convolves.  Every product takes
one of four exact routes: support pairs, numpy's int64 convolution, a float
FFT under a certified error bound, or Kronecker substitution (pack each
sequence into one big integer, multiply once, unpack).  An independent
brute-force enumerator cross checks everything.
"""

import time
from fractions import Fraction

from sidonlab import (
    EquationCoeffs,
    IntegerSet,
    ScaledFunction,
    brute_force_count,
    count_distinct_solutions,
    count_solutions,
    erdos_turan,
)

# ---------------------------------------------------------------------------
# Three-term progressions x + y = 2z inside [1, N]: the count is exactly
# the coefficient of 0 in the triple convolution.

eq = EquationCoeffs((1, 1, -2))
for n in (5, 50, 500):
    f = ScaledFunction.from_interval(1, n, n)
    c = count_solutions(eq, [f] * 3)
    print(f"N = {n:4d}: progressions (with repeats) = {c.value}")

# ---------------------------------------------------------------------------
# In a Sidon set, every solution of a translation-invariant equation in few
# variables is forced to repeat a variable.  Distinct-variable counting
# (free one variable at a time, subtract its merges) exposes that.

s = erdos_turan(7)
total = count_solutions(eq, [ScaledFunction.from_set(s)] * 3)
distinct = count_distinct_solutions(eq, s)
print(f"\nSidon set, |S| = 7: total = {total.value}, "
      f"all-distinct = {distinct.value}")

ap = IntegerSet(tuple(range(1, 8)), 7)
print(f"progression, |S| = 7: total = "
      f"{count_solutions(eq, [ScaledFunction.from_set(ap)]*3).value}, "
      f"all-distinct = {count_distinct_solutions(eq, ap).value}")

# ---------------------------------------------------------------------------
# Rational weights stay exact end to end: they are stored as integer
# numerators over one common denominator.  A sqrt(N) factor, as in the dense
# model, is just one more integer factor once N is a perfect square.

w = ScaledFunction.from_weights(1, (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)),
                                3)
c = count_solutions(EquationCoeffs((1, -1)), [w, w])
print(f"\nweights {tuple(w.nums.tolist())} / {w.den}: "
      f"weighted diagonal count = {c.value} (exact rational)")

# ---------------------------------------------------------------------------
# The brute-force oracle enumerates tuples directly, never convolving.
# It is the ground truth the fast path is tested against.

eq5 = EquationCoeffs((1, 1, 1, 1, -4))
fns = [ScaledFunction.from_interval(1, 30, 30)] * 5
t0 = time.perf_counter()
fast = count_solutions(eq5, fns)
t_fast = time.perf_counter() - t0
t0 = time.perf_counter()
slow = brute_force_count(eq5, fns)
t_slow = time.perf_counter() - t0
print(f"\ns = 5, N = 30: engine {fast.value} in {t_fast*1e3:.2f} ms, "
      f"oracle {slow.value} in {t_slow*1e3:.2f} ms, "
      f"equal = {fast.value == slow.value}")

# ---------------------------------------------------------------------------
# Weights near 2^70 push every product past int64, so the same count goes
# through Kronecker substitution; it scales by exactly (2^70)^5.

big = [f.scaled_by(2**70) for f in fns]
via_kronecker = count_solutions(eq5, big)
print(f"Kronecker route agrees: {via_kronecker.value == fast.value * 2**350}")
