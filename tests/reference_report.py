"""A slow route for the exact counts of `transference_report`.

It takes the Bohr set B and the padded set S of a library dense model and
recomputes every exact count of the report from its definition, in Python
ints and `Fraction`s, with no code from `convolve`, `counting` or
`transference`:

* g = 1_S * 1_B by a double loop over S and B;
* mass = sum g and square_sum = sum g^2 by direct sums;
* for nu = g + |B| 1_S, the mass sum nu and the energy E(nu) = sum over t
  of (sum of nu(a) nu(b) over a + b = t)^2, from a `Counter` of pair sums,
  both scaled by the powers of sqrt(N)/|B| that f = sqrt(N)/|B| g carries;
* the weighted solution counts of 1_S and g by meet in the middle: a
  `Counter` of the weighted sums a_1 x_1 + ... + a_h x_h over the first
  h = ceil(s/2) variables, one over the rest, joined at zero.

Each half-sum `Counter` is built one variable at a time, and each step
visits every (partial sum, point) pair.  That work is refused past a budget
per report, as `brute_force_count` refuses past its tuple budget.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt

from sidonlab.errors import BudgetExceededError

HALF_SUM_BUDGET = 2_000_000


def _half_sums(weights: dict[int, int], coeffs, work: list[int]) -> Counter:
    """Total weight of the tuples per value of sum a_i x_i over coeffs."""
    sums = Counter({0: 1})
    for a in coeffs:
        work[0] += len(sums) * len(weights)
        if work[0] > HALF_SUM_BUDGET:
            raise BudgetExceededError(
                f"the half sums need more than {HALF_SUM_BUDGET} steps")
        step = Counter()
        for t, w in sums.items():
            for x, v in weights.items():
                step[t + a * x] += w * v
        sums = step
    return sums


def _solutions(weights: dict[int, int], coeffs, work: list[int]) -> int:
    """sum over a_1 x_1 + ... + a_s x_s = 0 of prod weights[x_i]."""
    h = (len(coeffs) + 1) // 2
    left = _half_sums(weights, coeffs[:h], work)
    right = _half_sums(weights, coeffs[h:], work)
    return sum(w * right[-t] for t, w in left.items() if -t in right)


def _energy(weights: dict[int, int]) -> int:
    pairs = Counter()
    for a, u in weights.items():
        for b, v in weights.items():
            pairs[a + b] += u * v
    return sum(r * r for r in pairs.values())


def reference_report(bohr_elements, padded, coeffs) -> dict:
    """The exact counts of the report on the padded set and its Bohr set,
    keyed by the names of the fields they are compared with."""
    coeffs = tuple(coeffs)
    size = len(bohr_elements)
    root = isqrt(padded.ambient_n)
    scale = Fraction(root, size)
    g = Counter()
    for x in padded.elements:
        for b in bohr_elements:
            g[x + b] += 1
    nu = Counter(g)
    for x in padded.elements:
        nu[x] += size
    work = [0]
    set_count_raw = _solutions(dict.fromkeys(padded.elements, 1), coeffs, work)
    model_count = _solutions(g, coeffs, work) * scale ** len(coeffs)
    set_count = Fraction(root) ** len(coeffs) * set_count_raw
    return {
        "g": dict(g),
        "mass": sum(g.values()),
        "square_sum": sum(v * v for v in g.values()),
        "nu_mass": sum(nu.values()) * scale,
        "nu_energy": _energy(nu) * scale**4,
        "set_count_raw": set_count_raw,
        "set_count": set_count,
        "model_count": model_count,
        "difference": model_count - set_count,
    }
