"""A slow route for the exact counts and verdicts of `transference_report`.

It takes a set S, the large spectrum the library reports for it and the
radius eps, and recomputes every exact count and verdict of the report from
its definition, in Python ints and `Fraction`s, with no sidonlab code:

* the ambient N padded to the next perfect square c^2, and the exact density
  delta = min(1, |S| / c);
* B, by a per-point scan of [-width, width], width = floor(eps N), keeping
  n when min(nk mod m, m - nk mod m) q <= p m for every spectrum frequency
  k/m, with eps = p/q;
* g = 1_S * 1_B by a double loop over S and B;
* mass = sum g and square_sum = sum g^2 by direct sums;
* for nu = g + |B| 1_S, the mass sum nu and the energy E(nu) = sum over t
  of (sum of nu(a) nu(b) over a + b = t)^2, from a `Counter` of pair sums,
  both scaled by the powers of sqrt(N)/|B| that f = sqrt(N)/|B| g carries;
* the weighted solution counts of 1_S and g by meet in the middle: a
  `Counter` of the weighted sums a_1 x_1 + ... + a_h x_h over the first
  h = ceil(s/2) variables, one over the rest, joined at zero;
* the theorem verdicts from their formulas, with r_S and E(S) from a
  `Counter` of differences: the mass identity sum g = |S||B|; containment of
  the Bohr set of the separated frequencies at radius eps/2 in B; the size
  bound |B| ceil(4/eps)^(1+R) >= N; the repeated-difference bound; the
  cardinality bound (1 - eta)|S|^2 <= 4N; the model L2 bound; and the level
  set {f >= delta/2} of f = sqrt(N)/|B| g with its hypotheses.

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


def _bohr(ks, m: int, radius: Fraction, n: int) -> tuple[int, ...]:
    """The n' in [-floor(radius n), floor(radius n)] with ||n' k/m|| <= radius
    for every k in ks, one point at a time."""
    p, q = radius.numerator, radius.denominator
    width = p * n // q
    return tuple(x for x in range(-width, width + 1)
                 if all(min(x * k % m, m - x * k % m) * q <= p * m for k in ks))


def reference_report(elements, ambient_n: int, spectrum, eps: Fraction,
                     coeffs) -> dict:
    """The exact counts and verdicts of the report on the set `elements` of
    [1, ambient_n], with the Bohr set built on `spectrum` (its frequencies
    `entries` and `separated` on the grid `grid_m`) at radius eps, keyed by
    the names of the fields they are compared with.  A verdict is the tuple
    (lhs, rhs, holds, applicable)."""
    coeffs = tuple(coeffs)
    root = isqrt(ambient_n - 1) + 1  # ceil(sqrt(N))
    n = root * root
    k = len(elements)
    delta = min(Fraction(1), Fraction(k, root))
    m = spectrum.grid_m
    bohr = _bohr(spectrum.entries, m, eps, n)
    size = len(bohr)
    scale = Fraction(root, size)
    g = Counter()
    for x in elements:
        for b in bohr:
            g[x + b] += 1
    nu = Counter(g)
    for x in elements:
        nu[x] += size
    work = [0]
    set_count_raw = _solutions(dict.fromkeys(elements, 1), coeffs, work)
    model_count = _solutions(g, coeffs, work) * scale ** len(coeffs)
    set_count = Fraction(root) ** len(coeffs) * set_count_raw
    mass = sum(g.values())
    square_sum = sum(v * v for v in g.values())

    r = Counter(x - y for x in elements for y in elements)
    excess = max(0, sum(v * v for v in r.values()) - 2 * k * k)  # eta |S|^2
    repeated = sum(v for d, v in r.items() if d and v > 1)
    eta = Fraction(excess, k * k)
    if eta >= 1:
        cardinality = (0, 4 * n, True, False)
    else:
        lhs = (1 - eta) * k * k
        cardinality = (lhs, 4 * n, lhs <= 4 * n, True)
    ceil4 = -(-4 * eps.denominator // eps.numerator)
    size_lhs = size * ceil4 ** (1 + len(spectrum.separated))
    l2_rhs = size * size + (excess + 2 * k) * size

    level = tuple(sorted(x for x, v in g.items() if scale * v >= delta / 2))
    hyp_mass = scale * mass >= delta * n
    hyp_l2 = scale * scale * square_sum <= n
    level_lhs, level_rhs = 4 * len(level), delta * delta * n

    verdicts = {
        "mass_identity": mass == k * size,
        "containment": set(_bohr(spectrum.separated, m, eps / 2, n)) <= set(bohr),
        "bohr_size_bound": (size_lhs, n, size_lhs >= n, True),
        "repeated_difference": (repeated, excess + k, repeated <= excess + k, True),
        "size_bound": cardinality,
        "model_l2": (square_sum, l2_rhs, square_sum <= l2_rhs, True),
    }
    return {
        "n_padded": n,
        "density": delta,
        "bohr": bohr,
        "g": dict(g),
        "mass": mass,
        "square_sum": square_sum,
        "nu_mass": sum(nu.values()) * scale,
        "nu_energy": _energy(nu) * scale**4,
        "set_count_raw": set_count_raw,
        "set_count": set_count,
        "model_count": model_count,
        "difference": model_count - set_count,
        **verdicts,
        "level_set": (level, hyp_mass, hyp_l2, level_lhs, level_rhs,
                      level_lhs >= level_rhs if hyp_mass and hyp_l2 else None),
        "theorem_verdicts_hold": all(v if type(v) is bool else v[2]
                                     for v in verdicts.values()),
    }
