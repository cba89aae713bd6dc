"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every numeric check is exact (integer or rational) except where a
float tolerance is stated explicitly; time budgets are asserted at the
stated limits.
"""

import time

import numpy as np
import pytest
from fractions import Fraction

from sidonlab.counting import (
    EquationCoeffs,
    ScaledFunction,
    brute_force_count,
    count_distinct_solutions,
    count_solutions,
    degenerate_bound_check,
)
from sidonlab.sets import (
    IntegerSet,
    erdos_turan,
    mian_chowla,
    representation_profile,
)
from sidonlab.spectral import energy_via_fourier, large_sieve_diagnostic
from sidonlab.suites import (
    suite_counting_bound,
    suite_dense_model,
    suite_distinct_equivalence,
    suite_energy_three_ways,
    suite_lemma_inequalities,
    suite_oracle_equivalence,
)
from sidonlab.transference import dense_model, transference_report, verify_model_l2

_SUITE_T0 = time.perf_counter()


def report(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {detail} ({elapsed:.2f}s)")


def test_criterion_01_sidon_certification():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13, 17):
        s = erdos_turan(p)
        ok &= representation_profile(s).energy == 2 * p * p - p
    for k in range(1, 31):
        s = mian_chowla(k)
        ok &= representation_profile(s).energy == 2 * k * k - k
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0, "Sidon certification, exact energies", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_counting_oracle_equivalence():
    t0 = time.perf_counter()
    res = suite_oracle_equivalence(seed=2024, trials=200)
    elapsed = time.perf_counter() - t0
    ok = res.ok and res.trials == 200 and elapsed < 60.0
    report(2, ok, f"oracle equivalence {res.passes}/{res.trials}", elapsed)
    assert res.failures == []
    assert elapsed < 60.0


def test_criterion_03_distinct_equivalence():
    t0 = time.perf_counter()
    witness = count_distinct_solutions(
        EquationCoeffs((1, 1, -2)), IntegerSet((1, 2, 3), 3)
    )
    res = suite_distinct_equivalence(seed=2025, trials=100)
    elapsed = time.perf_counter() - t0
    ok = witness.value == 2 and res.ok and res.trials == 100
    report(3, ok, f"distinct equivalence {res.passes}/{res.trials}, "
                  f"witness = {witness.value}", elapsed)
    assert witness.value == 2
    assert res.failures == []


def test_criterion_04_energy_three_ways():
    t0 = time.perf_counter()
    res = suite_energy_three_ways(seed=2026, trials=50)
    elapsed = time.perf_counter() - t0
    report(4, res.ok, f"energy three ways {res.passes}/{res.trials}", elapsed)
    assert res.failures == []


def test_criterion_05_lemma_inequalities():
    t0 = time.perf_counter()
    res = suite_lemma_inequalities(seed=2027, trials=100)
    elapsed = time.perf_counter() - t0
    ok = res.ok and res.trials == 100
    report(5, ok, f"repeated-difference and size bounds "
                  f"{res.passes}/{res.trials}", elapsed)
    assert res.trials == 100
    assert res.failures == []


def test_criterion_06_counting_bound_suite():
    t0 = time.perf_counter()
    res = suite_counting_bound(seed=2028, trials=50)
    elapsed = time.perf_counter() - t0
    ok = res.ok and elapsed < 120.0
    report(6, ok, f"counting bound {res.passes}/{res.trials}", elapsed)
    assert res.failures == []
    assert elapsed < 120.0


def _dense_models():
    out = []
    for p in (11, 13):
        for eps in (Fraction(1, 5), Fraction(1, 10)):
            out.append((p, eps, dense_model(erdos_turan(p), eps)))
    return out


def test_criterion_07_dense_model():
    t0 = time.perf_counter()
    ok = True
    details = []
    for p, eps, model in _dense_models():
        mass_ok = model.mass_identity_holds
        l2 = verify_model_l2(model)
        fdist_ok = model.fourier_distance <= 16 * float(eps) * model.n_padded
        size_ok = model.size_bound.holds
        ok &= mass_ok and l2.holds and fdist_ok and size_ok
        details.append(f"p={p} eps={eps}: |B|={model.bohr.size} "
                       f"R={model.spectrum.r_count}")
    elapsed = time.perf_counter() - t0
    report(7, ok, "dense model checks; " + "; ".join(details), elapsed)
    assert ok


def test_criterion_08_large_sieve():
    t0 = time.perf_counter()
    ok = True
    for p, eps, model in _dense_models():
        padded = model.padded
        sieve = large_sieve_diagnostic(padded, model.spectrum)
        ok &= sieve.lhs <= sieve.rhs * (1 + 1e-9)
    elapsed = time.perf_counter() - t0
    report(8, ok, "large sieve on every separated spectrum", elapsed)
    assert ok


def test_criterion_09_end_to_end_transference():
    t0 = time.perf_counter()
    eq = EquationCoeffs((1, 1, 1, 1, -4))
    rep = transference_report(erdos_turan(13), eq, Fraction(1, 5))
    assert rep.model.n_padded == 361
    f = rep.model.model_f
    fast = count_solutions(eq, [f] * 5)
    oracle = brute_force_count(eq, [f] * 5)
    counts_equal = fast.value == oracle.value and rep.model_count == fast.value
    verdicts = rep.theorem_verdicts_hold
    elapsed = time.perf_counter() - t0
    ok = counts_equal and verdicts
    report(9, ok,
           f"end-to-end report: telescoped difference = {rep.difference}, "
           f"eps N^(s-1) = {rep.eps_n_power:.6g}", elapsed)
    assert counts_equal
    assert verdicts


def test_criterion_10_degenerate_bound():
    t0 = time.perf_counter()
    rep = degenerate_bound_check(EquationCoeffs((1, 1, 1, 1, -4)), erdos_turan(5))
    ok = rep.bound_holds and rep.max_shift_count**4 <= rep.energy**3
    elapsed = time.perf_counter() - t0
    report(10, ok, f"degenerate shifts: max count {rep.max_shift_count}, "
                   f"E(S) = {rep.energy}", elapsed)
    assert ok


def test_whole_suite_under_five_minutes():
    total = time.perf_counter() - _SUITE_T0
    print(f"ACCEPTANCE TOTAL {total:.2f}s (< 300s required)")
    assert total < 300.0


def test_criterion_04_spot_checks():
    # three independent routes on fixed anchor sets
    for elems, n in (((1, 2), 2), ((1, 2, 4), 4), ((1, 2, 3), 3)):
        s = IntegerSet(elems, n)
        e1 = representation_profile(s).energy
        e2 = int(brute_force_count(EquationCoeffs((1, -1, -1, 1)),
                                   [ScaledFunction.from_set(s)] * 4).value)
        e3 = energy_via_fourier(s)
        assert e1 == e2 == e3
