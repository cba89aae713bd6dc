"""The failure witnesses of every verify suite, pinned exactly.

Each case forges the routine a suite compares against so that every second
call disagrees, runs the suite at seed 0 with 3 trials (the dense-model
suite runs its fixed grid), and compares the whole summary: the witness
strings, the trial numbering and the pass count.
"""

from dataclasses import replace
from itertools import count

import pytest

import sidonlab.suites as suites_module


def _every_second(real, field, wrong):
    calls = count()

    def forged(*args, **kwargs):
        result = real(*args, **kwargs)
        if next(calls) % 2:
            return replace(result, **{field: wrong(getattr(result, field))})
        return result

    return forged


def _plus_one(value):
    return value + 1


def _false(_):
    return False


WITNESSES = [
    ("suite_oracle_equivalence", "brute_force_count", "value", _plus_one, {
        "name": "oracle_equivalence", "trials": 3, "passes": 2, "ok": False,
        "failures": ["trial 1: eq (2, -3, 1, 1) fast 0 != brute 1"],
    }),
    ("suite_distinct_equivalence", "brute_force_count", "value", _plus_one, {
        "name": "distinct_equivalence", "trials": 3, "passes": 2, "ok": False,
        "failures": ["trial 1: eq (3, -2, 2, 3) S (2, 3, 4, 7, 9, 11) "
                     "IE 0 != brute 1"],
    }),
    ("suite_energy_three_ways", "brute_force_count", "value", _plus_one, {
        "name": "energy_three_ways", "trials": 3, "passes": 2, "ok": False,
        "failures": ["trial 1: S (2, 3, 10, 18) profile 32 brute 33 fourier 32"],
    }),
    ("suite_lemma_inequalities", "verify_size_bound", "holds", _false, {
        "name": "lemma_inequalities", "trials": 3, "passes": 2, "ok": False,
        "failures": ["trial 2: S (1, 16, 33, 45, 59, 74, 75, 86) "
                     "repeated-difference 20<=20:True size 52<=392:False"],
    }),
    ("suite_counting_bound", "verify_counting_bound", "holds", _false, {
        "name": "counting_bound", "trials": 3, "passes": 2, "ok": False,
        "failures": ["trial 1: eq (2, -2, 3, -1, 3) lhs 34375 rhs 2.93895e+07 "
                     "premises True,True"],
    }),
    ("suite_dense_model", "verify_model_l2", "holds", _false, {
        "name": "dense_model", "trials": 4, "passes": 2, "ok": False,
        "failures": ["p=11 eps=1/10: failed ['model_l2']",
                     "p=13 eps=1/10: failed ['model_l2']"],
    }),
]


@pytest.mark.parametrize("suite, routine, field, wrong, summary", WITNESSES,
                         ids=[case[0] for case in WITNESSES])
def test_failure_witnesses(monkeypatch, suite, routine, field, wrong, summary):
    real = getattr(suites_module, routine)
    monkeypatch.setattr(suites_module, routine, _every_second(real, field, wrong))
    run = getattr(suites_module, suite)
    res = run() if suite == "suite_dense_model" else run(0, 3)
    assert res.summary() == summary
