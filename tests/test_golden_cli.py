"""Golden CLI outputs: every subcommand's stdout on one fixed configuration.

Each case runs `sidonlab.cli.main` in process from inside `tests/golden/`
(so the set paths echoed in each document's config are the bare file
names) and compares stdout byte for byte with `tests/golden/<case>.out`.
Timing columns of `bench` are cut before the comparison.  The same run
records the `convolve._plan` of every product, which must equal the case's
section of `tests/golden/plans.txt` (one plan repr a line under `# <case>`),
so a change of route or limb split shows in review.

After an intended change of output or of a route, rewrite the files with
`PYTHONPATH=src python tests/test_golden_cli.py` and review the diff.
"""

import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import sidonlab.convolve as engine
import sidonlab.suites as suites_module
from sidonlab.cli import main
from sidonlab.counting import EquationCoeffs, ScaledFunction, brute_force_count
from sidonlab.sets import read_set_file

GOLDEN = Path(__file__).resolve().parent / "golden"
PLANS = GOLDEN / "plans.txt"

CASES = {
    "construct_erdos_turan": ["construct", "erdos-turan", "--p", "7"],
    "construct_perturb": ["construct", "perturb", "--in", "et11.txt",
                          "--extra", "4", "--seed", "7"],
    # 100 picks in an ambient of 2^23 points around a 3-point set
    "construct_perturb_wide": ["construct", "perturb", "--in", "wide3.txt",
                               "--extra", "100", "--seed", "7"],
    "energy": ["energy", "--set", "et11.txt"],
    "spectrum": ["spectrum", "--set", "et11.txt", "--eps", "1/2"],
    # a grid that is not a power of two
    "spectrum_m1000": ["spectrum", "--set", "et11.txt", "--eps", "1/2",
                       "--m", "1000"],
    "bohr": ["bohr", "--freq", "1/7", "--freq", "2/9", "--eps", "1/5",
             "--n", "60"],
    # mixed denominators: the frequencies share the grid lcm(6, 10, 15, 1)
    "bohr_lcm": ["bohr", "--freq", "1/6", "--freq", "3/10", "--freq", "2/15",
                 "--freq", "0/1", "--eps", "1/5", "--n", "200"],
    "model": ["model", "--set", "evens.txt", "--eps", "1/4"],
    # B = {0}: the model is sqrt(N) 1_S itself
    "model_et11": ["model", "--set", "et11.txt", "--eps", "1/5"],
    "verify_all": ["verify", "all", "--seed", "3", "--trials", "4"],
    # the benchmark's verify passes: 25 trials per suite at three seeds
    "verify_all_s0_t25": ["verify", "all", "--seed", "0", "--trials", "25"],
    "verify_all_s3_t25": ["verify", "all", "--seed", "3", "--trials", "25"],
    "verify_all_s7_t25": ["verify", "all", "--seed", "7", "--trials", "25"],
    "report_et11": ["report", "--set", "et11.txt", "--coeffs", "1,1,1,1,-4",
                    "--eps", "1/5"],
    "report_evens": ["report", "--set", "evens.txt", "--coeffs",
                     "1,1,1,-1,-2", "--eps", "1/4"],
    # 2*ET(7) in [1, 196]: |B| = 7 and both majorant premises hold
    "report_et7x2": ["report", "--set", "et7x2.txt", "--coeffs", "1,1,1,1,-4",
                     "--eps", "11/24"],
    # the paper's s > 5 regime on the same smoothing set
    "report_et7x2_s6": ["report", "--set", "et7x2.txt", "--coeffs",
                        "1,1,1,1,1,-5", "--eps", "11/24"],
    "report_et7x2_s7": ["report", "--set", "et7x2.txt", "--coeffs",
                        "1,1,1,1,1,1,-6", "--eps", "11/24"],
    # s = 7 where B = {0}: the model count is the set count
    "report_et11_s7": ["report", "--set", "et11.txt", "--coeffs",
                       "1,1,1,1,1,1,-6", "--eps", "1/5"],
    # ET(17) joined with the odd / even numbers of [1, 578], the benchmark's
    # AP sets: the largest smoothing, |B| = 79 and 75
    "report_et17_odd": ["report", "--set", "et17_odd.txt", "--coeffs",
                        "1,1,1,1,-4", "--eps", "1/5"],
    "report_et17_even": ["report", "--set", "et17_even.txt", "--coeffs",
                         "1,1,1,1,-4", "--eps", "1/5"],
    # the smoothing frontier: ET(151), ET(173) and ET(211) with R = 15, 19
    # and 9; their reports take the pair and multi-limb FFT routes
    **{f"{kind}_et{p}": [kind, "--set", f"et{p}.txt", "--eps", "1/5", *extra]
       for p in (151, 173, 211)
       for kind, extra in (("model", []),
                           ("report", ["--coeffs", "1,1,1,1,-4"]))},
    "count": ["count", "--coeffs", "1,1,1,1,-4", "--sets", "et11.txt"],
    "count_interval_oracle": ["count", "--coeffs", "1,2,-3", "--interval",
                              "30", "--oracle"],
    "count_distinct_oracle": ["count", "--coeffs", "1,1,1,-1,-1,-1", "--sets",
                              "et11.txt", "--distinct", "--oracle"],
    "bench": ["bench", "--sizes", "8,16,32", "--coeffs", "1,1,-2"],
}


def _cut_timings(text: str) -> str:
    """Keep comment lines and the first (size) column of the bench table."""
    return "".join(line if line.startswith("#") else line.split("\t")[0] + "\n"
                   for line in text.splitlines(keepends=True))


def run_case(name: str) -> tuple[int, str, list[str]]:
    """(exit code, stdout, the repr of every product's plan) of one case, run
    from the golden directory."""
    out, plans = StringIO(), []
    real = engine._plan

    def recorded(*args):
        plans.append(real(*args))
        return plans[-1]

    cwd = os.getcwd()
    os.chdir(GOLDEN)
    engine._plan = recorded
    try:
        with redirect_stdout(out):
            code = main(CASES[name])
    finally:
        engine._plan = real
        os.chdir(cwd)
    text = out.getvalue()
    return code, _cut_timings(text) if name == "bench" else text, list(map(repr, plans))


def golden_plans() -> dict[str, list[str]]:
    """The sections of plans.txt by case."""
    sections = {}
    for line in PLANS.read_text().splitlines():
        if line.startswith("# "):
            plans = sections[line[2:]] = []
        else:
            plans.append(line)
    return sections


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, text, plans = run_case(name)
    assert code == 0
    assert text == (GOLDEN / f"{name}.out").read_text()
    assert plans == golden_plans()[name]


@pytest.mark.parametrize("name, raw", [("report_et7x2_s6", 277),
                                       ("report_et7x2_s7", 2227),
                                       ("report_et11_s7", 12416)])
def test_set_count_is_the_oracle(name, raw):
    # the golden's raw set count, recounted by direct enumeration on the
    # set file the golden names
    doc = json.loads((GOLDEN / f"{name}.out").read_text())
    padded = read_set_file(GOLDEN / doc["config"]["set"]).padded_to_square()
    eq = EquationCoeffs(tuple(doc["params"]["coeffs"]))
    oracle = brute_force_count(eq, [ScaledFunction.from_set(padded)] * eq.s)
    assert doc["counts"]["set_count_raw"] == oracle.value == raw
    assert doc["params"]["n_padded"] == padded.ambient_n


def counting_bound_verdicts() -> str:
    """The repr of every verdict of suite_counting_bound at seeds 0-2 with 25
    trials, one a line: `verify` prints only pass or fail, so this pins the
    floats (min_sup, rhs, slack_ratio) that decide each verdict."""
    seen = []
    real = suites_module.verify_counting_bound

    def recorded(*args):
        seen.append(real(*args))
        return seen[-1]

    suites_module.verify_counting_bound = recorded
    try:
        for seed in range(3):
            suites_module.suite_counting_bound(seed, 25)
    finally:
        suites_module.verify_counting_bound = real
    return "".join(f"{v!r}\n" for v in seen)


def test_counting_bound_verdicts():
    text = counting_bound_verdicts()
    assert text.count("\n") == 75
    assert text == (GOLDEN / "counting_bound_verdicts.txt").read_text()


if __name__ == "__main__":
    sections = []
    for case in sorted(CASES):
        rc, stdout, case_plans = run_case(case)
        if rc != 0:
            sys.exit(f"{case}: exit {rc}")
        (GOLDEN / f"{case}.out").write_text(stdout)
        sections.append("".join(f"{line}\n" for line in [f"# {case}", *case_plans]))
    PLANS.write_text("".join(sections))
    (GOLDEN / "counting_bound_verdicts.txt").write_text(counting_bound_verdicts())
