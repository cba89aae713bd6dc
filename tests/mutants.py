"""Mutation check: break the source one known way at a time, and confirm
that the tests meant to catch each break fail.

    python tests/mutants.py

Each mutant names a file, an exact fragment that must occur in it once, the
fragment's replacement, and the pytest node ids that should kill it.  The
script copies src/, tests/, demos/, benchmarks/ and pyproject.toml to a
temporary directory and applies each mutant there in turn.  It runs the
mutant's tests with `python -m pytest -x -q` from that directory, with
PYTHONPATH at the copy's src/: from the checkout, pyproject.toml's
pythonpath = ["src"] would import the unmutated tree.  Bytecode is not
written, so a mutant of the same size and mtime cannot run an earlier
compile.

Each mutant prints as killed (a test failed), survived (every test passed:
a gap in the tests, or an equivalent mutant to explain), or stale (its
fragment no longer occurs exactly once, or its node ids are gone: update
the list with the change that moved them).  The exit status is 1 unless
every mutant is killed.  This is not part of the tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "benchmarks", "pyproject.toml")
CONVOLVE = "src/sidonlab/convolve.py"
COUNTING = "src/sidonlab/counting.py"
SETS = "src/sidonlab/sets.py"
TRANSFERENCE = "src/sidonlab/transference.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    # the Percival budget in `_plan`: every limb pair's bound below 1/4
    Mutant("Percival budget 1/4 -> 1/2", CONVOLVE,
           "budget = 0.25 / (", "budget = 0.5 / (",
           ("tests/test_convolve.py::test_bound_of_a_quarter_is_refused",)),
    Mutant("Percival budget 1/4 -> 4", CONVOLVE,
           "budget = 0.25 / (", "budget = 4 / (",
           ("tests/test_convolve.py::test_bound_of_a_quarter_is_refused",
            "tests/test_convolve.py::test_bound_at_a_half_goes_to_kronecker")),
    # the assumed error of numpy's roots of unity
    Mutant("BETA 2^-51 -> 2^-53", CONVOLVE,
           "BETA = 2.0**-51", "BETA = 2.0**-53",
           ("tests/test_convolve.py::test_numpy_roots_within_beta",)),
    # the int64 routes need the coefficient bound strictly below 2^62
    Mutant("int64 routes at bound == 2^62", CONVOLVE,
           "if bound >= _INT64_SAFE:", "if bound > _INT64_SAFE:",
           ("tests/test_convolve.py::test_int64_overflow_edge",
            "tests/test_convolve.py::test_pairs_int64_guard")),
    # np.convolve up to DENSE_CUT multiply-adds per slot, inclusive: a route
    # rule that changes no output, so only a plan assertion sees it
    Mutant("dense cut <= -> <", CONVOLVE,
           "if slots <= DENSE_CUT * (", "if slots < DENSE_CUT * (",
           ("tests/test_convolve.py::test_threshold_boundary",)),
    # an FFT limb carries the sign of its entry
    Mutant("limbs lose their sign", CONVOLVE,
           "    np.negative(rows, out=rows, where=x < 0)\n", "",
           ("tests/test_convolve.py::test_long_fuzz_both_sides_of_the_dense_cut",)),
    # the support-pair blocks tile the nonzeros of a without a gap
    Mutant("pair blocks start one row apart too far", CONVOLVE,
           "range(0, len(ia), rows)", "range(0, len(ia), rows + 1)",
           ("tests/test_convolve.py::test_pairs_blocks",)),
    # an expression on numerators (a counting dot among them) runs in int64
    # only while its bound is strictly below 2^62, and a product carries its
    # whole bound as its maximum, from measured masses
    Mutant("int64 expressions at bound == 2^62", COUNTING,
           "return x if bound < INT64_SAFE else", "return x if bound <= INT64_SAFE else",
           ("tests/test_counting.py::TestCoefficientGroups::test_dot_at_the_int64_bound",)),
    Mutant("carried fold maximum one low", COUNTING,
           "max_a * mass_b, max_b * mass_a)", "max_a * mass_b, max_b * mass_a) - 1",
           ("tests/test_counting.py::TestCoefficientGroups::test_dot_at_the_int64_bound",)),
    # the energy sums its square's squares under the top and mass that the
    # product carries, so the square's mass mass^2 is the fold's rule
    Mutant("energy dot bound one mass short", COUNTING,
           "top, mass_a * mass_b", "top, mass_a",
           ("tests/test_counting.py::TestTupleReference::test_guards_at_the_first_value_past_them",)),
    # the constructor's trim, gcd and measured mass, on the array
    Mutant("measured mass one low", COUNTING,
           "len(x) * top).sum())", "len(x) * top).sum()) - 1",
           ("tests/test_counting.py::TestCoefficientGroups::test_dot_at_the_int64_bound",)),
    Mutant("trim drops the last nonzero", COUNTING,
           "nonzero[-1] + 1]", "nonzero[-1]]",
           ("tests/test_counting.py::TestTupleReference::test_construction_and_readers",)),
    Mutant("gcd reduction skipped", COUNTING,
           "        if g > 1:\n            x, den, top", "        if False:\n            x, den, top",
           ("tests/test_counting.py::TestTupleReference::test_construction_and_readers",)),
    # every new array's dtype is sets.exact_dtype of a bound: int64 strictly
    # below 2^62, read by a function's numerators and by difference_counts
    Mutant("int64/object cut at top == 2^62", SETS,
           "np.int64 if bound < INT64_SAFE else object", "np.int64 if bound <= INT64_SAFE else object",
           ("tests/test_counting.py::TestTupleReference::test_int64_cut_after_the_gcd",)),
    Mutant("exact_dtype < -> <=", SETS,
           "np.int64 if bound < INT64_SAFE else object", "np.int64 if bound <= INT64_SAFE else object",
           ("tests/test_sets.py::TestDifferenceCountProperties::test_int64_cut",)),
    # each int64 sum, product and comparison of a function's numerators is
    # guarded by a bound.  At 2^62 a `<=` in place of `<` would still fit
    # int64, so each guard's mutant instead drops the factor that keeps the
    # first value past it out of int64
    Mutant("dominated_by guard ignores nu times den", COUNTING,
           "bound = max(self._top * nu.den, nu._top * self.den)",
           "bound = self._top * nu.den",
           ("tests/test_counting.py::TestTupleReference::test_guards_at_the_first_value_past_them",)),
    Mutant("float_weights divides in floats up to 2^54", COUNTING,
           "_FLOAT_EXACT = 1 << 53", "_FLOAT_EXACT = 1 << 54",
           ("tests/test_counting.py::TestTupleReference::test_guards_at_the_first_value_past_them",)),
    Mutant("level-set guard ignores the level's denominator", COUNTING,
           "max(b * self._top, a * self.den)", "max(self._top, a * self.den)",
           ("tests/test_counting.py::TestTupleReference::test_guards_at_the_first_value_past_them",)),
    Mutant("times guard ignores the multipliers", COUNTING,
           "bound = self._top * int(np.abs(rs).max(initial=0))", "bound = self._top",
           ("tests/test_counting.py::TestTupleReference::test_guards_at_the_first_value_past_them",)),
    # the one statement of the Bohr condition
    Mutant("Bohr scan <= -> <", TRANSFERENCE,
           "* q <= p * m).all(axis=1)", "* q < p * m).all(axis=1)",
           ("tests/test_transference.py::TestBohrScanProperties",)),
    Mutant("containment radius eps/2 -> 2 eps", TRANSFERENCE,
           "sp.threshold / 2", "sp.threshold * 2",
           ("tests/test_transference.py::TestDenseModel::test_containment_and_size_bound",)),
    Mutant("contains bisects one index low", TRANSFERENCE,
           "i = bisect_left(self.elements, n)", "i = bisect_left(self.elements, n) - 1",
           ("tests/test_transference.py::TestBohrScanProperties",)),
    Mutant("Bohr size bound >= -> >", TRANSFERENCE,
           "Fraction(n), lhs >= n)", "Fraction(n), lhs > n)",
           ("tests/test_transference.py::TestBohrSet::test_size_bound_holds_at_equality",)),
]


def pytest(tree: Path, tests) -> tuple[int, float]:
    """(exit status, seconds) of `pytest -x -q` on `tests` inside `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                           "-p", "no:cacheprovider", *tests],
                          cwd=tree, env=env, capture_output=True)
    return done.returncode, time.perf_counter() - start


def run(tree: Path, mutant: Mutant) -> tuple[str, float]:
    target = tree / mutant.path
    source = target.read_text()
    if source.count(mutant.fragment) != 1:
        return "stale", 0.0
    target.write_text(source.replace(mutant.fragment, mutant.replacement))
    try:
        status, secs = pytest(tree, mutant.tests)
    finally:
        target.write_text(source)
    # 1: a test failed; 2: the mutant broke collection; 4, 5: no such tests
    return {0: "survived", 1: "killed", 2: "killed"}.get(status, "stale"), secs


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", "results", ".work"))
            else:
                shutil.copy2(src, tree / name)
        every = sorted({t for m in MUTANTS for t in m.tests})
        status, secs = pytest(tree, every)
        print(f"unmutated   {secs:6.1f} s  exit {status}")
        if status != 0:
            print("the listed tests must pass before any mutant is applied")
            return 1
        verdicts = []
        for mutant in MUTANTS:
            verdict, secs = run(tree, mutant)
            verdicts.append(verdict)
            print(f"{verdict:10s}  {secs:6.1f} s  {mutant.name}")
    print(f"{verdicts.count('killed')} of {len(MUTANTS)} killed")
    return 0 if verdicts.count("killed") == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
