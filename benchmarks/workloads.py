"""The benchmark's workloads: seeded inputs, timed jobs and their checks.

Every pass draws its random inputs from (workload seed, pass index), so no
pass repeats another's random instance and the same seed gives the same
inputs.  Each job's answer is checked after the pass timer stops, against a
reference that shares no kernel with the timed route:

* counts are compared with `brute_force_count`, which enumerates tuples and
  never convolves, and the degenerate-solution shifts with a plain
  dictionary of sums;
* CLI jobs must exit 0 with every theorem verdict (or suite) holding;
* the two deterministic `report` jobs are compared with the committed
  document `reference/ap_reports.json`, exact fields equal and floats within
  a relative tolerance of 1e-9.

The module expects `sidonlab` to be importable (see `run.bootstrap`).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import sidonlab
import sidonlab.cli
from sidonlab import EquationCoeffs, IntegerSet, ScaledFunction

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference" / "ap_reports.json"
FLOAT_REL_TOL = 1e-9

EQ_BALANCED = EquationCoeffs((1, 1, 1, 1, -4))
EQ_BALANCED_MERGED = EquationCoeffs((1, 1, 1, -3))  # EQ_BALANCED with x4 = x5
EQ_ENERGY = EquationCoeffs((1, -1, -1, 1))
EQ_SIX = EquationCoeffs((1, 1, 1, -1, -1, -1))


def pass_key(seed: int, *path: int) -> int:
    """A 32-bit key drawn from (seed, pass index, ...) for Philox draws."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Check:
    ok: bool
    detail: str = ""
    oracle_s: float = 0.0
    has_oracle: bool = False


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Check]
    # the timed call computes what the oracle enumerates, so their times
    # make `counting.fast_over_oracle`
    same_as_oracle: bool = False


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliResult:
    """`sidonlab.cli.main` in process, with stdout and stderr captured.

    The function is looked up at call time so that a traced run sees the
    wrapped version."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = sidonlab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def _brute_value(eq, s_set, distinct_only=False):
    """Brute-force count of eq on S (0/1 weights) and its time."""
    fns = [ScaledFunction.from_set(s_set)] * eq.s
    count, secs = _timed(sidonlab.brute_force_count, eq, fns,
                         distinct_only=distinct_only)
    return count.value, secs


def _compare(expected, got, path="") -> list[str]:
    """Differences between two JSON values: exact except floats, which must
    agree within FLOAT_REL_TOL."""
    if isinstance(expected, float) and isinstance(got, float):
        if math.isclose(expected, got, rel_tol=FLOAT_REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {expected!r}"]
    if type(expected) is not type(got):
        return [f"{path}: {got!r} != {expected!r}"]
    if isinstance(expected, dict):
        if expected.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += _compare(expected[key], got[key], f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if len(expected) != len(got):
            return [f"{path}: length {len(got)} != {len(expected)}"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out += _compare(e, g, f"{path}[{i}]")
        return out
    return [] if expected == got else [f"{path}: {got!r} != {expected!r}"]


def _parse_cli(result: CliResult):
    """The JSON document of a successful CLI job, or a failed Check."""
    if not isinstance(result, CliResult):
        return None, Check(False, f"job returned {type(result).__name__}")
    if result.code != 0:
        return None, Check(False, f"exit {result.code}: {result.stderr.strip()[:200]}")
    try:
        return json.loads(result.stdout), None
    except ValueError as exc:
        return None, Check(False, f"stdout is not JSON: {exc}")


# --- count -----------------------------------------------------------------


def _shift_reference(eq: EquationCoeffs, s_set: IntegerSet):
    """(max shift count, merged-pair total) of `degenerate_bound_check`,
    by counting sums in a dictionary over explicit tuples."""
    elems = s_set.elements
    head = Counter(sum(a * x for a, x in zip(eq.coeffs[:3], xs))
                   for xs in itertools.product(elems, repeat=3))
    tail_coeffs = list(eq.coeffs[3:-2]) + [eq.coeffs[-2] + eq.coeffs[-1]]
    tail = Counter(sum(a * x for a, x in zip(tail_coeffs, xs))
                   for xs in itertools.product(elems, repeat=len(tail_coeffs)))
    counts = {n: head.get(-n, 0) for n in tail}
    return max(counts.values()), sum(mult * counts[n] for n, mult in tail.items())


class CountWorkload:
    """Library API on 0/1 weights with long supports.

    The only workload where convolution products longer than 2^14 and the
    partition lattice of distinct counting do the work; spectral and
    transference layers do none."""

    name = "count"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.bases = {p: sidonlab.erdos_turan(p) for p in (43, 23, 11)}
        self.jobs(0)

    def _perturbed(self, p, extra, i, j):
        return sidonlab.perturb_almost_sidon(self.bases[p], extra,
                                             pass_key(self.seed, i, j))

    def jobs(self, i: int) -> list[Job]:
        s43 = self._perturbed(43, 10, i, 0)
        s23 = self._perturbed(23, 5, i, 1)
        s11 = self._perturbed(11, 2, i, 2)

        def count_check(result):
            want, secs = _brute_value(EQ_BALANCED, s43)
            ok = result.value == want
            return Check(ok, "" if ok else f"{result.value} != brute {want}",
                         secs, True)

        def degenerate_check(rep):
            t0 = time.perf_counter()
            total, _ = _brute_value(EQ_BALANCED, s23)
            distinct, _ = _brute_value(EQ_BALANCED, s23, distinct_only=True)
            merged, _ = _brute_value(EQ_BALANCED_MERGED, s23)
            energy, _ = _brute_value(EQ_ENERGY, s23)
            max_shift, merged_dict = _shift_reference(EQ_BALANCED, s23)
            secs = time.perf_counter() - t0
            got = (rep.total, rep.distinct, rep.merged_pair_total, rep.energy,
                   rep.max_shift_count, rep.bound_holds)
            want = (total, distinct, merged, energy, max_shift,
                    max_shift ** 4 <= energy ** 3)
            ok = got == want and merged_dict == merged and rep.bound_holds
            return Check(ok, "" if ok else f"{got} != reference {want}", secs, True)

        def distinct_check(result):
            want, secs = _brute_value(EQ_SIX, s11, distinct_only=True)
            ok = result.value == want
            return Check(ok, "" if ok else f"{result.value} != brute {want}",
                         secs, True)

        counting = sidonlab.counting
        return [
            Job("count_solutions ET(43)+10",
                lambda: counting.count_solutions(
                    EQ_BALANCED, [ScaledFunction.from_set(s43)] * EQ_BALANCED.s),
                count_check, True),
            Job("degenerate_bound_check ET(23)+5",
                lambda: counting.degenerate_bound_check(EQ_BALANCED, s23),
                degenerate_check, True),
            Job("count_distinct_solutions ET(11)+2",
                lambda: counting.count_distinct_solutions(EQ_SIX, s11),
                distinct_check, True),
        ]


# --- report ----------------------------------------------------------------

REPORT_ARGS = ["--coeffs", "1,1,1,1,-4", "--eps", "1/5"]


def ap_sets() -> dict[str, IntegerSet]:
    """ET(17) joined with the odd, and with the even, numbers of [1, 578]."""
    et = sidonlab.erdos_turan(17)
    n = et.ambient_n
    return {
        "et17_odd": IntegerSet(tuple(sorted(set(et.elements) | set(range(1, n + 1, 2)))), n),
        "et17_even": IntegerSet(tuple(sorted(set(et.elements) | set(range(2, n + 1, 2)))), n),
    }


def report_document(doc: dict) -> dict:
    """A report document without its set path, which names a work file."""
    doc = json.loads(json.dumps(doc))
    doc["config"].pop("set", None)
    return doc


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["jobs"]


class ReportWorkload:
    """In-process `sidonlab report` for (1,1,1,1,-4) at eps 1/5.

    The only workload where Bohr scans, dense models, `verify_model_l2`,
    rational-weight counts and JSON output do real work; distinct counting
    and non-power-of-two DFTs do none."""

    name = "report"

    def __init__(self, reference: dict | None = None):
        self.reference = reference

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        if self.reference is None:
            self.reference = load_reference()
        self.base = sidonlab.erdos_turan(31)
        self.ap_files = {}
        for name, s_set in ap_sets().items():
            path = workdir / f"{name}.txt"
            sidonlab.write_set_file(s_set, path)
            self.ap_files[name] = path
        self.jobs(0)

    def jobs(self, i: int) -> list[Job]:
        s31 = sidonlab.perturb_almost_sidon(self.base, 8, pass_key(self.seed, i, 0))
        path = self.workdir / "et31_pass.txt"
        sidonlab.write_set_file(s31, path)

        def et31_check(result):
            doc, bad = _parse_cli(result)
            if bad:
                return bad
            want, secs = _brute_value(EQ_BALANCED, s31)
            got = doc["counts"]["set_count_raw"]
            ok = doc["theorem_verdicts_hold"] is True and got == want
            return Check(ok, "" if ok else
                         f"set_count_raw {got} != brute {want} or verdicts fail",
                         secs, True)

        def ap_check(name):
            def check(result):
                doc, bad = _parse_cli(result)
                if bad:
                    return bad
                diffs = _compare(self.reference[name], report_document(doc))
                if doc["theorem_verdicts_hold"] is not True:
                    diffs.append("theorem verdicts fail")
                return Check(not diffs, "; ".join(diffs[:5]))
            return check

        jobs = [Job("report ET(31)+8",
                    lambda: call_cli(["report", "--set", str(path), *REPORT_ARGS]),
                    et31_check)]
        for name, ap_path in self.ap_files.items():
            jobs.append(Job(f"report {name}",
                            lambda p=ap_path: call_cli(["report", "--set", str(p),
                                                        *REPORT_ARGS]),
                            ap_check(name)))
        return jobs


# --- verify ----------------------------------------------------------------


class VerifyWorkload:
    """In-process `sidonlab verify all --trials 25` with a per-pass seed.

    Hundreds of tiny inputs through the same layers, so per-call cost shows
    up here even when long or wide convolutions get faster."""

    name = "verify"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.jobs(0)

    def jobs(self, i: int) -> list[Job]:
        suite_seed = pass_key(self.seed, i) % (1 << 31)

        def check(result):
            doc, bad = _parse_cli(result)
            if bad:
                return bad
            failing = [s["name"] for s in doc["suites"] if not s["ok"]]
            ok = doc["all_ok"] is True and not failing
            return Check(ok, "" if ok else f"suites failed: {failing}")

        return [Job(f"verify all --seed {suite_seed}",
                    lambda: call_cli(["verify", "all", "--seed", str(suite_seed),
                                      "--trials", "25"]),
                    check)]


WORKLOADS = {
    "count": CountWorkload,
    "report": ReportWorkload,
    "verify": VerifyWorkload,
}

# Traced passes per workload: fixed, so the traced counts repeat exactly.
TRACED_PASSES = {"count": 3, "report": 2, "verify": 3}
