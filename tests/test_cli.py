"""Command-line surface: formats, determinism, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from io import StringIO
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sidonlab.cli as cli_module
import sidonlab.counting as counting_module
import sidonlab.sets as sets_module
from sidonlab.cli import main
from sidonlab.sets import (
    MAX_PAIRS,
    MAX_POINTS,
    IntegerSet,
    erdos_turan,
    format_set_file,
    mian_chowla,
    read_set_file,
    write_set_file,
)

SET_PATH = "<set file>"  # stands for the drawn set file in a drawn argv
OUT_PATH = "<out file>"  # stands for a fresh output path in a drawn argv
OVERSIZED = [MAX_POINTS + 1, 10**11]
# F = {1, 10^14 - 1} in N = 10^14: a two-point set whose span is past MAX_POINTS
WIDE = IntegerSet((1, 10**14 - 1), 10**14)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_erdos_turan_file(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code, stdout, _ = run(capsys, "construct", "erdos-turan", "--p", "5",
                              "--out", str(out))
        assert code == 0
        assert read_set_file(out) == erdos_turan(5)
        doc = json.loads(stdout)
        assert doc["schema"] == 1
        assert doc["size"] == 5 and doc["ambient_n"] == 50
        assert doc["is_sidon"] is True
        assert doc["eta"] == {"numerator": 0, "denominator": 1}

    def test_mian_chowla_last_element(self, tmp_path, capsys):
        out = tmp_path / "mc.txt"
        code, stdout, _ = run(capsys, "construct", "mian-chowla", "--k", "10",
                              "--out", str(out))
        assert code == 0
        assert read_set_file(out).elements[-1] == 81

    def test_stdout_mode(self, capsys):
        code, stdout, stderr = run(capsys, "construct", "erdos-turan", "--p", "3")
        assert code == 0
        assert stdout.startswith("N 18\n")
        assert json.loads(stderr)["size"] == 3

    def test_perturb_extra_zero_byte_identical(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        code, _, _ = run(capsys, "construct", "erdos-turan", "--p", "7",
                         "--out", str(src))
        assert code == 0
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        run(capsys, "construct", "perturb", "--in", str(src), "--extra", "0",
            "--seed", "7", "--out", str(out1))
        run(capsys, "construct", "perturb", "--in", str(src), "--extra", "0",
            "--seed", "9", "--out", str(out2))
        assert out1.read_bytes() == src.read_bytes() == out2.read_bytes()

    def test_nonprime_exit_2(self, capsys):
        code, _, stderr = run(capsys, "construct", "erdos-turan", "--p", "4")
        assert code == 2
        assert "prime" in stderr


class TestEnergy:
    def test_fields(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        run(capsys, "construct", "erdos-turan", "--p", "7", "--out", str(out))
        code, stdout, _ = run(capsys, "energy", "--set", str(out))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["energy"] == 91
        assert doc["delta"] == {"numerator": 7, "denominator": 10}

    def test_empty_set_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("N 5\n")
        code, stdout, stderr = run(capsys, "energy", "--set", str(path))
        assert code == 2 and stdout == ""
        assert stderr.startswith("error:") and stderr.count("\n") == 1


# coefficients whose dilations of any span past 1 are refused by their
# length alone: pairwise coprime, so dividing by the gcd with each other or
# with a coefficient of at most 10^4 leaves one of them at least 10^8
HUGE_COEFF = st.sampled_from([10**12 + 39, -(10**12 + 61), 2**64])


@st.composite
def coefficient_text(draw, span):
    """One to four coefficients (zero allowed): |a_i| * span under 10^4, or
    a dilation refused before it is made."""
    small = st.integers(-(10**4 // max(span, 1)), 10**4 // max(span, 1))
    coeffs = draw(st.lists(st.one_of(small, small, small, HUGE_COEFF),
                           min_size=1, max_size=4))
    return ",".join(map(str, coeffs))


@st.composite
def count_argv(draw):
    """`count` argv and an optional SIDONLAB_BUDGET: one to four
    coefficients, an interval span or a drawn set file, --distinct and
    --oracle.  Set files span at most 120 or are refused, so no draw
    allocates a long list; the tests above cover values past 2^63."""
    choice = draw(st.integers(0, 5))  # mostly an interval, seldom a set file
    span = draw(st.integers(-2, 60)) if choice > 1 else 120
    argv = ["count", "--coeffs=" + draw(coefficient_text(span))]
    set_text = None
    if choice > 1:
        argv += ["--interval", str(span)]
    elif choice:
        argv += ["--sets", SET_PATH]
        set_text = draw(set_file_text())
    if not draw(st.integers(0, 4)):
        argv.append("--distinct")
    if draw(st.booleans()):
        argv.append("--oracle")
    return argv, draw(st.sampled_from([None, "1", "1000"])), set_text


@st.composite
def bench_argv(draw):
    """`bench` argv: one to three sizes of at most 8 or past MAX_POINTS,
    and coefficients as for a `count` of span 8; the brute force runs at
    most 8^4 tuples."""
    sizes = draw(st.lists(st.one_of(st.integers(-1, 8), st.sampled_from(OVERSIZED)),
                          min_size=1, max_size=3))
    argv = ["bench", "--sizes=" + ",".join(map(str, sizes)),
            "--coeffs=" + draw(coefficient_text(8))]
    return argv, draw(st.sampled_from([None, "1", "1000"])), None


@st.composite
def set_file_text(draw):
    """A small set file: empty, singleton, full interval or any subset of
    [1, N] with N <= 120, sometimes shifted past 2^63, a few points spanning
    past MAX_POINTS, or a malformed one."""
    n = draw(st.integers(1, 120))
    elems = draw(st.one_of(st.just(range(1, n + 1)),
                           st.sets(st.integers(1, n), max_size=n).map(sorted)))
    shift = draw(st.sampled_from([0, 0, 0, 2**64]))
    text = f"N {n + shift}\n" + "".join(f"{x + shift}\n" for x in elems)
    wide = [format_set_file(WIDE), f"N {MAX_POINTS + 1}\n1\n2\n{MAX_POINTS + 1}\n"]
    return draw(st.sampled_from([text] * 8 + wide
                                + ["", "N 0\n", "N 5\n3\n2\n", "N x\n"]))


# mostly valid radii, then values that are refused or do not parse
EPS_TEXT = st.sampled_from(["1/2", "1/4", "1/5", "1/10"] * 3
                           + ["0", "-1/3", "3/5", "2", "x", "1/0"])
# a grid of at most 4096 points or one refused by its size alone
GRID = st.one_of(st.none(), st.integers(-2, 4096), st.sampled_from(OVERSIZED))


@st.composite
def set_argv(draw):
    """`spectrum` or `model` argv on a drawn set file, with a grid of at most
    4096 points or one refused by its size alone."""
    argv = [draw(st.sampled_from(["spectrum", "model"])), "--set", SET_PATH,
            "--eps", draw(EPS_TEXT)]
    m = draw(GRID)
    if m is not None:
        argv += ["--m", str(m)]
    return argv, None, draw(set_file_text())


@st.composite
def construct_argv(draw):
    """`construct` argv: small primes, and 4099 and 10007 whose profiles are
    refused by their pair count alone, and 1000000007 and 10^30, refused
    past MAX_POINTS before the set is built; short greedy prefixes, and
    4097 and 10^9 terms, refused by their pair count before the search;
    perturbations of a drawn set file, refused past MAX_POINTS before the
    pool is made."""
    kind = draw(st.sampled_from(["erdos-turan", "mian-chowla", "perturb"]))
    options = [("--p", st.sampled_from([-1, 2, 4, 13, 31, 4099, 10007,
                                        1000000007, 10**30])),
               ("--k", st.integers(-1, 30) | st.sampled_from([4097, 10**9])),
               ("--in", st.just(SET_PATH)),
               ("--extra", st.integers(-1, 5)),
               ("--seed", st.sampled_from([-1, 0, 7, 2**128 - 1, 2**128])),
               ("--out", st.just(OUT_PATH))]
    # an option the kind reads is given three times in four, any other once
    reads = {"erdos-turan": ["--p"], "mian-chowla": ["--k"],
             "perturb": ["--in", "--extra", "--seed"]}[kind] + ["--out"]
    argv = ["construct", kind]
    for flag, values in options:
        if draw(st.integers(0, 3)) < (3 if flag in reads else 1):
            argv += [flag, str(draw(values))]
    return argv, None, draw(set_file_text())


@st.composite
def report_argv(draw):
    """`energy` or `report` argv on a drawn set file."""
    if not draw(st.integers(0, 3)):
        return ["energy", "--set", SET_PATH], None, draw(set_file_text())
    argv = ["report", "--set", SET_PATH, "--coeffs",
            draw(st.sampled_from(["1,1,1,1,-4"] * 3 + ["1,1,1,-1,-2", "1,2,3,4,-10",
                                                       "1,1,-2", "1,1,1,1,1", "1,x"])),
            "--eps", draw(EPS_TEXT)]
    m = draw(GRID)
    if m is not None:
        argv += ["--m", str(m)]
    if draw(st.booleans()):
        argv += ["--fourier-c", str(draw(st.integers(-2, 20)))]
    return argv, None, draw(set_file_text())


@st.composite
def verify_argv(draw):
    """`verify` argv: every suite name and a bad one, at most two trials,
    seeds at and past both ends of the Philox key range."""
    argv = ["verify", draw(st.sampled_from(["lemmas", "counting", "model", "all", "x"])),
            "--trials", str(draw(st.integers(-1, 2)))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.sampled_from([-1, 0, 3, 2**128 - 1, 2**128])))]
    return argv, None, None


@st.composite
def bohr_argv(draw):
    """`bohr` argv: up to three frequencies, some malformed; every eps that
    parses is at least 1/10, so --n 10^11 is refused by its width alone."""
    freqs = draw(st.lists(st.sampled_from(
        ["0", "1/2", "1/3", "2/7", "5/12", "7/4096", "1", "-1/3", "x", "1/0"]),
        max_size=3))
    argv = ["bohr", *(f"--freq={f}" for f in freqs), "--eps", draw(EPS_TEXT),
            "--n", str(draw(st.one_of(st.integers(-3, 400), st.just(10**11))))]
    return argv, None, None


class TestCount:
    def test_interval_progressions(self, capsys):
        code, stdout, _ = run(capsys, "count", "--coeffs", "1,1,-2",
                              "--interval", "5")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["value_numerator"] == 13
        assert doc["value_denominator"] == 1
        assert doc["half_power"] == 0

    def test_diagonal_is_size(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        run(capsys, "construct", "erdos-turan", "--p", "11", "--out", str(out))
        code, stdout, _ = run(capsys, "count", "--coeffs", "1,-1",
                              "--sets", str(out))
        assert json.loads(stdout)["value_numerator"] == 11

    def test_distinct(self, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text("N 3\n1\n2\n3\n")
        code, stdout, _ = run(capsys, "count", "--coeffs", "1,1,-2",
                              "--sets", str(f), "--distinct")
        assert code == 0
        assert json.loads(stdout)["value_numerator"] == 2

    def test_oracle_agreement_exit_zero(self, capsys):
        code, stdout, _ = run(capsys, "count", "--coeffs", "1,1,-2",
                              "--interval", "6", "--oracle")
        assert code == 0
        assert json.loads(stdout)["oracle_agrees"] is True

    @staticmethod
    def count_source(tmp_path, distinct, n):
        """The count arguments on [1, n]: an interval, or under --distinct
        a set file of it."""
        if not distinct:
            return ["--interval", str(n)]
        path = tmp_path / "s.txt"
        write_set_file(IntegerSet(tuple(range(1, n + 1)), n), path)
        return ["--sets", str(path), "--distinct"]

    def test_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("SIDONLAB_BUDGET", "10")
        code, _, stderr = run(capsys, "count", "--coeffs", "1,1,-2",
                              "--interval", "10", "--oracle")
        assert code == 3
        assert "budget" in stderr

    def test_distinct_budget_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIDONLAB_BUDGET", "10")
        code, stdout, stderr = run(capsys, "count", "--coeffs", "1,1,-2",
                                   *self.count_source(tmp_path, True, 10),
                                   "--oracle")
        assert code == 3
        assert "budget" in stderr and stdout == ""

    def test_bad_coeffs_exit_2(self, capsys):
        code, _, _ = run(capsys, "count", "--coeffs", "1,x", "--interval", "4")
        assert code == 2

    @pytest.mark.parametrize("distinct", [False, True])
    def test_oracle_mismatch_exit_1(self, tmp_path, capsys, monkeypatch, distinct):
        # exit-status contract for a verdict failure, forced by doctoring
        # the oracle (an honest mismatch would be an engine bug)
        from fractions import Fraction

        import sidonlab.cli as cli
        from sidonlab.counting import SolutionCount

        calls = []

        def doctored(*a, **k):
            calls.append(k)
            return SolutionCount(Fraction(-1))

        monkeypatch.setattr(cli, "brute_force_count", doctored)
        code, stdout, _ = run(capsys, "count", "--coeffs", "1,-1",
                              *self.count_source(tmp_path, distinct, 4),
                              "--oracle")
        assert code == 1
        assert json.loads(stdout)["oracle_agrees"] is False
        assert calls == [{"distinct_only": distinct}]

    @pytest.mark.parametrize("base", [2**62, 2**63])
    def test_oracle_past_int64_agrees(self, tmp_path, capsys, base):
        path = tmp_path / "s.txt"
        write_set_file(IntegerSet((base, base + 1, base + 2), base + 2), path)
        code, stdout, _ = run(capsys, "count", "--coeffs", "1,1,-2", "--sets",
                              str(path), "--oracle")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["oracle_agrees"] is True and doc["value_numerator"] == 5

    @pytest.mark.parametrize("argv", [
        ["--coeffs", "1,1,-2", "--interval", str(10**20)],
        ["--coeffs", "1,1,-2", "--interval", str(2**63), "--oracle"],
        ["--coeffs", f"{10**22},{-10**22 - 1}", "--interval", "5", "--oracle"],
        ["--coeffs", f"{2**64},1", "--interval", "3"],
        ["--coeffs", "1,-1", "--distinct"],
    ])
    def test_unindexable_or_incomplete_exit_2(self, capsys, argv):
        code, stdout, stderr = run(capsys, "count", *argv)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_coefficients_past_int64_divided_by_gcd(self, capsys):
        code, stdout, _ = run(capsys, "count", "--coeffs",
                              f"{10**22},{-10**22}", "--interval", "5", "--oracle")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["value_numerator"] == 5 and doc["oracle_agrees"] is True

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(count_argv(), bench_argv(), set_argv(), bohr_argv(),
                     construct_argv(), report_argv(), verify_argv()))
    def test_exit_code_contract(self, drawn):
        """`construct`, `energy`, `count`, `bench`, `spectrum`, `bohr`,
        `model`, `verify` and `report` argv all keep the exit-code contract."""
        argv, budget, set_text = drawn
        out, err = StringIO(), StringIO()
        env = {"SIDONLAB_BUDGET": budget} if budget else {}
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), \
                redirect_stderr(err), mock.patch.dict(os.environ, env):
            paths = {SET_PATH: os.path.join(tmp, "s.txt"),
                     OUT_PATH: os.path.join(tmp, "out.txt")}
            if set_text is not None:
                with open(paths[SET_PATH], "w") as fh:
                    fh.write(set_text)
            try:
                code = main([paths.get(a, a) for a in argv])
            except SystemExit as exc:  # argparse refusing the argv
                code = exc.code
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "count", "--coeffs", "1,1,-2", "--interval", "9")
        _, out2, _ = run(capsys, "count", "--coeffs", "1,1,-2", "--interval", "9")
        assert out1 == out2


class TestSpectrum:
    def test_tsv_shape(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        run(capsys, "construct", "erdos-turan", "--p", "5", "--out", str(out))
        code, stdout, _ = run(capsys, "spectrum", "--set", str(out),
                              "--eps", "1/4", "--m", "256")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0].startswith("# schema=1")
        header = lines[2].split("\t")
        assert header == ["k", "m", "alpha", "magnitude", "selected"]
        rows = [ln.split("\t") for ln in lines[3:]]
        assert rows[0][0] == "0" and rows[0][4] == "1"
        assert all(r[4] in ("0", "1") for r in rows)
        assert all(int(r[1]) == 256 for r in rows)

    def test_determinism(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        run(capsys, "construct", "erdos-turan", "--p", "5", "--out", str(out))
        _, a, _ = run(capsys, "spectrum", "--set", str(out), "--eps", "1/4")
        _, b, _ = run(capsys, "spectrum", "--set", str(out), "--eps", "1/4")
        assert a == b

    def test_elements_past_int64(self, tmp_path, capsys):
        # the same set shifted by a multiple of the grid size has the same
        # magnitudes; the shift takes every element past 2^63
        small = IntegerSet((1, 2, 4, 8, 13), 13)
        shift = 64 * 2**64
        big = IntegerSet(tuple(x + shift for x in small.elements), 13 + shift)
        docs = []
        for s_set, name in ((small, "small.txt"), (big, "big.txt")):
            write_set_file(s_set, tmp_path / name)
            code, stdout, _ = run(capsys, "spectrum", "--set",
                                  str(tmp_path / name), "--eps", "1/2",
                                  "--m", "64")
            assert code == 0
            docs.append(stdout.splitlines()[2:])
        rows = [[r.split("\t") for r in d[1:]] for d in docs]
        assert [r[:3] for r in rows[0]] == [r[:3] for r in rows[1]]
        for a, b in zip(rows[0], rows[1]):
            assert float(a[3]) == pytest.approx(float(b[3]), abs=1e-12)


class TestBohr:
    def test_multiples_of_three(self, capsys):
        code, stdout, _ = run(capsys, "bohr", "--freq", "1/3", "--eps", "1/4",
                              "--n", "60")
        doc = json.loads(stdout)
        assert doc["elements"] == list(range(-15, 16, 3))
        assert doc["size"] == 11
        assert doc["size_bound"]["holds"] is True

    def test_failed_size_bound_exit_1(self, capsys, monkeypatch):
        # exit-status contract for a verdict failure, forced by doctoring
        # the bound (it is a pigeonhole theorem, so an honest failure would
        # be a bug)
        import sidonlab.cli as cli

        real = cli.bohr_size_bound
        monkeypatch.setattr(cli, "bohr_size_bound",
                            lambda *a: replace(real(*a), holds=False))
        code, stdout, _ = run(capsys, "bohr", "--freq", "1/3", "--eps", "1/4",
                              "--n", "60")
        assert code == 1
        doc = json.loads(stdout)
        assert doc["size_bound"]["holds"] is False and doc["size"] == 11

    def test_bad_eps_exit_2(self, capsys):
        code, _, _ = run(capsys, "bohr", "--eps", "2/3", "--n", "10")
        assert code == 2

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.builds(lambda q, p: Fraction(p % q, q),
                              st.integers(1, 40), st.integers(0, 10**6)),
                    max_size=5),
           st.builds(Fraction, st.integers(1, 20), st.integers(2, 80)).filter(
               lambda e: e <= Fraction(1, 2)),
           st.integers(0, 300))
    def test_mixed_denominators_per_point(self, freqs, eps, n):
        # the lcm grid against ||v alpha|| <= eps in Fraction arithmetic
        texts = [f"{f.numerator}/{f.denominator}" for f in freqs]
        argv = ["bohr", "--eps", str(eps), "--n", str(n)]
        for text in texts:
            argv += ["--freq", text]
        out = StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        doc = json.loads(out.getvalue())
        width = int(eps * n)
        want = [v for v in range(-width, width + 1)
                if all(min(v * f % 1, 1 - v * f % 1) <= eps for f in freqs)]
        assert doc["width"] == width and doc["elements"] == want
        assert doc["size"] == len(want)
        assert doc["config"]["freq"] == (texts or None)


class TestModel:
    def test_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        run(capsys, "construct", "erdos-turan", "--p", "11", "--out", str(out))
        code, stdout, _ = run(capsys, "model", "--set", str(out),
                              "--eps", "1/5")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["n_padded"] == 256
        assert doc["mass_identity_holds"] is True
        assert doc["containment_holds"] is True
        assert doc["fourier_distance"] == 0.0

    @pytest.mark.parametrize("verdict, field", [
        ("mass_identity", "mass_identity_holds"),
        ("containment", "containment_holds"),
        ("size_bound", "size_bound"),
    ])
    def test_failed_verdict_exit_1(self, tmp_path, capsys, monkeypatch,
                                   verdict, field):
        # each theorem-backed verdict, forced to fail by doctoring the
        # model, turns the exit code to 1 with the JSON still printed
        import sidonlab.cli as cli
        from test_transference import fail_model_verdict

        real = cli.dense_model
        monkeypatch.setattr(cli, "dense_model",
                            lambda *a: fail_model_verdict(real(*a), verdict))
        path = tmp_path / "s.txt"
        write_set_file(erdos_turan(11), path)
        code, stdout, _ = run(capsys, "model", "--set", str(path), "--eps", "1/5")
        assert code == 1
        doc = json.loads(stdout)
        assert (doc[field]["holds"] if field == "size_bound" else doc[field]) is False


class TestVerify:
    def test_lemmas_exit_zero(self, capsys):
        code, stdout, _ = run(capsys, "verify", "lemmas", "--seed", "1",
                              "--trials", "10")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["all_ok"] is True
        assert doc["suites"][0]["trials"] == 10

    def test_zero_trials(self, capsys):
        code, stdout, _ = run(capsys, "verify", "counting", "--trials", "0")
        assert code == 0
        doc = json.loads(stdout)
        assert all(s["trials"] == 0 for s in doc["suites"][:3])

    def test_model_suite(self, capsys):
        code, stdout, _ = run(capsys, "verify", "model")
        assert code == 0
        assert json.loads(stdout)["all_ok"] is True

    def test_determinism(self, capsys):
        _, a, _ = run(capsys, "verify", "lemmas", "--seed", "3",
                      "--trials", "8")
        _, b, _ = run(capsys, "verify", "lemmas", "--seed", "3",
                      "--trials", "8")
        assert a == b


class TestReport:
    def test_full_json(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        run(capsys, "construct", "erdos-turan", "--p", "11", "--out", str(out))
        code, stdout, _ = run(capsys, "report", "--set", str(out),
                              "--coeffs", "1,1,1,1,-4", "--eps", "1/5")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["schema"] == 1
        assert doc["theorem_verdicts_hold"] is True
        assert doc["params"]["n_padded"] == 256
        assert doc["counts"]["difference"] == {"numerator": 0, "denominator": 1}
        assert doc["model"]["r_count"] == len(doc["model"]["selected_frequencies"])
        assert doc["verdicts"]["repeated_difference"]["holds"] is True

    def test_determinism(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        run(capsys, "construct", "erdos-turan", "--p", "7", "--out", str(out))
        _, a, _ = run(capsys, "report", "--set", str(out),
                      "--coeffs", "1,1,1,1,-4", "--eps", "1/5")
        _, b, _ = run(capsys, "report", "--set", str(out),
                      "--coeffs", "1,1,1,1,-4", "--eps", "1/5")
        assert a == b

    def test_not_invariant_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        run(capsys, "construct", "erdos-turan", "--p", "7", "--out", str(out))
        code, _, _ = run(capsys, "report", "--set", str(out),
                         "--coeffs", "1,1,1,1,-5", "--eps", "1/5")
        assert code == 2


PLAIN = (int, Fraction, float, bool, str, type(None))


def plain_leaves(value, path="doc"):
    """The paths of the leaves of `value` that are not plain Python values
    (int, Fraction, float, bool, str or None, in dicts, lists and tuples),
    such as numpy scalars; records are walked field by field."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in
                ([f"{path} key {k!r}"] if type(k) is not str else [])
                + plain_leaves(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in plain_leaves(v, f"{path}[{i}]")]
    if is_dataclass(value):
        return [p for f in fields(value) for p in
                plain_leaves(getattr(value, f.name), f"{path}.{f.name}")]
    return [] if type(value) in PLAIN else [f"{path}: {type(value).__name__}"]


class TestPlainOutput:
    """No numpy scalar or array reaches a document or an exact field."""

    GOLDEN = Path(__file__).resolve().parent / "golden"

    @pytest.mark.parametrize("argv", [
        ("report", "--set", "evens.txt", "--coeffs", "1,1,1,-1,-2", "--eps", "1/4"),
        ("report", "--set", "et17_odd.txt", "--coeffs", "1,1,1,1,-4", "--eps", "1/5"),
        ("report", "--set", "et11.txt", "--coeffs", "1,1,1,1,-4", "--eps", "1/5"),
        ("model", "--set", "evens.txt", "--eps", "1/4"),
        ("energy", "--set", "et11.txt"),
        ("count", "--coeffs", "1,1,-2", "--sets", "et11.txt", "--oracle"),
        ("count", "--coeffs", "1,1,1,-1,-2", "--sets", "et11.txt", "--distinct", "--oracle"),
        ("count", "--coeffs", "1,2,-3", "--interval", "9", "--oracle"),
    ])
    def test_documents_hold_plain_values(self, argv, monkeypatch, capsys):
        docs = []
        real = cli_module._emit_json
        monkeypatch.setattr(cli_module, "_emit_json",
                            lambda doc, file=None: docs.append(doc) or real(doc, file))
        argv = [str(self.GOLDEN / a) if a.endswith(".txt") else a for a in argv]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(docs) == 1 and plain_leaves(docs[0]) == []

    @pytest.mark.parametrize("name, eps", [("evens.txt", Fraction(1, 4)),
                                           ("et11.txt", Fraction(1, 5))])
    def test_report_and_model_fields_are_plain(self, name, eps):
        from sidonlab.counting import EquationCoeffs
        from sidonlab.transference import transference_report
        rep = transference_report(read_set_file(self.GOLDEN / name),
                                  EquationCoeffs((1, 1, 1, -1, -2)), eps)
        model = rep.model
        exact = {f.name: getattr(rep, f.name) for f in fields(rep)
                 if f.name not in ("eq", "model")}
        # the model's sums and verdicts, read off its base
        for name in ("mass", "square_sum", "l2_value", "mass_identity_holds",
                     "containment_holds", "size_bound", "theorem_verdicts_hold",
                     "fourier_distance", "sqrt_n", "n_padded", "scale"):
            exact[f"model.{name}"] = getattr(model, name)
        exact["model.bohr"] = model.bohr
        exact["model.padded"] = model.padded.elements
        assert plain_leaves(exact, "report") == []


class TestIntegerDigitLimit:
    @pytest.mark.parametrize("argv, path", [
        (["report", "--coeffs", "1,1,1,1,-4"], ("model", "size_bound", "lhs", "numerator")),
        (["model"], ("size_bound", "lhs")),
    ])
    def test_printed_in_full(self, tmp_path, capsys, argv, path):
        # ET(17) at eps 1/10: the size bound's left side |B| ceil(4/eps)^(1+R)
        # has 904 digits; under an int-to-str limit of 640 it is still
        # printed in full, and the limit is left as it was
        from sidonlab.transference import dense_model

        set_path = tmp_path / "s.txt"
        write_set_file(erdos_turan(17), set_path)
        want = int(dense_model(erdos_turan(17), "1/10").size_bound.lhs)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, stdout, _ = run(capsys, *argv, "--set", str(set_path), "--eps", "1/10")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        doc = json.loads(stdout)
        for key in path:
            doc = doc[key]
        assert doc == want and len(str(want)) > 640


class TestBench:
    def test_single_size(self, capsys):
        code, stdout, _ = run(capsys, "bench", "--sizes", "16")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[1].split("\t") == ["N", "fast_ms", "brute_ms", "speedup"]
        row = lines[2].split("\t")
        assert row[0] == "16"
        float(row[1]), float(row[2])  # parse as timings

    def test_oversized_brute_skipped(self, capsys, monkeypatch):
        monkeypatch.setenv("SIDONLAB_BUDGET", "10")
        code, stdout, _ = run(capsys, "bench", "--sizes", "32")
        assert code == 0
        row = stdout.strip().splitlines()[2].split("\t")
        assert row[2] == "skipped"


class TestUsageErrors:
    """Bad files, bad numbers and bad settings exit 2 with one line."""

    @staticmethod
    def assert_usage_error(result, needle):
        code, stdout, stderr = result
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert needle in stderr

    def test_missing_set_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        self.assert_usage_error(
            run(capsys, "energy", "--set", str(missing)), "absent.txt")

    def test_non_integer_element_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("N 10\n1\nthree\n7\n")
        self.assert_usage_error(
            run(capsys, "energy", "--set", str(path)), "line 3")

    def test_bench_non_integer_sizes(self, capsys):
        self.assert_usage_error(run(capsys, "bench", "--sizes", "a,b"), "'a,b'")

    def test_non_integer_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("SIDONLAB_BUDGET", "abc")
        self.assert_usage_error(
            run(capsys, "count", "--coeffs", "1,1,-2", "--interval", "6",
                "--oracle"), "SIDONLAB_BUDGET")

    @pytest.mark.parametrize("argv, needle", [
        (("bohr", "--freq", "1/3", "--eps", "1/4", "--n", str(10**11)), "Bohr width"),
        (("spectrum", "--set", SET_PATH, "--eps", "1/5", "--m", str(10**11)), "grid size"),
        (("model", "--set", SET_PATH, "--eps", "1/5", "--m", str(10**11)), "grid size"),
        (("report", "--set", SET_PATH, "--coeffs", "1,1,1,1,-4", "--eps", "1/5",
          "--m", str(MAX_POINTS + 1)), "grid size"),
        (("spectrum", "--set", "wide", "--eps", "1/5"), "grid size"),
    ])
    def test_oversized_grid_or_width(self, tmp_path, capsys, monkeypatch, argv, needle):
        # refused by size before any array; "wide" is {1, 10^14 - 1} in
        # N = 10^14, whose default grid follows N and whose indicator would
        # have 10^14 slots
        sets = {SET_PATH: mian_chowla(13), "wide": WIDE}
        if "wide" in argv:
            monkeypatch.setattr(counting_module, "zero_one",
                                lambda *args: pytest.fail("indicator built"))
        path = tmp_path / "s.txt"
        argv = list(argv)
        for i, arg in enumerate(argv):
            if arg in sets:
                write_set_file(sets[arg], path)
                argv[i] = str(path)
        self.assert_usage_error(run(capsys, *argv), needle)

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--set", SET_PATH, "--eps", "1/5", "--m", "64"),
        ("count", "--coeffs", "1,-1", "--sets", SET_PATH),
        ("count", "--coeffs", "1,1,-2", "--sets", SET_PATH, "--distinct"),
        ("count", "--coeffs", "1,-1", "--interval", str(10**11)),
    ])
    def test_span_past_the_cap(self, tmp_path, capsys, argv):
        # the set file is WIDE; each dense list would have about 10^11 or
        # 10^14 slots, and is refused by its span before it is made
        path = tmp_path / "s.txt"
        write_set_file(WIDE, path)
        argv = [str(path) if a == SET_PATH else a for a in argv]
        self.assert_usage_error(run(capsys, *argv), "too long to index")

    @pytest.mark.parametrize("argv", [
        ("count", "--coeffs", "100000000,-1", "--interval", "1000"),
        ("bench", "--sizes", "1000", "--coeffs", "100000000,-1"),
        ("construct", "erdos-turan", "--p", "1000000007"),
        ("construct", "erdos-turan", "--p", str(10**30)),
    ])
    def test_dilation_or_prime_past_the_cap(self, capsys, argv):
        # a 99,900,000,001-slot dilation, or an Erdos-Turan set of 10^9 or
        # 10^30 points, refused by its size before it is made
        self.assert_usage_error(run(capsys, *argv), "too long to index")

    @pytest.mark.parametrize("kind, flag, size", [
        pytest.param("erdos-turan", "--p", p, id=str(p)) for p in (4099, 10007, 8388593)
    ] + [
        pytest.param("mian-chowla", "--k", k, id=f"k{k}") for k in (4097, 10**9)
    ])
    def test_erdos_turan_past_the_pair_cap_not_built(self, capsys, monkeypatch,
                                                     kind, flag, size):
        # |S| = p or k past isqrt(MAX_PAIRS) = 4096: the summary's profile
        # would refuse the set, so the set is refused before erdos_turan or
        # the greedy search of mian_chowla runs
        for builder in ("erdos_turan", "mian_chowla"):
            monkeypatch.setattr(cli_module, builder, mock.Mock(side_effect=AssertionError))
        self.assert_usage_error(run(capsys, "construct", kind, flag, str(size)),
                                "difference pairs")

    @pytest.mark.parametrize("s", [512, 513])
    def test_report_floats_past_float_range(self, tmp_path, capsys, s):
        # s - 1 ones and -(s - 1) on {1, 2, 3, 4} in N = 4: N^(s-1) at
        # s = 513 overflows a float, and at s = 512 s * N^(s-2) times the
        # Fourier distance is infinite, which JSON cannot carry
        path = tmp_path / "s.txt"
        write_set_file(IntegerSet((1, 2, 3, 4), 4), path)
        coeffs = ",".join(["1"] * (s - 1) + [str(1 - s)])
        self.assert_usage_error(
            run(capsys, "report", "--set", str(path), "--coeffs", coeffs, "--eps", "1/2"),
            "not finite")

    def test_wide_set_energy(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        write_set_file(WIDE, path)
        code, stdout, _ = run(capsys, "energy", "--set", str(path))
        assert code == 0
        assert json.loads(stdout)["energy"] == 6

    @pytest.mark.parametrize("argv", [
        ("energy", "--set", SET_PATH),
        ("construct", "erdos-turan", "--p", "4099"),
        ("construct", "erdos-turan", "--p", "10007"),
    ])
    def test_profile_past_the_pair_cap(self, tmp_path, capsys, monkeypatch, argv):
        # |S| = 4097, 4099 or 10007 is refused by |S|^2 alone: sets reaches
        # numpy only to build the difference arrays
        path = tmp_path / "s.txt"
        k = isqrt(MAX_PAIRS) + 1
        write_set_file(IntegerSet(tuple(range(1, k + 1)), k), path)
        monkeypatch.setattr(sets_module, "np", None)
        argv = [str(path) if a == SET_PATH else a for a in argv]
        self.assert_usage_error(run(capsys, *argv), "difference pairs")

    def test_binary_set_file(self, tmp_path, capsys):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"N 10\n\xff\xfe\n")
        self.assert_usage_error(run(capsys, "energy", "--set", str(path)), "")

    @pytest.mark.parametrize("argv", [
        ("verify", "lemmas", "--seed", "-1"),
        ("verify", "all", "--seed", str(2**128)),
    ])
    def test_seed_outside_philox_keys(self, capsys, argv):
        self.assert_usage_error(run(capsys, *argv), "seed")

    def test_perturb_negative_seed(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text("N 10\n1\n2\n")
        self.assert_usage_error(
            run(capsys, "construct", "perturb", "--in", str(path), "--extra", "2",
                "--seed", "-1"), "seed")

    def test_perturb_past_the_pair_cap_before_any_draw(self, tmp_path, capsys,
                                                       monkeypatch):
        # 3 + 300000 points: refused by the pair cap before the first draw
        path = tmp_path / "s.txt"
        write_set_file(IntegerSet((1, 4097, 2**23), 2**23), path)
        undrawn = mock.Mock(integers=mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(sets_module, "philox", lambda seed: undrawn)
        self.assert_usage_error(
            run(capsys, "construct", "perturb", "--in", str(path), "--extra",
                "300000", "--seed", "1"),
            f"300003^2 difference pairs are past the cap of {MAX_PAIRS}")

    def test_largest_seed_accepted(self, capsys):
        code, stdout, _ = run(capsys, "verify", "lemmas", "--seed",
                              str(2**128 - 1), "--trials", "2")
        assert code == 0
        assert json.loads(stdout)["all_ok"] is True

    @pytest.mark.parametrize("suite", ["counting", "all"])
    def test_largest_seed_derived_seeds_wrap(self, capsys, suite):
        # the counting suites derive seed + 1 .. seed + 3 modulo 2^128
        code, stdout, stderr = run(capsys, "verify", suite, "--seed",
                                   str(2**128 - 1), "--trials", "0")
        assert code == 0, stderr
        assert json.loads(stdout)["all_ok"] is True

    @pytest.mark.parametrize("fourier_c", [-1, 0])
    def test_fourier_c_sign(self, tmp_path, capsys, fourier_c):
        # a negative certified ceiling is refused; 0 stays valid, and the
        # degenerate model of ET(11) at eps 1/5 meets it with distance 0
        path = tmp_path / "s.txt"
        write_set_file(erdos_turan(11), path)
        result = run(capsys, "report", "--set", str(path), "--coeffs",
                     "1,1,1,1,-4", "--eps", "1/5", "--fourier-c", str(fourier_c))
        if fourier_c < 0:
            self.assert_usage_error(result, "fourier_c")
        else:
            code, stdout, _ = result
            assert code == 0
            assert json.loads(stdout)["model"]["fourier_bound_holds"] is True

    def test_negative_trials(self, capsys):
        self.assert_usage_error(
            run(capsys, "verify", "all", "--trials", "-3"), "trials")

    def test_negative_bohr_n(self, capsys):
        self.assert_usage_error(
            run(capsys, "bohr", "--freq", "1/3", "--eps", "1/4", "--n", "-10"),
            "n >= 0")


class TestParserReuse:
    """main builds its parser on first use and shares it: no state of one
    call reaches the next."""

    def test_one_parser_for_many_calls(self, capsys, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli_module.build_parser.cache_clear()
        for n in range(24):
            assert run(capsys, "count", "--coeffs", "1,1,-2", "--interval", str(n + 1))[0] == 0
        # the top-level parser and one per subcommand, once
        assert progs.count("sidonlab") == 1 and len(progs) == 10

    def test_import_builds_no_parser(self):
        # a fresh interpreter: importing the module must leave argparse idle
        code = ("import argparse\n"
                "made = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "argparse.ArgumentParser.__init__ = "
                "lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
                "import sidonlab.cli\n"
                "print(len(made))\n")
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "0\n"

    def test_appended_frequencies_do_not_leak(self, capsys):
        rest = ["--eps", "1/5", "--n", "60"]
        alone = []
        for freq in ("1/7", "2/9"):
            cli_module.build_parser.cache_clear()
            alone.append(run(capsys, "bohr", "--freq", freq, *rest))
        shared = [run(capsys, "bohr", "--freq", freq, *rest) for freq in ("1/7", "2/9")]
        assert shared == alone
        assert json.loads(shared[1][1])["config"]["freq"] == ["2/9"]

    def test_usage_refusal_after_a_success(self, capsys):
        assert run(capsys, "count", "--coeffs", "1,1,-2", "--interval", "9")[0] == 0
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                pytest.raises(SystemExit) as exc:
            main(["count", "--coeffs", "1,1,-2", "--interval", "nine"])
        assert exc.value.code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage: sidonlab count")
        assert "invalid int value: 'nine'" in err.getvalue()
        with redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert out.getvalue().startswith("usage: sidonlab")
        assert capsys.readouterr() == ("", "")
