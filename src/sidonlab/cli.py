"""Command-line surface.

Subcommands: construct, energy, count, spectrum, bohr, model, verify,
report, bench.  Rationals cross the boundary as "p/q" strings; counts are
emitted as numerator/denominator pairs; floating-point diagnostics are
serialized with 17 significant digits.  Every JSON document carries
"schema": 1 and echoes the resolved run configuration, so identical
configurations (including seeds) produce byte-identical output.

Exit status: 0 all verdicts hold, 1 verdict failure, 2 usage or validation
error, 3 resource budget exceeded.  The SIDONLAB_BUDGET environment
variable overrides the brute-force tuple budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache
from math import lcm

from .counting import (
    EquationCoeffs,
    ScaledFunction,
    brute_force_count,
    count_distinct_solutions,
    count_solutions,
)
from .errors import BudgetExceededError, ValidationError
from .sets import (
    IntegerSet,
    check_pairs,
    check_span,
    erdos_turan,
    is_sidon,
    mian_chowla,
    perturb_almost_sidon,
    rational,
    read_set_file,
    write_set_file,
)
from .spectral import large_spectrum
from .suites import run_suites
from .transference import (
    DEFAULT_FOURIER_C,
    bohr_set,
    bohr_size_bound,
    dense_model,
    transference_report,
)

EXIT_OK = 0
EXIT_VERDICT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _float17(x: float) -> float:
    return float(f"{x:.17g}")


def _frac(x) -> dict:
    f = Fraction(x)
    return {"numerator": f.numerator, "denominator": f.denominator}


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse {what} {text!r}") from None


def _parse_coeffs(text: str) -> EquationCoeffs:
    return EquationCoeffs(tuple(_parse_ints(text, "coefficients")))


def _parse_frequency(text: str) -> Fraction:
    f = rational(text)
    if not 0 <= f < 1:
        raise ValidationError(f"frequency must lie in [0, 1), got {text}")
    return f


def _emit_json(doc: dict, file=None) -> None:
    """One JSON line.  Integers are printed in full, also past the
    interpreter's int-to-str digit limit (a Bohr size bound's left side
    |B| ceil(4/eps)^(1+R) can have tens of thousands of digits)."""
    # the limit exists from Python 3.10.7 on; 0 lifts it
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(doc, sort_keys=True)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text, file=file)


def _config(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys}


def _set_summary(s: IntegerSet) -> dict:
    return {
        "size": s.size,
        "ambient_n": s.ambient_n,
        "energy": s.profile.energy,
        "eta": _frac(s.eta),
        "delta": _frac(s.density),
        "is_sidon": is_sidon(s),
    }


def _int_bound_dict(v) -> dict:
    return {"lhs": int(v.lhs), "rhs": int(v.rhs), "holds": v.holds}


def _cmd_construct(args) -> int:
    if args.kind == "erdos-turan":
        if args.p is None:
            raise ValidationError("construct erdos-turan requires --p")
        # |S| = p, and the summary reads the profile: refuse p before the build
        check_pairs(check_span(args.p, "the Erdos-Turan set"))
        s = erdos_turan(args.p)
    elif args.kind == "mian-chowla":
        if args.k is None:
            raise ValidationError("construct mian-chowla requires --k")
        # |S| = k: refuse k before the greedy search, as p above
        s = mian_chowla(check_pairs(args.k))
    else:
        if args.infile is None or args.extra is None:
            raise ValidationError("construct perturb requires --in and --extra")
        s = perturb_almost_sidon(read_set_file(args.infile), args.extra, args.seed)
    doc = {
        "schema": 1,
        "config": _config(args, ["kind", "p", "k", "extra", "seed", "out"]),
        **_set_summary(s),
    }
    if args.out:
        write_set_file(s, args.out)
        _emit_json(doc)
    else:
        write_set_file(s, sys.stdout)
        _emit_json(doc, sys.stderr)
    return EXIT_OK


def _cmd_energy(args) -> int:
    s = read_set_file(args.set)
    doc = {
        "schema": 1,
        "config": _config(args, ["set"]),
        **_set_summary(s),
    }
    _emit_json(doc)
    return EXIT_OK


def _count_functions(args, s: int) -> list[ScaledFunction]:
    if args.interval is not None:
        return [ScaledFunction.from_interval(1, args.interval, args.interval)] * s
    if not args.sets:
        raise ValidationError("count requires --sets or --interval")
    if len(args.sets) not in (1, s):
        raise ValidationError(
            f"give one set file or exactly {s}, got {len(args.sets)}"
        )
    sets = [read_set_file(path) for path in args.sets]
    if len(sets) == 1:
        sets = sets * s
    return [ScaledFunction.from_set(x) for x in sets]


def _cmd_count(args) -> int:
    eq = _parse_coeffs(args.coeffs)
    doc = {
        "schema": 1,
        "config": _config(args, ["coeffs", "sets", "interval", "distinct", "oracle"]),
    }
    if args.distinct:
        if args.interval is not None or not args.sets or len(args.sets) != 1:
            raise ValidationError("--distinct needs exactly one set file")
        s_set = read_set_file(args.sets[0])
        result = count_distinct_solutions(eq, s_set)
        if args.oracle:
            fns = [ScaledFunction.from_set(s_set)] * eq.s
    else:
        fns = _count_functions(args, eq.s)
        result = count_solutions(eq, fns)
    doc["value_numerator"] = result.value.numerator
    doc["value_denominator"] = result.value.denominator
    doc["half_power"] = 0  # kept for schema stability
    agrees = True
    if args.oracle:
        oracle = brute_force_count(eq, fns, distinct_only=args.distinct)
        agrees = doc["oracle_agrees"] = oracle.value == result.value
    _emit_json(doc)
    return EXIT_OK if agrees else EXIT_VERDICT_FAILURE


def _cmd_spectrum(args) -> int:
    s = read_set_file(args.set)
    spectrum = large_spectrum(s, args.eps, args.m)
    m = spectrum.grid_m
    selected = set(spectrum.separated)
    cfg = _config(args, ["set", "eps", "m"])
    print(f"# schema=1 config={json.dumps(cfg, sort_keys=True)}")
    print(f"# grid_m={m} entries={len(spectrum.entries)} "
          f"r_count={spectrum.r_count}")
    print("k\tm\talpha\tmagnitude\tselected")
    for k, mag in zip(spectrum.entries, spectrum.magnitudes):
        sel = 1 if k in selected else 0
        print(f"{k}\t{m}\t{_float17(k / m)}\t{_float17(mag)}\t{sel}")
    return EXIT_OK


def _cmd_bohr(args) -> int:
    eps = rational(args.eps)
    freqs = [_parse_frequency(t) for t in (args.freq or [])]
    # one grid for all: k/d = (k m/d)/m scales each membership test by m/d
    m = lcm(*(f.denominator for f in freqs))
    b = bohr_set([f.numerator * (m // f.denominator) for f in freqs], m,
                 eps, args.n)
    verdict = bohr_size_bound(b.size, eps, len(freqs), args.n)
    doc = {
        "schema": 1,
        "config": _config(args, ["freq", "eps", "n"]),
        "width": b.width,
        "size": b.size,
        "elements": list(b.elements),
        "size_bound": _int_bound_dict(verdict),
    }
    _emit_json(doc)
    return EXIT_OK if verdict.holds else EXIT_VERDICT_FAILURE


def _model_fields(model) -> dict:
    return {
        "bohr_size": model.bohr.size,
        "bohr_width": model.bohr.width,
        "r_count": model.spectrum.r_count,
        "mass": model.mass,
        "mass_identity_holds": model.mass_identity_holds,
        "l2_value": _frac(model.l2_value),
        "fourier_distance": _float17(model.fourier_distance),
        "containment_holds": model.containment_holds,
    }


def _cmd_model(args) -> int:
    s = read_set_file(args.set)
    model = dense_model(s, args.eps, args.m)
    doc = {
        "schema": 1,
        "config": _config(args, ["set", "eps", "m"]),
        "n_padded": model.n_padded,
        "grid_m": model.spectrum.grid_m,
        **_model_fields(model),
        "size_bound": _int_bound_dict(model.size_bound),
    }
    _emit_json(doc)
    return EXIT_OK if model.theorem_verdicts_hold else EXIT_VERDICT_FAILURE


def _cmd_verify(args) -> int:
    results = run_suites(args.suite, args.seed, args.trials)
    doc = {
        "schema": 1,
        "config": _config(args, ["suite", "seed", "trials"]),
        "suites": [r.summary() for r in results],
        "all_ok": all(r.ok for r in results),
    }
    _emit_json(doc)
    return EXIT_OK if doc["all_ok"] else EXIT_VERDICT_FAILURE


def _verdict_dict(v) -> dict:
    return {
        "name": v.name,
        "lhs": _frac(v.lhs),
        "rhs": _frac(v.rhs),
        "holds": v.holds,
        "applicable": v.applicable,
    }


def _cmd_report(args) -> int:
    s = read_set_file(args.set)
    eq = _parse_coeffs(args.coeffs)
    rep = transference_report(s, eq, args.eps, args.m, args.fourier_c)
    model = rep.model
    doc = {
        "schema": 1,
        "config": _config(args, ["set", "coeffs", "eps", "m", "fourier_c"]),
        "params": {
            "n_original": rep.n_original,
            "n_padded": model.n_padded,
            "sqrt_n": model.sqrt_n,
            "size": model.padded.size,
            "delta": _frac(model.padded.density),
            "eta": _frac(model.padded.eta),
            "eps": _frac(model.spectrum.threshold),
            "coeffs": list(eq.coeffs),
        },
        "model": {
            **_model_fields(model),
            "selected_frequencies": [
                [k, model.spectrum.grid_m] for k in model.spectrum.separated
            ],
            "fourier_bound_holds": model.fourier_bound_holds(rep.fourier_c),
            "size_bound": _verdict_dict(model.size_bound),
        },
        "majorant": {
            "mass": _frac(rep.nu_mass),
            "energy": _frac(rep.nu_energy),
            "mass_bound_holds": rep.nu_mass_bound_holds,
            "energy_bound_holds": rep.nu_energy_bound_holds,
        },
        "counts": {
            "model_count": _frac(rep.model_count),
            "set_count_raw": rep.set_count_raw,
            "set_count": _frac(rep.set_count),
            "difference": _frac(rep.difference),
            "counting_comparison": _float17(rep.counting_comparison),
            "c_s": _float17(rep.c_s),
            "eps_n_power": _float17(rep.eps_n_power),
        },
        "verdicts": {
            "repeated_difference": _verdict_dict(rep.repeated_difference),
            "size_bound": _verdict_dict(rep.size_bound),
            "model_l2": {
                "lhs": int(rep.model_l2.lhs),
                "rhs": int(rep.model_l2.rhs),
                "holds": rep.model_l2.holds,
                "l2_over_n": _frac(model.l2_value / model.n_padded),
            },
            "level_set": {
                "size": len(rep.level_set.level_set),
                "hyp_mass_ok": rep.level_set.hyp_mass_ok,
                "hyp_l2_ok": rep.level_set.hyp_l2_ok,
                "lhs": rep.level_set.lhs,
                "rhs": _frac(rep.level_set.rhs),
                "holds": rep.level_set.holds,
            },
        },
        "theorem_verdicts_hold": rep.theorem_verdicts_hold,
    }
    _emit_json(doc)
    return EXIT_OK if rep.theorem_verdicts_hold else EXIT_VERDICT_FAILURE


def _cmd_bench(args) -> int:
    eq = _parse_coeffs(args.coeffs)
    sizes = _parse_ints(args.sizes, "sizes")
    if any(n <= 0 for n in sizes):
        raise ValidationError("sizes must be positive")
    cfg = _config(args, ["sizes", "coeffs"])
    # the table is printed whole, so a refused size leaves stdout empty
    rows = [f"# schema=1 config={json.dumps(cfg, sort_keys=True)}",
            "N\tfast_ms\tbrute_ms\tspeedup"]
    for n in sizes:
        fns = [ScaledFunction.from_interval(1, n, n)] * eq.s
        t0 = time.perf_counter()
        fast = count_solutions(eq, fns)
        fast_ms = (time.perf_counter() - t0) * 1e3
        try:
            t0 = time.perf_counter()
            slow = brute_force_count(eq, fns)
            brute_ms = (time.perf_counter() - t0) * 1e3
            if slow.value != fast.value:
                print("\n".join(rows))
                print(f"# MISMATCH at N={n}", file=sys.stderr)
                return EXIT_VERDICT_FAILURE
            speed = brute_ms / fast_ms if fast_ms > 0 else float("inf")
            rows.append(f"{n}\t{fast_ms:.3f}\t{brute_ms:.3f}\t{speed:.2f}")
        except BudgetExceededError:
            rows.append(f"{n}\t{fast_ms:.3f}\tskipped\tskipped")
    print("\n".join(rows))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first main call and shared by every later one: each
    parse_args call makes a fresh Namespace."""
    p = argparse.ArgumentParser(
        prog="sidonlab",
        description="Exact arithmetic for Sidon sets, solution counting, "
        "spectra, and Bohr-set dense models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a set and write a set file")
    c.add_argument("kind", choices=["erdos-turan", "mian-chowla", "perturb"])
    c.add_argument("--p", type=int, default=None, help="prime for erdos-turan")
    c.add_argument("--k", type=int, default=None, help="length for mian-chowla")
    c.add_argument("--in", dest="infile", default=None, help="input set file")
    c.add_argument("--extra", type=int, default=None, help="points to add")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None, help="output set file (default stdout)")
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("energy", help="profile statistics of a set file")
    e.add_argument("--set", required=True)
    e.set_defaults(func=_cmd_energy)

    ct = sub.add_parser("count", help="exact solution count of sum a_i x_i = 0")
    ct.add_argument("--coeffs", required=True, help="e.g. 1,1,1,1,-4")
    ct.add_argument("--sets", nargs="+", default=None,
                    help="one set file, or one per variable")
    ct.add_argument("--interval", type=int, default=None,
                    help="use the full interval [1, N] for every variable")
    ct.add_argument("--distinct", action="store_true",
                    help="count only all-distinct solutions")
    ct.add_argument("--oracle", action="store_true",
                    help="cross-check against brute force, exit 1 on mismatch")
    ct.set_defaults(func=_cmd_count)

    sp = sub.add_parser("spectrum", help="large spectrum as TSV")
    sp.add_argument("--set", required=True)
    sp.add_argument("--eps", required=True, help='threshold, e.g. "1/5"')
    sp.add_argument("--m", type=int, default=None, help="grid size")
    sp.set_defaults(func=_cmd_spectrum)

    bo = sub.add_parser("bohr", help="enumerate a Bohr set")
    bo.add_argument("--freq", action="append", default=None,
                    help='frequency "k/m", repeatable')
    bo.add_argument("--eps", required=True)
    bo.add_argument("--n", type=int, required=True)
    bo.set_defaults(func=_cmd_bohr)

    mo = sub.add_parser("model", help="Bohr-set dense model diagnostics")
    mo.add_argument("--set", required=True)
    mo.add_argument("--eps", required=True)
    mo.add_argument("--m", type=int, default=None)
    mo.set_defaults(func=_cmd_model)

    ve = sub.add_parser("verify", help="run seeded verification suites")
    ve.add_argument("suite", choices=["lemmas", "counting", "model", "all"])
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--trials", type=int, default=50)
    ve.set_defaults(func=_cmd_verify)

    re = sub.add_parser("report", help="full transference report as JSON")
    re.add_argument("--set", required=True)
    re.add_argument("--coeffs", required=True)
    re.add_argument("--eps", required=True)
    re.add_argument("--m", type=int, default=None)
    re.add_argument("--fourier-c", type=int, default=DEFAULT_FOURIER_C)
    re.set_defaults(func=_cmd_report)

    be = sub.add_parser("bench", help="time the fast path against brute force")
    be.add_argument("--sizes", required=True, help="e.g. 16,32,64")
    be.add_argument("--coeffs", default="1,1,-2")
    be.set_defaults(func=_cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory; try smaller inputs or a lower budget",
              file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
