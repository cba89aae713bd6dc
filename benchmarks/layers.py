"""Per-layer metrics of the traced run, computed from spans and counts.

Times and counts are per traced pass unless the name says max or frac.
Which end-to-end metric and workload each one should move is written down
in METRICS.md.  A metric whose wrapped function is missing (or whose hook
could no longer read its arguments) reads 0 and its layer is listed as
absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from tracing import SUITES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]
    value: Callable[["_Context"], float]


class _Context:
    def __init__(self, tracer, runner, passes):
        self.tracer = tracer
        self.runner = runner
        self.passes = passes
        self.st = tracer.self_times()
        self.c = tracer.counts

    def per_pass_count(self, key):
        return self.c.get(key, 0) / self.passes

    def per_pass_self(self, *names):
        return sum(self.st.get(n, 0.0) for n in names) / self.passes


def _ratio(num, den):
    return num / den if den else 0.0


CONV = ("convolve.convolve",)
KERNEL_SPANS = ("convolve.long", "convolve.wide", "convolve.short", "convolve.convolve")


def _count(name, needs, better="lower"):
    return Metric(name, "count", better, needs, lambda x: x.per_pass_count(name))


def _self(name, needs=None, *spans):
    """Self time per pass of the spans named `spans` (default: the metric
    name without its `.self_s`), which needs the wrapped function of that
    name unless `needs` says otherwise."""
    span = name[: -len(".self_s")]
    spans = spans or (span,)
    return Metric(name, "s", "lower", needs or (span,),
                  lambda x: x.per_pass_self(*spans))


PER_LAYER: list[Metric] = [
    _count("convolve.calls", CONV),
    _self("convolve.self_s", CONV + ("convolve.convolve_many",),
          *KERNEL_SPANS, "convolve.convolve_many"),
    _count("convolve.convolve_many.calls", ("convolve.convolve_many",)),
    _count("convolve.macs", CONV),
    Metric("convolve.ns_per_mac", "ns", "lower", CONV,
           lambda x: _ratio(sum(x.st.get(n, 0.0) for n in KERNEL_SPANS) * 1e9,
                            x.c.get("convolve.macs", 0))),
    Metric("convolve.out_bits_max", "bits", "lower", CONV,
           lambda x: x.c.get("convolve.out_bits_max", 0)),
    *[m for kind in ("long", "wide", "short") for m in (
        _count(f"convolve.{kind}.calls", CONV),
        _self(f"convolve.{kind}.self_s", CONV))],

    _count("counting.count_solutions.calls", ("counting.count_solutions",)),
    _self("counting.count_solutions.self_s"),
    _count("counting.count_solutions.weight_entries", ("counting.count_solutions",)),
    _self("counting.count_distinct_solutions.self_s"),
    _self("counting.degenerate_bound_check.self_s"),
    Metric("counting.partitions", "count", "lower",
           ("counting.count_distinct_solutions", "convolve.convolve_many"),
           lambda x: x.tracer.descendant_count(
               "convolve.convolve_many", "counting.count_distinct_solutions") / x.passes),
    Metric("counting.partitions.unique_frac", "ratio", "lower",
           ("counting.count_distinct_solutions",),
           lambda x: _ratio(x.c.get("counting.partitions.unique", 0),
                            x.c.get("counting.partitions.lattice", 0))),
    _count("counting.brute_force_count.calls", ("counting.brute_force_count",)),
    _self("counting.brute_force_count.self_s"),
    _count("counting.brute_force_count.tuples", ("counting.brute_force_count",)),
    Metric("counting.oracle_check_s", "s", "lower", (),
           lambda x: _ratio(sum(x.runner.oracle_per_pass), len(x.runner.oracle_per_pass))),
    Metric("counting.fast_over_oracle", "ratio", "lower", (),
           lambda x: _ratio(sum(x.runner.fast_s), sum(x.runner.oracle_s))),

    _count("spectral.dft_values.calls", ("spectral.dft_values",)),
    _count("spectral.dft.points", ("spectral.dft_values",)),
    _self("spectral.dft.nonpow2.self_s", ("spectral.dft_values",)),
    _self("spectral.dft.pow2.self_s", ("spectral.dft_values",)),
    _self("spectral.large_spectrum.self_s"),
    _count("spectral.large_spectrum.entries", ("spectral.large_spectrum",)),
    _count("spectral.large_spectrum.r_count", ("spectral.large_spectrum",)),
    _self("spectral.sup_norm_estimate.self_s"),
    _self("spectral.large_sieve_diagnostic.self_s"),
    _self("spectral.energy_via_fourier.self_s"),

    _count("transference.bohr_set.calls", ("transference.bohr_set",)),
    _self("transference.bohr_set.self_s"),
    _count("transference.bohr_set.scan_width", ("transference.bohr_set",)),
    Metric("transference.bohr_set.size_max", "count", "lower",
           ("transference.bohr_set",),
           lambda x: x.c.get("transference.bohr_set.size_max", 0)),
    Metric("transference.bohr_set.trivial_frac", "ratio", "lower",
           ("transference.bohr_set",),
           lambda x: _ratio(x.c.get("transference.bohr_set.trivial", 0),
                            x.c.get("transference.bohr_set.calls", 0))),
    _self("transference.dense_model.self_s"),
    _self("transference.verify_model_l2.self_s"),
    _count("transference.verify_model_l2.bohr_pairs", ("transference.verify_model_l2",)),
    _self("transference.transference_report.self_s"),
    _self("transference.verify_counting_bound.self_s"),

    _count("sets.representation_profile.calls", ("sets.representation_profile",)),
    _self("sets.representation_profile.self_s"),
    _count("sets.representation_profile.pairs", ("sets.representation_profile",)),
    Metric("sets.representation_profile.unique_frac", "ratio", "lower",
           ("sets.representation_profile",),
           lambda x: _ratio(len(x.tracer.profile_inputs),
                            x.c.get("sets.representation_profile.calls", 0))),
    _self("sets.read_set_file.self_s"),

    *[_self(f"suites.{s}.self_s", (f"suites.suite_{s}",), f"suites.suite_{s}")
      for s in SUITES],
    _count("suites.trials", tuple(f"suites.suite_{s}" for s in SUITES), better="higher"),
    _count("suites.failures", tuple(f"suites.suite_{s}" for s in SUITES)),

    _count("cli.main.calls", ("cli.main",)),
    _self("cli.main.self_s"),
    Metric("cli.stdout_bytes", "B", "lower", ("cli.main",),
           lambda x: x.runner.stdout_bytes / x.passes),
]


def per_layer(tracer, runner, passes):
    """({name: (value, unit)} for every per-layer metric, the absent
    layers, and the metrics that read 0 because they need one)."""
    ctx = _Context(tracer, runner, passes)
    missing = tracer.absent | tracer.broken
    out, zeroed = {}, []
    for m in PER_LAYER:
        if missing.intersection(m.needs):
            out[m.name] = (0.0, m.unit)
            zeroed.append(m.name)
        else:
            out[m.name] = (float(m.value(ctx)), m.unit)
    return out, sorted(missing), zeroed
