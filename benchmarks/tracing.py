"""Span recorder for the traced benchmark run.

The tracer wraps public sidonlab functions by rebinding their names inside
every loaded ``sidonlab`` module, so calls made from within the library
(``convolve_many`` calling ``convolve``, ``degenerate_bound_check`` calling
``count_solutions``) are caught as well.  Each call becomes a span
(name, start, end, parent, job id); the counts that describe the work
(multiply-accumulates, grid points, tuples enumerated, ...) are computed
from the call's arguments and results only, so they repeat exactly for the
same inputs.

A name that a later version of sidonlab deletes or renames is recorded as
an absent layer instead of failing the run.  Bookkeeping done around a call
(classifying arguments, measuring outputs) lies outside the span's own
[start, end] but inside its cover interval, which is what a parent span
subtracts, so it is charged to no layer; it shows up only in
``trace.overhead_frac``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from math import gcd
from time import perf_counter

LONG_LEN = 1 << 14
WIDE_BOUND = 1 << 62

SUITES = (
    "lemma_inequalities",
    "oracle_equivalence",
    "distinct_equivalence",
    "energy_three_ways",
    "counting_bound",
    "dense_model",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    cover_start: float
    cover_end: float
    parent: int
    job: str | None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _max_abs(seq) -> int:
    return max(map(abs, seq)) if seq else 0


# --- per-function hooks ------------------------------------------------------
#
# A hook receives the tracer and the call's arguments before the call and
# returns the span name; `post` hooks receive the result afterwards.  Hooks
# only read their arguments and never mutate them.


def _pre_convolve(tr, args, kwargs):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    la, lb = len(a), len(b)
    tr.add("convolve.macs", la * lb)
    if la and lb and la + lb - 1 > LONG_LEN:
        kind = "long"
    elif la and lb and min(la, lb) * _max_abs(a) * _max_abs(b) >= WIDE_BOUND:
        kind = "wide"
    else:
        kind = "short"
    tr.add(f"convolve.{kind}.calls", 1)
    tr.add("convolve.calls", 1)
    return f"convolve.{kind}"


def _post_convolve(tr, result, args, kwargs):
    tr.peak("convolve.out_bits_max", _max_abs(result).bit_length())


def _pre_convolve_many(tr, args, kwargs):
    tr.add("convolve.convolve_many.calls", 1)
    return "convolve.convolve_many"


def _pre_count_solutions(tr, args, kwargs):
    fns = _arg(args, kwargs, 1, "fns")
    tr.add("counting.count_solutions.calls", 1)
    if isinstance(fns, (list, tuple)):
        tr.add("counting.count_solutions.weight_entries",
               sum(len(f.weights) for f in fns))
    return "counting.count_solutions"


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def _normalised(coeffs: list[int]) -> tuple[int, ...]:
    """Equation key up to scaling, sign and order of variables."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    scaled = sorted(c // g for c in coeffs)
    flipped = sorted(-c for c in scaled)
    return tuple(min(scaled, flipped))


def partition_stats(coeffs: tuple[int, ...]) -> tuple[int, int]:
    """(partitions with a constrained merged equation, distinct normalised
    merged equations) for inclusion-exclusion over the variables of
    `coeffs`.  Computed here from the equation alone, with no sidonlab
    code."""
    parts = 0
    keys = set()
    for part in _set_partitions(list(range(len(coeffs)))):
        merged = [sum(coeffs[i] for i in block) for block in part]
        nonzero = [c for c in merged if c != 0]
        if nonzero:
            parts += 1
            keys.add(_normalised(nonzero))
    return parts, len(keys)


def _pre_count_distinct(tr, args, kwargs):
    eq = _arg(args, kwargs, 0, "eq")
    s_set = _arg(args, kwargs, 1, "s_set")
    if s_set.size:
        parts, unique = partition_stats(eq.coeffs)
        tr.add("counting.partitions.lattice", parts)
        tr.add("counting.partitions.unique", unique)
    return "counting.count_distinct_solutions"


def _pre_brute(tr, args, kwargs):
    fns = _arg(args, kwargs, 1, "fns")
    tr.add("counting.brute_force_count.calls", 1)
    if isinstance(fns, (list, tuple)):
        tuples = 1
        for f in fns[:-1]:
            tuples *= sum(1 for w in f.weights if w != 0)
        tr.add("counting.brute_force_count.tuples", tuples)
    return "counting.brute_force_count"


def _pre_dft(tr, args, kwargs):
    m = _arg(args, kwargs, 1, "m")
    tr.add("spectral.dft_values.calls", 1)
    tr.add("spectral.dft.points", m)
    return "spectral.dft.pow2" if m >= 1 and m & (m - 1) == 0 else "spectral.dft.nonpow2"


def _post_large_spectrum(tr, result, args, kwargs):
    tr.add("spectral.large_spectrum.entries", len(result.entries))
    tr.add("spectral.large_spectrum.r_count", result.r_count)


def _post_bohr(tr, result, args, kwargs):
    tr.add("transference.bohr_set.calls", 1)
    tr.add("transference.bohr_set.scan_width", 2 * result.width + 1)
    tr.add("transference.bohr_set.trivial", 1 if result.size == 1 else 0)
    tr.peak("transference.bohr_set.size_max", result.size)


def _pre_model_l2(tr, args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    tr.add("transference.verify_model_l2.bohr_pairs", model.bohr.size ** 2)
    return "transference.verify_model_l2"


def _pre_profile(tr, args, kwargs):
    s = _arg(args, kwargs, 0, "s")
    tr.add("sets.representation_profile.calls", 1)
    tr.add("sets.representation_profile.pairs", s.size ** 2)
    tr.profile_inputs.add(s.elements)
    return "sets.representation_profile"


def _post_suite(tr, result, args, kwargs):
    tr.add("suites.trials", result.trials)
    tr.add("suites.failures", len(result.failures))


def _pre_cli_main(tr, args, kwargs):
    tr.add("cli.main.calls", 1)
    return "cli.main"


# (module, function, pre hook or None, post hook or None)
WRAPPED = [
    ("convolve", "convolve", _pre_convolve, _post_convolve),
    ("convolve", "convolve_many", _pre_convolve_many, None),
    ("counting", "count_solutions", _pre_count_solutions, None),
    ("counting", "count_distinct_solutions", _pre_count_distinct, None),
    ("counting", "degenerate_bound_check", None, None),
    ("counting", "brute_force_count", _pre_brute, None),
    ("spectral", "dft_values", _pre_dft, None),
    ("spectral", "large_spectrum", None, _post_large_spectrum),
    ("spectral", "sup_norm_estimate", None, None),
    ("spectral", "large_sieve_diagnostic", None, None),
    ("spectral", "energy_via_fourier", None, None),
    ("transference", "bohr_set", None, _post_bohr),
    ("transference", "dense_model", None, None),
    ("transference", "verify_model_l2", _pre_model_l2, None),
    ("transference", "transference_report", None, None),
    ("transference", "verify_counting_bound", None, None),
    ("sets", "representation_profile", _pre_profile, None),
    ("sets", "read_set_file", None, None),
    *[("suites", f"suite_{name}", None, _post_suite) for name in SUITES],
    ("cli", "main", _pre_cli_main, None),
]


class Tracer:
    """Collects spans and counts while installed and recording."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.profile_inputs: set = set()
        self.absent: set[str] = set()
        self.broken: set[str] = set()
        self.recording = False
        self.job: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    def add(self, key: str, amount) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sidonlab" or n.startswith("sidonlab."))]
        for mod_name, func_name, pre, post in WRAPPED:
            layer = f"{mod_name}.{func_name}"
            home = sys.modules.get(f"sidonlab.{mod_name}")
            orig = getattr(home, func_name, None) if home is not None else None
            if not callable(orig):
                self.absent.add(layer)
                continue
            wrapper = self._wrap(orig, layer, pre, post)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, orig, layer, pre, post):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return orig(*args, **kwargs)
            cover_start = perf_counter()
            name = layer
            if pre is not None:
                try:
                    name = pre(tracer, args, kwargs)
                except Exception:
                    tracer.broken.add(layer)
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, cover_start, end,
                                  parent, tracer.job)
            if post is not None:
                try:
                    post(tracer, result, args, kwargs)
                except Exception:
                    tracer.broken.add(layer)
            spans[idx].cover_end = perf_counter()
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", layer)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name: duration minus the cover
        intervals of direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.cover_end - span.cover_start
        out: dict[str, float] = defaultdict(float)
        for span, child in zip(self.spans, covered):
            out[span.name] += (span.end - span.start) - child
        return out

    def descendant_count(self, name: str, ancestor: str) -> int:
        """Spans called `name` with an ancestor span called `ancestor`."""
        total = 0
        for span in self.spans:
            if span.name != name:
                continue
            p = span.parent
            while p >= 0:
                if self.spans[p].name == ancestor:
                    total += 1
                    break
                p = self.spans[p].parent
        return total
