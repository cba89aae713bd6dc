"""The library's input contract for rational and integer arguments.

Every public routine that takes eps or delta reads it with sets.rational:
an int, a Fraction or a "p/q" string is accepted, and anything else, a
float included, is refused with ValidationError, as is a value outside the
routine's range.  Integer arguments (frequencies, grid sizes, widths,
ambients, seeds) are read with operator.index: a Python or numpy integer
is accepted, and a float raises TypeError before any scan or draw.  Every
name the package exports resolves, once.
"""

import json
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

import sidonlab

from sidonlab.counting import EquationCoeffs, ScaledFunction
from sidonlab.errors import ValidationError
from sidonlab.sets import erdos_turan, philox, rational
from sidonlab.spectral import Spectrum, large_sieve_diagnostic, large_spectrum
from sidonlab.transference import (
    BohrSet,
    bohr_set,
    bohr_size_bound,
    dense_model,
    transference_report,
    verify_l2_reduction,
)

ET5 = erdos_turan(5)

# (routine of eps, a value past its bound, whether 1 is in its range)
ROUTINES = {
    "bohr_set": (lambda eps: bohr_set((3,), 16, eps, 40), "3/5", False),
    "bohr_size_bound": (lambda eps: bohr_size_bound(5, eps, 1, 40), "3/5", False),
    "dense_model": (lambda eps: dense_model(ET5, eps), "3/5", False),
    "large_spectrum": (lambda eps: large_spectrum(ET5, eps), "2", True),
    "transference_report": (
        lambda eps: transference_report(ET5, EquationCoeffs((1, 1, 1, 1, -4)), eps),
        "3/5", False),
    "verify_l2_reduction": (
        lambda delta: verify_l2_reduction(ScaledFunction.from_set(ET5), delta),
        "2", True),
}


class TestRational:
    @pytest.mark.parametrize("x, want", [
        (3, Fraction(3)), (np.int64(3), Fraction(3)), (Fraction(1, 5), Fraction(1, 5)),
        ("1/5", Fraction(1, 5)), ("0.2", Fraction(1, 5)), (" 1/5 ", Fraction(1, 5)),
        ("1e-1", Fraction(1, 10)), ("-2/4", Fraction(-1, 2)),
    ])
    def test_exact_values_read(self, x, want):
        assert rational(x) == want

    @pytest.mark.parametrize("x", [0.2, 1.0, np.float64(0.2), np.float32(0.5)],
                             ids=["float", "integral-float", "float64", "float32"])
    def test_floats_refused(self, x):
        with pytest.raises(ValidationError, match="cannot parse rational"):
            rational(x)

    @pytest.mark.parametrize("x", ["abc", "1/0", "", None, 1j, [1]])
    def test_unreadable_refused(self, x):
        with pytest.raises(ValidationError, match="cannot parse rational"):
            rational(x)

    def test_message_names_the_text(self):
        with pytest.raises(ValidationError) as info:
            rational("abc")
        assert str(info.value) == ("cannot parse rational 'abc': "
                                   "Invalid literal for Fraction: 'abc'")


@pytest.mark.parametrize("name", ROUTINES)
@pytest.mark.parametrize("bad", ["abc", "1/0", None, 0.2, 0, "past"])
def test_bad_rationals_refused(name, bad):
    call, past, _ = ROUTINES[name]
    with pytest.raises(ValidationError):
        call(past if bad == "past" else bad)


@pytest.mark.parametrize("name", ROUTINES)
def test_good_rationals_agree(name):
    call, _, one_in_range = ROUTINES[name]
    assert call("1/5") == call(Fraction(1, 5))
    if one_in_range:
        assert call(1) == call("1") == call(Fraction(1))


class TestIntegerArguments:
    def test_float_frequency_refused(self):
        with pytest.raises(TypeError):
            bohr_set([1.5], 7, "1/5", 60)

    @pytest.mark.parametrize("m, n", [(7.0, 60), (7, 60.0)])
    def test_float_grid_or_ambient_refused(self, m, n):
        with pytest.raises(TypeError):
            bohr_set([1], m, "1/5", n)

    def test_numpy_integers_give_the_same_set(self):
        want = bohr_set([1, 3], 7, "1/5", 60)
        got = bohr_set(np.array([1, 3]), np.int64(7), "1/5", np.int64(60))
        assert got == want
        fields = asdict(got)
        assert all(type(fields[name]) is int for name in ("grid_m", "width", "ambient_n"))
        assert all(type(k) is int for k in got.ks)
        json.dumps({k: v for k, v in fields.items() if k != "radius"})

    @pytest.mark.parametrize("field", ["ks", "grid_m", "width", "ambient_n"])
    def test_hand_built_bohr_set_reads_integers(self, field):
        b = bohr_set([1], 3, "1/4", 40)
        args = {"ks": b.ks, "grid_m": 3, "radius": b.radius, "width": 10,
                "elements": b.elements, "ambient_n": 40}
        numpy_args = dict(args, **{field: np.array(b.ks) if field == "ks"
                                   else np.int64(args[field])})
        assert BohrSet(**numpy_args) == b
        with pytest.raises(TypeError):
            BohrSet(**dict(args, **{field: (1.0,) if field == "ks"
                                    else float(args[field])}))

    def test_float_seed_refused(self):
        with pytest.raises(TypeError):
            philox(1.5)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int8(7)])
    def test_numpy_seed_gives_the_same_draws(self, seed):
        assert (philox(seed).integers(0, 2**40, size=8).tolist()
                == philox(7).integers(0, 2**40, size=8).tolist())


def test_negative_weight_refused_by_the_l2_reduction():
    # the level-set lemma is for f >= 0
    with pytest.raises(ValidationError, match="nonnegative"):
        verify_l2_reduction(ScaledFunction(1, (-5, 1), 1, 4), "1/2")
    assert verify_l2_reduction(ScaledFunction(1, (5, 1), 1, 4), "1/2").level_set == (1, 2)


class TestSpectrumShape:
    """A Spectrum refuses a shape the sieve could not read."""

    @pytest.mark.parametrize("entries, mags, sep", [
        ((0, 20), (3.0,), (0, 20)),       # fewer magnitudes than entries
        ((20, 0), (0.0, 3.0), (20,)),     # entries out of order
    ], ids=["misaligned", "unsorted"])
    def test_found_shapes_refused_on_et3(self, entries, mags, sep):
        # both used to end in a raw IndexError inside large_sieve_diagnostic
        with pytest.raises(ValidationError):
            large_sieve_diagnostic(erdos_turan(3),
                                   Spectrum(Fraction(1, 5), 36, entries, mags, sep))

    @pytest.mark.parametrize("entries", [(0, 0), (-1, 3), (3, 36)],
                             ids=["repeated", "negative", "past-grid"])
    def test_entries_outside_the_grid_refused(self, entries):
        with pytest.raises(ValidationError, match=r"inside \[0, 36\)"):
            Spectrum(Fraction(1, 5), 36, entries, (3.0, 3.0), ())

    def test_separated_out_of_order_refused(self):
        with pytest.raises(ValidationError, match="subsequence"):
            Spectrum(Fraction(1, 5), 36, (0, 20), (3.0, 3.0), (20, 0))

    def test_valid_shapes_kept(self):
        spec = Spectrum(Fraction(1, 5), 36, (0, 3, 20), (3.0,) * 3, (0, 20))
        assert spec.r_count == 2
        assert Spectrum(Fraction(1), 1, (), (), ()).entries == ()


def test_exports_resolve_once():
    names = sidonlab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(sidonlab, name)]
    assert missing == []
