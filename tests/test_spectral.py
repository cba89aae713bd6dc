"""Grid transforms, spectra, separated subsets, large sieve."""

import cmath

import numpy as np
import pytest
from fractions import Fraction

import sidonlab.counting as counting_module
import sidonlab.sets as sets_module
from sidonlab.counting import ScaledFunction
from sidonlab.errors import ValidationError
from sidonlab.sets import MAX_POINTS, IntegerSet, erdos_turan, representation_profile
from sidonlab.spectral import (
    OVERSAMPLE,
    Spectrum,
    _grid_sups,
    _spectrum_from_magnitudes,
    default_grid,
    dft_magnitudes,
    dft_values,
    energy_via_fourier,
    large_sieve_diagnostic,
    large_spectrum,
    sup_norm_estimate,
)


def reference_dft(f: ScaledFunction, m: int):
    """Direct complex sum, independent of any fft."""
    out = []
    for k in range(m):
        val = sum(
            float(w) * cmath.exp(2j * cmath.pi * k * (f.offset + j) / m)
            for j, w in enumerate(f.weights)
        )
        out.append(val)
    return out


def one_dimensional_dft(f: ScaledFunction, m: int):
    """The slow route of dft_values: its own residue placement and 1-D
    inverse FFT, as dft_values computed it before it became the one-row case
    of the stacked transform."""
    arr = np.zeros(m, dtype=complex)
    if not len(f.nums):
        return arr
    w = f.float_weights()
    start = f.offset % m
    if len(w) <= m:
        head = min(len(w), m - start)
        arr[start:start + head] = w[:head]
        arr[:len(w) - head] = w[head:]
    else:
        np.add.at(arr, (np.arange(len(w), dtype=np.int64) + start) % m, w)
    return m * np.fft.ifft(arr)


def grid_sup(f: ScaledFunction, rho: int) -> float:
    """max |f_hat| on the grid of rho * width points."""
    return float(dft_magnitudes(f, rho * max(1, len(f.nums))).max())


def interval(n):
    return ScaledFunction.from_interval(1, n, n)


def random_function(rng, width=24):
    off = int(rng.integers(-10, 10))
    ws = tuple(Fraction(int(x)) for x in rng.integers(-4, 5, size=width))
    return ScaledFunction.from_weights(off, ws, width)


def wrap_distance(a: Fraction, b: Fraction) -> Fraction:
    """Exact distance of two points of the circle, min(|a-b|, 1-|a-b|)."""
    d = abs(a - b) % 1
    return min(d, 1 - d)


class TestDft:
    def test_full_interval_at_zero(self):
        n = 17
        assert dft_magnitudes(interval(n), 64)[0] == pytest.approx(n, abs=1e-12)

    def test_point_mass(self):
        f = ScaledFunction.from_weights(7, (Fraction(1),), 10)
        assert np.allclose(dft_magnitudes(f, 32), 1.0, atol=1e-14)

    def test_opposite_phases(self):
        f = ScaledFunction.from_weights(1, (Fraction(1), Fraction(1)), 2)
        assert dft_magnitudes(f, 2)[1] == pytest.approx(0.0, abs=1e-14)

    def test_fft_matches_reference(self):
        rng = np.random.Generator(np.random.Philox(key=50))
        f = random_function(rng)
        ref = reference_dft(f, 64)
        got = dft_values(f, 64)
        assert np.allclose(got, ref, atol=1e-9)

    def test_nonpow2_matches_reference(self):
        rng = np.random.Generator(np.random.Philox(key=51))
        f = random_function(rng)
        ref = reference_dft(f, 48)
        got = dft_values(f, 48)
        assert np.allclose(got, ref, atol=1e-9)

    @pytest.mark.parametrize("m", [3, 48, 97, 600, 1009])
    def test_nonpow2_matches_phase_sum(self, m):
        # oracle: the direct phase sum with k n reduced mod m in integers,
        # sum_n w(n) exp(2 pi i ((k n) mod m) / m), evaluated as a matrix
        # product.  Tolerance: 1e-12 times the l1 mass of the weights,
        # a bound on |f_hat| itself, so this is 1e-12 relative to the largest
        # value any grid point can take.
        rng = np.random.Generator(np.random.Philox(key=m))
        width = int(rng.integers(m // 2 + 1, 3 * m // 2 + 2))
        ws = tuple(Fraction(int(x), int(y)) for x, y in
                   zip(rng.integers(-9, 10, size=width),
                       rng.integers(1, 5, size=width)))
        f = ScaledFunction.from_weights(int(rng.integers(-3 * m, 3 * m)), ws, 7)
        w = f.float_weights()
        positions = (np.arange(len(w), dtype=np.int64) + f.offset) % m
        ks = np.arange(m, dtype=np.int64)[:, None]
        phases = np.exp(2j * np.pi * ((ks * positions[None, :]) % m) / m)
        want = phases @ w
        got = dft_values(f, m)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(w))

    @pytest.mark.parametrize("offset", [2**63 - 2, 2**63, 2**70 + 5])
    def test_offset_past_int64_matches_phase_sum(self, offset):
        # residues of offset + j are taken in Python ints, so an offset
        # near or past 2^63 places every weight exactly
        f = ScaledFunction(offset, (1, 2, 5), 1, offset + 2)
        m = 3
        want = [sum(w * cmath.exp(2j * cmath.pi * ((k * (offset + j)) % m) / m)
                    for j, w in enumerate(f.nums)) for k in range(m)]
        assert np.max(np.abs(dft_values(f, m) - want)) <= 1e-12 * 8

    @pytest.mark.parametrize("offset, width, m", [
        (0, 5, 5), (3, 5, 8), (7, 5, 8), (-5, 2, 32), (10**20 + 3, 40, 64),
        (6, 13, 5), (-4, 30, 7),
    ])
    def test_slice_placement_is_bit_identical(self, offset, width, m):
        # supports that fit the grid (with and without wrapping) are placed
        # by slices; the transform equals the scatter-add placement bit for
        # bit, and so does the scatter kept for supports wider than m
        rng = np.random.Generator(np.random.Philox(key=width * m))
        ws = [Fraction(int(x), 3) for x in rng.integers(1, 9, size=width)]
        f = ScaledFunction.from_weights(offset, ws, 1)
        arr = np.zeros(m, dtype=complex)
        np.add.at(arr, (np.arange(width) + offset % m) % m, f.float_weights())
        assert np.array_equal(dft_values(f, m), m * np.fft.ifft(arr))

    @pytest.mark.parametrize("m", [1, 2, 64, 1024, 48, 600, 3, 97, 1009])
    @pytest.mark.parametrize("width", [1, 5, 40, 1500])
    def test_matches_one_dimensional_route(self, m, width):
        # bit for bit on power-of-two, composite and prime grids, with
        # supports narrower and wider than m (the scatter-add placement)
        rng = np.random.Generator(np.random.Philox(key=m * width))
        ws = [Fraction(int(x), int(y)) for x, y in
              zip(rng.integers(-9, 10, size=width), rng.integers(1, 5, size=width))]
        ws[0] = ws[-1] = Fraction(1)
        f = ScaledFunction.from_weights(int(rng.integers(-5 * m, 5 * m)), ws, 1)
        assert dft_values(f, m).tobytes() == one_dimensional_dft(f, m).tobytes()

    @pytest.mark.parametrize("f", [
        ScaledFunction(3, (), 1, 4), ScaledFunction(-2, (0, 0, 0), 1, 4),
        ScaledFunction(2**63 - 2, (1, 2, 5), 1, 2**63 + 1),
        ScaledFunction(2**70 + 5, (7, 0, -3, 1), 2, 2**70 + 9),
        ScaledFunction(-(2**64), tuple(range(1, 200)), 3, 1),
    ], ids=["empty", "all-zero", "offset-2^63", "offset-2^70", "offset-minus-2^64"])
    @pytest.mark.parametrize("m", [1, 3, 64, 97])
    def test_edge_functions_match_one_dimensional_route(self, f, m):
        assert dft_values(f, m).tobytes() == one_dimensional_dft(f, m).tobytes()

    def test_negative_offset_wraps_exactly(self):
        f = ScaledFunction.from_weights(-5, (Fraction(2), Fraction(3)), 8)
        assert np.allclose(dft_values(f, 32), reference_dft(f, 32), atol=1e-10)

    def test_scale_applied(self):
        # sqrt(N) 1_S with N = 9 carries its factor 3 in the numerators
        f = ScaledFunction.from_set(IntegerSet((1, 2), 9)).scaled_by(3)
        assert dft_magnitudes(f, 16)[0] == pytest.approx(6.0, abs=1e-12)

    def test_zero_frequency_is_mass(self):
        rng = np.random.Generator(np.random.Philox(key=52))
        for _ in range(5):
            f = random_function(rng)
            mass = float(f.mass())
            got = dft_values(f, 128)[0].real
            assert got == pytest.approx(mass, rel=1e-12, abs=1e-12)

    def test_parseval(self):
        rng = np.random.Generator(np.random.Philox(key=53))
        for _ in range(5):
            f = random_function(rng)
            width = len(f.weights)
            m = 1 << (2 * width - 1).bit_length()
            mags = dft_magnitudes(f, m)
            lhs = float(np.sum(mags**2))
            rhs = m * float(sum(w * w for w in f.weights))
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestSupNorm:
    def test_full_interval(self):
        val, freq = sup_norm_estimate(interval(12))
        assert val == pytest.approx(12.0, abs=1e-12)
        assert freq == 0 and isinstance(freq, Fraction)

    def test_balanced_function_vanishes_at_zero(self):
        n = 16
        s = IntegerSet((2, 4, 6, 8), n)
        f = ScaledFunction.from_set(s) + interval(n).scaled_by(Fraction(-4, n))
        assert dft_magnitudes(f, 64)[0] == pytest.approx(0.0, abs=1e-12)

    def test_oversample_consistency(self):
        # the estimate is the grid max at OVERSAMPLE * width, and a grid of
        # 64 * width raises it by at most the 1/cos(pi/8) grid factor
        rng = np.random.Generator(np.random.Philox(key=54))
        for _ in range(5):
            f = random_function(rng)
            lo, _ = sup_norm_estimate(f)
            assert lo == grid_sup(f, OVERSAMPLE)
            hi = grid_sup(f, 64)
            assert hi <= lo * 1.05 + 1e-12 and lo <= hi + 1e-12

    def test_nested_grid_monotone(self):
        # the grid of 16 * width contains the grid of 8 * width
        rng = np.random.Generator(np.random.Philox(key=55))
        f = random_function(rng)
        assert grid_sup(f, 16) >= grid_sup(f, 8) - 1e-12


class TestGridSups:
    """The stacked transform against one dft_magnitudes and argmax per
    function, bit for bit."""

    @staticmethod
    def one_by_one(f):
        m = OVERSAMPLE * max(1, len(f.nums))
        mags = dft_magnitudes(f, m)
        k = int(np.argmax(mags))
        return float(mags[k]), Fraction(k, m)

    @pytest.mark.parametrize("seed", [4, 5, 8, 13])
    def test_mixed_widths_match_one_by_one(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        fns = [random_function(rng, width=int(rng.integers(1, 40))) for _ in range(12)]
        fns += [interval(7), ScaledFunction(3, (0, 0, 0), 1, 8),
                ScaledFunction(10**20, (0, 5, -2, 0), 7, 1), ScaledFunction(0, (), 1, 1)]
        fns += fns[:3]  # the same grid several times in one stack
        got = _grid_sups(fns)
        want = [self.one_by_one(f) for f in fns]
        assert [(np.float64(v).tobytes(), k) for v, k in got] == \
            [(np.float64(v).tobytes(), k) for v, k in want]

    def test_all_zero_function(self):
        assert _grid_sups([ScaledFunction(5, (0, 0), 1, 9)]) == [(0.0, Fraction(0))]

    def test_empty_list(self):
        assert _grid_sups([]) == []

    @pytest.mark.parametrize("cap, transforms", [(80, 5), (160, 3), (399, 2), (400, 1)])
    def test_blocks_split_past_the_point_cap(self, cap, transforms, monkeypatch):
        # five functions on one grid of m = 80: at most MAX_POINTS points per
        # stacked transform, one row at least
        rng = np.random.Generator(np.random.Philox(key=56))
        fns = [ScaledFunction(int(rng.integers(-9, 9)),
                              tuple(rng.integers(1, 9, size=10).tolist()), 1, 10)
               for _ in range(5)]
        want = _grid_sups(fns)
        calls = []
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append(1) or ifft(*a, **k))
        monkeypatch.setattr(sets_module, "MAX_POINTS", cap)
        monkeypatch.setattr("sidonlab.spectral.MAX_POINTS", cap)
        assert _grid_sups(fns) == want
        assert len(calls) == transforms

    def test_grid_past_the_cap_refused(self, monkeypatch):
        monkeypatch.setattr(sets_module, "MAX_POINTS", 63)
        with pytest.raises(ValidationError, match="too long to index"):
            _grid_sups([interval(8)])


def separation_loop(entries, m, n):
    """The greedy scan element by element: keep k when its wrap-around
    distance to the selected set is above 1/N."""
    selected = entries[:1]
    for k in entries[1:]:
        if min(k - selected[-1], m - k + selected[0]) * n > m:
            selected.append(k)
    return selected


class TestSeparationScan:
    """The bisection scan of _spectrum_from_magnitudes against the loop."""

    @staticmethod
    def separated(entries, m, n):
        # magnitude 1 at the entries and 0 elsewhere, with |S| = 1 and eps 1
        mags = np.zeros(m)
        mags[list(entries)] = 1.0
        spec = _spectrum_from_magnitudes(IntegerSet((1,), n), Fraction(1), mags)
        assert list(spec.entries) == sorted(entries)
        return list(spec.separated)

    def test_random_against_the_loop(self):
        rng = np.random.Generator(np.random.Philox(key=57))
        for _ in range(600):
            m, n = int(rng.integers(1, 301)), int(rng.integers(1, 401))
            density = rng.random()
            entries = np.flatnonzero(rng.random(m) < density).tolist()
            assert self.separated(entries, m, n) == separation_loop(entries, m, n)

    @pytest.mark.parametrize("m, n", [(1, 1), (7, 3), (7, 7), (10, 30), (300, 400),
                                      (64, 8), (64, 9), (299, 1)])
    def test_edges_against_the_loop(self, m, n):
        for entries in ([], [0], [m - 1], list(range(m)), list(range(0, m, 2)),
                        list(range(m // 2, m))):
            assert self.separated(entries, m, n) == separation_loop(entries, m, n)


class TestLargeSpectrum:
    def test_contains_zero(self):
        s = erdos_turan(5)
        spec = large_spectrum(s, Fraction(1, 4))
        assert spec.entries[0] == 0
        assert spec.separated[0] == 0

    def test_full_interval_separated_is_zero_only(self):
        n = 16
        s = IntegerSet(tuple(range(1, n + 1)), n)
        spec = large_spectrum(s, Fraction(1, 2), 8 * n)
        assert spec.separated == (0,) and spec.r_count == 1

    def test_evens_contain_half(self):
        n = 16
        s = IntegerSet(tuple(range(2, n + 1, 2)), n)
        spec = large_spectrum(s, Fraction(3, 4), 128)
        values = {Fraction(k, spec.grid_m) for k in spec.entries}
        assert Fraction(0) in values and Fraction(1, 2) in values

    def test_separated_invariants(self):
        s = erdos_turan(7)
        spec = large_spectrum(s, Fraction(1, 5))
        gap = Fraction(1, s.ambient_n)
        sep = [Fraction(k, spec.grid_m) for k in spec.separated]
        for i in range(len(sep)):
            for j in range(i + 1, len(sep)):
                assert wrap_distance(sep[i], sep[j]) > gap
        for k in spec.entries:
            f = Fraction(k, spec.grid_m)
            assert any(wrap_distance(f, sel) <= gap for sel in sep)

    def test_wrap_distance(self):
        assert wrap_distance(Fraction(1, 8), Fraction(7, 8)) == Fraction(1, 4)
        assert wrap_distance(Fraction(0), Fraction(7, 8)) == Fraction(1, 8)

    def test_entries_are_grid_indices(self):
        s = erdos_turan(7)
        spec = large_spectrum(s, Fraction(1, 5), 300)
        mags = dft_magnitudes(ScaledFunction.from_set(s), 300)
        assert list(spec.entries) == sorted(set(spec.entries))
        assert all(type(k) is int for k in spec.entries + spec.separated)
        assert all(type(x) is float for x in spec.magnitudes)
        assert list(spec.magnitudes) == [float(mags[k]) for k in spec.entries]
        assert set(spec.separated) <= set(spec.entries)
        assert spec.r_count == len(spec.separated)

    def test_entry_magnitudes_above_threshold(self):
        s = erdos_turan(7)
        eps = Fraction(1, 5)
        spec = large_spectrum(s, eps)
        floor = float(eps) * s.size - 1e-9 * s.size
        assert all(mag >= floor for mag in spec.magnitudes)

    def test_eps_validation(self):
        with pytest.raises(ValidationError):
            large_spectrum(erdos_turan(3), Fraction(3, 2))


class TestEnergyViaFourier:
    def test_examples(self):
        assert energy_via_fourier(IntegerSet((1, 2), 2)) == 6
        assert energy_via_fourier(IntegerSet((1, 2, 4), 4)) == 15
        assert energy_via_fourier(erdos_turan(7)) == 91

    def test_matches_profile(self):
        rng = np.random.Generator(np.random.Philox(key=60))
        for _ in range(20):
            n = int(rng.integers(2, 64))
            size = int(rng.integers(1, n + 1))
            elems = sorted(int(v) + 1
                           for v in rng.choice(n, size=size, replace=False))
            s = IntegerSet(tuple(elems), n)
            assert energy_via_fourier(s) == representation_profile(s).energy

    @pytest.mark.parametrize("s", [IntegerSet((), 5), IntegerSet((3,), 5),
                                   erdos_turan(7), IntegerSet(tuple(range(1, 30)), 40)])
    def test_is_the_weight_energy_of_the_indicator(self, s):
        e = energy_via_fourier(s)
        assert type(e) is int
        assert e == ScaledFunction.from_set(s).energy


class TestGridCap:
    """Grid sizes past MAX_POINTS are refused before any array is made."""

    def test_frontier_grid_admitted(self):
        # ET(401) padded to 568^2: its default grid and Bohr width fit
        assert default_grid(568**2) == 1 << 22 <= MAX_POINTS
        assert 64_525 <= MAX_POINTS
        assert default_grid(MAX_POINTS // 8) == MAX_POINTS

    @pytest.mark.parametrize("width", [MAX_POINTS // 8 + 1, 10**14])
    def test_default_grid_refused(self, width):
        with pytest.raises(ValidationError, match="grid size"):
            default_grid(width)

    @pytest.mark.parametrize("m", [0, -3, MAX_POINTS + 1, 10**11])
    def test_dft_values_refused(self, m):
        with pytest.raises(ValidationError, match="grid size"):
            dft_values(interval(5), m)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sets_module, "MAX_POINTS", 64)
        assert len(dft_values(interval(5), 64)) == 64
        with pytest.raises(ValidationError, match="grid size"):
            dft_values(interval(5), 65)

    def test_default_grid_refused_before_the_indicator(self, monkeypatch):
        # the indicator of this set would have 10^14 slots
        s = IntegerSet((1, 99_999_999_999_999), 10**14)
        monkeypatch.setattr(counting_module, "zero_one",
                            lambda *args: pytest.fail("indicator built"))
        with pytest.raises(ValidationError, match="grid size"):
            large_spectrum(s, Fraction(1, 5))


class TestLargeSieve:
    def test_single_zero_frequency(self):
        s = erdos_turan(11)
        size = s.size
        spec = Spectrum(
            threshold=Fraction(1),
            grid_m=1,
            entries=(0,),
            magnitudes=(float(size),),
            separated=(0,),
        )
        rep = large_sieve_diagnostic(s, spec)
        assert rep.lhs == pytest.approx(size**4)
        assert rep.holds  # |S|^4 <= 2 N E(S) for this dense Sidon set

    def test_erdos_turan_spectrum(self):
        s = erdos_turan(11)
        spec = large_spectrum(s, Fraction(1, 5))
        rep = large_sieve_diagnostic(s, spec)
        assert rep.holds
        assert rep.r_count == len(spec.separated)

    def test_full_interval(self):
        n = 32
        s = IntegerSet(tuple(range(1, n + 1)), n)
        spec = large_spectrum(s, Fraction(9, 10), 8 * n)
        rep = large_sieve_diagnostic(s, spec)
        assert rep.holds

    @pytest.mark.parametrize("p", [7, 13])
    def test_lhs_sums_the_separated_magnitudes(self, p):
        # the separated indices read their own magnitudes, summed as Python
        # floats in increasing k
        s = erdos_turan(p)
        spec = large_spectrum(s, Fraction(1, 10))
        mags = dict(zip(spec.entries, spec.magnitudes))
        want = sum(mags[k] ** 4 for k in spec.separated)
        assert large_sieve_diagnostic(s, spec).lhs == want

    @pytest.mark.parametrize("entries", [(), (0, 2), (0, 1)])
    def test_separated_outside_entries_rejected(self, entries):
        # an index the entries lack has no magnitude to read: the Spectrum
        # refuses it on construction
        with pytest.raises(ValidationError, match="spectrum entries"):
            Spectrum(Fraction(1), 8, entries, (5.0,) * len(entries), (0, 3))

    def test_empty_set_rejected(self):
        # the ET(11) spectrum read against no points: eta of the empty set
        # is undefined, and IntegerSet.eta refuses it
        s = erdos_turan(11)
        spec = large_spectrum(s, Fraction(1, 5))
        with pytest.raises(ValidationError, match="nonempty"):
            large_sieve_diagnostic(IntegerSet((), s.ambient_n), spec)

    def test_empty_separated_rejected(self):
        spec = Spectrum(Fraction(1), 1, (), (), ())
        with pytest.raises(ValidationError):
            large_sieve_diagnostic(erdos_turan(3), spec)

    def test_every_grid_index_rejected(self):
        # every index of the ET(11) grid marked separated at threshold 1
        # with magnitude 0: neither separated nor above the cutoff
        ks = tuple(range(2048))
        spec = Spectrum(Fraction(1), 2048, ks, (0.0,) * len(ks), ks)
        with pytest.raises(ValidationError, match="separated"):
            large_sieve_diagnostic(erdos_turan(11), spec)

    @pytest.mark.parametrize("sep", [(5, 6), (0, 2047)])
    def test_unseparated_rejected(self, sep):
        # ET(11) has N = 242, so on m = 2048 two indices are (1/N)-separated
        # only 9 or more apart; (0, 2047) are adjacent across the wrap
        s = erdos_turan(11)
        entries = tuple(sorted({*sep, 100}))
        spec = Spectrum(Fraction(1, 5), 2048, entries,
                        (float(s.size),) * len(entries), sep)
        with pytest.raises(ValidationError, match="separated"):
            large_sieve_diagnostic(s, spec)

    def test_separation_boundary(self):
        # a gap of exactly m/N is refused and one past it admitted, as in
        # the greedy selection (N = 18 for ET(3), m = 36: gaps 2 and 3)
        s = erdos_turan(3)
        mag = (float(s.size),) * 3
        bad = Spectrum(Fraction(1, 5), 36, (0, 2, 20), mag, (0, 2, 20))
        with pytest.raises(ValidationError, match="separated"):
            large_sieve_diagnostic(s, bad)
        good = Spectrum(Fraction(1, 5), 36, (0, 3, 20), mag, (0, 3, 20))
        assert large_sieve_diagnostic(s, good).r_count == 3

    def test_below_cutoff_rejected(self):
        # the entry at 0 has magnitude |S|; the one at 100 falls short of
        # eps |S| - FLOAT_SLACK |S| at eps 1/5
        s = erdos_turan(11)
        low = float(s.size) / 5 * (1 - 1e-6)
        spec = Spectrum(Fraction(1, 5), 2048, (0, 100),
                        (float(s.size), low), (0, 100))
        with pytest.raises(ValidationError, match="cutoff"):
            large_sieve_diagnostic(s, spec)
