"""The exact convolution engine: the support-pair, numpy, FFT and Kronecker
routes agree with a plain double loop."""

import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sidonlab.convolve as engine
from sidonlab.convolve import (
    BETA,
    DENSE_CUT,
    MAX_LIMBS,
    PAIRS_RATIO,
    PAIRS_SETUP,
    _kronecker,
    convolve,
    convolve_many,
)
from sidonlab.cli import main
from sidonlab.counting import (
    EquationCoeffs,
    ScaledFunction,
    brute_force_count,
    count_distinct_solutions,
    count_solutions,
)
from sidonlab.sets import erdos_turan, perturb_almost_sidon
from sidonlab.transference import transference_report


def slow_reference(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_ints(rng, length, bits, signed=True):
    """`length` integers of up to `bits` bits, built from 30-bit limbs so
    that any width is reachable."""
    out = []
    for _ in range(length):
        x = 0
        for _ in range((bits + 29) // 30):
            x = (x << 30) | int(rng.integers(0, 1 << 30))
        x >>= 30 * ((bits + 29) // 30) - bits
        out.append(-x if signed and rng.integers(0, 2) else x)
    return out


@pytest.fixture
def kronecker_calls(monkeypatch):
    """Count the calls that reach the Kronecker route."""
    calls = []

    def spy(a, b, bound):
        calls.append((len(a), len(b), bound))
        return _kronecker(a, b, bound)

    monkeypatch.setattr(engine, "_kronecker", spy)
    return calls


@pytest.fixture
def fft_calls(monkeypatch):
    """Record the plan of every call that reaches the FFT route."""
    calls = []
    real = engine._fft

    def spy(xa, xb, n, split_a, split_b):
        calls.append((n, split_a, split_b))
        return real(xa, xb, n, split_a, split_b)

    monkeypatch.setattr(engine, "_fft", spy)
    return calls


def dense_cut_len(long):
    """The most entries a shorter input may have against `long` entries and
    stay on np.convolve: n long <= DENSE_CUT (n + long - 1)."""
    return DENSE_CUT * (long - 1) // (long - DENSE_CUT)


@pytest.fixture
def pair_calls(monkeypatch):
    """Count the calls that reach the support-pair route."""
    calls = []
    real = engine._pairs

    def spy(xa, xb):
        calls.append((int(np.count_nonzero(xa)), int(np.count_nonzero(xb))))
        return real(xa, xb)

    monkeypatch.setattr(engine, "_pairs", spy)
    return calls


def test_basic():
    assert convolve([1, 2], [3, 4]) == [3, 10, 8]
    assert convolve([1], [5]) == [5]
    assert convolve([], [1, 2]) == []
    assert convolve([1, 2], []) == []


def test_signed_small():
    a = [3, -1, 0, 7]
    b = [-2, 5, 1]
    assert convolve(a, b) == slow_reference(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_numpy_vs_kronecker_random(seed):
    # the same signed inputs through both routes: numpy for the small
    # coefficients, Kronecker once they are pushed above 2^62
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(20):
        la = int(rng.integers(1, 60))
        lb = int(rng.integers(1, 60))
        a = [int(x) for x in rng.integers(-10**6, 10**6, size=la)]
        b = [int(x) for x in rng.integers(-10**6, 10**6, size=lb)]
        shift = 1 << 70
        assert convolve(a, b) == slow_reference(a, b)
        assert convolve([x * shift for x in a], b) == \
            [c * shift for c in slow_reference(a, b)]
        assert _kronecker(a, b, engine._coeff_bound(a, b)) == slow_reference(a, b)


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_wide_fuzz(seed, kronecker_calls):
    # coefficients from 1 to 300 bits, signed and unsigned, so every slot
    # width from one byte up is used, with and without the sign bias
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(40):
        la = int(rng.integers(1, 40))
        lb = int(rng.integers(1, 40))
        signed = bool(rng.integers(0, 2))
        a = random_ints(rng, la, int(rng.integers(1, 300)), signed)
        b = random_ints(rng, lb, int(rng.integers(1, 300)), signed)
        assert convolve(a, b) == slow_reference(a, b)
    assert any(bound >= 1 << 62 for _, _, bound in kronecker_calls)


@pytest.mark.parametrize("seed", [7, 8])
def test_long_fuzz_both_sides_of_the_dense_cut(seed, kronecker_calls, fft_calls):
    # shorter inputs of one less to two more than the cut against 400
    # entries, 0/1 and signed -1/0/1: the cut reads the lengths alone, so
    # both kinds leave np.convolve for the FFT at the same length; int64
    # np.convolve is exact on these values and shares no code with the FFT
    rng = np.random.Generator(np.random.Philox(key=seed))
    cut = dense_cut_len(400)
    for low in (0, -1):
        for short in range(cut - 1, cut + 3):
            a = [int(x) for x in rng.integers(low, 2, size=short)]
            b = [int(x) for x in rng.integers(low, 2, size=400)]
            a[0], b[0] = low or 1, 1
            assert convolve(a, b) == np.convolve(a, b).tolist()
    assert len(fft_calls) == 4
    assert kronecker_calls == []


def test_length_one_and_single_nonzero():
    rng = np.random.Generator(np.random.Philox(key=10))
    for bits in (1, 20, 62, 63, 64, 65, 200):
        x = random_ints(rng, 1, bits)[0] or 1
        seq = random_ints(rng, 17, bits)
        assert convolve([x], seq) == [x * y for y in seq]
        assert convolve(seq, [x]) == [x * y for y in seq]
        for pos in (0, 8, 16):
            spike = [0] * 17
            spike[pos] = x
            assert convolve(spike, seq) == slow_reference(spike, seq)
            assert convolve(spike, spike) == slow_reference(spike, spike)
    assert convolve([0, 0, 0], [5, -7]) == [0, 0, 0, 0]
    assert convolve([-(1 << 63)], [-(1 << 63)]) == [1 << 126]


def test_multi_word_slots():
    # coefficients near 2^120 need a slot of several machine words
    rng = np.random.Generator(np.random.Philox(key=9))
    a = [int(x) * 2**100 + int(y) for x, y in
         zip(rng.integers(-10**6, 10**6, size=9), rng.integers(0, 100, size=9))]
    b = [int(x) * 2**100 for x in rng.integers(-10**6, 10**6, size=7)]
    assert convolve(a, b) == slow_reference(a, b)


def test_products_near_2_to_800():
    # products around 2^800: big integers have no capacity limit
    a = [2**400 + 1, -(2**399), 17]
    b = [2**400 - 3, 2**398]
    assert convolve(a, b) == slow_reference(a, b)


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("bound, n, x", [
    (2**62, 4, 2**30), (2**63 - 1, 7, 7 * 73 * 127), (2**63, 8, 2**30),
    (2**64 - 1, 3, 5 * 17 * 257), (2**64, 16, 2**30),
], ids=["2^62", "2^63-1", "2^63", "2^64-1", "2^64"])
def test_int64_overflow_edge(kronecker_calls, bound, n, x, signed):
    # int64 entries whose coefficient bound n max|a| max|b| is at the edges
    # of 8- and 9-byte slots, and is reached by the middle slots: each
    # product leaves the int64 routes for Kronecker once, with that bound
    y = bound // (n * x)
    assert n * x * y == bound
    sign = -1 if signed else 1
    a = [sign * x] * n
    b = [sign * y] * (n + 2) + [y]
    assert convolve(a, b) == slow_reference(a, b)
    assert kronecker_calls == [(len(a), len(b), bound)]


def test_kronecker_matches_numpy_path():
    a = [2**20, -(2**21), 3]
    b = [2**40, 5]
    via_numpy = convolve(a, b)  # bound below 2^62
    assert _kronecker(a, b, engine._coeff_bound(a, b)) == via_numpy \
        == slow_reference(a, b)


def test_convolve_many_associative():
    rng = np.random.Generator(np.random.Philox(key=4))
    seqs = [[int(x) for x in rng.integers(-9, 10, size=int(rng.integers(1, 8)))]
            for _ in range(4)]
    folded = convolve_many(seqs)
    manual = slow_reference(slow_reference(slow_reference(seqs[0], seqs[1]),
                                           seqs[2]), seqs[3])
    assert folded == manual


def test_threshold_boundary(kronecker_calls, fft_calls):
    # a shorter input at the cut stays on np.convolve, one entry more goes
    # to the FFT, whatever the size and sign of the entries; both agree with
    # the reference
    cut = dense_cut_len(1000)
    assert cut * 1000 <= DENSE_CUT * (cut + 999)
    assert (cut + 1) * 1000 > DENSE_CUT * (cut + 1000)
    for value in (1, 100, -1, -(1 << 20)):
        b = [value] * 1000
        a_at = [abs(value)] * cut
        a_past = a_at + [abs(value)]
        assert convolve(a_at, b) == np.convolve(a_at, b).tolist()
        assert fft_calls == []
        assert convolve(a_past, b) == np.convolve(a_past, b).tolist()
        assert len(fft_calls) == 1
        fft_calls.clear()
    assert kronecker_calls == []


def int_lists(max_bits, max_size=24):
    """Nonempty lists of integers |x| <= 2^bits for one drawn bits <= max_bits."""
    return st.integers(0, max_bits).flatmap(lambda bits: st.lists(
        st.integers(-(1 << bits), 1 << bits), min_size=1, max_size=max_size))


@settings(max_examples=80, deadline=None)
@given(int_lists(26, DENSE_CUT), int_lists(26, DENSE_CUT + 40))
def test_int64_route_property(a, b):
    # a shorter input of n <= DENSE_CUT entries takes at most DENSE_CUT
    # multiply-adds per output slot (n m <= DENSE_CUT (n + m - 1)), and with
    # |x| <= 2^26 bounds the coefficients by 2^59 < 2^62, so these never
    # leave np.convolve
    with mock.patch.object(engine, "_kronecker", side_effect=AssertionError), \
            mock.patch.object(engine, "_fft", side_effect=AssertionError):
        assert convolve(a, b) == slow_reference(a, b)
        assert convolve(b, a) == slow_reference(a, b)


@settings(max_examples=80, deadline=None)
@given(int_lists(130), int_lists(130), st.booleans())
def test_kronecker_route_property(a, b, signed):
    # _kronecker called directly, signed and unsigned, slots of 1 to 34 bytes
    if not signed:
        a, b = [abs(x) for x in a], [abs(x) for x in b]
    bound = engine._coeff_bound(a, b)
    assume(bound > 0)
    want = slow_reference(a, b)
    assert _kronecker(a, b, bound) == want
    assert convolve(a, b) == want


@settings(max_examples=12, deadline=None)
@given(st.data(), st.booleans(), st.integers(-2, 2), st.integers(300, 340))
def test_route_cut_property(data, signed, step, long):
    # shorter input of cut - 2 .. cut + 2 entries of unit size against
    # `long` entries, unsigned 0/1 or signed -1/0/1: the FFT past the cut,
    # never Kronecker.  The support-pair route is switched off: about one
    # draw in a hundred is sparse enough to take it (see test_pairs_cut for
    # that cut)
    low = -1 if signed else 0
    short = dense_cut_len(long) + step
    unit = st.integers(low, 1)
    a = data.draw(st.lists(unit, min_size=short, max_size=short))
    b = data.draw(st.lists(unit, min_size=long, max_size=long))
    a[0], b[0] = low or 1, 1
    with mock.patch.object(engine, "_fft", wraps=engine._fft) as spy, \
            mock.patch.object(engine, "_kronecker", side_effect=AssertionError), \
            mock.patch.object(engine, "PAIRS_SETUP", 1 << 62):
        assert convolve(a, b) == slow_reference(a, b)
    assert spy.called == (step > 0)


# --- the FFT route ---------------------------------------------------------


def largest_admitted(len_a, len_b, max_b):
    """The largest max|a| whose FFT plan against max|b| = max_b is admitted,
    below the coefficient bound 2^62 (0 when none is)."""
    lo, hi = 0, (engine._INT64_SAFE - 1) // (min(len_a, len_b) * max_b)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if engine._fft_plan(len_a, len_b, mid, max_b):
            lo = mid
        else:
            hi = mid - 1
    return lo


@settings(max_examples=30, deadline=None)
@given(st.integers(1, MAX_LIMBS), st.integers(260, 420), st.integers(260, 420),
       st.integers(0, 40), st.booleans(), st.booleans(), st.integers(0, 2**32))
def test_fft_route_property(limbs, len_a, len_b, bits_b, signed, extreme, seed):
    # with at most `limbs` limbs per input, max|a| as large as the bound
    # admits against max|b| = 2^bits_b: every entry at +-max (the largest
    # 2-norm the bound allows) or drawn below it; past the dense cut (both
    # lengths above 2 DENSE_CUT), so the FFT takes the call and must agree
    # with Kronecker and the double loop
    rng = np.random.Generator(np.random.Philox(key=seed))
    max_b = 1 << bits_b
    with mock.patch.object(engine, "MAX_LIMBS", limbs):
        max_a = largest_admitted(len_a, len_b, max_b)
        assume(max_a > 0)
        if engine._coeff_bound([max_a + 1] * len_a, [max_b] * len_b) < engine._INT64_SAFE:
            assert engine._fft_plan(len_a, len_b, max_a + 1, max_b) is None

        def draw(length, top):
            if extreme:
                x = [top] * length
            else:
                x = [int(v) for v in rng.integers(0, top, size=length, endpoint=True)]
            x[int(rng.integers(0, length))] = top
            return [-v if signed and rng.integers(0, 2) else v for v in x]

        a, b = draw(len_a, max_a), draw(len_b, max_b)
        with mock.patch.object(engine, "_fft", wraps=engine._fft) as spy, \
                mock.patch.object(engine, "_kronecker", side_effect=AssertionError):
            got = convolve(a, b)
    (_, _, _, (_, k_a), (_, k_b)), _ = spy.call_args
    assert max(k_a, k_b) <= limbs
    assert got == _kronecker(a, b, engine._coeff_bound(a, b)) == slow_reference(a, b)


def test_bound_at_a_half_goes_to_kronecker(kronecker_calls, fft_calls):
    # Percival's factor patched to 1/2: every limb pair has entries of size
    # at least 1, so its bound sqrt(500 * 600) * 1/2 is past 1/4 whatever
    # the split, and the call goes to Kronecker
    a, b = [3, -1] * 250, [5] * 600
    want = slow_reference(a, b)
    assert convolve(a, b) == want
    assert len(fft_calls) == 1 and kronecker_calls == []
    with mock.patch.object(engine, "_PERCIVAL", [0.5] * 64):
        assert convolve(a, b) == want
    assert len(fft_calls) == 1 and len(kronecker_calls) == 1


def test_bound_of_a_quarter_is_refused(kronecker_calls, fft_calls):
    # 512 x 512 entries of 1 and 4, one limb each, L = 2^10: a factor of
    # 2^-13 makes the bound sqrt(512 * 512) * 1 * 4 * 2^-13 exactly 1/4,
    # which is refused; one ulp less is admitted
    a, b = [1] * 512, [4] * 512
    want = slow_reference(a, b)
    with mock.patch.object(engine, "MAX_LIMBS", 1):
        for factor, fft in ((2.0**-13, False), (np.nextafter(2.0**-13, 0), True)):
            table = list(engine._PERCIVAL)
            table[10] = float(factor)
            with mock.patch.object(engine, "_PERCIVAL", table):
                assert convolve(a, b) == want
            assert (len(fft_calls), len(kronecker_calls)) == ((1, 0) if fft else (0, 1))
            fft_calls.clear()
            kronecker_calls.clear()


def test_percival_factor():
    # the table against the formula in exact rationals: (1+x)^m - 1 with
    # x = eps, eps sqrt 5 (bracketed by rationals) and BETA
    eps, beta = Fraction(1, 2**53), Fraction(BETA)
    root5 = (Fraction(2236067977, 10**9), Fraction(2236067978, 10**9))
    for n in (1, 10, 20, 23, 63):
        lo, hi = ((1 + eps) ** (3 * n) * (1 + eps * r) ** (3 * n + 1)
                  * (1 + beta) ** (3 * n) - 1 for r in root5)
        assert lo * (1 - Fraction(1, 10**12)) <= Fraction(engine._PERCIVAL[n]) \
            <= hi * (1 + Fraction(1, 10**12))


def test_numpy_roots_within_beta():
    # the assumption behind BETA: numpy's rfft of a unit impulse at index 1
    # returns exp(-2 pi i k / L), k <= L/2; against 50-digit values, split
    # into a double and its remainder, for L = 2 .. 2^16
    mpmath = pytest.importorskip("mpmath")
    top = 1 << 16
    with mpmath.workdps(50):
        exact = [(mpmath.cospi(mpmath.mpf(2 * k) / top),
                  -mpmath.sinpi(mpmath.mpf(2 * k) / top)) for k in range(top // 2 + 1)]
        hi = np.array([[float(c), float(s)] for c, s in exact])
        lo = np.array([[float(c - h), float(s - g)]
                       for (c, s), (h, g) in zip(exact, hi.tolist())])
    worst = 0.0
    for n in range(1, 17):
        size = 1 << n
        impulse = np.zeros(size)
        impulse[1] = 1.0
        roots = np.fft.rfft(impulse)
        step = top // size
        err = np.hypot((roots.real - hi[::step, 0]) - lo[::step, 0],
                       (roots.imag - hi[::step, 1]) - lo[::step, 1])
        worst = max(worst, float(err.max()))
    assert 0 < worst <= BETA


def test_report_without_the_fft_route():
    # ET(151) at eps 1/5, where the dense model first smooths (|B| = 95):
    # the report's wide products go through the FFT, and with the route
    # switched off (Kronecker takes them) every field is the same
    s_set, eq = erdos_turan(151), EquationCoeffs((1, 1, 1, 1, -4))
    with mock.patch.object(engine, "_fft", wraps=engine._fft) as spy:
        fast = transference_report(s_set, eq, "1/5")
    assert spy.called and fast.model.bohr.size == 95
    with mock.patch.object(engine, "_fft_plan", return_value=None), \
            mock.patch.object(engine, "_fft", side_effect=AssertionError):
        slow = transference_report(s_set, eq, "1/5")
    assert fast == slow


# --- the support-pair route ------------------------------------------------


def sparse(rng, length, nnz, low=1, high=1):
    """`length` entries, zero except `nnz` drawn positions with values drawn
    from [low, high] \\ {0}."""
    out = [0] * length
    for pos in rng.choice(length, size=nnz, replace=False).tolist():
        x = 0
        while x == 0:
            x = int(rng.integers(low, high + 1))
        out[pos] = x
    return out


@st.composite
def sparse_lists(draw, min_len=200, max_len=400, max_nnz=12):
    """Lists of min_len..max_len entries with 1..max_nnz nonzeros of
    |x| <= 2^bits (one drawn bits <= 26) at drawn positions: long zero runs,
    and at most 144 pairs, so always past the support-pair cut."""
    length = draw(st.integers(min_len, max_len))
    bits = draw(st.integers(0, 26))
    spots = draw(st.dictionaries(
        st.integers(0, length - 1),
        st.integers(-(1 << bits), 1 << bits).filter(bool),
        min_size=1, max_size=max_nnz))
    out = [0] * length
    for pos, x in spots.items():
        out[pos] = x
    return out


@settings(max_examples=60, deadline=None)
@given(sparse_lists(), sparse_lists(), st.booleans())
def test_pairs_route_property(a, b, signed):
    # 200 x 200 entries or more against at most 12 x 12 nonzeros and a bound
    # below 400 * 2^52 < 2^62: the pair route takes every draw, so the other
    # two are patched to fail
    if not signed:
        a, b = [abs(x) for x in a], [abs(x) for x in b]
    want = slow_reference(a, b)
    with mock.patch.object(engine, "_kronecker", side_effect=AssertionError), \
            mock.patch.object(np, "convolve", side_effect=AssertionError):
        assert convolve(a, b) == want
        assert convolve(b, a) == want


@pytest.mark.parametrize("la, lb, nnz_a, nnz_b", [
    (256, 256, 32, 24),   # 64 * 768 + 2^14 = 256 * 256
    (129, 128, 2, 1),     # 64 * 2 + 2^14 = 129 * 128
    (300, 1000, 21, 211),  # 64 * 4431 + 2^14 <= 300 * 1000 < 64 * 4432 + 2^14
])
@pytest.mark.parametrize("low", [0, -3])
def test_pairs_cut(la, lb, nnz_a, nnz_b, low, pair_calls):
    # nnz(a) * nnz(b) at the largest product that takes the pair route, then
    # one more nonzero in b, which leaves it for a dense route
    assert PAIRS_RATIO * nnz_a * nnz_b + PAIRS_SETUP <= la * lb \
        < PAIRS_RATIO * nnz_a * (nnz_b + 1) + PAIRS_SETUP
    rng = np.random.Generator(np.random.Philox(key=la + lb + low))
    a = sparse(rng, la, nnz_a, low, 3)
    for nnz, taken in ((nnz_b, True), (nnz_b + 1, False)):
        b = sparse(rng, lb, nnz, low, 3)
        assert convolve(a, b) == slow_reference(a, b)
        assert convolve(b, a) == slow_reference(b, a)
        assert len(pair_calls) == (2 if taken else 0)
        pair_calls.clear()


def test_pairs_need_the_setup_term(pair_calls):
    # single spikes in 128 x 128 entries: one pair, but 64 + 2^14 > 128^2
    a = [0] * 127 + [5]
    assert convolve(a, a) == [0] * 254 + [25]
    assert pair_calls == []
    assert convolve(a + [0], a) == [0] * 254 + [25, 0]
    assert pair_calls == [(1, 1)]


class _AddAt:
    """Stands in for np.add: records the length of every np.add.at block."""

    def __init__(self, real):
        self.real = real
        self.blocks = []

    def at(self, out, idx, vals):
        self.blocks.append(len(idx))
        self.real.at(out, idx, vals)


@pytest.mark.parametrize("block", [1, 2, 5, 24, 25, 49, 50, 600, 1 << 20])
def test_pairs_blocks(block, monkeypatch, pair_calls):
    # 24 x 25 nonzeros: blocks of whole rows of 25 pairs, of single rows cut
    # into columns below 25, and a single block from 600 pairs on
    rng = np.random.Generator(np.random.Philox(key=block))
    a = sparse(rng, 400, 24, -(1 << 20), 1 << 20)
    b = sparse(rng, 500, 25, -(1 << 20), 1 << 20)
    want = slow_reference(a, b)
    monkeypatch.setattr(engine, "BLOCK_PAIRS", block)
    add = _AddAt(np.add)
    monkeypatch.setattr(np, "add", add)
    assert convolve(a, b) == want
    assert pair_calls == [(24, 25)]
    assert sum(add.blocks) == 24 * 25
    assert max(add.blocks) <= block
    assert len(add.blocks) == -(-24 // max(1, block // 25)) * -(-25 // min(25, block))


def test_pairs_int64_guard(pair_calls, kronecker_calls):
    # min(len) = 2^8: entries of 2^27 against 2^27 - 1 give the bound
    # 2^62 - 2^35, below _INT64_SAFE (pairs); 2^27 against 2^27 give 2^62
    # (Kronecker).  24 adjacent nonzeros put 24 products on one slot
    assert engine._INT64_SAFE == 1 << 62
    for top, pairs in (((1 << 27) - 1, True), (1 << 27, False)):
        for sign in (1, -1):
            a = [0] * 100 + [sign << 27] * 24 + [0] * 132
            b = [0] * 56 + [top] * 24 + [0] * 176
            assert engine._coeff_bound(a, b) == 256 * (1 << 27) * top
            out = convolve(a, b)
            assert out == slow_reference(a, b)
            assert max(map(abs, out)) == 24 * (1 << 27) * top
            assert (len(pair_calls), len(kronecker_calls)) == \
                ((1, 0) if pairs else (0, 1))
            pair_calls.clear()
            kronecker_calls.clear()


@pytest.mark.parametrize("p, extra", [(11, 0), (13, 0), (11, 3), (13, 4)])
def test_counts_through_pairs(p, extra, pair_calls):
    # (1,1,1,1,-4) on ET(p) and ET(p) + extra points against the oracle:
    # indicators of about sqrt(N) points in N slots take the pair route
    s_set = erdos_turan(p)
    if extra:
        s_set = perturb_almost_sidon(s_set, extra, p * extra)
    eq = EquationCoeffs((1, 1, 1, 1, -4))
    fns = [ScaledFunction.from_set(s_set)] * eq.s
    assert count_solutions(eq, fns) == brute_force_count(eq, fns)
    assert count_distinct_solutions(eq, s_set) == \
        brute_force_count(eq, fns, distinct_only=True)
    assert pair_calls


def test_only_sequences_cross_the_convolve_boundary(monkeypatch, capsys):
    # the benchmark tracer takes the truth value of what crosses convolve,
    # which a numpy array of more than one entry refuses
    crossed = []

    def spy(a, b):
        result = convolve(a, b)
        crossed.extend(type(x) for x in (a, b, result))
        return result

    for name, module in list(sys.modules.items()):
        if name == "sidonlab" or name.startswith("sidonlab."):
            for attr, value in list(vars(module).items()):
                if value is convolve:
                    monkeypatch.setattr(module, attr, spy)
    evens = Path(__file__).resolve().parent / "golden" / "evens.txt"
    assert main(["report", "--set", str(evens), "--coeffs", "1,1,1,-1,-2",
                 "--eps", "1/4"]) == 0
    assert main(["verify", "all", "--trials", "2"]) == 0
    capsys.readouterr()
    assert crossed and set(crossed) <= {list, tuple}
