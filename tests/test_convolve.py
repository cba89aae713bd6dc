"""The exact convolution engine: the numpy and Kronecker routes agree with a
plain double loop."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sidonlab.convolve as engine
from sidonlab.convolve import SHORT_LEN, _kronecker, convolve, convolve_many


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
def test_long_fuzz_both_sides_of_short_len(seed, kronecker_calls):
    # shorter inputs of one less to two more than the cut: 0/1 inputs
    # (one-byte slots, cut SHORT_LEN) and signed -1/0/1 inputs (the sign bit
    # makes two-byte slots and signed inputs count twice, cut 4 SHORT_LEN);
    # int64 np.convolve is exact on these values and shares no code with
    # either route
    rng = np.random.Generator(np.random.Philox(key=seed))
    for cut, low in ((SHORT_LEN, 0), (4 * SHORT_LEN, -1)):
        for short in range(cut - 1, cut + 3):
            a = [int(x) for x in rng.integers(low, 2, size=short)]
            b = [int(x) for x in rng.integers(low, 2, size=short + 40)]
            a[0], b[0] = low or 1, 1
            assert convolve(a, b) == np.convolve(a, b).tolist()
    assert len(kronecker_calls) == 4


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


def test_big_values_use_more_primes():
    # coefficients near 2^120 need a slot of several machine words
    rng = np.random.Generator(np.random.Philox(key=9))
    a = [int(x) * 2**100 + int(y) for x, y in
         zip(rng.integers(-10**6, 10**6, size=9), rng.integers(0, 100, size=9))]
    b = [int(x) * 2**100 for x in rng.integers(-10**6, 10**6, size=7)]
    assert convolve(a, b) == slow_reference(a, b)


def test_values_beyond_prime_capacity_fall_back():
    # products around 2^800: big integers have no capacity limit
    a = [2**400 + 1, -(2**399), 17]
    b = [2**400 - 3, 2**398]
    assert convolve(a, b) == slow_reference(a, b)


def test_int64_overflow_edge(kronecker_calls):
    # the bound check must route near-2^62 products away from int64
    big = 2**31
    a = [big] * 40
    b = [big] * 40
    out = convolve(a, b)
    assert out[39] == 40 * big * big
    assert out == slow_reference(a, b)
    assert len(kronecker_calls) == 1


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


def test_threshold_boundary(kronecker_calls):
    # a shorter input of SHORT_LEN entries per slot byte (twice that when
    # signed) stays on numpy, one entry more goes through Kronecker; both
    # agree with the reference
    for value, nbytes, signed in ((1, 1, False), (100, 3, False), (-1, 2, True)):
        cut = SHORT_LEN * nbytes * (1 + signed)
        b = [value] * (cut + 5)
        a_at = [abs(value)] * cut
        a_past = a_at + [abs(value)]
        bound = engine._coeff_bound(a_past, b)
        assert engine._slot(a_past, b, bound) == (nbytes, signed)
        assert convolve(a_at, b) == np.convolve(a_at, b).tolist()
        assert kronecker_calls == []
        assert convolve(a_past, b) == np.convolve(a_past, b).tolist()
        assert len(kronecker_calls) == 1
        kronecker_calls.clear()


def int_lists(max_bits, max_size=24):
    """Nonempty lists of integers |x| <= 2^bits for one drawn bits <= max_bits."""
    return st.integers(0, max_bits).flatmap(lambda bits: st.lists(
        st.integers(-(1 << bits), 1 << bits), min_size=1, max_size=max_size))


@settings(max_examples=80, deadline=None)
@given(int_lists(26, SHORT_LEN), int_lists(26, SHORT_LEN + 40))
def test_int64_route_property(a, b):
    # a shorter input of at most SHORT_LEN entries with |x| <= 2^26 bounds
    # the coefficients by 2^60 < 2^62, so these never leave np.convolve
    with mock.patch.object(engine, "_kronecker", side_effect=AssertionError):
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
@given(st.data(), st.booleans(), st.integers(-2, 2), st.integers(0, 40))
def test_route_cut_property(data, signed, step, extra):
    # shorter input of cut - 2 .. cut + 2 entries of unit size: unsigned 0/1
    # inputs have one-byte slots (cut SHORT_LEN), signed -1/0/1 inputs
    # two-byte slots counted twice (cut 4 SHORT_LEN); Kronecker past the cut
    low, cut = (-1, 4 * SHORT_LEN) if signed else (0, SHORT_LEN)
    short = cut + step
    unit = st.integers(low, 1)
    a = data.draw(st.lists(unit, min_size=short, max_size=short))
    b = data.draw(st.lists(unit, min_size=short + extra, max_size=short + extra))
    a[0], b[0] = low or 1, 1
    with mock.patch.object(engine, "_kronecker", wraps=_kronecker) as spy:
        assert convolve(a, b) == slow_reference(a, b)
    assert spy.called == (step > 0)
