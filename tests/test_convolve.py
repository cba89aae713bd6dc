"""The exact convolution engine: the support-pair, numpy, FFT and Kronecker
routes agree with a plain double loop."""

import importlib
import sys
import types
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import sidonlab.convolve as engine
from sidonlab.convolve import (
    BETA,
    DENSE_CUT,
    MAX_LIMBS,
    PAIRS_RATIO,
    PAIRS_SETUP,
    _array,
    _kronecker,
    _plan,
    convolve,
    convolve_many,
    product_bound,
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


def coeff_bound(a, b):
    """`product_bound` of two nonempty sequences, from their lengths and
    max|entry|."""
    return product_bound(len(a), max(map(abs, a)), len(b), max(map(abs, b)))


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


def kronecker(a, b):
    """`_kronecker` on the arrays of two nonempty sequences (one, for a square)
    at their coefficient bound, as a list."""
    (xa, max_a), (xb, max_b) = _array(a), _array(b)
    xb = xa if b is a else xb
    return _kronecker(xa, xb, product_bound(len(xa), max_a, len(xb), max_b)).tolist()


@pytest.fixture
def plans(monkeypatch):
    """The plan of every product while the test runs."""
    seen = []

    def recorded(*args):
        seen.append(_plan(*args))
        return seen[-1]

    monkeypatch.setattr(engine, "_plan", recorded)
    return seen


def routes(plans):
    """The route names of a list of plans."""
    return [plan[0] for plan in plans]


def dense_cut_len(long):
    """The most entries a shorter input may have against `long` entries and
    stay on np.convolve: n long <= DENSE_CUT (n + long - 1)."""
    return DENSE_CUT * (long - 1) // (long - DENSE_CUT)


def fft_plan(len_a, len_b, max_a, max_b):
    """The plan of two inputs without zeros, when it takes the FFT route."""
    plan = _plan(len_a, len_b, max_a, max_b, lambda: (len_a, len_b))
    return plan if plan[0] == "fft" else None


def test_basic():
    assert convolve([1, 2], [3, 4]) == [3, 10, 8]
    assert convolve([1], [5]) == [5]
    assert convolve([], [1, 2]) == []
    assert convolve([1, 2], []) == []
    # anything but a signed-integer array is read by operator.index: no float
    # or string is truncated or parsed, and uint64 past int64 keeps its value
    for bad in ([1, 2.9], ["3"]):
        with pytest.raises(TypeError):
            convolve(bad, [1])
    assert convolve(np.array([2**63], dtype=np.uint64), [1]) == [2**63]
    assert convolve([np.uint64(2**63)], [1]) == [2**63]
    assert convolve(np.array([1, 2], dtype=np.int8), np.array([3, 4])) == [3, 10, 8]
    assert convolve(np.array([], dtype=np.int64), [1]) == []


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
        assert kronecker(a, b) == slow_reference(a, b)


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_wide_fuzz(seed, plans):
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
    assert any(plan[0] == "kronecker" and plan[1] >= 1 << 62 for plan in plans)


@pytest.mark.parametrize("seed", [7, 8])
def test_long_fuzz_both_sides_of_the_dense_cut(seed, plans):
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
    assert routes(plans) == ["dense", "dense", "fft", "fft"] * 2


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
def test_int64_overflow_edge(plans, bound, n, x, signed):
    # int64 entries whose coefficient bound n max|a| max|b| is at the edges
    # of 8- and 9-byte slots, and is reached by the middle slots: each
    # product leaves the int64 routes for Kronecker once, with that bound
    y = bound // (n * x)
    assert n * x * y == bound
    sign = -1 if signed else 1
    a = [sign * x] * n
    b = [sign * y] * (n + 2) + [y]
    assert convolve(a, b) == slow_reference(a, b)
    assert plans == [("kronecker", bound)]


@pytest.mark.parametrize("n, y", [(1, 1), (2, 127), (3, (2**64 - 1) // 3)],
                         ids=["64-bit", "72-bit", "128-bit"])
def test_unsigned_past_int64_fills_whole_bytes(plans, n, y):
    # entries past int64 with a bound of a whole number of bytes, reached
    # by the middle slots: the slot keeps a sign bit above the bound, so
    # it is one byte wider than the bound itself
    x = 2**64 - 1
    a, b = [x] * n, [y] * (n + 1)
    bound = n * x * y
    assert bound.bit_length() % 8 == 0
    got = convolve(a, b)
    assert got == slow_reference(a, b) and max(got) == bound
    assert plans == [("kronecker", bound)]


def test_kronecker_matches_numpy_path():
    a = [2**20, -(2**21), 3]
    b = [2**40, 5]
    via_numpy = convolve(a, b)  # bound below 2^62
    assert kronecker(a, b) == via_numpy == slow_reference(a, b)


def test_convolve_many_associative():
    rng = np.random.Generator(np.random.Philox(key=4))
    seqs = [[int(x) for x in rng.integers(-9, 10, size=int(rng.integers(1, 8)))]
            for _ in range(4)]
    folded = convolve_many(seqs)
    manual = slow_reference(slow_reference(slow_reference(seqs[0], seqs[1]),
                                           seqs[2]), seqs[3])
    assert folded == manual


def test_threshold_boundary(plans):
    # an input at the cut against 1000 or 255 entries stays on np.convolve,
    # one entry more goes to the FFT, whatever the size and sign of the
    # entries; both agree with the reference.  256 x 255 meets the cut with
    # equality
    for long in (1000, 255):
        cut = dense_cut_len(long)
        assert cut * long <= DENSE_CUT * (cut + long - 1)
        assert (cut + 1) * long > DENSE_CUT * (cut + long)
        assert (cut * long == DENSE_CUT * (cut + long - 1)) == (long == 255)
        for value in (1, 100, -1, -(1 << 20)):
            b = [value] * long
            a_at = [abs(value)] * cut
            a_past = a_at + [abs(value)]
            assert convolve(a_at, b) == np.convolve(a_at, b).tolist()
            assert convolve(a_past, b) == np.convolve(a_past, b).tolist()
    assert routes(plans) == ["dense", "fft"] * 8


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
    bound = coeff_bound(a, b)
    assume(bound > 0)
    want = slow_reference(a, b)
    assert kronecker(a, b) == want
    assert convolve(a, b) == want


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, MAX_LIMBS), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 2**32))
def test_every_plan_runs_as_kronecker(data, limbs, square, signed, capped, seed):
    # executing the plan of a product gives Kronecker's array on the same
    # inputs (zeros when an input is zero, whose bound 0 leaves Kronecker no
    # slot): lengths up to 600 (both sides of PAIRS_SETUP slot pairs and of
    # the dense cut), no nonzero to all, up to 70 bits (coefficient bounds
    # on both sides of 2^62), at most `limbs` limbs per input, and, when
    # `capped`, the longest transform one below the product's own L, which
    # crosses the L = 2^22 cap without a product of 2^22 slots
    rng = np.random.Generator(np.random.Philox(key=seed))

    def draw_input():
        length = int(rng.integers(1, 601))
        nnz = min(length, data.draw(st.sampled_from([0, 1, 8, 32, 600, 600, 600])))
        bits = int(rng.integers(1, data.draw(st.sampled_from([32, 71]))))
        x = [0] * length
        for pos, v in zip(rng.choice(length, size=nnz, replace=False).tolist(),
                          random_ints(rng, nnz, bits, signed)):
            x[pos] = v or 1
        return _array(x)

    xa, max_a = draw_input()
    xb, max_b = (xa, max_a) if square else draw_input()
    bound = product_bound(len(xa), max_a, len(xb), max_b)
    cap = (len(xa) + len(xb) - 2).bit_length() - 1 if capped else engine._MAX_LOG_L
    with mock.patch.object(engine, "MAX_LIMBS", limbs), \
            mock.patch.object(engine, "_MAX_LOG_L", cap):
        event(_plan(len(xa), len(xb), max_a, max_b,
                    lambda: (np.count_nonzero(xa), np.count_nonzero(xb)))[0])
        got = engine._product(xa, xb, max_a, max_b)
    want = _kronecker(xa, xb, bound) if bound else np.zeros(len(got), dtype=np.int64)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


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
        if fft_plan(len_a, len_b, mid, max_b):
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
        if coeff_bound([max_a + 1] * len_a, [max_b] * len_b) < engine._INT64_SAFE:
            assert fft_plan(len_a, len_b, max_a + 1, max_b) is None

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
    assert got == kronecker(a, b) == slow_reference(a, b)


def test_bound_at_a_half_goes_to_kronecker(plans):
    # Percival's factor patched to 1/2: every limb pair has entries of size
    # at least 1, so its bound sqrt(500 * 600) * 1/2 is past 1/4 whatever
    # the split, and the call goes to Kronecker
    a, b = [3, -1] * 250, [5] * 600
    want = slow_reference(a, b)
    assert convolve(a, b) == want
    with mock.patch.object(engine, "_PERCIVAL", [0.5] * 64):
        assert convolve(a, b) == want
    assert routes(plans) == ["fft", "kronecker"]


def test_bound_of_a_quarter_is_refused(plans):
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
    assert routes(plans) == ["kronecker", "fft"]


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
    # into a double and its remainder, for L = 2 .. 2^16 first
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
    # L = 2^17 .. 2^22, up to the longest transform _plan admits, against
    # cos and sin in long double (a 64-bit significand, 2^-11 of a double ulp)
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("long double has no extended precision here")
    top = 1 << engine._MAX_LOG_L
    pi = 4 * np.arctan(np.longdouble(1))
    theta = 2 * pi * np.arange(top // 2 + 1, dtype=np.longdouble) / top
    cos, sin = np.cos(theta), np.sin(theta)
    for n in range(17, engine._MAX_LOG_L + 1):
        size = 1 << n
        impulse = np.zeros(size)
        impulse[1] = 1.0
        roots = np.fft.rfft(impulse)
        step = top // size
        err = np.hypot(roots.real - cos[::step], roots.imag + sin[::step])
        assert float(err.max()) <= BETA


def test_no_fft_plan_past_the_checked_roots():
    # L = 2^22 is the longest transform whose roots the test above checks
    assert engine._MAX_LOG_L == 22
    assert fft_plan(2**21, 2**21 + 1, 1, 1) == ("fft", 22, (1, 1), (1, 1))
    assert fft_plan(2**21 + 1, 2**21 + 1, 1, 1) is None


def test_report_without_the_fft_route(plans):
    # ET(151) at eps 1/5, where the dense model first smooths (|B| = 95):
    # the report's wide products go through the FFT, and with no limb split
    # admitted (MAX_LIMBS = 0, so Kronecker takes them) every field is the same
    s_set, eq = erdos_turan(151), EquationCoeffs((1, 1, 1, 1, -4))
    fast = transference_report(s_set, eq, "1/5")
    assert "fft" in routes(plans) and fast.model.bohr.size == 95
    plans.clear()
    with mock.patch.object(engine, "MAX_LIMBS", 0), \
            mock.patch.object(engine, "_fft", side_effect=AssertionError):
        slow = transference_report(s_set, eq, "1/5")
    assert "kronecker" in routes(plans) and "fft" not in routes(plans)
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
def test_pairs_cut(la, lb, nnz_a, nnz_b, low, plans):
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
        assert [route == "pairs" for route in routes(plans)] == [taken] * 2
        plans.clear()


def test_pairs_need_the_setup_term(plans):
    # single spikes in 128 x 128 entries: one pair, but 64 + 2^14 > 128^2;
    # up to 2^14 slot pairs the nonzeros are not counted
    a = [0] * 127 + [5]
    assert convolve(a, a) == [0] * 254 + [25]
    assert convolve(a + [0], a) == [0] * 254 + [25, 0]
    assert plans == [("dense",), ("pairs",)]
    assert _plan(128, 128, 5, 5, None) == ("dense",)


class _AddAt:
    """Stands in for np.add: records the length of every np.add.at block."""

    def __init__(self, real):
        self.real = real
        self.blocks = []

    def at(self, out, idx, vals):
        self.blocks.append(len(idx))
        self.real.at(out, idx, vals)


@pytest.mark.parametrize("block", [1, 2, 5, 24, 25, 49, 50, 600, 1 << 20])
def test_pairs_blocks(block, monkeypatch, plans):
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
    assert plans == [("pairs",)]
    assert sum(add.blocks) == 24 * 25
    assert max(add.blocks) <= block
    assert len(add.blocks) == -(-24 // max(1, block // 25)) * -(-25 // min(25, block))


def test_pairs_int64_guard(plans):
    # min(len) = 2^8: entries of 2^27 against 2^27 - 1 give the bound
    # 2^62 - 2^35, below _INT64_SAFE (pairs); 2^27 against 2^27 give 2^62
    # (Kronecker).  24 adjacent nonzeros put 24 products on one slot
    assert engine._INT64_SAFE == 1 << 62
    for top, pairs in (((1 << 27) - 1, True), (1 << 27, False)):
        for sign in (1, -1):
            a = [0] * 100 + [sign << 27] * 24 + [0] * 132
            b = [0] * 56 + [top] * 24 + [0] * 176
            assert coeff_bound(a, b) == 256 * (1 << 27) * top
            out = convolve(a, b)
            assert out == slow_reference(a, b)
            assert max(map(abs, out)) == 24 * (1 << 27) * top
            assert routes(plans) == ["pairs" if pairs else "kronecker"]
            plans.clear()


@pytest.mark.parametrize("p, extra", [(11, 0), (13, 0), (11, 3), (13, 4)])
def test_counts_through_pairs(p, extra, plans):
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
    assert "pairs" in routes(plans)



# --- squares ---------------------------------------------------------------


def square_fft_bits(length, splits):
    """The fewest bits per entry at which a square of `length` entries takes
    the FFT route with limb counts `splits` (in either order)."""
    for bits in range(1, 63):
        top = (1 << bits) - 1
        plan = fft_plan(length, length, top, top)
        if plan and sorted((plan[2][1], plan[3][1])) == list(splits):
            return bits
    raise AssertionError(f"no FFT plan with limbs {splits}")


@pytest.mark.parametrize("route", ["pairs", "numpy", (1, 1), (1, 2), (1, 3), (2, 2),
                                   "kronecker", "past int64"])
def test_square_is_the_product_of_two_copies(route, plans):
    # convolve(a, a) on one object converts a once and, when both limb
    # splits agree, takes one rfft; it must equal the product of two copies
    rng = np.random.Generator(np.random.Philox(key=61))
    if route == "pairs":
        a = sparse(rng, 400, 5, -3, 3)
    elif route == "numpy":
        a = random_ints(rng, 50, 20)
    elif route == "kronecker":  # int64 entries, a bound past 2^62
        a = random_ints(rng, 300, 40)
    elif route == "past int64":
        a = random_ints(rng, 40, 100)
    else:
        bits = square_fft_bits(300, route)
        a = random_ints(rng, 300, bits)
        a[0] = (1 << bits) - 1
    with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft:
        square = convolve(a, a)
    (plan,) = plans
    assert plan[0] == {"pairs": "pairs", "numpy": "dense", "kronecker": "kronecker",
                       "past int64": "kronecker"}.get(route, "fft")
    if plan[0] == "fft":
        _, _, split_a, split_b = plan
        assert sorted((split_a[1], split_b[1])) == list(route)
        assert rfft.call_count == (1 if split_a == split_b else 2)
    assert square == convolve(a, list(a)) == slow_reference(a, a)


def test_only_sequences_cross_the_convolve_boundary(monkeypatch, capsys):
    # the benchmark tracer takes the truth value of what crosses convolve,
    # which a numpy array of more than one entry refuses; the library
    # multiplies below it (`_product`), so a report and verify cross it
    # with nothing at all, and the adapter itself returns lists
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
    assert crossed == []
    for a, b in (((1, -2, 3), (4, 5)), ([1, -2, 3], [4, 5]), ((2**70, 1), [3])):
        got = convolve(a, b)
        assert type(got) is list and all(type(x) is int for x in got)
        assert got == slow_reference(a, b)


def test_every_traced_name_resolves(monkeypatch):
    # benchmarks/tracing.py wraps these names and records a missing one as an
    # absent layer, so deleting or renaming one silently empties its metrics;
    # the source is executed from its text, so nothing is written beside it
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    tracing = types.ModuleType("benchmark_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)  # for dataclass
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    names = [(mod, func) for mod, func, _, _ in tracing.WRAPPED]
    assert names
    missing = [f"{mod}.{func}" for mod, func in names
               if not callable(getattr(importlib.import_module(f"sidonlab.{mod}"),
                                       func, None))]
    assert missing == []
