"""Constructions, profiles and exact statistics."""

import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from fractions import Fraction
from math import isqrt
from hypothesis import given, settings, strategies as st

import sidonlab.sets as sets_module

from sidonlab.errors import ValidationError
from sidonlab.sets import (
    IntegerSet,
    difference_counts,
    erdos_turan,
    format_set_file,
    is_sidon,
    mian_chowla,
    parse_set_file,
    perturb_almost_sidon,
    philox,
    read_set_file,
    representation_profile,
    write_set_file,
)

PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97]


def brute_energy(elems):
    """Quadruple enumeration (solving the fourth variable by membership)."""
    s = set(elems)
    return sum(
        1
        for x in elems
        for xp in elems
        for y in elems
        if y - (x - xp) in s
    )


def random_set(rng, n_max=64):
    n = int(rng.integers(2, n_max + 1))
    size = int(rng.integers(1, n + 1))
    elems = sorted(int(v) + 1 for v in rng.choice(n, size=size, replace=False))
    return IntegerSet(tuple(elems), n)


class TestIntegerSet:
    def test_validation(self):
        with pytest.raises(ValidationError):
            IntegerSet((3, 2), 5)
        with pytest.raises(ValidationError):
            IntegerSet((0, 2), 5)
        with pytest.raises(ValidationError):
            IntegerSet((1, 6), 5)
        with pytest.raises(ValidationError):
            IntegerSet((1,), 0)

    def test_indicator_roundtrip(self):
        s = IntegerSet((2, 5, 9), 10)
        w, off = s.indicator()
        assert off == 2
        assert [off + j for j, v in enumerate(w) if v] == [2, 5, 9]

    def test_indicator_past_the_span_cap_refused(self, monkeypatch):
        monkeypatch.setattr(sets_module, "MAX_POINTS", 4)
        assert IntegerSet((1, 4), 4).indicator() == ([1, 0, 0, 1], 1)
        with pytest.raises(ValidationError, match="too long to index"):
            IntegerSet((1, 5), 5).indicator()

    def test_padding(self):
        assert IntegerSet((1,), 242).padded_to_square().ambient_n == 256
        assert IntegerSet((1,), 81).padded_to_square().ambient_n == 81

    def test_floats_refused(self):
        # truncation would silently turn (1.5, 3.9) into (1, 3)
        with pytest.raises(TypeError):
            IntegerSet((1.5, 3.9), 5)
        with pytest.raises(TypeError):
            IntegerSet((1.0, 3.0), 5)
        with pytest.raises(TypeError):
            IntegerSet((1, 3), 5.0)

    def test_numpy_integers_accepted(self):
        s = IntegerSet(np.array([1, 3], dtype=np.int64), np.int32(5))
        assert s == IntegerSet((1, 3), 5)
        assert all(type(x) is int for x in s.elements)
        assert type(s.ambient_n) is int


class TestProfileCache:
    def test_computed_once(self, profile_calls):
        s = IntegerSet((1, 2, 4, 8, 13, 14), 20)
        assert s.profile is s.profile
        assert profile_calls == [s]
        fresh = representation_profile(IntegerSet(s.elements, s.ambient_n))
        assert s.profile == fresh

    def test_readers_share_the_profile(self, profile_calls):
        s = IntegerSet((1, 2, 3, 5, 8), 9)
        s.eta
        is_sidon(s)
        assert s.profile.energy == brute_energy(s.elements)
        assert len(profile_calls) == 1

    def test_cache_leaves_identity_alone(self):
        s = IntegerSet((2, 5, 9), 10)
        fresh = IntegerSet((2, 5, 9), 10)
        before = repr(s), hash(s)
        s.profile
        assert s == fresh and hash(s) == hash(fresh)
        assert (repr(s), hash(s)) == before
        assert {s: 1}[fresh] == 1


class TestErdosTuran:
    def test_p3(self):
        s = erdos_turan(3)
        assert s.elements == (1, 8, 14)
        assert s.ambient_n == 18
        diffs = [b - a for i, a in enumerate(s.elements)
                 for b in s.elements[i + 1:]]
        assert len(set(diffs)) == len(diffs)

    def test_p5(self):
        s = erdos_turan(5)
        assert s.elements == (1, 12, 25, 35, 42)
        assert s.ambient_n == 50
        assert is_sidon(s)

    def test_p2(self):
        s = erdos_turan(2)
        assert s.elements == (1, 6)
        assert s.ambient_n == 8

    def test_rejects_composite(self):
        for bad in (1, 4, 9, 15):
            with pytest.raises(ValidationError):
                erdos_turan(bad)

    @pytest.mark.parametrize("p", PRIMES_TO_97)
    def test_sidon_all_primes_to_97(self, p):
        assert is_sidon(erdos_turan(p))

    @pytest.mark.parametrize("p", [sets_module.MAX_POINTS + 1, 1_000_000_007, 10**30])
    def test_prime_past_the_cap_refused_before_the_test(self, monkeypatch, p):
        monkeypatch.setattr(sets_module, "_is_prime",
                            lambda n: pytest.fail("primality tested"))
        with pytest.raises(ValidationError, match="too long to index"):
            erdos_turan(p)


def sieve(n):
    """Eratosthenes: flags[k] is True iff k is prime, for 0 <= k <= n."""
    flags = [False, False] + [True] * (n - 1)
    for d in range(2, isqrt(n) + 1):
        if flags[d]:
            flags[d * d::d] = [False] * len(range(d * d, n + 1, d))
    return flags


class TestIsPrime:
    def test_matches_a_sieve(self):
        flags = sieve(10**5)
        assert [sets_module._is_prime(n) for n in range(-3, 10**5 + 1)] == \
            [False] * 3 + flags

    @pytest.mark.parametrize("n, prime", [
        (561, False), (1105, False), (1729, False), (41041, False),  # Carmichael
        (2879**2, False),  # 8,288,641, a prime square under the cap
        (8_388_593, True),  # the largest prime below 2^23
        (2**23 - 1, False),  # 47 * 178481
    ])
    def test_known_values(self, n, prime):
        assert sets_module._is_prime(n) is prime


class TestMianChowla:
    def test_k1(self):
        assert mian_chowla(1).elements == (1,)

    def test_k5(self):
        assert mian_chowla(5).elements == (1, 2, 4, 8, 13)

    def test_k10(self):
        s = mian_chowla(10)
        assert s.elements == (1, 2, 4, 8, 13, 21, 31, 45, 66, 81)
        assert s.ambient_n == 81

    def test_matches_greedy_definition(self):
        # rerun the definition itself as the oracle: scan integers, accept
        # the first that keeps all pairwise differences distinct
        elems = [1]
        c = 1
        while len(elems) < 15:
            c += 1
            trial = elems + [c]
            diffs = [b - a for i, a in enumerate(trial) for b in trial[i + 1:]]
            if len(set(diffs)) == len(diffs):
                elems.append(c)
        assert mian_chowla(15).elements == tuple(elems)

    @pytest.mark.parametrize("k", [1, 5, 10, 20, 30, 40, 50])
    def test_sidon_up_to_50(self, k):
        assert is_sidon(mian_chowla(k))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            mian_chowla(0)


def as_dict(diffs, counts):
    """difference_counts arrays as {difference: count}, Python ints."""
    return dict(zip(diffs.tolist(), counts.tolist()))


def pair_counter(elems):
    return dict(Counter(x - y for x in elems for y in elems))


def pair_profile(elems):
    """(energy, excess, repeated sum) from a Counter over explicit pairs."""
    r = pair_counter(elems)
    k = len(elems)
    energy = sum(v * v for v in r.values())
    return (energy, max(0, energy - 2 * k * k),
            sum(v for d, v in r.items() if d != 0 and v > 1))


def fields(p):
    return p.energy, p.excess, p.repeated_difference_sum


class TestRepresentationProfile:
    def test_two_elements(self):
        assert as_dict(*difference_counts((1, 2))) == {-1: 1, 0: 2, 1: 1}
        p = representation_profile(IntegerSet((1, 2), 2))
        assert fields(p) == (6, 0, 0)

    def test_sidon_triple(self):
        r = as_dict(*difference_counts((1, 2, 4)))
        assert r[0] == 3
        assert all(r[d] == 1 for d in (1, 2, 3, -1, -2, -3)) and len(r) == 7
        assert fields(representation_profile(IntegerSet((1, 2, 4), 4))) == (15, 0, 0)

    def test_progression_triple(self):
        r = as_dict(*difference_counts((1, 2, 3)))
        assert r == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}
        # E = 19 = 2 * 3^2 + 1, and the repeated differences +-1 carry 2 + 2
        assert fields(representation_profile(IntegerSet((1, 2, 3), 3))) == (19, 1, 4)

    def test_invariants_random(self):
        rng = np.random.Generator(np.random.Philox(key=101))
        for _ in range(25):
            s = random_set(rng)
            diffs, counts = difference_counts(s.elements)
            k = s.size
            r = as_dict(diffs, counts)
            assert r[0] == k
            assert counts.sum() == k * k
            assert (diffs == -diffs[::-1]).all() and (counts == counts[::-1]).all()
            p = representation_profile(s)
            assert p.energy == brute_energy(s.elements)
            assert p.excess == max(0, p.energy - 2 * k * k)
            assert fields(p) == pair_profile(s.elements)


class TestDifferenceCountProperties:
    """difference_counts and the profile against a Counter over explicit pairs."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([40, 2**62 + 40, 2**70]), st.data())
    def test_profile_against_pairs(self, n, data):
        # elements up to 2^70 take the Python-int route
        elems = data.draw(st.sets(st.integers(max(1, n - 200), n) | st.integers(1, 40),
                                  max_size=25))
        s = IntegerSet(tuple(sorted(elems)), n)
        assert fields(representation_profile(s)) == pair_profile(s.elements)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(-2**64, 2**64) | st.integers(-30, 30)
                   | st.sampled_from([2**62, -2**62, 2**62 - 1, 1 - 2**62]), max_size=20))
    def test_signed_elements(self, elems):
        # Bohr sets are symmetric: x - y may double the largest |element|
        elems = tuple(sorted(elems))
        diffs, counts = difference_counts(elems)
        assert diffs.tolist() == sorted(pair_counter(elems))
        assert as_dict(diffs, counts) == pair_counter(elems)

    @pytest.mark.parametrize("big", [False, True])
    def test_unsorted_repeated_against_pairs(self, big):
        # the public function takes any integer sequence; past INT64_SAFE the
        # differences are object dtype, the counts int64 either way
        rng = np.random.Generator(np.random.Philox(key=104))
        shift = sets_module.INT64_SAFE if big else 0
        draws = [[], [7], [3, 3, 3], [5, -5, 5, 0], [40, -40]]
        draws += [rng.integers(-40, 41, size=int(rng.integers(2, 30))).tolist()
                  for _ in range(40)]
        for draw in draws:
            elems = tuple(x + shift for x in draw)
            diffs, counts = difference_counts(elems)
            past = max(map(abs, elems), default=0) >= sets_module.INT64_SAFE
            assert diffs.dtype == (object if past else np.int64)
            assert counts.dtype == np.int64
            want = pair_counter(elems)
            assert diffs.tolist() == sorted(want)
            assert as_dict(diffs, counts) == want

    def test_empty_and_singleton(self):
        diffs, counts = difference_counts(())
        assert diffs.size == counts.size == 0
        assert fields(representation_profile(IntegerSet((), 5))) == (0, 0, 0)
        assert as_dict(*difference_counts((2**63,))) == {0: 1}
        assert fields(representation_profile(IntegerSet((2**63,), 2**63))) == (1, 0, 0)

    def test_interval_exact(self):
        # [1, 1100]: r(d) = k - |d| for |d| < k, 1.21 million pairs
        k = 1100
        diffs, counts = difference_counts(tuple(range(1, k + 1)))
        assert diffs.tolist() == list(range(1 - k, k))
        assert counts.tolist() == [k - abs(d) for d in range(1 - k, k)]
        energy = sum((k - abs(d)) ** 2 for d in range(1 - k, k))
        p = representation_profile(IntegerSet(tuple(range(1, k + 1)), k))
        # every nonzero difference repeats but +-(k - 1), which occur once
        assert fields(p) == (energy, energy - 2 * k * k, k * k - k - 2)

    def test_pairs_past_the_cap_refused(self, monkeypatch):
        # refused by |S| alone: sets reaches numpy only to build the arrays
        monkeypatch.setattr(sets_module, "np", None)
        k = isqrt(sets_module.MAX_PAIRS) + 1
        with pytest.raises(ValidationError, match="difference pairs"):
            difference_counts(tuple(range(k)))
        with pytest.raises(ValidationError, match="difference pairs"):
            IntegerSet(tuple(range(1, k + 1)), k).profile


class TestIsSidon:
    def test_examples(self):
        assert is_sidon(IntegerSet((1, 2, 4), 4))
        assert not is_sidon(IntegerSet((1, 2, 3), 3))
        assert is_sidon(IntegerSet((7,), 7))

    def test_against_enumeration(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(40):
            s = random_set(rng, 32)
            if s.size > 12:
                continue
            k = s.size
            assert is_sidon(s) == (brute_energy(s.elements) == 2 * k * k - k)


class TestAlmostSidonParams:
    """eta and delta, read as IntegerSet.eta and IntegerSet.density."""

    def test_sidon_eta_zero(self):
        assert erdos_turan(7).eta == 0

    def test_progression(self):
        assert IntegerSet((1, 2, 3), 3).eta == Fraction(1, 9)

    def test_delta_full_density(self):
        s = IntegerSet((1, 2), 4)
        assert s.density == 1
        # delta^2 N <= |S|^2 exactly
        assert s.density**2 * 4 <= 4

    def test_empty_rejected(self):
        s = IntegerSet((), 5)
        with pytest.raises(ValidationError):
            s.eta
        assert s.density == 0


class TestPerturb:
    def test_extra_zero_identity(self):
        s = erdos_turan(5)
        assert perturb_almost_sidon(s, 0, seed=3) is s

    def test_cardinality_and_superset(self):
        s = IntegerSet((1, 2, 4, 8, 13), 13)
        out = perturb_almost_sidon(s, 1, seed=99)
        assert out.size == 6
        assert set(s.elements) <= set(out.elements)

    def test_deterministic(self):
        s = erdos_turan(7)
        a = perturb_almost_sidon(s, 5, seed=11)
        b = perturb_almost_sidon(s, 5, seed=11)
        assert a.elements == b.elements

    def test_no_room(self):
        with pytest.raises(ValidationError):
            perturb_almost_sidon(IntegerSet((1, 2), 3), 2, seed=0)

    def test_pool_past_the_span_cap_refused(self):
        # an ambient past MAX_POINTS is refused; extra = 0 draws none
        s = IntegerSet((1, 10**14 - 1), 10**14)
        assert perturb_almost_sidon(s, 0, seed=1) is s
        with pytest.raises(ValidationError, match="too long to index"):
            perturb_almost_sidon(s, 1, seed=1)

    @staticmethod
    def popped(s, extra, seed):
        """The draws of a sorted Python pool that pops each pick."""
        rng = philox(seed)
        pool = [n for n in range(1, s.ambient_n + 1) if n not in s]
        picks = [pool.pop(int(rng.integers(0, len(pool)))) for _ in range(extra)]
        return IntegerSet(tuple(sorted(set(s.elements) | set(picks))), s.ambient_n)

    def test_draws_match_the_popped_pool(self):
        rng = np.random.Generator(np.random.Philox(key=58))
        for _ in range(150):
            s = erdos_turan(int(rng.choice([2, 3, 5, 7, 11, 13, 17])))
            free = s.ambient_n - s.size
            extra = int(rng.integers(1, free + 1 if rng.random() < 0.3 else min(12, free) + 1))
            seed = int(rng.integers(0, 2**63))
            assert perturb_almost_sidon(s, extra, seed) == self.popped(s, extra, seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 31, 32, 33])
    def test_draws_fill_every_ambient(self, n):
        # every extra, down to no free point, with a taken point at either end
        for elems in ((), (1,), (n,)):
            s = IntegerSet(tuple(sorted(set(elems))), n)
            for extra in range(1, n - s.size + 1):
                assert perturb_almost_sidon(s, extra, 5) == self.popped(s, extra, 5)

    def test_draws_fill_the_pair_cap(self):
        # |S| + extra = 4096 = isqrt(MAX_PAIRS): every point of [1, 4096]
        s = IntegerSet((), isqrt(sets_module.MAX_PAIRS))
        assert perturb_almost_sidon(s, s.ambient_n, 3) == self.popped(s, s.ambient_n, 3)

    def test_many_draws_around_few_points(self):
        s = IntegerSet((1, 2**15, 2**16), 2**16)
        assert perturb_almost_sidon(s, 4000, 11) == self.popped(s, 4000, 11)

    @pytest.mark.parametrize("s, extra", [(IntegerSet((), 4097), 4097),
                                          (IntegerSet((1,), 2**23), 4096),
                                          (IntegerSet((1, 2), 2**23), 300000)],
                             ids=["0+4097", "1+4096", "2+300000"])
    def test_pair_cap_refused_before_any_draw(self, monkeypatch, s, extra):
        undrawn = mock.Mock(integers=mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(sets_module, "philox", lambda seed: undrawn)
        with pytest.raises(ValidationError, match="difference pairs"):
            perturb_almost_sidon(s, extra, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    @pytest.mark.parametrize("extra", [0, 2])
    def test_seed_outside_key_range(self, seed, extra):
        with pytest.raises(ValidationError, match="seed"):
            perturb_almost_sidon(erdos_turan(5), extra, seed=seed)


class TestPhilox:
    @pytest.mark.parametrize("seed", [-1, -2**130, 2**128, 2**200])
    def test_outside_key_range(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            philox(seed)

    @pytest.mark.parametrize("seed", [0, 7, 2**128 - 1])
    def test_same_stream_as_philox(self, seed):
        direct = np.random.Generator(np.random.Philox(key=seed))
        assert (philox(seed).integers(0, 2**40, size=8).tolist()
                == direct.integers(0, 2**40, size=8).tolist())


class TestSetFile:
    def test_roundtrip(self):
        s = erdos_turan(11)
        assert parse_set_file(format_set_file(s)) == s

    def test_comments_and_blanks(self):
        text = "# a comment\nN 10\n# another\n3\n\n7\n"
        assert parse_set_file(text) == IntegerSet((3, 7), 10)

    def test_bad_header(self):
        with pytest.raises(ValidationError):
            parse_set_file("M 10\n1\n")
        with pytest.raises(ValidationError):
            parse_set_file("# only comments\n")

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 300), st.booleans())
    def test_file_round_trip(self, data, n, numpy_ints):
        # write_set_file then read_set_file, on empty sets too, with numpy
        # integer elements and with comment lines inserted anywhere
        elems = sorted(data.draw(st.sets(st.integers(1, n), max_size=40)))
        if numpy_ints:
            elems = np.array(elems, dtype=np.int64)
        s = IntegerSet(tuple(elems), np.int64(n) if numpy_ints else n)
        comment = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                          max_size=12).map(lambda c: f"{' ' * (len(c) % 3)}# {c}")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.txt"
            write_set_file(s, path)
            assert read_set_file(path) == s
            lines = path.read_text().splitlines()
            for _ in range(data.draw(st.integers(0, 4))):
                lines.insert(data.draw(st.integers(0, len(lines))),
                             data.draw(comment))
            path.write_text("\n".join(lines) + "\n")
            back = read_set_file(path)
        assert back == s
        assert all(type(x) is int for x in back.elements)
