"""Fourier transforms on a rational frequency grid, spectra, large sieve.

The transform convention is f_hat(alpha) = sum_n f(n) e(alpha n) with
e(beta) = exp(2 pi i beta).  Grid evaluation at alpha = k/m places each
support point n at its residue n mod m in integer arithmetic before any
float enters, then takes a length-m FFT (numpy's pocketfft, O(m log m) for
every m, prime sizes included), so magnitudes carry full float64 accuracy
(at least 15 significant digits).  `_transforms` is the one routine that
places and transforms; every grid evaluation goes through it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import lt

import numpy as np

from .counting import ScaledFunction, weight_energy
from .errors import ValidationError
from .sets import MAX_POINTS, IntegerSet, almost_sidon_params, check_span, rational

# the slack of every verdict that reads a float: relative for the large
# sieve and the counting bound, and times |S| against the rational spectrum
# threshold eps * |S|; float(FLOAT_SLACK) is the double nearest 10^-9
FLOAT_SLACK = Fraction(1, 10**9)
# grid points per unit of support width in sup_norm_estimate
OVERSAMPLE = 8


@dataclass(frozen=True)
class Spectrum:
    """Grid frequencies with |1_S hat| above a threshold, plus a separated set.

    A frequency is its grid index k, standing for k/m with m = `grid_m`.
    `entries` holds every k whose magnitude reaches eps * |S| (up to the
    documented float tolerance), in increasing order, and `magnitudes` the
    aligned values.  `separated` is the greedy maximal subsequence with
    pairwise wrap-around distance > 1/N; maximality means every entry lies
    within 1/N of some selected frequency.  The shape is checked on
    construction: aligned magnitudes, strictly increasing entries in
    [0, grid_m), and separated a subsequence of entries.
    """

    threshold: Fraction
    grid_m: int
    entries: tuple[int, ...]
    magnitudes: tuple[float, ...]
    separated: tuple[int, ...]

    def __post_init__(self):
        e = self.entries
        if len(self.magnitudes) != len(e):
            raise ValidationError(
                f"{len(self.magnitudes)} magnitudes for {len(e)} spectrum entries")
        if e and not (0 <= e[0] and e[-1] < self.grid_m and all(map(lt, e, e[1:]))):
            raise ValidationError(
                f"spectrum entries must increase strictly inside [0, {self.grid_m})")
        rest = iter(e)
        if not all(k in rest for k in self.separated):
            raise ValidationError(
                "separated frequencies must be a subsequence of the spectrum entries")

    @property
    def r_count(self) -> int:
        return len(self.separated)


def dft_values(f: ScaledFunction, m: int) -> np.ndarray:
    """Complex f_hat(k/m) for k = 0..m-1."""
    return _transforms([f.trimmed()], _check_grid(m))[0]


def _transforms(ts, m: int) -> np.ndarray:
    """One row t_hat(k/m), k = 0..m-1, per trimmed function t in ts.

    Each row holds the float weights of t at their residues mod m, which
    leaves every grid value unchanged because e(alpha n) has period m in n;
    one inverse FFT of the rows, times m, gives the sums with the e(+k n/m)
    sign.  A row of the 2-D transform equals the 1-D transform of that row.
    """
    rows = np.zeros((len(ts), m), dtype=complex)
    for row, t in zip(rows, ts):
        w = t.float_weights()
        # the offset is reduced as a Python int: offset + j may not fit int64
        start = t.offset % m
        if len(w) <= m:
            # at most two slices, each residue hit once
            head = min(len(w), m - start)
            row[start:start + head] = w[:head]
            row[:len(w) - head] = w[head:]
        else:
            np.add.at(row, (np.arange(len(w), dtype=np.int64) + start) % m, w)
    return m * np.fft.ifft(rows, axis=1)


def dft_magnitudes(f: ScaledFunction, m: int) -> np.ndarray:
    """|f_hat(k/m)| for k = 0..m-1."""
    return np.abs(dft_values(f, m))


def _check_grid(m: int) -> int:
    """m itself, refused below 1 and, by sets.check_span, past MAX_POINTS
    (before any array)."""
    if m < 1:
        raise ValidationError(f"grid size must be positive, got {m}")
    return check_span(m, "the grid size")


def default_grid(width: int) -> int:
    """Smallest power of two at or above 8 * width, refused past MAX_POINTS."""
    return _check_grid(1 << (8 * max(1, width) - 1).bit_length())


def sup_norm_estimate(f: ScaledFunction) -> tuple[float, Fraction]:
    """Grid maximum of |f_hat| over a grid of size OVERSAMPLE * width.

    This is a lower bound on the true sup over the circle; for a
    trigonometric polynomial of degree at most the support width it is
    within a factor 1/cos(pi/OVERSAMPLE) of the sup (about 8 percent low),
    since the nearest grid point is within 1/(2 OVERSAMPLE w) of the
    maximizer.
    """
    return _grid_sups([f])[0]


def _grid_sups(fns) -> list[tuple[float, Fraction]]:
    """`sup_norm_estimate` of each function, in order, with one call of
    `_transforms` per grid size: the functions that share a grid are
    stacked, at most MAX_POINTS points (or one row) per transform."""
    trimmed = [f.trimmed() for f in fns]
    grids: dict[int, list[int]] = {}
    for i, t in enumerate(trimmed):
        grids.setdefault(OVERSAMPLE * max(1, len(t.nums)), []).append(i)
    sups: list = [None] * len(trimmed)
    for m, members in grids.items():
        _check_grid(m)
        per_block = max(1, MAX_POINTS // m)
        for b in range(0, len(members), per_block):
            block = members[b:b + per_block]
            mags = np.abs(_transforms([trimmed[i] for i in block], m))
            for i, mag, k in zip(block, mags, mags.argmax(axis=1).tolist()):
                sups[i] = (float(mag[k]), Fraction(k, m))
    return sups


def large_spectrum(s_set: IntegerSet, eps, m: int | None = None) -> Spectrum:
    """All grid frequencies with |1_S hat(k/m)| >= eps |S|, plus a greedy
    maximal (1/N)-separated subsequence (wrap-around distance, exact
    rational comparisons, scanned in increasing k)."""
    eps = rational(eps)
    if not 0 < eps <= 1:
        raise ValidationError(f"need 0 < eps <= 1, got {eps}")
    if m is None:
        m = default_grid(s_set.ambient_n)
    return _spectrum_from_magnitudes(
        s_set, eps, dft_magnitudes(ScaledFunction.from_set(s_set), m))


def _cutoff(eps: Fraction, size: int) -> float:
    """The float a magnitude must reach to count as at least eps * |S|."""
    return float(eps) * size - float(FLOAT_SLACK) * size


def _spectrum_from_magnitudes(s_set: IntegerSet, eps: Fraction,
                              mags: np.ndarray) -> Spectrum:
    """`large_spectrum` of S from |1_S hat(k/m)| for k = 0..m-1, m = len(mags)."""
    m, n = len(mags), s_set.ambient_n
    ks = np.flatnonzero(mags >= _cutoff(eps, s_set.size))
    entries = ks.tolist()
    # greedy selection in increasing k; on a common grid the circular
    # distance from k to the selected set is attained at the largest or
    # (wrapping) smallest selected index, so the scan is exact integer
    # arithmetic.  (k - last) n > m exactly when k >= last + step, so each
    # next selection is one bisection; the wrap-around test
    # (m - k + first) n > m fails for every larger k once it fails.
    selected = entries[:1]
    step, j = m // n + 1, 0
    while selected:
        j = bisect_left(entries, entries[j] + step, j + 1)
        if j == len(entries) or (m - entries[j] + selected[0]) * n <= m:
            break
        selected.append(entries[j])
    return Spectrum(eps, m, tuple(entries), tuple(mags[ks].tolist()),
                    tuple(selected))


def energy_via_fourier(s_set: IntegerSet) -> int:
    """E(S) through the convolution route: the sum-representation sequence
    1_S * 1_S, exact, and the energy is the sum of its squares."""
    return int(weight_energy(ScaledFunction.from_set(s_set)))


@dataclass(frozen=True)
class LargeSieveReport:
    """Fourth-moment mass of a separated spectrum against 2N E(S).

    lhs = sum over the separated frequencies of |1_S hat|^4 (float), rhs is
    the exact integer 2 N E(S) from the (N + 1/spacing)-form of the large
    sieve at spacing 1/N.  The implied bound on the separated count R is
    reported through its exact rational sides r_bound_lhs = R eps^4 |S|^4
    and r_bound_rhs = 2 N (2 + eta) |S|^2.
    """

    lhs: float
    rhs: int
    holds: bool
    r_count: int
    r_bound_lhs: Fraction
    r_bound_rhs: Fraction
    r_bound_holds: bool


def large_sieve_diagnostic(s_set: IntegerSet, spectrum: Spectrum) -> LargeSieveReport:
    """The LargeSieveReport of S on the separated frequencies of spectrum;
    a separated set that is empty, not (1/N)-separated or below the
    spectrum's cutoff is refused, since the sieve does not cover it (the
    Spectrum itself checks that the separated frequencies are entries)."""
    if not spectrum.separated:
        raise ValidationError("spectrum has no separated frequencies")
    n, m, sep = s_set.ambient_n, spectrum.grid_m, spectrum.separated
    # the test _spectrum_from_magnitudes selects with: every gap between
    # consecutive indices, the wrap-around one included, times N exceeds m
    if len(sep) > 1 and int(np.diff(sep, append=sep[0] + m).min()) * n <= m:
        raise ValidationError("separated frequencies must be (1/N)-separated")
    mags = np.take(spectrum.magnitudes, np.searchsorted(spectrum.entries, sep))
    if not (mags >= _cutoff(spectrum.threshold, s_set.size)).all():
        raise ValidationError("separated magnitudes must reach the spectrum's cutoff")
    lhs = sum(x ** 4 for x in mags.tolist())
    rhs = 2 * n * s_set.profile.energy
    size = s_set.size
    params = almost_sidon_params(s_set)
    r = spectrum.r_count
    r_lhs = r * spectrum.threshold**4 * size**4
    r_rhs = 2 * n * (2 + params.eta) * size * size
    return LargeSieveReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs * (1 + float(FLOAT_SLACK)),
        r_count=r,
        r_bound_lhs=r_lhs,
        r_bound_rhs=r_rhs,
        r_bound_holds=r_lhs <= r_rhs,
    )
