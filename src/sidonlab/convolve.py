"""Exact linear convolution of integer sequences.

One engine, `_product`, multiplies two arrays whose max|entry| the caller
already knows: int64 arrays, or object arrays of Python ints for entries
past int64 (an input whose maximum is below INT64_SAFE must be int64).  A
maximum may be any upper bound on the entries, since every route below
needs only |x| <= max|x| to stay exact.  The engine returns an int64
array, or an object array of Python ints when the Kronecker route runs on
a coefficient bound at or past INT64_SAFE.  Its one library caller is
`counting._fold_step`, which carries each product's bound forward as its
maximum; every product of the library goes through it: the counts' folds,
a function's energy and `ScaledFunction.convolved`, the dense model's g.
The public `convolve` is a thin adapter over the engine, which no library
path calls: sequences in, their maxima measured once, a list of Python
ints out.  `_array`, which turns a sequence into an engine input and
measures its maximum, has two callers: that adapter and the
`ScaledFunction` constructor.

Four routes, all exact:

* the support-pair route for sparse inputs, such as the indicator of a
  dense Sidon set (about sqrt(N) ones in N slots) and its dilates: the
  positions of the nonzero entries of the two inputs are added pairwise and
  their int64 weights multiplied pairwise, in blocks of at most
  ``sets.BLOCK_PAIRS`` pairs, and the products are scatter-added into an
  int64 output with ``np.add.at``;
* numpy's int64 ``np.convolve`` when it does at most DENSE_CUT
  multiply-adds per output slot, len(a) * len(b) <= DENSE_CUT * (len(a) +
  len(b) - 1);
* a float FFT when the rounding error bound below admits it: each input is
  split into at most MAX_LIMBS limbs, each limb pair is convolved with numpy
  ``rfft``/``irfft`` and rounded, and the limb products are recombined;
* otherwise Kronecker substitution: each sequence is packed into one Python
  integer as the value of its polynomial at 2^w, the two integers are
  multiplied once (CPython's Karatsuba), and the product is unpacked slot by
  slot (Schonhage 1982; Harvey, J. Symb. Comput. 2009).

The route depends only on the lengths, the nonzero counts and the
coefficient bound min(len a, len b) * max|a| * max|b|.  The three int64
routes need that bound below 2^62.  The support-pair route is taken when, in
addition, PAIRS_RATIO * nnz(a) * nnz(b) + PAIRS_SETUP <= len(a) * len(b):
its work is one scatter per pair of nonzeros plus a fixed setup, against
len(a) * len(b) multiply-adds for np.convolve and a few transforms for the
FFT.  The scatter is exact because an output slot receives at most
min(nnz a, nnz b) products, each at most max|a| * max|b| in size, so every
partial sum, in whatever order ``np.add.at`` takes the pairs, stays below the
bound and never wraps.

The FFT route splits x into sign-magnitude limbs x = sum_i x_i 2^(w i):
x_i carries the sign of x and the i-th w-bit digit of |x|, so |x_i| < 2^w.
Each limb pair is zero-padded to L = 2^n, the least power of two at or
above len a + len b - 1, and its product z = x_i * y_j is computed as
irfft(rfft(x_i) rfft(y_j)).  Percival's bound (Percival, "Rapid
multiplication modulo the sum and difference of highly composite numbers",
Math. Comp. 72, 2003; Brent & Zimmermann, Modern Computer Arithmetic, 2010,
ch. 3) on the error of the computed z' is

    |z' - z|_inf <= |x|_2 |y|_2 ((1+eps)^(3n) (1+eps sqrt 5)^(3n+1) (1+beta)^(3n) - 1)

with eps = 2^-53 (binary64 rounding) and beta the error of the computed
roots of unity.  BETA = 2^-51 is an assumption about numpy: its
power-of-two rfft of a unit impulse at index 1, which returns the roots,
stays within BETA of them for L = 2 .. 2^22, the longest L the route takes
(the tests check it).  With |x|_2 <= sqrt(len x) max|x_i| the bound depends
on lengths and limb maxima only.  The route is taken when it is below 1/4
for every limb pair, with the fewest limbs up to MAX_LIMBS per input: then
np.rint(z') = z, and the factor 2 below 1/2 covers numpy's real-input
transform, which is not the complex radix-2 transform the bound models.
The recombination sum z_ij 2^(w_a i + w_b j) is exact in int64: in any
order its partial sums are at most (|a| * |b|)[k] <= the bound < 2^62.

The Kronecker slot width w is the bit length of the coefficient bound
plus one sign bit, rounded up to whole bytes, so that packing and unpacking
are int.to_bytes/int.from_bytes copies.  Every sequence, signed or not, is
packed as pack(positive part) - pack(negative part), and the product gets
2^(w-1) in every slot (one integer of repeated bias bytes), so each slot
holds c + 2^(w-1) in [0, 2^w) and no carry crosses a slot boundary.  Big
integers have no size limit, so this route needs no fallback.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import expm1, log1p, sqrt

import numpy as np

from .errors import ValidationError
from .sets import BLOCK_PAIRS, INT64_SAFE as _INT64_SAFE, exact_dtype

# np.convolve/FFT crossover in multiply-adds per output slot,
# len(a) len(b) / (len(a) + len(b) - 1), measured on 6-bit inputs from
# 64 x 64 to 512 x 8192 entries: np.convolve wins below about 90 and the
# FFT above about 190; a cut on len(a) len(b) alone would misroute skewed
# shapes (at 64 x 16384 np.convolve is still 1.3 times faster)
DENSE_CUT = 128
# support-pair/dense crossover, measured on 0/1 inputs with nnz(a) = nnz(b):
# the pairs win while nnz(a) nnz(b) < len(a) len(b) / 8 from 130 x 130 to
# 400 x 400 entries, but only below about / 30 at 1000 x 1000 and / 100 at
# 8000 x 8000, where Kronecker is cheaper per slot pair; below 2^14 slot
# pairs their fixed cost of about 10 us matches the whole dense product
PAIRS_RATIO = 64
PAIRS_SETUP = 1 << 14
# the most limbs the FFT route splits one input into
MAX_LIMBS = 3
# the assumed error of numpy's roots of unity, and Percival's factor at
# L = 2^n for n < 64 (both in the module docstring)
BETA = 2.0**-51
_EPS = 2.0**-53
_MAX_LOG_L = 22  # the longest transform, 2^22, at which BETA is checked
_PERCIVAL = [expm1(3 * n * log1p(_EPS) + (3 * n + 1) * log1p(_EPS * sqrt(5))
                   + 3 * n * log1p(BETA)) for n in range(64)]


def _array(seq: Sequence[int]) -> tuple[np.ndarray, int]:
    """A sequence of ints, or an integer array, as an int64 array (itself
    when it is one), or an object array of Python ints when an entry is
    outside int64, and its max|entry| as a Python int (0 when empty)."""
    try:
        x = np.asarray(seq, dtype=np.int64)
    except OverflowError:
        x = np.array(seq, dtype=object)
    return x, max(int(x.max(initial=0)), -int(x.min(initial=0)))


def product_bound(len_a: int, max_a: int, len_b: int, max_b: int) -> int:
    """min(len a, len b) * max|a| * max|b|: no partial sum of an output slot
    exceeds it, in whatever order its products are added."""
    return min(len_a, len_b) * max_a * max_b


def _pack(seq: Sequence[int], nbytes: int) -> int:
    """sum seq[i] * 2^(8 nbytes i) for |seq[i]| < 2^(8 nbytes), packed as
    pack(positive part) - pack(negative part)."""
    def join(xs) -> int:
        return int.from_bytes(b"".join(x.to_bytes(nbytes, "little") for x in xs), "little")
    return join([x if x > 0 else 0 for x in seq]) - join([-x if x < 0 else 0 for x in seq])


def _kronecker(a: Sequence[int], b: Sequence[int], bound: int) -> list[int]:
    """The product by one big-integer multiplication (module docstring)."""
    out_len = len(a) + len(b) - 1
    nbytes = (bound.bit_length() + 8) // 8  # the bound and one sign bit
    # the product plus the bias 2^(w-1), a top byte of 0x80, in every slot
    packed = _pack(a, nbytes)
    prod = packed * (packed if b is a else _pack(b, nbytes)) + int.from_bytes(
        (bytes(nbytes - 1) + b"\x80") * out_len, "little")
    raw = prod.to_bytes(nbytes * out_len, "little")
    bias = 1 << (8 * nbytes - 1)
    return [int.from_bytes(raw[i:i + nbytes], "little") - bias
            for i in range(0, len(raw), nbytes)]


def _pairs(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Scatter-add of the products of the nonzero entries at the sums of
    their positions, in blocks of at most BLOCK_PAIRS pairs."""
    ia, ib = np.flatnonzero(xa), np.flatnonzero(xb)
    wa, wb = xa[ia], xb[ib]
    out = np.zeros(len(xa) + len(xb) - 1, dtype=np.int64)
    cols = min(len(ib), BLOCK_PAIRS)
    rows = BLOCK_PAIRS // cols
    for i in range(0, len(ia), rows):
        for j in range(0, len(ib), cols):
            np.add.at(out, (ia[i:i + rows, None] + ib[j:j + cols]).ravel(),
                      (wa[i:i + rows, None] * wb[j:j + cols]).ravel())
    return out


def _fft_plan(len_a: int, len_b: int, max_a: int, max_b: int):
    """(n, (w_a, k_a), (w_b, k_b)) for the FFT route on L = 2^n with k limbs
    of w bits per input, the fewest transforms k_a + k_b + k_a k_b among the
    splits whose Percival bound is below 1/4 for every limb pair; None when
    no split into at most MAX_LIMBS limbs per input is admitted or L > 2^22."""
    n = (len_a + len_b - 2).bit_length()
    if n > _MAX_LOG_L:
        return None
    # sqrt(len a) sqrt(len b) |x_i| |y_j| _PERCIVAL[n] < 1/4
    budget = 0.25 / (_PERCIVAL[n] * sqrt(len_a * len_b))
    best, plan = None, None
    for k_a in range(1, MAX_LIMBS + 1):
        w_a = -(-max_a.bit_length() // k_a)
        for k_b in range(1, MAX_LIMBS + 1):
            w_b = -(-max_b.bit_length() // k_b)
            cost = k_a + k_b + k_a * k_b
            if (min(max_a, (1 << w_a) - 1) * min(max_b, (1 << w_b) - 1) < budget
                    and (best is None or cost < best)):
                best, plan = cost, (n, (w_a, k_a), (w_b, k_b))
    return plan


def _limbs(x: np.ndarray, w: int, k: int) -> np.ndarray:
    """k rows x_i with x = sum x_i 2^(w i): the w-bit digits of |x|, signed
    as x."""
    rows = (np.abs(x) >> (w * np.arange(k))[:, None]) & ((1 << w) - 1)
    np.negative(rows, out=rows, where=x < 0)
    return rows


def _fft(xa: np.ndarray, xb: np.ndarray, n: int, split_a, split_b) -> np.ndarray:
    """The product through rfft/irfft of every limb pair, rounded and
    recombined (see the module docstring)."""
    (w_a, k_a), (w_b, k_b) = split_a, split_b
    size, out_len = 1 << n, len(xa) + len(xb) - 1
    fa = np.fft.rfft(_limbs(xa, w_a, k_a), size)
    if xb is xa and split_b == split_a:  # a square: one transform
        fb = fa
    else:
        fb = np.fft.rfft(_limbs(xb, w_b, k_b), size)
    out = np.zeros(out_len, dtype=np.int64)
    for i in range(k_a):
        for j in range(k_b):
            z = np.rint(np.fft.irfft(fa[i] * fb[j], size)[:out_len]).astype(np.int64)
            out += z << (w_a * i + w_b * j)
    return out


def _product(xa: np.ndarray, xb: np.ndarray, max_a: int, max_b: int) -> np.ndarray:
    """The exact product of two nonempty arrays whose max|entry| are max_a
    and max_b, by the route that the lengths, the nonzero counts and the
    coefficient bound choose (module docstring): an int64 array, or an
    object array of Python ints from Kronecker at a bound past int64.  A
    square, _product(x, x, m, m) on one array, packs or transforms x once."""
    len_a, len_b = len(xa), len(xb)
    bound = product_bound(len_a, max_a, len_b, max_b)
    if bound == 0:
        return np.zeros(len_a + len_b - 1, dtype=np.int64)
    if bound < _INT64_SAFE:
        # at least one pair, so below PAIRS_SETUP slot pairs the pairs lose
        # and the nonzeros need not be counted
        if len_a * len_b > PAIRS_SETUP and (
                PAIRS_RATIO * int(np.count_nonzero(xa)) * int(np.count_nonzero(xb))
                + PAIRS_SETUP <= len_a * len_b):
            return _pairs(xa, xb)
        if len_a * len_b <= DENSE_CUT * (len_a + len_b - 1):
            return np.convolve(xa, xb)
        plan = _fft_plan(len_a, len_b, max_a, max_b)
        if plan:
            return _fft(xa, xb, *plan)
    a = xa.tolist()
    out = _kronecker(a, a if xb is xa else xb.tolist(), bound)
    return np.array(out, dtype=exact_dtype(bound))


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact linear convolution of two integer sequences.

    a and b are any sequences of ints (lists, tuples); output index k holds
    sum over i+j = k of a[i]*b[j] as a Python integer, in a list.  A square,
    convolve(a, a) on one object, converts, packs or transforms a once.
    """
    if not a or not b:
        return []
    xa, max_a = _array(a)
    xb, max_b = (xa, max_a) if b is a else _array(b)
    return _product(xa, xb, max_a, max_b).tolist()


def convolve_many(seqs: list[list[int]]) -> list[int]:
    """Left fold of `convolve` over a nonempty list of sequences."""
    if not seqs:
        raise ValidationError("convolve_many requires at least one sequence")
    acc = list(seqs[0])
    for nxt in seqs[1:]:
        if not acc:
            return []
        acc = convolve(acc, nxt)
    return acc
