"""Exact linear convolution of integer sequences.

Three routes, all exact:

* the support-pair route for sparse inputs, such as the indicator of a
  dense Sidon set (about sqrt(N) ones in N slots) and its dilates: the
  positions of the nonzero entries of the two inputs are added pairwise and
  their int64 weights multiplied pairwise, in blocks of at most
  ``sets.BLOCK_PAIRS`` pairs, and the products are scatter-added into an
  int64 output with ``np.add.at``;
* numpy's int64 ``np.convolve`` when the shorter input has at most
  ``SHORT_LEN`` entries per byte of Kronecker slot, twice that for signed
  inputs (which Kronecker packs twice and unpacks through a bias);
* otherwise Kronecker substitution: each sequence is packed into one Python
  integer as the value of its polynomial at 2^w, the two integers are
  multiplied once (CPython's Karatsuba), and the product is unpacked slot by
  slot (Schonhage 1982; Harvey, J. Symb. Comput. 2009).

The route depends only on the lengths, the nonzero counts and the
coefficient bound min(len a, len b) * max|a| * max|b|.  The two int64 routes
need that bound below 2^62.  The support-pair route is taken when, in
addition, PAIRS_RATIO * nnz(a) * nnz(b) + PAIRS_SETUP <= len(a) * len(b):
its work is one scatter per pair of nonzeros plus a fixed setup, against
len(a) * len(b) multiply-adds for the dense routes.  The scatter is exact
because an output slot receives at most min(nnz a, nnz b) products, each at
most max|a| * max|b| in size, so every partial sum, in whatever order
``np.add.at`` takes the pairs, stays below the bound and never wraps.

The slot width w is the bit length of the coefficient bound, plus one sign
bit when an input is signed, rounded up to whole bytes so that packing and
unpacking are byte copies.  A signed sequence is packed as
pack(positive part) - pack(negative part), and the product is unpacked
after adding 2^(w-1) to every slot, so each slot holds c + 2^(w-1) in
[0, 2^w) and no carry crosses a slot boundary.  Big integers have no size
limit, so this route needs no fallback.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .sets import BLOCK_PAIRS, INT64_SAFE as _INT64_SAFE

# numpy/Kronecker crossover in shorter-input entries per slot byte (measured)
SHORT_LEN = 192
# support-pair/dense crossover, measured on 0/1 inputs with nnz(a) = nnz(b):
# the pairs win while nnz(a) nnz(b) < len(a) len(b) / 8 from 130 x 130 to
# 400 x 400 entries, but only below about / 30 at 1000 x 1000 and / 100 at
# 8000 x 8000, where Kronecker is cheaper per slot pair; below 2^14 slot
# pairs their fixed cost of about 10 us matches the whole dense product
PAIRS_RATIO = 64
PAIRS_SETUP = 1 << 14


def _extremes(seq) -> tuple[int, int]:
    """(min, max) of a list of ints or of an int64 array, as Python ints."""
    if isinstance(seq, np.ndarray):
        return int(seq.min()), int(seq.max())
    return min(seq), max(seq)


def _coeff_bound(a, b) -> int:
    """min(len a, len b) * max|a| * max|b|: no partial sum of an output slot
    exceeds it, in whatever order its products are added."""
    (lo_a, hi_a), (lo_b, hi_b) = _extremes(a), _extremes(b)
    return min(len(a), len(b)) * max(hi_a, -lo_a) * max(hi_b, -lo_b)


def _pack(seq: list[int], nbytes: int) -> int:
    """sum seq[i] * 2^(8 nbytes i) for a sequence with 0 <= seq[i] < 2^(8 nbytes)."""
    if nbytes <= 8:
        arr = np.asarray(seq, dtype="<u8").view(np.uint8).reshape(-1, 8)
        return int.from_bytes(arr[:, :nbytes].tobytes(), "little")
    return int.from_bytes(b"".join(x.to_bytes(nbytes, "little") for x in seq),
                          "little")


def _pack_signed(seq: list[int], nbytes: int) -> int:
    if min(seq) >= 0:
        return _pack(seq, nbytes)
    return (_pack([x if x > 0 else 0 for x in seq], nbytes)
            - _pack([-x if x < 0 else 0 for x in seq], nbytes))


def _unpack(raw: bytes, nbytes: int, bias: int) -> list[int]:
    """The slots of `raw`, nbytes each, read as integers minus `bias`."""
    if nbytes <= 8:
        slots = np.zeros((len(raw) // nbytes, 8), dtype=np.uint8)
        slots[:, :nbytes] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, nbytes)
        vals = slots.view("<u8").ravel()
        # uint64 wraparound, then two's complement: exact since |c| < 2^63
        return (vals - np.uint64(bias)).view(np.int64).tolist() if bias else vals.tolist()
    return [int.from_bytes(raw[i:i + nbytes], "little") - bias
            for i in range(0, len(raw), nbytes)]


def _slot(a, b, bound: int) -> tuple[int, bool]:
    """Kronecker slot width in bytes and whether an input is signed."""
    signed = _extremes(a)[0] < 0 or _extremes(b)[0] < 0
    return (bound.bit_length() + signed + 7) // 8, signed


def _kronecker(a: list[int], b: list[int], bound: int) -> list[int]:
    out_len = len(a) + len(b) - 1
    nbytes, signed = _slot(a, b, bound)
    pack = _pack_signed if signed else _pack
    prod = pack(a, nbytes) * pack(b, nbytes)
    bias = 1 << (8 * nbytes - 1) if signed else 0
    if bias:
        prod += _pack([bias] * out_len, nbytes)
    return _unpack(prod.to_bytes(nbytes * out_len, "little"), nbytes, bias)


def _pairs(xa: np.ndarray, xb: np.ndarray) -> list[int]:
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
    return out.tolist()


def convolve(a: list[int], b: list[int]) -> list[int]:
    """Exact linear convolution of two integer sequences.

    Output index k holds sum over i+j = k of a[i]*b[j] as a Python integer.
    """
    if not a or not b:
        return []
    try:
        xa, xb = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    except OverflowError:  # an entry outside int64
        return _kronecker(a, b, _coeff_bound(a, b))
    # numpy reductions beat the builtins from about a hundred entries
    ends = (xa, xb) if len(a) + len(b) > 256 else (a, b)
    bound = _coeff_bound(*ends)
    if bound == 0:
        return [0] * (len(a) + len(b) - 1)
    if bound < _INT64_SAFE:
        pairs = int(np.count_nonzero(xa)) * int(np.count_nonzero(xb))
        if PAIRS_RATIO * pairs + PAIRS_SETUP <= len(a) * len(b):
            return _pairs(xa, xb)
        nbytes, signed = _slot(*ends, bound)
        if min(len(a), len(b)) <= SHORT_LEN * nbytes * (1 + signed):
            return np.convolve(xa, xb).tolist()
    return _kronecker(a, b, bound)


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
