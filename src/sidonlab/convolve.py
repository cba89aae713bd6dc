"""Exact linear convolution of integer sequences.

Two routes, both exact:

* numpy's int64 ``np.convolve`` when a rigorous coefficient bound rules
  out overflow and the shorter input has at most ``SHORT_LEN`` entries per
  byte of Kronecker slot, twice that for signed inputs (which Kronecker
  packs twice and unpacks through a bias);
* otherwise Kronecker substitution: each sequence is packed into one Python
  integer as the value of its polynomial at 2^w, the two integers are
  multiplied once (CPython's Karatsuba), and the product is unpacked slot by
  slot (Schonhage 1982; Harvey, J. Symb. Comput. 2009).

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

# numpy/Kronecker crossover in shorter-input entries per slot byte (measured)
SHORT_LEN = 192

_INT64_SAFE = 1 << 62


def _coeff_bound(a: list[int], b: list[int]) -> int:
    ma = max(max(a), -min(a))
    mb = max(max(b), -min(b))
    return min(len(a), len(b)) * ma * mb


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


def _slot(a: list[int], b: list[int], bound: int) -> tuple[int, bool]:
    """Kronecker slot width in bytes and whether an input is signed."""
    signed = min(a) < 0 or min(b) < 0
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


def convolve(a: list[int], b: list[int]) -> list[int]:
    """Exact linear convolution of two integer sequences.

    Output index k holds sum over i+j = k of a[i]*b[j] as a Python integer.
    """
    if not a or not b:
        return []
    bound = _coeff_bound(a, b)
    if bound == 0:
        return [0] * (len(a) + len(b) - 1)
    nbytes, signed = _slot(a, b, bound)
    if bound < _INT64_SAFE and min(len(a), len(b)) <= SHORT_LEN * nbytes * (1 + signed):
        return np.convolve(np.asarray(a, dtype=np.int64),
                           np.asarray(b, dtype=np.int64)).tolist()
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
