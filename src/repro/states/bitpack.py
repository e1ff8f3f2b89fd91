"""Word-packed binary linear algebra for the stabilizer engines.

Both stabilizer representations in this package are, at heart, GF(2)
matrices: the Aaronson-Gottesman tableau's ``x``/``z`` blocks and the CH
form's ``F``/``G``/``M`` conjugation matrices.  Storing one bit per byte
(``uint8``/``bool``) wastes 8x memory and — more importantly — 64x ALU
width: a row XOR or a popcount over ``n`` columns is ``ceil(n / 64)``
word operations when the row is packed into ``uint64`` words, the layout
Stim uses for its tableau kernels.

Layout: column ``c`` of a binary matrix lives in word ``c >> 6`` at bit
``c & 63`` (LSB-first within each word).  All packed arrays maintain the
invariant that tail bits past the logical width are zero, so popcounts
and equality checks need no masking; operations that complement words
(``~v``) must AND the result with a clean operand or with :func:`mask`
before trusting tail bits.

Everything here is pure NumPy; :func:`popcount` uses ``np.bitwise_count``
when available (NumPy >= 2.0) and a 256-entry byte lookup table otherwise.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

WORD_BITS = 64

_ONE = np.uint64(1)

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def num_words(n: int) -> int:
    """Words needed for ``n`` bits."""
    return (int(n) + WORD_BITS - 1) >> 6


def pack_rows(mat: np.ndarray, n: int = None) -> np.ndarray:
    """Pack the last axis of a binary array into ``uint64`` words.

    ``mat[..., c]`` (0/1) maps to bit ``c & 63`` of word ``c >> 6``.
    """
    mat = np.asarray(mat)
    if n is None:
        n = mat.shape[-1]
    if mat.shape[-1] != n:
        raise ValueError(f"Expected last axis {n}, got {mat.shape[-1]}")
    w = num_words(n)
    padded = np.zeros(mat.shape[:-1] + (w * WORD_BITS,), dtype=np.uint64)
    padded[..., :n] = mat.astype(np.uint64) & _ONE
    bits = padded.reshape(mat.shape[:-1] + (w, WORD_BITS))
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    return np.bitwise_or.reduce(bits << shifts, axis=-1)


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`; returns a 0/1 ``uint8`` array."""
    packed = np.asarray(packed, dtype=np.uint64)
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    bits = (packed[..., :, None] >> shifts) & _ONE
    flat = bits.reshape(packed.shape[:-1] + (packed.shape[-1] * WORD_BITS,))
    return flat[..., :n].astype(np.uint8)


def packed_eye(n: int) -> np.ndarray:
    """The ``n x n`` identity, row-packed into ``(n, num_words(n))`` words."""
    out = np.zeros((n, num_words(n)), dtype=np.uint64)
    cols = np.arange(n)
    out[cols, cols >> 6] = _ONE << (cols & (WORD_BITS - 1)).astype(np.uint64)
    return out


def mask(n: int) -> np.ndarray:
    """Packed vector with the first ``n`` bits set (for tail cleanup)."""
    out = np.full(num_words(n), ~np.uint64(0), dtype=np.uint64)
    tail = n & (WORD_BITS - 1)
    if tail:
        out[-1] = (_ONE << np.uint64(tail)) - _ONE
    return out


if hasattr(np, "bitwise_count"):

    def popcount(arr: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts (same shape as ``arr``)."""
        return np.bitwise_count(arr)

else:  # pragma: no cover - NumPy < 2.0 fallback

    def popcount(arr: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts (same shape as ``arr``)."""
        arr = np.ascontiguousarray(arr, dtype=np.uint64)
        bytes_view = arr.view(np.uint8).reshape(arr.shape + (8,))
        return _POP8[bytes_view].sum(axis=-1, dtype=np.uint64)


def count_bits(arr: np.ndarray, axis=None) -> Union[int, np.ndarray]:
    """Total set bits, summed over ``axis`` (all axes when None)."""
    counts = popcount(arr)
    if axis is None:
        return int(counts.sum())
    return counts.sum(axis=axis, dtype=np.int64)


def word_and_bit(col: int) -> Tuple[int, np.uint64]:
    """(word index, bit offset) of column ``col``."""
    return col >> 6, np.uint64(col & (WORD_BITS - 1))


def get_bit(vec: np.ndarray, col: int) -> int:
    """Bit ``col`` of a packed vector."""
    w, b = word_and_bit(col)
    return int((vec[w] >> b) & _ONE)


def set_bit(vec: np.ndarray, col: int, value: int) -> None:
    """Set bit ``col`` of a packed vector to 0 or 1, in place."""
    w, b = word_and_bit(col)
    if value:
        vec[w] |= _ONE << b
    else:
        vec[w] &= ~(_ONE << b)


def get_col(mat: np.ndarray, col: int) -> np.ndarray:
    """Column ``col`` of a ``(..., words)`` packed matrix as a 0/1
    ``uint64`` array over the leading axes (the word axis dropped)."""
    w, b = word_and_bit(col)
    return (mat[..., w] >> b) & _ONE


def xor_col(mat: np.ndarray, col: int, bits01: np.ndarray) -> None:
    """XOR a 0/1 array into column ``col`` of a ``(..., words)`` packed
    matrix; ``bits01`` broadcasts against the leading axes."""
    w, b = word_and_bit(col)
    mat[..., w] ^= bits01 << b


def bit_positions(vec: np.ndarray, n: int) -> np.ndarray:
    """Indices of set bits of a packed vector (like ``np.flatnonzero``)."""
    return np.flatnonzero(unpack_rows(vec, n))


def words_to_bytes(arr: np.ndarray) -> bytes:
    """Raw little-endian wire bytes of a packed ``uint64`` word array.

    The snapshot payloads of the stabilizer backends ship their GF(2)
    matrices to pool workers as these bytes instead of pickled ndarray
    objects: no dtype/strides/class envelope per array, and the resulting
    payload tuples are hashable/equality-comparable, which is what lets
    the warm-pool key compare initial-state payloads directly.
    """
    return np.ascontiguousarray(arr, dtype="<u8").tobytes()


def words_from_bytes(buf: bytes, shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`words_to_bytes`: a fresh writable word array."""
    return np.frombuffer(buf, dtype="<u8").reshape(shape).astype(np.uint64)
