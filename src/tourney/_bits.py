"""Packed-bit-row helpers.

Adjacency rows are stored as little-endian uint64 words so that set
intersections become word-wise AND + popcount.  Column j of a row lives in
word j >> 6, bit j & 63.
"""

from __future__ import annotations

import numpy as np


def words_per_row(n: int) -> int:
    return (n + 63) >> 6


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a boolean (r, n) matrix into a (r, words_per_row(n)) uint64 array."""
    r, n = rows.shape
    w = words_per_row(n)
    packed8 = np.packbits(rows, axis=1, bitorder="little")
    if packed8.shape[1] < 8 * w:
        pad = np.zeros((r, 8 * w - packed8.shape[1]), dtype=np.uint8)
        packed8 = np.concatenate([packed8, pad], axis=1)
    # packbits keeps the memory order of rows, and a column-major one has
    # no contiguous rows of bytes to view as words
    return np.ascontiguousarray(packed8).view(np.uint64)


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_rows; returns a boolean (r, n) matrix."""
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n].astype(bool)


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Number of set bits per row."""
    return np.bitwise_count(packed).sum(axis=-1, dtype=np.int64)


def test_bits(packed: np.ndarray, rows, cols) -> np.ndarray:
    """Vectorized bit(rows[k], cols[k]) lookups against a packed matrix.

    Column j of a row is bit j & 7 of its byte j >> 3, so each lookup is one
    byte read from the flat little-endian bytes of the words.
    """
    flat = packed.view(np.uint8).reshape(-1)
    cols = np.asarray(cols)
    at = np.asarray(rows, dtype=np.intp) * packed.shape[1] * 8 + (cols >> 3)
    return ((np.take(flat, at) >> (cols & 7).astype(np.uint8)) & np.uint8(1)).view(bool)
