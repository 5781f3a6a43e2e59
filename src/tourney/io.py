"""Reading and writing tournaments.

Two text formats:

  .trn      line 1 is n, then n lines of n characters '0'/'1';
            row u column v = 1 means the arc u -> v.
  arc list  whitespace-separated "u v" lines, one arc per line;
            n is inferred as max vertex + 1 unless given.

Both parsers funnel through the usual construction invariants, so
self-loops, double orientations and missing pairs are rejected with the
error taxonomy from errors.py.  Each format is read and written by whole
numpy passes; lines and tokens are those of str.splitlines, str.strip,
str.split and int().  A .trn text in exactly dumps_trn's layout is read in
one byte pass, to the matrix the line parser would give.
"""

from __future__ import annotations

import os
import re
import sys
import unicodedata
from typing import Union

import numpy as np

from .core import _HUGE, Tournament, _orient
from .errors import MissingArc, TourneyError, VertexOutOfRange

PathLike = Union[str, os.PathLike]

# rows of the matrix per block of dumps_arcs
_DUMP_ROWS = 256
# loads_arcs reads about this many characters at a time, cut after a line
# break, so its per-byte temporaries stay bounded
_CHUNK = 1 << 20
# the line boundaries of str.splitlines
_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
# byte kinds of ASCII text: other whitespace to str.split, a line break to
# str.splitlines, anything else
_GAP, _WORD, _LINE = 0, 1, 2
_KIND = np.full(256, _WORD, dtype=np.int8)
_KIND[[9, 31, 32]] = _GAP
_KIND[[10, 11, 12, 13, 28, 29, 30]] = _LINE
# a label with a nonzero digit this many places before its end reads as _HUGE
_DIGITS = 18
# the most digits int() reads (0: no limit); Pythons before 3.10.7 have none
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def dumps_trn(t: Tournament) -> str:
    """Canonical .trn text; byte-stable for reproducibility checks."""
    n = t.n
    rows = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
    np.add(t.matrix(), ord("0"), out=rows[:, :n], dtype=np.uint8)
    return f"{n}\n" + rows.tobytes().decode("ascii")


def write_trn(t: Tournament, path: PathLike) -> str:
    """Write dumps_trn(t) to path and return the text written."""
    text = dumps_trn(t)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def _canonical_trn(data) -> np.ndarray | None:
    """The 0/1 uint8 matrix of a text in exactly the layout dumps_trn writes,
    or None.

    That layout is a decimal header with no sign, leading zero or
    whitespace, a newline, then n rows of n '0'/'1' bytes each ending in a
    newline.  The line parser reads such a text to the same matrix; any
    other text is left to it.  A writable data (a bytearray) holds the
    matrix in its own bytes afterwards, so it no longer holds the text.
    """
    # a header of at most _DIGITS digits, which int() always reads
    head = data.find(b"\n", 0, _DIGITS + 1)
    if head < 1 or not data[:head].isdigit() or data[0] == ord("0"):
        return None
    n = int(data[:head])
    if len(data) != head + 1 + n * (n + 1):  # before anything of size n is made
        return None
    rows = np.frombuffer(data, dtype=np.uint8, offset=head + 1).reshape(n, n + 1)
    if (rows[:, n] != ord("\n")).any():
        return None
    bits = rows[:, :n] if rows.flags.writeable else rows[:, :n].copy()
    bits -= np.uint8(ord("0"))
    return bits if bits.max() <= 1 else None


def loads_trn(text: str) -> Tournament:
    bits = _canonical_trn(bytearray(text, "ascii")) if text.isascii() else None
    return Tournament(bits.view(bool)) if bits is not None else _loads_trn_lines(text)


def _loads_trn_lines(text: str) -> Tournament:
    """loads_trn for any text: lines as str.splitlines and str.strip see them."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TourneyError("empty .trn input")
    try:
        n = int(lines[0])
    except ValueError:
        raise TourneyError(f"first .trn line must be the vertex count, got {lines[0]!r}")
    if n < 1:
        raise TourneyError(f"vertex count must be >= 1, got {n}")
    if len(lines) != n + 1:
        raise TourneyError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = lines[1:]
    width = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    short = np.flatnonzero(width != n)
    good = int(short[0]) if short.size else n  # rows before the first of a wrong length
    # "replace" keeps one byte per character, so row u starts at byte u * n
    cells = np.frombuffer("".join(rows[:good]).encode("ascii", "replace"), dtype=np.uint8)
    bits = cells.reshape(good, n) - np.uint8(ord("0"))
    bad = np.flatnonzero(bits.max(axis=1) > 1)
    if bad.size:
        u = int(bad[0])
        raise TourneyError(f"row {u} contains invalid character {sorted(set(rows[u]) - {'0', '1'})[0]!r}")
    if good < n:
        raise TourneyError(f"row {good} has {width[good]} columns, expected {n}")
    return Tournament(bits.view(bool))


def read_trn(path: PathLike) -> Tournament:
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]  # a file that shrank since
        data += fh.read()  # one that grew, or a pipe
    bits = _canonical_trn(data)
    if bits is not None:
        return Tournament(bits.view(bool))
    with open(path, "r", encoding="utf-8") as fh:  # the file's text, as loads_trn reads it
        return _loads_trn_lines(fh.read())


def _label_table(n: int, end: str) -> np.ndarray:
    """Row j: the ASCII digits of j, then end, zero-padded to one width."""
    width = len(str(n - 1))
    table = np.zeros((n, width + 1), dtype=np.uint8)
    table[:, :width] = np.arange(n).astype(f"S{width}").view(np.uint8).reshape(n, width)
    table[np.arange(n), np.count_nonzero(table, axis=1)] = ord(end)
    return table


def dumps_arcs(t: Tournament) -> str:
    """Arc list in lexicographic order, one "u v" per line."""
    tails, heads = _label_table(t.n, " "), _label_table(t.n, "\n")
    m = t.matrix()
    out = []
    for lo in range(0, t.n, _DUMP_ROWS):
        rows = m[lo:lo + _DUMP_ROWS]
        per_row = np.count_nonzero(rows, axis=1)
        # the arcs' heads, in row-major (lexicographic) order
        v = np.flatnonzero(rows) - np.repeat(np.arange(0, rows.size, t.n), per_row)
        lines = np.concatenate((np.repeat(tails[lo:lo + _DUMP_ROWS], per_row, axis=0), heads[v]), axis=1)
        lines = lines.ravel()
        out.append(lines[lines != 0].tobytes().decode("ascii"))
    return "".join(out)


def write_arcs(t: Tournament, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_arcs(t))


class _AsciiTable(dict):
    """str.translate table that maps text to ASCII one character for one,
    keeping what str.splitlines, str.split and int() see: other line breaks
    become \\x1e, other whitespace a space, decimal digits 0-9, and the
    rest '?'.  Entries are made on first use."""

    def __missing__(self, c: int) -> int:
        ch = chr(c)
        if c < 128:
            out = c
        elif ch in "\x85\u2028\u2029":
            out = 0x1E
        elif ch.isspace():
            out = ord(" ")
        elif ch.isdecimal():
            out = ord("0") + unicodedata.decimal(ch)
        else:
            out = ord("?")
        self[c] = out
        return out


_TO_ASCII = _AsciiTable()


def _line_chunks(text: str):
    """(lo, hi) spans of text of about _CHUNK characters, each ending a line."""
    lo = 0
    while lo < len(text):
        cut = _BREAK.search(text, min(lo + _CHUNK, len(text)))
        hi = cut.end() if cut else len(text)
        yield lo, hi
        lo = hi


def _arc_tokens(chunk: str):
    """Tokens of the non-comment lines of a run of whole lines.

    Returns the chunk's ASCII bytes, the tokens' start and end offsets,
    whether each token opens its line, and the offsets of the token bytes
    that are not digits.
    """
    b = np.frombuffer((chunk if chunk.isascii() else chunk.translate(_TO_ASCII)).encode("ascii"),
                      dtype=np.uint8)
    kind = np.zeros(b.size + 2, dtype=np.int8)
    np.take(_KIND, b, out=kind[1:-1])
    # runs of one kind: run i is chunk[edge[i]:edge[i + 1]]
    edge = np.flatnonzero(kind[1:] != kind[:-1])
    run = kind[edge + 1]
    word = np.flatnonzero(run == _WORD)
    starts, ends = edge[word], edge[word + 1]
    # a token opens its line when a line break lies between it and the last
    # token; the runs between two tokens alternate _GAP and _LINE
    first = np.ones(word.size, dtype=bool)
    first[1:] = (np.diff(word) > 2) | (run[word[1:] - 1] == _LINE)
    odd = np.flatnonzero((kind[1:-1] == _WORD) & ((b < ord("0")) | (b > ord("9"))))
    # comment lines: the line's first token starts with '#'
    at = np.minimum(np.searchsorted(starts, odd), max(starts.size - 1, 0))
    hashes = at[(b[odd] == ord("#")) & (starts[at] == odd) & first[at]]
    if hashes.size:
        line = np.cumsum(first) - 1
        comment = np.zeros(starts.size, dtype=bool)
        comment[line[hashes]] = True
        keep = ~comment[line]
        starts, ends, first = starts[keep], ends[keep], first[keep]
    return b, starts, ends, first, odd


def _arc_labels(text: str, lo: int, hi: int) -> np.ndarray:
    """The (k, 2) int64 labels of the whole lines text[lo:hi]; labels of
    10**18 or more read as _HUGE.  Raises for the first line that is not a
    pair of integers, quoting its text."""
    chunk = text[lo:hi]
    b, starts, ends, first, odd = _arc_tokens(chunk)
    leads = np.flatnonzero(first)  # each line's first token
    per_line = np.diff(np.append(leads, starts.size))
    # int() syntax: an optional sign, then digits with single '_' between
    # them; check the bytes that are not digits, in the tokens that hold them
    tok = np.searchsorted(starts, odd, side="right") - 1
    held = tok >= 0
    held[held] = ends[tok[held]] > odd[held]
    odd, tok = odd[held], tok[held]
    digits = b - np.uint8(ord("0"))  # 0-9 at digits
    digit_after = (odd + 1 < ends[tok]) & (digits[np.minimum(odd + 1, b.size - 1)] <= 9)
    sign = ((b[odd] == ord("+")) | (b[odd] == ord("-"))) & (odd == starts[tok]) & digit_after
    under = (b[odd] == ord("_")) & (odd > starts[tok]) & (digits[odd - 1] <= 9) & digit_after
    bad_tok = tok[~(sign | under)]
    size = ends - starts
    limit = _int_max_str_digits()
    if limit and size.max(initial=0) > limit:  # int() refuses more digits than this
        digit_count = size - np.bincount(tok, minlength=size.size)
        bad_tok = np.append(bad_tok, np.flatnonzero(digit_count > limit))
    wrong = np.concatenate((leads[per_line != 2], leads[np.searchsorted(leads, bad_tok, side="right") - 1]))
    if wrong.size:
        h = int(wrong.min())
        count = int(per_line[np.searchsorted(leads, h)])
        where = f"line {len(_BREAK.findall(text, 0, lo + starts[h])) + 1}"
        got = chunk[starts[h]:ends[h + count - 1]]
        if count != 2:
            raise TourneyError(f"{where}: expected 'u v', got {got!r}")
        raise TourneyError(f"{where}: vertices must be integers, got {got!r}")
    negative = b[starts] == ord("-")
    underscores = odd[under]
    if underscores.size:  # they stand between digits: drop them
        digits = np.delete(digits, underscores)
        starts = starts - np.searchsorted(underscores, starts)
        ends = ends - np.searchsorted(underscores, ends)
    # each token's value from its last _DIGITS bytes by Horner's rule, the
    # byte k places before the end read as 0 (a sign or beyond the token)
    size = ends - starts
    short = np.minimum(size, _DIGITS).astype(np.int8)
    value = np.zeros(starts.size, dtype=np.int64)
    for k in reversed(range(int(short.max(initial=0)))):
        place = np.take(digits, ends - (k + 1))
        place[(short <= k) | (place > 9)] = 0
        value *= 10
        value += place
    long = np.flatnonzero(size > _DIGITS)
    if long.size:  # a nonzero digit before the last _DIGITS makes it _HUGE
        nonzero = np.flatnonzero((digits > 0) & (digits <= 9))
        lead = np.searchsorted(nonzero, ends[long] - _DIGITS) - np.searchsorted(nonzero, starts[long])
        value[long[lead > 0]] = _HUGE
    value[negative] *= -1
    return value.reshape(-1, 2)


def _first_uncovered(n: int, arcs: np.ndarray) -> tuple:
    """Lexicographically first pair {x, y}, x < y < n, joined by no arc."""
    lo, hi = arcs.min(axis=1), arcs.max(axis=1)
    lo, hi = lo[lo < hi], hi[lo < hi]
    x = 0
    if n - 1 <= len(arcs):  # else vertex 0 has fewer arcs than partners
        joined = np.unique(lo * n + hi)
        above = np.bincount(joined // n, minlength=n)  # x's partners y > x
        x = int(np.flatnonzero(above < n - 1 - np.arange(n))[0])
    partners = np.unique(hi[lo == x])
    gap = np.flatnonzero(partners != np.arange(x + 1, x + 1 + partners.size))
    return x, x + 1 + (int(gap[0]) if gap.size else partners.size)


def loads_arcs(text: str, n: int | None = None) -> Tournament:
    spans = list(_line_chunks(text))
    parts = [_arc_labels(text, lo, hi) for lo, hi in spans]
    arcs = np.concatenate(parts) if parts else np.zeros((0, 2), dtype=np.int64)
    del parts  # the per-chunk copies
    if (arcs < 0).any():
        raise VertexOutOfRange("negative vertex label")
    if n is None:
        if not arcs.size:
            raise TourneyError("empty arc list and no vertex count given")
        n = int(arcs.max()) + 1
        if len(arcs) < n * (n - 1) // 2:
            # n came from a label: name the pair without n x n memory
            a, b = _first_uncovered(n, arcs)
            raise MissingArc(f"no orientation for pair {{{a},{b}}}")
    return _orient(n, arcs, lambda k: _arc_text(text, spans, k))


def _arc_text(text: str, spans: list, k: int) -> tuple:
    """Exact labels of arc k, read from its line."""
    for lo, hi in spans:
        chunk = text[lo:hi]
        _, starts, ends, _, _ = _arc_tokens(chunk)
        if 2 * k < starts.size:
            return tuple(int(chunk[s:e]) for s, e in zip(starts[2 * k:2 * k + 2], ends[2 * k:2 * k + 2]))
        k -= starts.size // 2
    raise IndexError(k)


def read_arcs(path: PathLike, n: int | None = None) -> Tournament:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_arcs(fh.read(), n=n)
