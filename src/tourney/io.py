"""Reading and writing tournaments.

Two text formats:

  .trn      line 1 is n, then n lines of n characters '0'/'1';
            row u column v = 1 means the arc u -> v.
  arc list  whitespace-separated "u v" lines, one arc per line;
            n is inferred as max vertex + 1 unless given.

Both parsers funnel through the usual construction invariants, so
self-loops, double orientations and missing pairs are rejected with the
error taxonomy from errors.py.
"""

from __future__ import annotations

import io as _io
import itertools
import os
from typing import Union

import numpy as np

from .core import Tournament, from_arc_list
from .errors import MissingArc, TourneyError, VertexOutOfRange

PathLike = Union[str, os.PathLike]


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


def loads_trn(text: str) -> Tournament:
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
    m = np.zeros((n, n), dtype=bool)
    for u, row in enumerate(lines[1:]):
        if len(row) != n:
            raise TourneyError(f"row {u} has {len(row)} columns, expected {n}")
        bad = set(row) - {"0", "1"}
        if bad:
            raise TourneyError(f"row {u} contains invalid character {sorted(bad)[0]!r}")
        m[u] = np.frombuffer(row.encode("ascii"), dtype=np.uint8) == ord("1")
    return Tournament(m)


def read_trn(path: PathLike) -> Tournament:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_trn(fh.read())


def dumps_arcs(t: Tournament) -> str:
    """Arc list in lexicographic order, one "u v" per line."""
    out = _io.StringIO()
    for u, v in t.arcs():
        out.write(f"{u} {v}\n")
    return out.getvalue()


def write_arcs(t: Tournament, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_arcs(t))


def loads_arcs(text: str, n: int | None = None) -> Tournament:
    arcs = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise TourneyError(f"line {lineno}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TourneyError(f"line {lineno}: vertices must be integers, got {ln!r}")
        arcs.append((u, v))
    if any(u < 0 or v < 0 for u, v in arcs):
        raise VertexOutOfRange("negative vertex label")
    if n is None:
        if not arcs:
            raise TourneyError("empty arc list and no vertex count given")
        n = max(max(u, v) for u, v in arcs) + 1
        if len(arcs) < n * (n - 1) // 2:
            # n came from a label: name the pair without n x n memory, one skip per arc
            covered = {(min(u, v), max(u, v)) for u, v in arcs}
            a, b = next(p for p in itertools.combinations(range(n), 2) if p not in covered)
            raise MissingArc(f"no orientation for pair {{{a},{b}}}")
    return from_arc_list(n, arcs)


def read_arcs(path: PathLike, n: int | None = None) -> Tournament:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_arcs(fh.read(), n=n)
