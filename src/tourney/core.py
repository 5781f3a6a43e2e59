"""Canonical tournament representation and small-order classification.

A tournament is a complete orientation of K_n.  Rows of the adjacency
matrix are packed into machine words (see _bits) so neighbourhood
intersections run word-parallel.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import _bits
from .errors import (
    ConflictingArc,
    MissingArc,
    SelfLoop,
    UnrecognizedScoreSequence,
    VertexOutOfRange,
    WrongOrder,
)


class SmallClass3(Enum):
    """The two 3-vertex tournaments: transitive triple and directed 3-cycle."""
    TR3 = "TR3"
    C3 = "C3"


class SmallClass4(Enum):
    """The four 4-vertex tournaments, keyed by sorted outdegree sequence."""
    TR4 = "TR4"   # (0,1,2,3)
    W4 = "W4"     # (1,1,1,3)  one vertex beats a 3-cycle
    L4 = "L4"     # (0,2,2,2)  a 3-cycle beats one vertex
    R4 = "R4"     # (1,1,2,2)  the regular-ish doubly cyclic one


_SCORE4 = {
    (0, 1, 2, 3): SmallClass4.TR4,
    (1, 1, 1, 3): SmallClass4.W4,
    (0, 2, 2, 2): SmallClass4.L4,
    (1, 1, 2, 2): SmallClass4.R4,
}


class Tournament:
    """Immutable complete orientation of K_n with packed adjacency rows.

    bit(u, v) = 1 means the arc u -> v.  Construction validates that the
    diagonal is empty and exactly one orientation per pair is present.
    """

    __slots__ = ("n", "_out", "_outdeg")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        n = matrix.shape[0]
        if n < 1:
            raise ValueError("a tournament needs at least one vertex")
        diag = np.flatnonzero(np.diagonal(matrix))
        if diag.size:
            raise SelfLoop(f"self-loop at vertex {int(diag[0])}")
        both = matrix & matrix.T
        if both.any():
            u, v = np.argwhere(both)[0]
            raise ConflictingArc(f"both orientations present for pair {{{int(min(u, v))},{int(max(u, v))}}}")
        neither = ~(matrix | matrix.T)
        np.fill_diagonal(neither, False)
        if neither.any():
            u, v = np.argwhere(neither)[0]
            raise MissingArc(f"no orientation for pair {{{int(min(u, v))},{int(max(u, v))}}}")
        self._init_validated(n, matrix)

    def _init_validated(self, n: int, matrix: np.ndarray) -> None:
        self.n = n
        self._out = _bits.pack_rows(matrix)
        self._outdeg = None

    @classmethod
    def _from_validated(cls, matrix: np.ndarray) -> "Tournament":
        """Skip invariant checks; matrix must already be a valid orientation."""
        t = cls.__new__(cls)
        t._init_validated(matrix.shape[0], np.asarray(matrix, dtype=bool))
        return t

    # ----- raw access -----

    @property
    def out_packed(self) -> np.ndarray:
        return self._out

    def matrix(self) -> np.ndarray:
        """Dense boolean adjacency (materialized on demand)."""
        return _bits.unpack_rows(self._out, self.n)

    def has_arc(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        word, shift = _bits.bit_index(v)
        return bool((self._out[u, word] >> shift) & np.uint64(1))

    def outdegrees(self) -> np.ndarray:
        if self._outdeg is None:
            self._outdeg = _bits.popcount_rows(self._out)
        return self._outdeg

    def out_neighbors(self, v: int) -> np.ndarray:
        self._check_vertex(v)
        return np.flatnonzero(_bits.unpack_rows(self._out[v:v + 1], self.n)[0])

    def in_neighbors(self, v: int) -> np.ndarray:
        self._check_vertex(v)
        beats_v = ~_bits.unpack_rows(self._out[v:v + 1], self.n)[0]
        beats_v[v] = False
        return np.flatnonzero(beats_v)

    def arcs(self):
        """All arcs in lexicographic (u, v) order."""
        m = self.matrix()
        for u in range(self.n):
            for v in np.flatnonzero(m[u]):
                yield u, int(v)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{self.n - 1}")

    # ----- equality -----

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._out, other._out)

    def __hash__(self) -> int:
        return hash((self.n, self._out.tobytes()))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n})"


def from_arc_list(n: int, arcs) -> Tournament:
    """Build a tournament on n vertices from explicit (u, v) arcs.

    Every unordered pair must be oriented exactly once; duplicates of the
    same orientation are tolerated.
    """
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    m = np.zeros((n, n), dtype=bool)
    for u, v in arcs:
        u, v = int(u), int(v)
        if not (0 <= u < n):
            raise VertexOutOfRange(f"vertex {u} outside 0..{n - 1}")
        if not (0 <= v < n):
            raise VertexOutOfRange(f"vertex {v} outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if m[v, u]:
            raise ConflictingArc(f"both orientations present for pair {{{min(u, v)},{max(u, v)}}}")
        m[u, v] = True
    return Tournament(m)  # Tournament() re-checks completeness, reporting MissingArc


def induced(t: Tournament, subset) -> Tournament:
    """Subtournament on the given vertices, relabeled by ascending index."""
    idx = np.array(sorted(set(int(v) for v in subset)), dtype=np.int64)
    if idx.size < 1:
        raise ValueError("subset must contain at least one vertex")
    if idx[0] < 0 or idx[-1] >= t.n:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise VertexOutOfRange(f"vertex {int(bad)} outside 0..{t.n - 1}")
    rows = _bits.unpack_rows(t.out_packed[idx], t.n)
    return Tournament._from_validated(rows[:, idx])


def score_sequence(t: Tournament) -> tuple:
    """Nondecreasing outdegree sequence."""
    return tuple(int(d) for d in np.sort(t.outdegrees()))


def classify3(t: Tournament) -> SmallClass3:
    """TR3 if some vertex beats both others, else the 3-cycle."""
    if t.n != 3:
        raise WrongOrder(f"classify3 needs order 3, got {t.n}")
    return SmallClass3.TR3 if int(t.outdegrees().max()) == 2 else SmallClass3.C3


def classify4(t: Tournament) -> SmallClass4:
    """Classify a 4-vertex tournament by its sorted outdegree sequence.

    The four classes have pairwise distinct score sequences, each realized
    by a single isomorphism class, so the score sequence decides.
    """
    if t.n != 4:
        raise WrongOrder(f"classify4 needs order 4, got {t.n}")
    key = score_sequence(t)
    cls = _SCORE4.get(key)
    if cls is None:
        raise UnrecognizedScoreSequence(f"score sequence {key} matches no 4-tournament")
    return cls
