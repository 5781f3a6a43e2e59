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
        pair = _first_pair(matrix, np.logical_and)
        if pair:
            raise ConflictingArc(f"both orientations present for pair {{{pair[0]},{pair[1]}}}")
        _check_complete(matrix)
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
        return bool(_bits.test_bits(self._out, u, v))

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


# side of the square tiles of the pair scans: a (256, 256) bool tile and its
# mirror take 128 KB, whatever n is
_SCAN_ROWS = 256

# stands in for a label beyond int64: out of range for any vertex count
_HUGE = 10 ** 18


def _upper_tiles(n: int):
    """Square tiles (I, J) of side _SCAN_ROWS, I.start <= J.start, that
    cover the upper triangle of an n x n matrix: band of rows by band of
    rows, the diagonal tile I == J first in each band."""
    for lo in range(0, n, _SCAN_ROWS):
        rows = slice(lo, min(lo + _SCAN_ROWS, n))
        for left in range(lo, n, _SCAN_ROWS):
            yield rows, slice(left, min(left + _SCAN_ROWS, n))


def _first_pair(m: np.ndarray, hit):
    """Lexicographically first pair (u, v), u < v, with hit(m[u, v], m[v, u]).

    Scans the upper tiles, tile m[I, J] against the transposed mirror tile
    m[J, I], so no n x n temporary is made and both tiles stay in cache;
    hit must be symmetric in its arguments.  The first band of rows with a
    hit holds the pair: the least of its tiles' first hits.
    """
    found = []
    for rows, cols in _upper_tiles(m.shape[0]):
        if rows == cols and found:  # a band with a hit is done
            break
        tile = hit(m[rows, cols], m[cols, rows].T)
        if rows == cols:
            tile = np.triu(tile, 1)
        if tile.any():
            u, v = np.argwhere(tile)[0]
            found.append((rows.start + int(u), cols.start + int(v)))
    return min(found) if found else None


def _check_complete(m: np.ndarray) -> None:
    """Raise MissingArc for the first unoriented pair of a square bool matrix
    with an empty diagonal and no pair given both ways."""
    n = m.shape[0]
    # then C(n,2) arcs means every pair is oriented
    if np.count_nonzero(m) != n * (n - 1) // 2:
        pair = _first_pair(m, lambda uv, vu: ~(uv | vu))
        raise MissingArc(f"no orientation for pair {{{pair[0]},{pair[1]}}}")


def from_arc_list(n: int, arcs) -> Tournament:
    """Build a tournament on n vertices from explicit (u, v) arcs.

    arcs is a (k, 2) integer array or any iterable of pairs.  Every
    unordered pair must be oriented exactly once; duplicates of the same
    orientation are tolerated.  Errors name the earliest offending arc.
    """
    if n < 1:
        raise ValueError("a tournament needs at least one vertex")
    pairs = arcs if isinstance(arcs, np.ndarray) else list(arcs)
    try:
        a = np.asarray(pairs, dtype=np.int64)
    except OverflowError:
        # labels past int64 are out of range for any n; the message reads pairs
        a = np.clip(np.asarray(pairs, dtype=object), -_HUGE, _HUGE).astype(np.int64)
    a = a.reshape(0, 2) if a.size == 0 else a
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("arcs must be (u, v) pairs")
    return _orient(n, a, lambda k: tuple(int(x) for x in pairs[k]))


def _orient(n: int, a: np.ndarray, pair_at) -> Tournament:
    """from_arc_list on a (k, 2) int64 array; pair_at(k) gives arc k's exact labels.

    Raises what checking the arcs one at a time would: for the earliest
    arc that is out of range, a self-loop, or the reverse of an earlier arc.
    """
    u, v = a[:, 0], a[:, 1]
    # a negative label reads as a huge unsigned one, so one comparison checks both ends
    bad = (np.maximum(u.view(np.uint64), v.view(np.uint64)) >= n) | (u == v)
    stop = int(np.argmax(bad)) if bad.any() else len(a)
    u, v = u[:stop], v[:stop]
    m = np.zeros((n, n), dtype=bool)
    m[u, v] = True
    if _first_pair(m, np.logical_and):  # some pair given both ways: find its arc
        clash = np.flatnonzero(m[v, u])  # every arc of such a pair
        cu, cv = u[clash], v[clash]
        # first arc of each (pair, direction); a pair's later one is its first
        # arc whose reverse came earlier
        _, first = np.unique((np.minimum(cu, cv) * n + np.maximum(cu, cv)) * 2 + (cu < cv),
                             return_index=True)
        k = int(clash[first.reshape(-1, 2).max(axis=1).min()])
        raise ConflictingArc(f"both orientations present for pair "
                             f"{{{int(min(u[k], v[k]))},{int(max(u[k], v[k]))}}}")
    if stop < len(a):
        pu, pv = pair_at(stop)
        for x in (pu, pv):
            if not 0 <= x < n:
                raise VertexOutOfRange(f"vertex {x} outside 0..{n - 1}")
        raise SelfLoop(f"self-loop at vertex {pu}")
    _check_complete(m)
    return Tournament._from_validated(m)


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
