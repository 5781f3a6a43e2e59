"""Local-transitivity testing and carousel structure recovery.

A tournament is locally transitive when every out- and in-neighbourhood
induces a transitive subtournament, equivalently when no 4-set induces W4
or L4.  For such tournaments a cyclic vertex order exists in which every
out-neighbourhood is the contiguous forward interval; the balanced odd
case is isomorphic to the carousel, and the isomorphism is recovered
constructively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bits
from .core import SmallClass4, Tournament, induced
from .counting import _transitive_triples_by_vertex
from .errors import EvenOrder, NotBalanced, NotLocallyTransitive


@dataclass(frozen=True)
class Obstruction:
    """A W4 or L4 witness: apex plus the 3-cycle it dominates (or loses to)."""
    kind: SmallClass4
    vertices: tuple
    apex: int

    def to_json_dict(self) -> dict:
        return {"kind": self.kind.value, "vertices": list(self.vertices),
                "apex": self.apex}


@dataclass(frozen=True)
class CyclicOrder:
    """Permutation of the vertices read cyclically."""
    order: tuple

    def __len__(self) -> int:
        return len(self.order)


def _neighbourhood_defects(t: Tournament) -> np.ndarray:
    """Per-vertex flags: bit 0 set if N+(v) has a cycle, bit 1 if N-(v) does."""
    tr3_out, tr3_in = _transitive_triples_by_vertex(t)
    d = t.outdegrees()
    e = t.n - 1 - d
    c3_out = d * (d - 1) * (d - 2) // 6 - tr3_out
    c3_in = e * (e - 1) * (e - 2) // 6 - tr3_in
    return (c3_out > 0).astype(np.int8) | ((c3_in > 0).astype(np.int8) << 1)


def _least_cycle(t: Tournament, members: np.ndarray):
    """Lexicographically smallest cyclic triple inside the given vertex set."""
    s = np.sort(members)
    m = _bits.unpack_rows(t.out_packed[s], t.n)[:, s]  # induced adjacency
    k = s.size
    for ai in range(k - 2):
        x = m[ai, ai + 1:]            # a -> b bits
        z = m[ai, ai + 1:]            # a -> c bits share the same slice
        sub = m[ai + 1:, ai + 1:]
        # sorted triple (a,b,c) is cyclic iff arc(a,b) == arc(b,c) != arc(a,c)
        cyc = (x[:, None] == sub) & (z[None, :] != x[:, None])
        cyc &= np.triu(np.ones((k - ai - 1, k - ai - 1), dtype=bool), 1)
        hits = np.argwhere(cyc)
        if hits.size:
            bi, ci = hits[0]
            return int(s[ai]), int(s[ai + 1 + bi]), int(s[ai + 1 + ci])
    return None


def find_obstruction(t: Tournament):
    """First W4/L4 witness (lowest apex, then smallest 3-cycle), or None.

    None means every neighbourhood is transitive, i.e. the tournament is
    locally transitive.
    """
    if t.n < 4:
        return None
    flags = _neighbourhood_defects(t)
    bad = np.flatnonzero(flags)
    if bad.size == 0:
        return None
    apex = int(bad[0])
    best = None
    kind = None
    if flags[apex] & 1:
        tri = _least_cycle(t, t.out_neighbors(apex))
        best, kind = tri, SmallClass4.W4
    if flags[apex] & 2:
        tri = _least_cycle(t, t.in_neighbors(apex))
        if best is None or (tri is not None and tri < best):
            best, kind = tri, SmallClass4.L4
    return Obstruction(kind=kind, vertices=tuple(sorted((*best, apex))), apex=apex)


def is_locally_transitive(t: Tournament) -> bool:
    return find_obstruction(t) is None


def _sort_by_beats(t: Tournament, members: np.ndarray) -> list:
    """Order a transitive vertex set so each member beats all later ones.

    Inside a transitive set the induced outdegrees are k-1, k-2, ..., 0,
    which doubles as a cycle detector if the precondition was violated.
    """
    k = members.size
    if k == 0:
        return []
    sub = _bits.unpack_rows(t.out_packed[members], t.n)[:, members]
    deg = sub.sum(axis=1)
    if sorted(deg.tolist()) != list(range(k)):
        raise NotLocallyTransitive("beat relation is not a total order on a neighbourhood")
    return [int(members[j]) for j in np.argsort(-deg, kind="stable")]


def _intervals(co: CyclicOrder, lengths) -> np.ndarray:
    """Boolean matrix whose row u is the forward interval of lengths[u] after u.

    With pos the inverse of the order, v lies in it iff the forward distance
    (pos[v] - pos[u]) mod n, taken in int32, is between 1 and lengths[u].
    """
    n = len(co)
    pos = np.empty(n, dtype=np.int32)
    pos[np.array(co.order)] = np.arange(n, dtype=np.int32)
    dist = pos[None, :] - pos[:, None]
    dist %= n
    return (dist >= 1) & (dist <= np.reshape(lengths, (-1, 1)))


def brouwer_order(t: Tournament) -> CyclicOrder:
    """Cyclic vertex order whose forward intervals are the out-neighbourhoods.

    Starts at vertex 0, lists N+(0) sorted by the beat relation, then N-(0)
    likewise, and checks once that every out-neighbourhood is the forward
    interval of its outdegree.  That check alone proves local transitivity:
    inside N+(v) every arc runs forward, since a backward arc y -> x would
    put v inside y's interval, so y would beat v; every x in N-(v) beats v,
    so x's interval runs through all later members of N-(v).

    When the check fails the input is not locally transitive, and
    NotLocallyTransitive carries the W4/L4 witness of find_obstruction; a
    failure without a witness would mean a bug and raises RuntimeError.
    """
    try:
        order = [0] + _sort_by_beats(t, t.out_neighbors(0)) + _sort_by_beats(t, t.in_neighbors(0))
        co = CyclicOrder(order=tuple(order))
        if np.array_equal(t.matrix(), _intervals(co, t.outdegrees())):
            return co
    except NotLocallyTransitive:
        pass
    obs = find_obstruction(t)
    if obs is None:
        raise RuntimeError("interval property failed without a W4/L4 witness; this is a bug")
    raise NotLocallyTransitive(obstruction=obs)


def carousel_isomorphism(t: Tournament) -> np.ndarray:
    """Vertex bijection onto the carousel of the same (odd, regular) order.

    Returns iso with iso[u] = the carousel label of u, the position of u in
    brouwer_order(t): forward intervals of length (n-1)/2 from every vertex
    are the carousel's definition, so the order's own check verifies it.
    """
    n = t.n
    if n % 2 == 0:
        raise EvenOrder(f"carousel isomorphism needs odd order, got {n}")
    d = t.outdegrees()
    if not (d == (n - 1) // 2).all():
        raise NotBalanced(f"outdegrees range {int(d.min())}..{int(d.max())}, want {(n - 1) // 2}")
    co = brouwer_order(t)
    iso = np.empty(n, dtype=np.int64)
    iso[np.array(co.order)] = np.arange(n)
    return iso


def balance_deficiency(t: Tournament, eps: float) -> float:
    """Fraction of vertices whose outdegree misses (n-1)/2 by more than eps*n."""
    d = t.outdegrees()
    centre = (t.n - 1) / 2.0
    return float(np.count_nonzero(np.abs(d - centre) > eps * t.n)) / t.n


def flip_distance_given_order(t: Tournament, co: CyclicOrder) -> float:
    """Normalized count of arcs pointing against the short way around the order.

    For odd n each pair is forward at distance <= (n-1)/2 from exactly one
    side; the count of backward arcs over C(n,2) is reported, minimized over
    the order and its reversal.
    """
    n = t.n
    if n % 2 == 0:
        raise EvenOrder(f"flip distance needs odd order, got {n}")
    if sorted(co.order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    if n == 1:
        return 0.0
    agree = int(np.count_nonzero(t.matrix() & _intervals(co, (n - 1) // 2)))
    pairs = n * (n - 1) // 2
    disagree = pairs - agree
    return min(disagree, pairs - disagree) / pairs
