"""Shared brute-force oracles for the test suite.

Everything here is deliberately slow and independent of the library's
bit-parallel code paths: quads are enumerated index-by-index and classified
from raw adjacency lookups, so a bug in the packed-word kernels cannot hide.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np

from tourney import Tournament, from_arc_list
from tourney.errors import (
    ConflictingArc,
    MissingArc,
    SelfLoop,
    TourneyError,
    VertexOutOfRange,
)


def brute_triples(t: Tournament) -> tuple[int, int]:
    """(tr3, c3) by enumerating all vertex triples."""
    m = t.matrix()
    tr3 = c3 = 0
    for a, b, c in combinations(range(t.n), 3):
        # sorted triple is cyclic iff a->b, b->c, c->a or the reverse cycle
        if m[a, b] == m[b, c] and m[a, c] != m[a, b]:
            c3 += 1
        else:
            tr3 += 1
    return tr3, c3


def brute_quads(t: Tournament) -> tuple[int, int, int, int]:
    """(tr4, w4, l4, r4) by classifying every 4-subset via score sequence."""
    m = t.matrix().astype(np.int64)
    key = {(0, 1, 2, 3): 0, (1, 1, 1, 3): 1, (0, 2, 2, 2): 2, (1, 1, 2, 2): 3}
    out = [0, 0, 0, 0]
    for quad in combinations(range(t.n), 4):
        sub = m[np.ix_(quad, quad)]
        out[key[tuple(sorted(sub.sum(axis=1)))]] += 1
    return tuple(out)


def _subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n), one per row, ascending and in
    lexicographic order, built in numpy."""
    if k == 1:
        return np.arange(n, dtype=np.int64)[:, None]
    rest = _subsets(n, k - 1)
    # the rows of rest that start above x are its suffix from start[x]
    start = np.searchsorted(rest[:, 0], np.arange(1, n + 1))
    count = len(rest) - start
    first = np.repeat(np.arange(n, dtype=np.int64), count)
    # row r of x's group takes rest[start[x] + r]
    at = np.arange(len(first)) - np.repeat(np.cumsum(count) - count - start, count)
    return np.column_stack([first, rest[at]])


def brute_quads_fast(t: Tournament) -> tuple[int, int, int, int]:
    """Same census as brute_quads but vectorised over all C(n,4) subsets.

    Still an independent oracle: works from the dense boolean matrix and
    per-subset outdegrees, no packed words anywhere.  The subsets go by
    their least vertex a, a chunk of (a, b, c, d) with b < c < d above a.
    """
    n = t.n
    m = t.matrix()
    if n < 4:
        return (0, 0, 0, 0)
    out = np.zeros(4, dtype=np.int64)
    triples = _subsets(n, 3)
    start = np.searchsorted(triples[:, 0], np.arange(1, n + 1))
    for a in range(n - 3):
        b, c, d = triples[start[a]:].T
        deg = np.zeros((len(b), 4), dtype=np.int8)
        pairs = [(0, 1, a, b), (0, 2, a, c), (0, 3, a, d),
                 (1, 2, b, c), (1, 3, b, d), (2, 3, c, d)]
        for i, j, u, v in pairs:
            fwd = m[u, v]
            deg[:, i] += fwd
            deg[:, j] += ~fwd
        # the score sequences (0,1,2,3), (1,1,1,3), (0,2,2,2) and (1,1,2,2)
        # differ in their (max, min)
        mx, mn = deg.max(axis=1), deg.min(axis=1)
        w4 = np.count_nonzero((mx == 3) & (mn == 1))
        tr4 = np.count_nonzero(mx == 3) - w4
        l4 = np.count_nonzero((mx == 2) & (mn == 0))
        out += (tr4, w4, l4, len(b) - tr4 - w4 - l4)
    return tuple(int(x) for x in out)


def brute_arc_flags(t: Tournament, u: int, v: int) -> tuple[int, int, int, int]:
    """(o, i, tr, c) for arc u->v from raw neighbourhood intersections."""
    m = t.matrix()
    assert m[u, v]
    o = i = tr = c = 0
    for w in range(t.n):
        if w == u or w == v:
            continue
        uw, vw = m[u, w], m[v, w]
        if uw and vw:
            o += 1
        elif not uw and not vw:
            i += 1
        elif uw and not vw:
            tr += 1
        else:
            c += 1
    return o, i, tr, c


def brute_flag_values(t: Tournament, combo: str):
    """Sorted list of raw flag counts over every arc, for one combo."""
    m = t.matrix()
    vals = []
    for u in range(t.n):
        for v in range(t.n):
            if m[u, v]:
                o, i, tr, c = brute_arc_flags(t, u, v)
                got = {"o": o, "i": i, "tr": tr, "c": c,
                       "oi": o + i, "ctr": c + tr}[combo]
                vals.append(got)
    return sorted(vals)


def brute_flip_distance(t: Tournament, order) -> float:
    """flip_distance_given_order by a loop over the pairs of an odd order.

    An arc a -> b agrees with the order when b lies 1..(n-1)/2 steps after
    a going round; the disagreeing share is taken against the order or its
    reversal, whichever is smaller.
    """
    n = t.n
    m = t.matrix()
    pos = {v: k for k, v in enumerate(order)}
    backward = 0
    for u, v in combinations(range(n), 2):
        a, b = (u, v) if m[u, v] else (v, u)
        if not 1 <= (pos[b] - pos[a]) % n <= (n - 1) // 2:
            backward += 1
    pairs = comb(n, 2)
    return min(backward, pairs - backward) / pairs


# ---------------------------------------------------------------------------
# isomorphism-class enumeration for small orders
# ---------------------------------------------------------------------------
#
# A tournament on vertices 0..k-1 is encoded as a bit string over the
# C(k,2) unordered pairs in the order (0,1),(0,2),(1,2),(0,3),... i.e.
# pair (i,j) with i<j sits at index j*(j-1)//2 + i.  Bit set means i->j.
# With this ordering an order-(k-1) code is a prefix of every extension,
# so classes can be grown one vertex at a time.

def _pair_index(i: int, j: int) -> int:
    return j * (j - 1) // 2 + i


@lru_cache(maxsize=None)
def _perm_tables(k: int):
    """For each permutation of range(k): gather indices and flip mask.

    code_after_relabel[b] = code_before[gather[b]] XOR flip[b], where bit b
    is pair (i,j) of the relabelled tournament.
    """
    npairs = k * (k - 1) // 2
    gathers = []
    flips = []
    for perm in permutations(range(k)):
        g = np.empty(npairs, dtype=np.int64)
        f = np.empty(npairs, dtype=bool)
        for j in range(k):
            for i in range(j):
                pi, pj = perm[i], perm[j]
                if pi < pj:
                    g[_pair_index(i, j)] = _pair_index(pi, pj)
                    f[_pair_index(i, j)] = False
                else:
                    g[_pair_index(i, j)] = _pair_index(pj, pi)
                    f[_pair_index(i, j)] = True
    # flipped pair: winner bit inverts
        gathers.append(g)
        flips.append(f)
    return np.array(gathers), np.array(flips)


@lru_cache(maxsize=None)
def iso_classes(k: int) -> tuple[int, ...]:
    """Canonical integer codes of all tournament iso classes of order k.

    A code is the pair-bit string read msb-first; canonical means minimal
    over all k! relabellings.  npairs ≤ 21 for k ≤ 7, so codes fit in int64
    and the min-over-permutations is a single vectorised reduction.
    """
    if k <= 1:
        return (0,)
    prev = iso_classes(k - 1)
    npairs_prev = (k - 1) * (k - 2) // 2
    npairs = k * (k - 1) // 2
    new_bits = k - 1
    gathers, flips = _perm_tables(k)
    weights = (1 << np.arange(npairs - 1, -1, -1)).astype(np.int64)
    exts = np.arange(1 << new_bits)
    ext_bits = (exts[:, None] >> np.arange(new_bits - 1, -1, -1)) & 1
    seen: set = set()
    for code in prev:
        base = (code >> np.arange(npairs_prev - 1, -1, -1)) & 1
        bits = np.concatenate(
            [np.broadcast_to(base, (len(exts), npairs_prev)), ext_bits], axis=1
        ).astype(bool)
        cand = bits[:, gathers] ^ flips       # (exts, k!, npairs)
        codes = cand @ weights                # (exts, k!)
        seen.update(codes.min(axis=1).tolist())
    return tuple(sorted(seen))


def tournament_from_code(code: int, k: int) -> Tournament:
    """Decode a pair-bit integer back into a Tournament."""
    npairs = k * (k - 1) // 2
    arcs = []
    for j in range(k):
        for i in range(j):
            b = _pair_index(i, j)
            if (code >> (npairs - 1 - b)) & 1:
                arcs.append((i, j))
            else:
                arcs.append((j, i))
    return from_arc_list(k, arcs)


def all_tournaments(k: int):
    """One representative Tournament per isomorphism class of order k."""
    return [tournament_from_code(code, k) for code in iso_classes(k)]


ISO_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}


def ks_oracle(values, cdf, grid: int = 200001) -> float:
    """Sup-distance between an empirical cdf and a reference, by dense grid.

    Checks just left and right of every grid point and every sample value,
    so it bounds the true sup to within the grid spacing for any cdf that is
    monotone with jumps only at sample values or reference atoms.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = len(values)
    xs = np.unique(np.concatenate([np.linspace(-0.25, 1.25, grid), values]))
    eps = 1e-12
    best = 0.0
    for shift in (-eps, 0.0, eps):
        pts = xs + shift
        ecdf = np.searchsorted(values, pts, side="right") / n
        best = max(best, float(np.max(np.abs(ecdf - cdf(pts)))))
    return best


# ---------------------------------------------------------------------------
# line-by-line reference parsers
# ---------------------------------------------------------------------------
#
# The per-line and per-arc loops the library's numpy parsers replaced.  They
# call nothing of tourney's but its error classes and return a dense boolean
# matrix, validated as the old Tournament constructor did, or raise.

def ref_validate(m: np.ndarray) -> np.ndarray:
    """Dense tournament checks: self-loop, then conflict, then missing pair."""
    diag = np.flatnonzero(np.diagonal(m))
    if diag.size:
        raise SelfLoop(f"self-loop at vertex {int(diag[0])}")
    both = m & m.T
    if both.any():
        u, v = np.argwhere(both)[0]
        raise ConflictingArc(f"both orientations present for pair {{{int(min(u, v))},{int(max(u, v))}}}")
    neither = ~(m | m.T)
    np.fill_diagonal(neither, False)
    if neither.any():
        u, v = np.argwhere(neither)[0]
        raise MissingArc(f"no orientation for pair {{{int(min(u, v))},{int(max(u, v))}}}")
    return m


def ref_from_arc_list(n: int, arcs) -> np.ndarray:
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
    return ref_validate(m)


def ref_loads_trn(text: str) -> np.ndarray:
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
        m[u] = [ch == "1" for ch in row]
    return ref_validate(m)


def ref_loads_arcs(text: str, n: int | None = None) -> np.ndarray:
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
            covered = {(min(u, v), max(u, v)) for u, v in arcs}
            a, b = next(p for p in combinations(range(n), 2) if p not in covered)
            raise MissingArc(f"no orientation for pair {{{a},{b}}}")
    return ref_from_arc_list(n, arcs)


# ---------------------------------------------------------------------------
# dense reference generators
# ---------------------------------------------------------------------------
#
# The whole-matrix constructions the tiled generators replaced: a triu mask,
# the lower triangle as upper.T & ~a.T, an int64 circular distance and a
# float64 % 1.0.  Each returns the bool adjacency matrix.

def _ref_coins_upper(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """(the triu mask, a matrix holding one PCG64 coin per pair u < v)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    a = np.zeros((n, n), dtype=bool)
    a[upper] = rng.integers(0, 2, size=n * (n - 1) // 2, dtype=np.uint8).astype(bool)
    return upper, a


def ref_random_uniform(n: int, seed) -> np.ndarray:
    upper, a = _ref_coins_upper(n, seed)
    return a | (upper.T & ~a.T)


def ref_layered(N: int, sizes, seed) -> np.ndarray:
    """Nested prefixes of the given sizes; a deeper vertex beats a shallower one."""
    depth = np.zeros(N, dtype=np.int64)
    for s in sizes[1:]:
        depth[:s] += 1
    upper, a = _ref_coins_upper(N, seed)
    a |= upper & (depth[:, None] != depth[None, :])
    return a | (upper.T & ~a.T)


def ref_carousel(m: int) -> np.ndarray:
    idx = np.arange(m)
    dist = (idx[None, :] - idx[:, None]) % m  # forward circular distance u -> v
    return (dist >= 1) & (dist <= (m - 1) // 2)


def ref_digraphon(xs) -> np.ndarray:
    """Arc u -> v iff (x_u - x_v) % 1.0 < 1/2; a tie goes to the lower index."""
    xs = np.asarray(xs, dtype=np.float64)
    a = (xs[:, None] - xs[None, :]) % 1.0 < 0.5
    np.fill_diagonal(a, False)
    tie = a == a.T
    np.fill_diagonal(tie, False)
    upper = np.triu(np.ones((xs.size, xs.size), dtype=bool), 1)
    a[tie & upper] = True
    a[tie & ~upper] = False
    return a
