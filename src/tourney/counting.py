"""Exact subtournament counting and per-arc flag statistics.

The exact counts rest on the co-degree o(u, v) = |N+(u) & N+(v)|, entry
(u, v) of O = A A^T for the 0/1 adjacency matrix A.  For an arc u -> v the
outdegrees d give the other flags: tr = d(u) - o - 1, c = d(v) - o and
i = n - 2 - o - tr - c; sums of C(o, 2) and C(tr, 2) over arcs fix the
order-4 census.  One kernel computes the upper triangle of O in row blocks
of float32 BLAS products, exact while n < 2**24 because every partial sum is
an integer at most n; a larger order raises ExactnessBound before anything
is allocated.
Flag counts feed length-(n-1) histograms, compared as distributions against
uniform or point-mass references by a sup-norm (KS) distance.  The sampled
paths and single-arc lookups test packed bits instead: they popcount o alone
and derive the other flags from the outdegrees the same way.
"""

from __future__ import annotations

import csv
import io as _io
import math
from dataclasses import dataclass, field

import numpy as np

from . import _bits
from .core import _SCORE4, SmallClass4, Tournament
from .errors import EmptyDistribution, ExactnessBound, NotAnArc, OrderTooSmall

FLAG_COMBOS = ("o", "i", "tr", "c", "oi", "ctr")

_COMBO_ALIASES = {
    "o": "o", "i": "i", "tr": "tr", "c": "c",
    "oi": "oi", "o+i": "oi", "ctr": "ctr", "c+tr": "ctr",
}


def _binom(n: int, k: int) -> int:
    return math.comb(n, k) if n >= k else 0


# ---------------------------------------------------------------------------
# per-arc flag counts


@dataclass(frozen=True)
class ArcFlagCounts:
    """Third-vertex census for one arc u -> v.

    o:  vertices w beaten by both endpoints (u->w, v->w)
    i:  vertices beating both (w->u, w->v)
    tr: vertices continuing the arc transitively (u->w, w->v)
    c:  vertices closing a 3-cycle (v->w, w->u)
    """
    o: int
    i: int
    tr: int
    c: int

    def total(self) -> int:
        return self.o + self.i + self.tr + self.c


def _flags_from_o(n: int, o, d_tail, d_head) -> tuple:
    """(tr, c, i) of arcs u -> v from o and the outdegrees d(u), d(v).

    u's d(u) out-neighbours are v, the o it shares with v and the tr; v's
    d(v) out-neighbours are the o and the c; the remaining i beat both.
    """
    tr = d_tail - o - 1
    c = d_head - o
    return tr, c, n - 2 - o - tr - c


def arc_flag_counts(t: Tournament, u: int, v: int) -> ArcFlagCounts:
    """Exact (o, i, tr, c) for the arc u -> v; sums to n - 2."""
    if not t.has_arc(u, v):
        raise NotAnArc(f"({u},{v}) is not an arc")
    out, d = t.out_packed, t.outdegrees()
    o = int(_bits.popcount_rows(out[u] & out[v]))
    tr, c, i = _flags_from_o(t.n, o, int(d[u]), int(d[v]))
    return ArcFlagCounts(o=o, i=i, tr=tr, c=c)


# ---------------------------------------------------------------------------
# order-3 / order-4 census


def triple_counts(t: Tournament) -> tuple:
    """(tr3, c3): every 3-set is transitive or cyclic; tr3 = sum C(outdeg, 2)."""
    if t.n < 3:
        raise OrderTooSmall(f"triple counts need n >= 3, got {t.n}")
    d = t.outdegrees().astype(object)
    tr3 = int(sum(dd * (dd - 1) // 2 for dd in d))
    return tr3, _binom(t.n, 3) - tr3


_FLOAT32_EXACT = 1 << 24   # float32 holds every integer up to 2**24
# rows per co-degree block: a block and its flag temporaries are a few
# 4-byte arrays of _BLOCK_ROWS x n entries, 2 MiB each at n = 8001
_BLOCK_ROWS = 64


def _codegree_blocks(t: Tournament):
    """Upper-triangle row blocks (lo, A[lo:hi, lo:] as bools, O[lo:hi, lo:] as int32).

    Entry (r, j) of a block belongs to the pair (lo + r, lo + j), which lies
    above the diagonal of O = A A^T exactly when j > r; consumers drop the
    rest, which sits in the leading square of the block.  The order is
    checked before anything is allocated.
    """
    n = t.n
    if n >= _FLOAT32_EXACT:
        raise ExactnessBound(f"the co-degree kernel is exact only for n < 2**24, got {n}")
    arcs = t.matrix()
    a = arcs.astype(np.float32)
    # BLAS runs the tall product A[lo:] A[lo:hi]^T faster than the wide one,
    # 0.8 against 1.4 ms per block row at n = 8001 on two cores
    return ((lo, arcs[lo:lo + _BLOCK_ROWS, lo:],
             (a[lo:] @ a[lo:lo + _BLOCK_ROWS].T).T.astype(np.int32, order="C"))
            for lo in range(0, n, _BLOCK_ROWS))


def _tail_degrees(d: np.ndarray, lo: int, arcs: np.ndarray) -> np.ndarray:
    """Outdegree of each block pair's tail: the row vertex where arcs holds,
    else the column vertex (arithmetic on the bools outruns np.where)."""
    return d[None, lo:] + arcs * (d[lo:lo + arcs.shape[0], None] - d[None, lo:])


def _transitive_triples_by_vertex(t: Tournament) -> tuple:
    """Per-vertex transitive triple counts inside N+(v) and inside N-(v).

    o(v, u) is u's outdegree inside N+(v) for an arc v -> u, and tr(u -> v)
    is u's outdegree inside N-(v) for an arc u -> v; a transitive triple has
    one member beating the other two, so summing C(o, 2) at each arc's tail
    and C(tr, 2) at its head counts them.  A block row is a pair's lower
    vertex: a forward arc adds to the row's tr3_out and the column's tr3_in,
    a backward arc the other way round.  Each count is at most C(n-1, 3):
    exact in int64 for any n whose A fits in memory.
    """
    blocks = _codegree_blocks(t)
    d = t.outdegrees()
    tr3_out = np.zeros(t.n, dtype=np.int64)
    tr3_in = np.zeros(t.n, dtype=np.int64)
    for lo, arcs, o in blocks:
        r = arcs.shape[0]
        o = o.astype(np.int64)
        tr = _tail_degrees(d, lo, arcs) - o - 1
        o2 = o * (o - 1) // 2
        tr2 = tr * (tr - 1) // 2
        below = np.tri(r, dtype=bool)  # entries on or below the diagonal
        o2[:, :r][below] = 0
        tr2[:, :r][below] = 0
        fwd_o2 = arcs * o2
        fwd_tr2 = arcs * tr2
        tr3_out[lo:lo + r] += fwd_o2.sum(axis=1)
        tr3_out[lo:] += (o2 - fwd_o2).sum(axis=0)
        tr3_in[lo:] += fwd_tr2.sum(axis=0)
        tr3_in[lo:lo + r] += (tr2 - fwd_tr2).sum(axis=1)
    return tr3_out, tr3_in


def _quads_from_sums(t: Tournament, dists: dict) -> tuple:
    """(tr4, w4, l4, r4) from the arc sums of C(o, 2) and of C(tr, 2).

    dists holds the o and tr EmpiricalDistributions over all arcs.
    Transitive triples inside N+(v) are TR4s with source v, cyclic ones W4s
    with apex v; N-(v) gives the L4s dually; R4 is the remainder.
    """
    n = t.n
    d = t.outdegrees()
    tr4 = dists["o"].factorial_sum() // 2
    w4 = sum(_binom(int(dd), 3) for dd in d) - tr4
    l4 = sum(_binom(int(n - 1 - dd), 3) for dd in d) - dists["tr"].factorial_sum() // 2
    r4 = _binom(n, 4) - tr4 - w4 - l4
    return tr4, w4, l4, r4


def quad_counts(t: Tournament) -> tuple:
    """Exact (tr4, w4, l4, r4) over all C(n,4) quadruples."""
    if t.n < 4:
        raise OrderTooSmall(f"quad counts need n >= 4, got {t.n}")
    return _quads_from_sums(t, arc_flag_distributions(t))


@dataclass(frozen=True)
class CountProfile:
    """Exact order-3 and (optionally) order-4 counts with their binomials."""
    n: int
    tr3: int
    c3: int
    tr4: int | None = None
    w4: int | None = None
    l4: int | None = None
    r4: int | None = None

    @property
    def binom3(self) -> int:
        return _binom(self.n, 3)

    @property
    def binom4(self) -> int:
        return _binom(self.n, 4)

    def density(self, name: str) -> float:
        num, den = self.density_pair(name)
        return num / den

    def density_pair(self, name: str) -> tuple:
        """(numerator, denominator) integers for exact density comparisons."""
        count = getattr(self, name)
        if count is None:
            raise ValueError(f"{name} was not counted")
        den = self.binom3 if name in ("tr3", "c3") else self.binom4
        return count, den

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "tr3": self.tr3, "c3": self.c3, "binom3": self.binom3}
        if self.tr4 is not None:
            out.update(tr4=self.tr4, w4=self.w4, l4=self.l4, r4=self.r4,
                       binom4=self.binom4)
        names = ["tr3", "c3"] + (["tr4", "w4", "l4", "r4"] if self.tr4 is not None else [])
        out["densities"] = {
            name: {"num": self.density_pair(name)[0],
                   "den": self.density_pair(name)[1],
                   "float": self.density(name)}
            for name in names
        }
        return out


def count_profile(t: Tournament, orders=(3, 4)) -> CountProfile:
    tr3, c3 = triple_counts(t)
    if 4 in orders and t.n >= 4:
        tr4, w4, l4, r4 = quad_counts(t)
        return CountProfile(t.n, tr3, c3, tr4, w4, l4, r4)
    return CountProfile(t.n, tr3, c3)


# ---------------------------------------------------------------------------
# sampled order-4 densities


@dataclass(frozen=True)
class SampledQuadDensities:
    samples: int
    p_tr4: float
    p_w4: float
    p_l4: float
    p_r4: float
    se_tr4: float
    se_w4: float
    se_l4: float
    se_r4: float

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "p_tr4": self.p_tr4, "p_w4": self.p_w4,
            "p_l4": self.p_l4, "p_r4": self.p_r4,
            "se_tr4": self.se_tr4, "se_w4": self.se_w4,
            "se_l4": self.se_l4, "se_r4": self.se_r4,
        }


# the six vertex pairs of a 4-set, as column pairs of a quad array
_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _distinct_quads(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k rows of 4 distinct vertices, uniform with replacement across rows."""
    q = rng.integers(0, n, size=(k, 4), dtype=np.int64)
    while True:
        bad = np.zeros(k, dtype=bool)
        for a, b in _PAIRS4:
            bad |= q[:, a] == q[:, b]
        if not bad.any():
            return q
        q[bad] = rng.integers(0, n, size=(int(bad.sum()), 4), dtype=np.int64)


def _class4_table() -> np.ndarray:
    """Class index (0=TR4, 1=W4, 2=L4, 3=R4) of every 6-bit code whose bit p
    says that the first vertex of _PAIRS4[p] beats the second."""
    classes = list(SmallClass4)
    table = np.empty(64, dtype=np.int8)
    for code in range(64):
        deg = [0, 0, 0, 0]
        for p, (a, b) in enumerate(_PAIRS4):
            deg[a if code >> p & 1 else b] += 1
        table[code] = classes.index(_SCORE4[tuple(sorted(deg))])
    return table


_CLASS4 = _class4_table()


def classify4_batch(t: Tournament, quads: np.ndarray) -> np.ndarray:
    """Class index (0=TR4, 1=W4, 2=L4, 3=R4) per row of 4 distinct vertices."""
    code = np.zeros(len(quads), dtype=np.uint8)
    for p, (a, b) in enumerate(_PAIRS4):
        code |= _bits.test_bits(t.out_packed, quads[:, a], quads[:, b]).view(np.uint8) << p
    return _CLASS4[code]


def sampled_quad_densities(t: Tournament, samples: int, seed=None) -> SampledQuadDensities:
    """Uniform 4-subsets with replacement; frequencies with binomial SEs."""
    if t.n < 4:
        raise OrderTooSmall(f"sampling needs n >= 4, got {t.n}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    freq = np.zeros(4, dtype=np.int64)
    remaining = samples
    while remaining > 0:
        k = min(remaining, 1 << 20)
        quads = _distinct_quads(rng, t.n, k)
        cls = classify4_batch(t, quads)
        freq += np.bincount(cls, minlength=4)
        remaining -= k
    p = freq / samples
    se = np.sqrt(p * (1.0 - p) / samples)
    return SampledQuadDensities(samples, *(float(x) for x in p), *(float(x) for x in se))


# ---------------------------------------------------------------------------
# per-arc flag distributions


def _flag_histograms(n: int, o, d_tail, d_head) -> dict:
    """Per-combo histograms, of length n - 1, over the arcs u -> v with
    co-degrees o and outdegrees d(u), d(v): h[k] arcs have count k."""
    tr, c, i = _flags_from_o(n, o, d_tail, d_head)
    flags = {"o": o, "i": i, "tr": tr, "c": c, "oi": o + i, "ctr": c + tr}
    return {f: np.bincount(flags[f], minlength=n - 1) for f in FLAG_COMBOS}


def arc_flag_count_arrays(t: Tournament) -> dict:
    """Histogram of every combo's flag counts over all arcs.

    Each is an int64 array of length n - 1 whose entry k is the number of
    arcs with count k; the combos' counts lie in 0..n-2.  Block entries that
    are not pairs of the upper triangle go to an extra bin n - 1, dropped at
    the end; c + tr = n - 2 - (o + i), so ctr is oi reversed.
    """
    if t.n < 3:
        raise OrderTooSmall(f"arc flags need n >= 3, got {t.n}")
    n = t.n
    blocks = _codegree_blocks(t)
    d = t.outdegrees().astype(np.int32)
    hists = {f: np.zeros(n, dtype=np.int64) for f in ("o", "i", "tr", "c", "oi")}
    for lo, arcs, o in blocks:
        r = arcs.shape[0]
        d_tail = _tail_degrees(d, lo, arcs)
        d_head = d[lo:lo + r, None] + d[None, lo:] - d_tail
        tr, c, i = _flags_from_o(n, o, d_tail, d_head)
        below = np.tri(r, dtype=bool)  # entries on or below the diagonal
        for f, x in (("o", o), ("i", i), ("tr", tr), ("c", c), ("oi", o + i)):
            x[:, :r][below] = n - 1
            hists[f] += np.bincount(x.ravel(), minlength=n)
    hists = {f: h[:-1] for f, h in hists.items()}
    hists["ctr"] = hists["oi"][::-1].copy()
    return hists


# arcs per gather of the sampled co-degrees: at n = 4001, 512 pairs of
# packed rows take 512 KB
_ARC_BLOCK = 512


def _sampled_arc_arrays(t: Tournament, samples: int, seed=None) -> dict:
    """Histograms of the flag counts on a seeded sample of arcs, one per combo.

    Pairs are drawn uniformly with replacement and oriented along their arc;
    o is popcounted _ARC_BLOCK arcs at a time, so the gathered rows stay in
    cache.
    """
    rng = np.random.default_rng(seed)
    k = min(samples, t.n * (t.n - 1) // 2)
    u = rng.integers(0, t.n, size=k, dtype=np.int64)
    v = rng.integers(0, t.n, size=k, dtype=np.int64)
    same = u == v
    while same.any():
        v[same] = rng.integers(0, t.n, size=int(same.sum()), dtype=np.int64)
        same = u == v
    out, d = t.out_packed, t.outdegrees()
    fwd = _bits.test_bits(out, u, v)
    tails = np.where(fwd, u, v)
    heads = np.where(fwd, v, u)
    # a co-degree is below n, so each row's popcounts add up exactly in the
    # narrowest unsigned type that holds n (uint16 for n < 65536)
    acc = np.min_scalar_type(t.n)
    o = np.empty(k, dtype=np.int64)
    for lo in range(0, k, _ARC_BLOCK):
        rows = out[tails[lo:lo + _ARC_BLOCK]]
        rows &= out[heads[lo:lo + _ARC_BLOCK]]
        np.bitwise_count(rows).sum(axis=1, dtype=acc, out=o[lo:lo + _ARC_BLOCK])
    return _flag_histograms(t.n, o, d[tails], d[heads])


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Multiset of per-arc flag counts with their normalized statistics.

    hist[k] is the number of arcs whose count is k, for 0 <= k <= n - 2.
    values are count/(n-2); the second factorial moment pairs count/(n-2)
    with (count-1)/(n-3), which is the finite-n-exact analogue of a squared
    density.  Only mean and second_moment expand hist into one value per arc.
    """
    hist: np.ndarray = field(repr=False)
    n: int

    def __post_init__(self):
        hist = np.array(self.hist, dtype=np.int64)
        if hist.shape != (self.n - 1,) or (hist < 0).any():
            raise ValueError(f"a flag histogram for n={self.n} has {self.n - 1} nonnegative bins")
        hist.setflags(write=False)
        object.__setattr__(self, "hist", hist)

    @property
    def size(self) -> int:
        return int(self.hist.sum())

    @property
    def counts(self) -> np.ndarray:
        """One count per arc, sorted."""
        return np.repeat(np.arange(self.n - 1), self.hist)

    @property
    def values(self) -> np.ndarray:
        return self.counts / (self.n - 2)

    @property
    def mean(self) -> float:
        return float(self.values.mean()) if self.size else 0.0

    @property
    def second_moment(self) -> float:
        return float((self.values ** 2).mean()) if self.size else 0.0

    def count_sum(self) -> int:
        """Exact integer sum of count over all arcs."""
        return sum(k * h for k, h in enumerate(self.hist.tolist()))

    def factorial_sum(self) -> int:
        """Exact integer sum of count*(count-1) over all arcs."""
        return sum(k * (k - 1) * h for k, h in enumerate(self.hist.tolist()))

    @property
    def second_factorial_moment(self) -> float:
        if self.size == 0 or self.n < 4:
            return 0.0
        return self.factorial_sum() / (self.size * (self.n - 2) * (self.n - 3))

    def value_counts(self) -> tuple:
        """(unique sorted values, multiplicities)."""
        k = np.flatnonzero(self.hist)
        return k / (self.n - 2), self.hist[k]


def arc_flag_distributions(t: Tournament, samples: int | None = None, seed=None) -> dict:
    """Every combo's EmpiricalDistribution, over all arcs or `samples` seeded ones."""
    hists = arc_flag_count_arrays(t) if samples is None else _sampled_arc_arrays(t, samples, seed)
    return {f: EmpiricalDistribution(h, t.n) for f, h in hists.items()}


def arc_flag_distribution(t: Tournament, combo: str) -> EmpiricalDistribution:
    """One normalized flag value per arc for the chosen combo.

    combo is one of o, i, tr, c, oi (= o+i), ctr (= c+tr).
    """
    key = _COMBO_ALIASES.get(str(combo).lower())
    if key is None:
        raise ValueError(f"unknown flag combo {combo!r}; choose from {FLAG_COMBOS}")
    return arc_flag_distributions(t)[key]


# ---------------------------------------------------------------------------
# reference distributions and KS distance


@dataclass(frozen=True)
class ReferenceDistribution:
    """Either U(0, q) or a point mass at p, given by its CDF."""
    kind: str
    param: float

    @classmethod
    def uniform(cls, q: float) -> "ReferenceDistribution":
        if not (0.0 < q <= 1.0):
            raise ValueError(f"q must lie in (0,1], got {q}")
        return cls("uniform", float(q))

    @classmethod
    def point_mass(cls, p: float) -> "ReferenceDistribution":
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"p must lie in [0,1], got {p}")
        return cls("point_mass", float(p))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            return np.clip(x / self.param, 0.0, 1.0)
        return (x >= self.param).astype(np.float64)

    def cdf_left(self, x: np.ndarray) -> np.ndarray:
        """Left limit F(x-); differs from cdf only at an atom."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "uniform":
            return np.clip(x / self.param, 0.0, 1.0)
        return (x > self.param).astype(np.float64)

    def atoms(self) -> tuple:
        return () if self.kind == "uniform" else (self.param,)


def ks_distance(dist: EmpiricalDistribution, ref: ReferenceDistribution) -> float:
    """sup |empirical CDF - reference CDF|.

    Both CDFs are right-continuous steps or piecewise monotone, so the sup
    is attained at a jump of either side; it suffices to compare the two
    one-sided limits at every sample value and reference atom.
    """
    if dist.size == 0:
        raise EmptyDistribution("no values to compare")
    xs, mult = dist.value_counts()
    below = np.concatenate([[0], np.cumsum(mult)])  # below[j] values lie under xs[j]
    m = dist.size
    pts = np.unique(np.concatenate([xs, np.asarray(ref.atoms(), dtype=np.float64)]))
    e_hi = below[np.searchsorted(xs, pts, side="right")] / m
    e_lo = below[np.searchsorted(xs, pts, side="left")] / m
    d_right = float(np.max(np.abs(e_hi - ref.cdf(pts))))
    d_left = float(np.max(np.abs(e_lo - ref.cdf_left(pts))))
    return max(d_right, d_left)


# ---------------------------------------------------------------------------
# exports


def distribution_to_csv(dist: EmpiricalDistribution, bins: int | None = None) -> str:
    """CSV text: sorted value,count pairs, or a binned histogram over [0,1]."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    xs, mult = dist.value_counts()
    if bins is None:
        w.writerow(["value", "count"])
        for val, k in zip(xs, mult):
            w.writerow([repr(float(val)), int(k)])
    else:
        if bins < 1:
            raise ValueError("bins must be >= 1")
        hist, edges = np.histogram(xs, bins=bins, range=(0.0, 1.0), weights=mult)
        w.writerow(["bin_lo", "bin_hi", "count"])
        for k in range(bins):
            w.writerow([repr(float(edges[k])), repr(float(edges[k + 1])), int(hist[k])])
    return buf.getvalue()
