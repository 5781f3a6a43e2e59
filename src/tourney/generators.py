"""Tournament generators: carousel, transitive, coin-flip, layered, circular-kernel.

All randomness comes from numpy's PCG64 via np.random.default_rng(seed), so
equal (parameters, seed) reproduce bit-identical tournaments.  Pair
orientations are always assigned in lexicographic (u, v) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Tournament, _upper_tiles
from .errors import EvenOrder, InvalidRatio


def carousel(m: int) -> Tournament:
    """The rotational tournament on odd m = 2n+1: x beats x+1 .. x+n (mod m).

    Every vertex has outdegree n, and every out/in-neighbourhood is
    transitive, which makes this the canonical balanced locally transitive
    tournament of its order.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if m % 2 == 0:
        raise EvenOrder(f"carousel needs an odd order, got {m}")
    n = (m - 1) // 2
    # base[d]: does x beat x + d; row u is base read from d = -u (mod m), the
    # window of the doubled base that starts at m - u
    base = np.zeros(2 * m, dtype=bool)
    base[1:n + 1] = base[m + 1:m + n + 1] = True
    a = np.lib.stride_tricks.sliding_window_view(base, m)[m:0:-1].copy()
    return Tournament._from_validated(a)


def transitive(n: int) -> Tournament:
    """The linear order: u beats v iff u < v."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    idx = np.arange(n)
    return Tournament._from_validated(idx[:, None] < idx[None, :])


def random_uniform(n: int, seed=None) -> Tournament:
    """Every pair oriented by an independent fair coin."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return _complete_upper(_coin_matrix(np.random.default_rng(seed), n))


def _coin_matrix(rng, n: int) -> np.ndarray:
    """An n x n bool matrix whose upper triangle holds one fair coin per
    pair, drawn in lexicographic (u, v) order; the rest is unset."""
    coins = rng.integers(0, 2, size=n * (n - 1) // 2, dtype=np.uint8).view(bool)
    a = np.empty((n, n), dtype=bool)
    start = 0
    for u in range(n - 1):
        a[u, u + 1:] = coins[start:start + n - 1 - u]
        start += n - 1 - u
    return a


def _complete_upper(a: np.ndarray) -> Tournament:
    """Orient each pair u < v against a[u, v], given on the upper triangle;
    the diagonal and lower triangle of a are overwritten tile by tile."""
    for rows, cols in _upper_tiles(a.shape[0]):
        if rows == cols:
            tile = a[rows, rows]
            tile[...] = np.triu(tile, 1) | np.tril(~tile.T, -1)
        else:
            np.logical_not(a[rows, cols].T, out=a[cols, rows])
    return Tournament._from_validated(a)


def round_half_up(x: float) -> int:
    """Round to nearest with .5 going up: 2.5 -> 3."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class LayeredSpec:
    """Parameters of the nested-prefix construction: start size N, shrink ratio t."""
    N: int
    t: float
    seed: object = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not (0.0 < self.t < 1.0):
            raise InvalidRatio(f"t must lie in (0,1), got {self.t}")


def layer_sizes(N: int, t: float) -> list:
    """Sizes of the nested vertex sets A_0 > A_1 > ... for the layered build.

    Each next size is round_half_up(t * current); the chain stops when the
    next size would be 0 or would equal the current one (the final set keeps
    coin-flip arcs inside).
    """
    if not (0.0 < t < 1.0):
        raise InvalidRatio(f"t must lie in (0,1), got {t}")
    sizes = [N]
    while True:
        nxt = round_half_up(t * sizes[-1])
        if nxt == 0 or nxt == sizes[-1]:
            break
        sizes.append(nxt)
    return sizes


def layered(spec: LayeredSpec) -> Tournament:
    """Nested-prefix layered tournament.

    A_i is the first |A_i| vertices; every vertex of A_i beats every vertex
    of A_{i-1} \\ A_i, and all arcs inside one difference set (and inside the
    final core) are independent fair coins.
    """
    sizes = layer_sizes(spec.N, spec.t)
    a = _coin_matrix(np.random.default_rng(spec.seed), spec.N)
    # the difference set A_i \ A_{i+1} is the vertices lo..hi-1; for u < v
    # either both sit in one difference set (coin) or u lies in a deeper
    # one, and beats every v >= hi
    for lo, hi in zip(sizes[1:] + [0], sizes):
        a[lo:hi, hi:] = True
    return _complete_upper(a)


def digraphon_from_points(points) -> Tournament:
    """Tournament induced by the circular half-kernel on given coordinates.

    Arc u -> v iff (x_u - x_v) mod 1 < 1/2.  Exact half-distance ties (and
    coinciding coordinates) are broken toward the lower index beating the
    higher one, so injected rational coordinates stay testable.
    """
    xs = np.asarray(list(points), dtype=np.float64)
    if xs.ndim != 1 or xs.size < 1:
        raise ValueError("need a one-dimensional list of at least one coordinate")
    if ((xs < 0.0) | (xs >= 1.0)).any():
        raise ValueError("coordinates must lie in [0, 1)")
    a = np.empty((xs.size, xs.size), dtype=bool)
    for rows, cols in _upper_tiles(xs.size):
        d = xs[rows, None] - xs[None, cols]  # x_v - x_u is exactly -d
        # (x_u - x_v) mod 1 and (x_v - x_u) mod 1 as numpy's % gives them for
        # |d| < 1: d, plus 1 where d < 0
        forward = d + (d < 0) < 0.5
        backward = (d > 0) - d < 0.5
        # where the rule claims both directions (coinciding points) or neither
        # (exact half distance), the lower index u wins
        np.logical_or(forward, ~backward, out=a[rows, cols])
    return _complete_upper(a)


def digraphon_sample(n: int, seed=None) -> Tournament:
    """Sample n uniform coordinates on [0,1) and orient pairs by the circular kernel."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return digraphon_from_points(rng.random(n))
