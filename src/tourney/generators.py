"""Tournament generators: carousel, transitive, coin-flip, layered, circular-kernel.

All randomness comes from numpy's PCG64 via np.random.default_rng(seed), so
equal (parameters, seed) reproduce bit-identical tournaments.  Pair
orientations are always assigned in lexicographic (u, v) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Tournament
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
    idx = np.arange(m)
    dist = (idx[None, :] - idx[:, None]) % m  # forward circular distance u -> v
    a = (dist >= 1) & (dist <= n)
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
    rng = np.random.default_rng(seed)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    a = np.zeros((n, n), dtype=bool)
    a[upper] = _coins(rng, n)
    return _complete_upper(a, upper)


def _coins(rng, n: int) -> np.ndarray:
    """One fair coin per pair, drawn in lexicographic (u, v) order."""
    return rng.integers(0, 2, size=n * (n - 1) // 2, dtype=np.uint8).astype(bool)


def _complete_upper(a: np.ndarray, upper: np.ndarray) -> Tournament:
    """Orient each pair u < v against a[u, v], given on the upper triangle."""
    a |= upper.T & ~a.T
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
    N = spec.N
    sizes = layer_sizes(N, spec.t)
    # depth(v) = number of proper nested sets A_1.. containing v; prefixes
    # make depth nonincreasing in the vertex index.
    depth = np.zeros(N, dtype=np.int64)
    for s in sizes[1:]:
        depth[:s] += 1
    rng = np.random.default_rng(spec.seed)
    upper = np.triu(np.ones((N, N), dtype=bool), 1)
    a = np.zeros((N, N), dtype=bool)
    a[upper] = _coins(rng, N)
    # u < v: either both sit in the same difference set (coin) or u is the
    # deeper one and beats v.
    a |= upper & (depth[:, None] != depth[None, :])
    return _complete_upper(a, upper)


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
    n = xs.size
    diff = (xs[:, None] - xs[None, :]) % 1.0
    a = diff < 0.5
    np.fill_diagonal(a, False)
    # Where the rule claims both directions (coinciding points) or neither
    # (exact half distance), give the arc to the lower index.
    tie = a == a.T
    np.fill_diagonal(tie, False)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    a[tie & upper] = True
    a[tie & ~upper] = False
    return Tournament._from_validated(a)


def digraphon_sample(n: int, seed=None) -> Tournament:
    """Sample n uniform coordinates on [0,1) and orient pairs by the circular kernel."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return digraphon_from_points(rng.random(n))
