"""Reference figures computed apart from the program.

Everything here reads the files' bytes with numpy and works on a dense 0/1
matrix; nothing goes through `tourney`.  The order-4 census and the per-arc
flags come from outdegrees d and the Gram matrix O = A A^T: for an arc
u -> v, o = O[u, v], tr = d(u) - o - 1, c = d(v) - o, i = n - 2 - o - tr - c,
and tr4 = sum C(o, 2), the in-neighbourhood transitive count sum C(tr, 2).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output disagrees with the reference or lacks a required property."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(got, want, what: str, tol: float = 1e-9) -> None:
    expect(isinstance(got, (int, float)) and abs(float(got) - float(want)) <= tol,
           f"{what}: got {got!r}, want {want!r}")


def parse_trn(data: bytes) -> np.ndarray:
    """Dense boolean matrix of a canonical .trn file (n, then n rows of n digits)."""
    head, _, body = data.partition(b"\n")
    n = int(head)
    rows = np.frombuffer(body, dtype=np.uint8)
    expect(rows.size == n * (n + 1), f".trn body has {rows.size} bytes, want {n * (n + 1)}")
    rows = rows.reshape(n, n + 1)
    expect((rows[:, n] == ord("\n")).all(), ".trn rows are not n digits and a newline")
    digits = rows[:, :n]
    expect(((digits == ord("0")) | (digits == ord("1"))).all(), ".trn holds a non-digit")
    return digits == ord("1")


def expect_tournament(a: np.ndarray) -> None:
    """A + A^T = J - I: no loops and exactly one arc per pair."""
    n = a.shape[0]
    expect(not np.diagonal(a).any(), "self-loop")
    s = a.astype(np.int8) + a.T.astype(np.int8)
    expect(np.array_equal(s, 1 - np.eye(n, dtype=np.int8)), "A + A^T != J - I")


def parse_arcs(data: bytes) -> np.ndarray:
    """(m, 2) int64 array of "u v" lines."""
    lines = data.split(b"\n")
    expect(lines[-1] == b"", "arc file does not end in a newline")
    pairs = np.array(data.split(), dtype=np.int64)
    expect(pairs.size == 2 * (len(lines) - 1), "arc file has a line that is not 'u v'")
    return pairs.reshape(-1, 2)


def ks_uniform(counts: np.ndarray, n: int, q: float) -> float:
    """sup |empirical CDF of counts/(n-2) - CDF of U(0, q)|.

    The reference is continuous, so the sup sits at a sample value, taken
    from the left (share strictly below) or at it (share at or below).
    """
    v = np.sort(counts) / (n - 2)
    m = v.size
    x, first = np.unique(v, return_index=True)
    upto = np.append(first[1:], m)
    ref = np.clip(x / q, 0.0, 1.0)
    return float(max(np.max(np.abs(upto / m - ref)), np.max(np.abs(first / m - ref))))


def _sum_pairs(counts: np.ndarray) -> int:
    """sum C(c, 2) over the counts, in Python integers."""
    values, mult = np.unique(counts, return_counts=True)
    return sum(math.comb(int(c), 2) * int(k) for c, k in zip(values, mult))


def factorial_moment(counts: np.ndarray, n: int) -> float:
    """sum c(c-1) over arcs, over arcs * (n-2)(n-3), summed in Python integers."""
    total = sum(int(c) * (int(c) - 1) * int(k)
                for c, k in zip(*np.unique(counts, return_counts=True)))
    return total / (counts.size * (n - 2) * (n - 3))


class Tournament:
    """Dense reference view of one input file, with lazily computed figures."""

    def __init__(self, path: Path):
        self.a = parse_trn(Path(path).read_bytes())
        self.n = self.a.shape[0]
        expect_tournament(self.a)
        self.d = self.a.sum(axis=1, dtype=np.int64)
        self._flags = None

    @property
    def tr3(self) -> int:
        return sum(math.comb(int(x), 2) for x in self.d)

    @property
    def c3(self) -> int:
        return math.comb(self.n, 3) - self.tr3

    def flags(self) -> dict:
        """Per-arc o, i, tr, c counts (aligned), plus oi and ctr."""
        if self._flags is None:
            af = self.a.astype(np.float64)
            gram = np.rint(af @ af.T).astype(np.int64)   # exact: entries <= n << 2**53
            u, v = np.nonzero(self.a)
            o = gram[u, v]
            tr = self.d[u] - o - 1
            c = self.d[v] - o
            i = self.n - 2 - o - tr - c
            self._flags = {"o": o, "i": i, "tr": tr, "c": c, "oi": o + i, "ctr": c + tr}
        return self._flags

    def census(self) -> dict:
        n, f = self.n, self.flags()
        tr4, in_tr3 = _sum_pairs(f["o"]), _sum_pairs(f["tr"])
        w4 = sum(math.comb(int(x), 3) for x in self.d) - tr4
        l4 = sum(math.comb(n - 1 - int(x), 3) for x in self.d) - in_tr3
        r4 = math.comb(n, 4) - tr4 - w4 - l4
        return {"tr3": self.tr3, "c3": self.c3, "tr4": tr4, "w4": w4, "l4": l4, "r4": r4}

    def carousel_residuals(self, eps: float) -> dict:
        """Every residual of the carousel profile, from the reference counts."""
        n, cen, f = self.n, self.census(), self.flags()
        b3, b4 = math.comb(n, 3), math.comb(n, 4)
        p = {k: cen[k] / b4 for k in ("tr4", "w4", "l4", "r4")}
        m2 = {g: factorial_moment(f[g], n) for g in f}
        res = {
            "bal": float(np.count_nonzero(np.abs(self.d - (n - 1) / 2.0) > eps * n)) / n,
            "lt": p["w4"] + p["l4"],
            "r4": abs(p["r4"] - 0.5),
            "t4r4": abs(p["tr4"] - p["r4"]),
            "c3": abs(cen["c3"] / b3 - 0.25),
            "m2_F.c": abs(m2["c"] - p["r4"] / 6.0),
            "m2_G.oi": abs(m2["oi"] - (p["tr4"] / 2.0 + p["r4"] / 6.0)),
            "m2_G.ctr": abs(m2["ctr"] - (p["tr4"] / 6.0 + p["r4"] / 2.0)),
        }
        for g in ("o", "i", "tr", "c"):
            res[f"ks_F.{g}"] = ks_uniform(f[g], n, 0.5)
        for g in ("oi", "ctr"):
            res[f"ks_G.{g}"] = ks_uniform(f[g], n, 1.0)
        for g in ("o", "i", "tr"):
            res[f"m2_F.{g}"] = abs(m2[g] - p["tr4"] / 6.0)
        return res

    def random_residuals(self, delta: float) -> dict:
        """Every residual of the random profile, from the reference counts."""
        n, cen, f = self.n, self.census(), self.flags()
        b4 = math.comb(n, 4)
        p = {k: cen[k] / b4 for k in ("tr4", "w4", "l4", "r4")}
        res = {
            "c3": abs(cen["c3"] / math.comb(n, 3) - 0.25),
            "p2": p["tr4"] + p["r4"] - 0.75,
            "w4l4": abs(p["w4"] - p["l4"]),
            "w4cap": p["w4"] - 0.125,
        }
        for g in ("o", "i", "tr", "c"):
            res[f"conc_F.{g}"] = float(np.mean(np.abs(f[g] / (n - 2) - 0.25) > delta))
        return res


def carousel_census(m: int) -> dict:
    """Closed forms on the carousel of order m = 2k + 1."""
    k = (m - 1) // 2
    return {"tr3": m * math.comb(k, 2), "c3": math.comb(m, 3) - m * math.comb(k, 2),
            "tr4": m * math.comb(k, 3), "w4": 0, "l4": 0,
            "r4": math.comb(m, 4) - m * math.comb(k, 3)}
