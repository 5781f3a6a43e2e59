"""The benchmark's workloads: their input files, their CLI commands and the
check of each command's output.

One operation is one `tourney` CLI command plus the check of what it
printed and wrote.  A pass runs a workload's operations in order; every
pass of a run is the same list, so a run always attempts whole rounds.

Run as a script, this module makes one workload's input files; the
benchmark times that as its set-up:

    python3 perfbench/workloads.py --workload exact-census --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from oracle import close, expect

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-census", "structure", "sampled-io")


@dataclass(frozen=True)
class Sizes:
    """Input orders; `exact_limit` sits below `sampled_n` so sampling is pinned."""
    census_n: int = 1001
    structure_n: int = 1001
    io_n: int = 701
    sampled_n: int = 4001
    samples: int = 250_000
    exact_limit: int = 4000


FULL = Sizes()
TINY = Sizes(census_n=41, structure_n=41, io_n=41, sampled_n=101, samples=4000,
             exact_limit=100)

# the report defaults the residual checks assume (ReportConfig.eps, .delta)
EPS = DELTA = 0.05


def sub_seed(seed: int, k: int) -> int:
    """The k-th input seed derived from the run's seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def make_inputs(workload: str, seed: int, sizes: Sizes, out: Path) -> None:
    """Generate and write the workload's input files with the library."""
    from tourney import Tournament, carousel, digraphon_sample, random_uniform
    from tourney.io import write_trn

    out.mkdir(parents=True, exist_ok=True)
    if workload == "exact-census":
        n = sizes.census_n
        write_trn(random_uniform(n, sub_seed(seed, 0)), out / "stats.trn")
        write_trn(carousel(n), out / "carousel.trn")
        write_trn(random_uniform(n, sub_seed(seed, 1)), out / "random.trn")
    elif workload == "structure":
        n = sizes.structure_n
        perm = np.random.default_rng(sub_seed(seed, 0)).permutation(n)
        a = carousel(n).matrix()
        relabelled = np.empty_like(a)
        relabelled[np.ix_(perm, perm)] = a          # vertex x becomes perm[x]
        write_trn(Tournament(relabelled), out / "relabelled.trn")
        write_trn(digraphon_sample(n, sub_seed(seed, 1)), out / "digraphon.trn")
        write_trn(random_uniform(n, sub_seed(seed, 2)), out / "random.trn")
    elif workload == "sampled-io":
        write_trn(random_uniform(sizes.sampled_n, sub_seed(seed, 0)), out / "big.trn")
    else:
        raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    check: Callable[[str], None]   # stdout of the command; raises CheckFailed


class References:
    """Reference views of the input files, read once each."""

    def __init__(self):
        self._cache = {}

    def __call__(self, path: Path) -> oracle.Tournament:
        if path not in self._cache:
            self._cache[path] = oracle.Tournament(path)
        return self._cache[path]


def _json(stdout: str) -> dict:
    lines = stdout.splitlines()
    expect(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    try:
        out = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise oracle.CheckFailed(f"stdout is not JSON: {exc}")
    expect(out.get("schema") == 1, "schema is not 1")
    return out


def _check_counts(out: dict, want: dict, n: int) -> None:
    expect(out.get("n") == n, f"n: got {out.get('n')!r}, want {n}")
    for key, value in want.items():
        expect(out.get(key) == value, f"{key}: got {out.get(key)!r}, want {value}")
        num, den = value, math.comb(n, 3 if key in ("tr3", "c3") else 4)
        dens = out["densities"][key]
        expect(dens["num"] == num and dens["den"] == den, f"density pair of {key}")
        close(dens["float"], num / den, f"density of {key}", 1e-15)


def _check_report(out: dict, profile: str, mode: str, want: dict, tol: float = 1e-9) -> None:
    expect(out.get("profile") == profile, f"profile is {out.get('profile')!r}")
    expect(out["provenance"].get("mode") == mode, f"mode is {out['provenance'].get('mode')!r}")
    res, verdicts = out["residuals"], out["verdicts"]
    expect(set(want) <= set(res), f"missing residuals {sorted(set(want) - set(res))}")
    for key, value in want.items():
        close(res[key], value, f"residual {key}", tol)
    expect(set(verdicts) == set(res), "verdicts and residuals name different statistics")
    for key, value in res.items():
        expect(verdicts[key] == (abs(value) <= out["threshold"]), f"verdict of {key}")
    expect(out["passed"] is True and all(verdicts.values()),
           f"{profile} profile failed: {sorted(k for k, v in verdicts.items() if not v)}")


def _exact_census(seed: int, sizes: Sizes, work: Path, out: Path, ref: References) -> list:
    n = sizes.census_n

    def stats(stdout):
        res = _json(stdout)
        expect(res.get("command") == "stats" and "sampled" not in res, "not an exact census")
        _check_counts(res, ref(work / "stats.trn").census(), n)

    def check_carousel(stdout):
        r = ref(work / "carousel.trn")
        closed = oracle.carousel_census(n)
        expect(r.census() == closed, "reference census of the carousel misses the closed forms")
        _check_report(_json(stdout), "carousel", "exact", r.carousel_residuals(EPS))

    def check_random(stdout):
        _check_report(_json(stdout), "random", "exact",
                      ref(work / "random.trn").random_residuals(DELTA))

    return [
        Op("stats", ("stats", str(work / "stats.trn")), stats),
        Op("check-carousel", ("check", str(work / "carousel.trn"), "--profile", "carousel"),
           check_carousel),
        Op("check-random", ("check", str(work / "random.trn"), "--profile", "random"),
           check_random),
    ]


def check_loctrans(out: dict, r: oracle.Tournament) -> None:
    """Every claim of `tourney loctrans` checked against the matrix."""
    n, a, d = r.n, r.a, r.d
    expect(out.get("command") == "loctrans" and out.get("n") == n, "header")
    if not out["locally_transitive"]:
        w = out["obstruction"]
        vs, apex = w["vertices"], w["apex"]
        expect(len(set(vs)) == 4 and all(0 <= x < n for x in vs) and apex in vs,
               f"witness {vs} with apex {apex} is not four vertices holding the apex")
        scores = a[np.ix_(vs, vs)].sum(axis=1)
        got = scores[vs.index(apex)]
        want = {"W4": ([1, 1, 1, 3], 3), "L4": ([0, 2, 2, 2], 0)}.get(w["kind"])
        expect(want is not None and sorted(scores.tolist()) == want[0] and got == want[1],
               f"{w['kind']} witness {vs} induces scores {scores.tolist()}, apex score {got}")
        return
    order = out["cyclic_order"]
    expect(sorted(order) == list(range(n)), "cyclic_order is not a permutation")
    pos = np.empty(n, dtype=np.int64)
    pos[np.array(order)] = np.arange(n)
    gap = (pos[None, :] - pos[:, None]) % n        # forward distance u -> v
    expect(np.array_equal(a, (gap >= 1) & (gap <= d[:, None])),
           "an out-neighbourhood is not the forward interval after its vertex")
    balanced = bool((d == (n - 1) // 2).all())
    iso = out["carousel_isomorphism"]
    if not balanced:
        expect(iso is None and out.get("carousel_isomorphism_error") == "NotBalanced",
               "unbalanced input not reported NotBalanced")
        return
    expect(iso is not None and sorted(iso) == list(range(n)),
           "balanced input without a carousel isomorphism")
    iso = np.array(iso)
    u, v = np.nonzero(a)
    step = (iso[v] - iso[u]) % n
    expect(((step >= 1) & (step <= (n - 1) // 2)).all(), "an arc maps off the carousel")


def _structure(seed: int, sizes: Sizes, work: Path, out: Path, ref: References) -> list:
    ops = []
    for name in ("relabelled", "digraphon", "random"):
        path = work / f"{name}.trn"
        ops.append(Op(f"loctrans-{name}", ("loctrans", str(path)),
                      lambda stdout, path=path: check_loctrans(_json(stdout), ref(path))))
    return ops


def _sampled_io(seed: int, sizes: Sizes, work: Path, out: Path, ref: References) -> list:
    n, big = sizes.io_n, work / "big.trn"
    gen, arcs, back = out / "gen.trn", out / "gen.arcs", out / "back.trn"
    gen_seed = sub_seed(seed, 1)

    def check_gen(stdout):
        res = _json(stdout)
        data = gen.read_bytes()
        expect(res.get("sha256") == hashlib.sha256(data).hexdigest(), "sha256 is not the file's")
        expect((res.get("kind"), res.get("n"), res.get("seed")) == ("random", n, gen_seed),
               "gen header")
        a = oracle.parse_trn(data)
        expect(a.shape[0] == n, "gen wrote the wrong order")
        oracle.expect_tournament(a)

    def check_to_arcs(stdout):
        res = _json(stdout)
        expect((res.get("format"), res.get("n")) == ("arcs", n), "convert header")
        a = oracle.parse_trn(gen.read_bytes())
        pairs = oracle.parse_arcs(arcs.read_bytes())
        expect(len(pairs) == math.comb(n, 2), f"{len(pairs)} arcs, want C(n,2)")
        u, v = pairs[:, 0], pairs[:, 1]
        expect(((u >= 0) & (u < n) & (v >= 0) & (v < n) & (u != v)).all(), "bad vertex label")
        key = np.minimum(u, v) * n + np.maximum(u, v)
        expect(np.unique(key).size == key.size, "a pair appears twice")
        expect(a[u, v].all(), "an arc disagrees with the matrix")

    def check_to_trn(stdout):
        res = _json(stdout)
        expect((res.get("format"), res.get("n")) == ("trn", n), "convert header")
        expect(back.read_bytes() == gen.read_bytes(), "trn -> arcs -> trn changed the bytes")

    def check_stats(stdout):
        res, r = _json(stdout), ref(big)
        expect((res.get("n"), res.get("tr3"), res.get("c3")) == (r.n, r.tr3, r.c3),
               "exact tr3/c3 disagree with the outdegrees")
        expect("tr4" not in res, "order-4 census was not sampled")
        s = res["sampled"]
        expect(s["samples"] == sizes.samples, "sample count")
        got = [s["p_tr4"], s["p_w4"], s["p_l4"], s["p_r4"]]
        close(sum(got), 1.0, "sum of sampled densities", 1e-12)
        for name, p, law in zip(("tr4", "w4", "l4", "r4"), got, (3 / 8, 1 / 8, 1 / 8, 3 / 8)):
            se = math.sqrt(law * (1 - law) / sizes.samples)
            expect(abs(p - law) <= 6 * se, f"sampled {name} {p} is over 6 SE from {law}")

    def check_report(stdout):
        r = ref(big)
        _check_report(_json(stdout), "random", "sampled",
                      {"c3": abs(r.c3 / math.comb(r.n, 3) - 0.25)}, 1e-15)

    return [
        Op("gen", ("gen", "--kind", "random", "--n", str(n), "--seed", str(gen_seed),
                   "-o", str(gen)), check_gen),
        Op("convert-to-arcs", ("convert", str(gen), str(arcs)), check_to_arcs),
        Op("convert-to-trn", ("convert", str(arcs), str(back)), check_to_trn),
        Op("stats-sampled", ("stats", str(big), "--sample", str(sizes.samples),
                             "--seed", str(sub_seed(seed, 2))), check_stats),
        Op("check-sampled", ("check", str(big), "--profile", "random",
                             "--exact-limit", str(sizes.exact_limit),
                             "--samples", str(sizes.samples),
                             "--seed", str(sub_seed(seed, 3))), check_report),
    ]


def operations(workload: str, seed: int, sizes: Sizes, work: Path, out: Path,
               ref: References) -> list:
    """The workload's operations, in pass order, on the inputs in `work`,
    writing any output files into `out`."""
    build = {"exact-census": _exact_census, "structure": _structure,
             "sampled-io": _sampled_io}[workload]
    return build(seed, sizes, work, out, ref)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Make one workload's input files.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tiny", action="store_true", help="the self-test sizes")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    make_inputs(args.workload, args.seed, TINY if args.tiny else FULL, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
