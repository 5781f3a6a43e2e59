"""Command-line surface.

Subcommands: gen, stats, arcflags, check, loctrans, sweep-w4, convert.
Machine output (JSON / CSV, always with "schema": 1) goes to stdout, human
prose to stderr.  Exit codes: 0 success, 1 validation error, 2 I/O or parse
error.  Seeds accept decimal or 0x-hex.  The exact census threads through
numpy's BLAS; its own setting (e.g. OPENBLAS_NUM_THREADS) caps the threads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import io as tio
from .analysis import (
    ReportConfig,
    maximize_phi_t,
    phi_t_w4,
    quasi_carousel_report,
    quasi_random_report,
    w4_curve_grid,
)
from .counting import (
    ReferenceDistribution,
    arc_flag_distribution,
    count_profile,
    distribution_to_csv,
    ks_distance,
    sampled_quad_densities,
)
from .errors import NotLocallyTransitive, TourneyError
from .generators import (
    LayeredSpec,
    carousel,
    digraphon_sample,
    layered,
    random_uniform,
    transitive,
)
from .loctrans import brouwer_order, carousel_isomorphism

SCHEMA = 1


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _seed(text: str) -> int:
    """Seed flag parser: decimal or 0x-prefixed hex."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}")


def _emit(obj: dict) -> None:
    obj = {"schema": SCHEMA, **obj}
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _say(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _load(path: str):
    try:
        return tio.read_trn(path)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", 2)
    except TourneyError as exc:
        raise _CliError(f"parse error in {path}: {exc}", 2)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1 for validation
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# built once per process: parse_args keeps no state in the parser
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="tourney", description="Tournament generators, censuses and diagnostics.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a tournament and write a .trn file")
    g.add_argument("--kind", required=True,
                   choices=["carousel", "transitive", "random", "layered", "digraphon"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", type=float, default=None, help="shrink ratio for --kind layered")
    g.add_argument("--seed", type=_seed, default=None)
    g.add_argument("-o", "--out", required=True)

    s = sub.add_parser("stats", help="order-3/4 census of a .trn file as JSON")
    s.add_argument("path")
    s.add_argument("--orders", default="3,4", help="comma list out of 3,4")
    s.add_argument("--sample", type=int, default=None,
                   help="force sampled order-4 densities with this many draws")
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--exact-limit", type=int, default=8000,
                   help="max n for the exact order-4 census")

    a = sub.add_parser("arcflags", help="per-arc flag distribution as CSV + moments JSON")
    a.add_argument("path")
    a.add_argument("--flag", required=True, choices=["o", "i", "tr", "c", "oi", "ctr"])
    a.add_argument("--bins", type=int, default=None)
    a.add_argument("-o", "--out", required=True, help="CSV output path")
    a.add_argument("--profile", choices=["carousel", "random"], default="carousel",
                   help="which reference the KS figure is taken against")

    c = sub.add_parser("check", help="diagnostic report battery as JSON")
    c.add_argument("path")
    c.add_argument("--profile", required=True, choices=["carousel", "random"])
    c.add_argument("--config", default=None, help="key=value file (eps, delta, samples, seed)")
    c.add_argument("--eps", type=float, default=None)
    c.add_argument("--delta", type=float, default=None)
    c.add_argument("--samples", type=int, default=None)
    c.add_argument("--seed", type=_seed, default=None)
    c.add_argument("--exact-limit", type=int, default=None)

    l = sub.add_parser("loctrans", help="local transitivity, witness, order, isomorphism")
    l.add_argument("path")

    w = sub.add_parser("sweep-w4", help="W4 curve: grid CSV, optimum, or simulation")
    mode = w.add_mutually_exclusive_group(required=True)
    mode.add_argument("--grid", type=int, default=None, help="emit a k-row t,phi_t CSV")
    mode.add_argument("--optimize", type=float, default=None, help="golden-section tolerance")
    mode.add_argument("--simulate", type=int, default=None,
                      help="layered size N for a sampled-density comparison")
    w.add_argument("--t", type=float, default=None, help="ratio for --simulate (default: argmax)")
    w.add_argument("--seed", type=_seed, default=0)
    w.add_argument("--samples", type=int, default=1_000_000)

    v = sub.add_parser("convert", help="convert between .trn and arc-list files")
    v.add_argument("src")
    v.add_argument("dst")
    v.add_argument("--to", choices=["trn", "arcs"], default=None,
                   help="target format (default: by dst extension)")
    return p


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_gen(args) -> int:
    kind, n = args.kind, args.n
    if kind == "carousel":
        t = carousel(n)
    elif kind == "transitive":
        t = transitive(n)
    elif kind == "random":
        t = random_uniform(n, args.seed)
    elif kind == "layered":
        if args.t is None:
            raise _CliError("gen --kind layered needs --t", 1)
        t = layered(LayeredSpec(N=n, t=args.t, seed=args.seed))
    else:
        t = digraphon_sample(n, args.seed)
    try:
        text = tio.write_trn(t, args.out)
    except OSError as exc:
        raise _CliError(f"cannot write {args.out}: {exc}", 2)
    digest = hashlib.sha256(text.encode()).hexdigest()
    _emit({"command": "gen", "kind": kind, "n": n, "t": args.t,
           "seed": args.seed, "out": args.out, "sha256": digest})
    return 0


def _cmd_stats(args) -> int:
    t = _load(args.path)
    try:
        orders = sorted({int(x) for x in args.orders.split(",") if x.strip()})
    except ValueError:
        raise _CliError(f"bad --orders {args.orders!r}", 1)
    if not orders or set(orders) - {3, 4}:
        raise _CliError(f"--orders must name 3 and/or 4, got {args.orders!r}", 1)
    out: dict = {"command": "stats"}
    want4 = 4 in orders and t.n >= 4
    sample = args.sample
    if want4 and sample is None and t.n > args.exact_limit:
        sample = 1_000_000
        _say(f"n={t.n} above exact budget {args.exact_limit}; sampling {sample} quadruples")
    if want4 and sample is not None:
        prof = count_profile(t, orders=(3,))
        out.update(prof.to_json_dict())
        out["sampled"] = {"seed": args.seed,
                          **sampled_quad_densities(t, sample, args.seed).to_json_dict()}
    else:
        prof = count_profile(t, orders=tuple(orders))
        out.update(prof.to_json_dict())
    _emit(out)
    return 0


def _cmd_arcflags(args) -> int:
    t = _load(args.path)
    dist = arc_flag_distribution(t, args.flag)
    csv_text = distribution_to_csv(dist, bins=args.bins)
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    except OSError as exc:
        raise _CliError(f"cannot write {args.out}: {exc}", 2)
    single = args.flag in ("o", "i", "tr", "c")
    if args.profile == "carousel":
        ref = ReferenceDistribution.uniform(0.5 if single else 1.0)
    else:
        ref = ReferenceDistribution.point_mass(0.25 if single else 0.5)
    _emit({
        "command": "arcflags", "flag": args.flag, "out": args.out,
        "n": t.n, "arcs": dist.size,
        "mean": dist.mean,
        "second_moment": dist.second_moment,
        "second_factorial_moment": dist.second_factorial_moment,
        "reference": {"kind": ref.kind, "param": ref.param},
        "ks": ks_distance(dist, ref),
    })
    return 0


def _parse_config_file(path: str) -> dict:
    allowed = {"eps": float, "delta": float, "samples": int, "seed": _seed}
    got = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, ln in enumerate(fh, start=1):
                ln = ln.strip()
                if not ln or ln.startswith("#"):
                    continue
                if "=" not in ln:
                    raise _CliError(f"{path}:{lineno}: expected key=value, got {ln!r}", 1)
                key, val = (part.strip() for part in ln.split("=", 1))
                if key not in allowed:
                    raise _CliError(f"{path}:{lineno}: unknown key {key!r}", 1)
                try:
                    got[key] = allowed[key](val)
                except (ValueError, argparse.ArgumentTypeError):
                    raise _CliError(f"{path}:{lineno}: bad value for {key}: {val!r}", 1)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", 2)
    return got


def _cmd_check(args) -> int:
    t = _load(args.path)
    cfg = ReportConfig()
    overrides = {}
    if args.config:
        overrides.update(_parse_config_file(args.config))
    for key in ("eps", "delta", "samples", "seed", "exact_limit"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, **overrides)
    report_fn = quasi_carousel_report if args.profile == "carousel" else quasi_random_report
    rep = report_fn(t, cfg, provenance={"source": args.path})
    _emit({"command": "check", **rep.to_json_dict()})
    failed = [k for k, ok in rep.verdicts.items() if not ok]
    if failed:
        _say(f"{args.profile} profile: FAIL ({', '.join(sorted(failed))})")
    else:
        _say(f"{args.profile} profile: PASS ({len(rep.verdicts)} statistics)")
    return 0


def _cmd_loctrans(args) -> int:
    t = _load(args.path)
    out: dict = {"command": "loctrans", "n": t.n}
    try:
        order = brouwer_order(t)
    except NotLocallyTransitive as exc:
        out["locally_transitive"] = False
        out["obstruction"] = exc.obstruction.to_json_dict()
    else:
        out["locally_transitive"] = True
        out["cyclic_order"] = list(order.order)
        try:
            iso = carousel_isomorphism(t)
            out["carousel_isomorphism"] = [int(x) for x in iso]
        except TourneyError as exc:
            out["carousel_isomorphism"] = None
            out["carousel_isomorphism_error"] = type(exc).__name__
    _emit(out)
    return 0


def _cmd_sweep(args) -> int:
    if args.grid is not None:
        sys.stdout.write("t,phi_t\n")
        for pt in w4_curve_grid(args.grid):
            sys.stdout.write(f"{pt.t!r},{pt.value!r}\n")
        return 0
    if args.optimize is not None:
        t_star, value = maximize_phi_t(args.optimize)
        _emit({"command": "sweep-w4", "t_star": t_star, "value": value})
        return 0
    n = args.simulate
    t_ratio = args.t if args.t is not None else maximize_phi_t(1e-10)[0]
    tour = layered(LayeredSpec(N=n, t=t_ratio, seed=args.seed))
    sq = sampled_quad_densities(tour, args.samples, args.seed)
    target = phi_t_w4(t_ratio)
    _emit({"command": "sweep-w4", "N": n, "t": t_ratio, "seed": args.seed,
           "phi_t": target, "sampled_w4": sq.p_w4, "se_w4": sq.se_w4,
           "abs_error": abs(sq.p_w4 - target)})
    return 0


def _cmd_convert(args) -> int:
    src, dst = args.src, args.dst
    try:
        if src.endswith(".trn"):
            t = tio.read_trn(src)
        else:
            t = tio.read_arcs(src)
    except OSError as exc:
        raise _CliError(f"cannot read {src}: {exc}", 2)
    except TourneyError as exc:
        raise _CliError(f"parse error in {src}: {exc}", 2)
    target = args.to or ("trn" if dst.endswith(".trn") else "arcs")
    try:
        if target == "trn":
            tio.write_trn(t, dst)
        else:
            tio.write_arcs(t, dst)
    except OSError as exc:
        raise _CliError(f"cannot write {dst}: {exc}", 2)
    _emit({"command": "convert", "src": src, "dst": dst, "format": target, "n": t.n})
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "stats": _cmd_stats,
    "arcflags": _cmd_arcflags,
    "check": _cmd_check,
    "loctrans": _cmd_loctrans,
    "sweep-w4": _cmd_sweep,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        _say(f"error: {exc}")
        return exc.code
    except TourneyError as exc:
        _say(f"error: {type(exc).__name__}: {exc}")
        return 1
    except ValueError as exc:
        _say(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
