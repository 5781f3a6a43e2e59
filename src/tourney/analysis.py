"""Extremal W4 curve and the quasi-carousel / quasi-random report batteries.

The closed-form curve phi_t = (1-t)^3 (t + (1-t)/8) / (1 - t^4) gives the
limiting W4 density of the layered construction with shrink ratio t; it is
maximized by golden-section search.  The reports turn the characterizing
properties of carousel-like and coin-flip-like tournament sequences into
named residuals with threshold verdicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Tournament
from .counting import (
    ReferenceDistribution,
    _quads_from_sums,
    arc_flag_distributions,
    ks_distance,
    sampled_quad_densities,
    triple_counts,
)
from .errors import OrderTooSmall, OutOfDomain
from .loctrans import balance_deficiency


# ---------------------------------------------------------------------------
# the W4 curve


@dataclass(frozen=True)
class W4Curve:
    """A point on the layered-construction W4 density curve."""
    t: float
    value: float


def phi_t_w4(t: float) -> float:
    """W4 density of the layered limit at shrink ratio t, for 0 < t < 1."""
    if not (0.0 < t < 1.0):
        raise OutOfDomain(f"t must lie strictly inside (0,1), got {t}")
    return (1.0 - t) ** 3 * (t + (1.0 - t) / 8.0) / (1.0 - t ** 4)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def maximize_phi_t(tolerance: float = 1e-8) -> tuple:
    """(t_star, value) via golden-section search on (0,1).

    The curve is unimodal on the open interval (confirmed by a dense grid
    scan in the test suite), so golden-section converges to the global max.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    a, b = 1e-12, 1.0 - 1e-12
    h = b - a
    steps = int(math.ceil(math.log(tolerance / h) / math.log(_INVPHI)))
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = phi_t_w4(c), phi_t_w4(d)
    for _ in range(max(0, steps - 1)):
        h *= _INVPHI
        if yc > yd:
            b, d, yd = d, c, yc
            c = a + _INVPHI2 * h
            yc = phi_t_w4(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INVPHI * h
            yd = phi_t_w4(d)
    t_star = (a + b) / 2.0
    return t_star, phi_t_w4(t_star)


def w4_curve_grid(k: int) -> list:
    """k evenly spaced interior curve points, handy for plot-ready CSV."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ts = (np.arange(k) + 0.5) / k
    return [W4Curve(float(t), phi_t_w4(float(t))) for t in ts]


# ---------------------------------------------------------------------------
# exact identities


@dataclass(frozen=True)
class IdentityResult:
    name: str
    lhs: int
    rhs: int

    @property
    def exact_zero(self) -> bool:
        return self.lhs == self.rhs

    @property
    def residual(self) -> float:
        scale = max(1, abs(self.rhs))
        return abs(self.lhs - self.rhs) / scale


def _identity_checks(n, tr3, c3, tr4, w4, l4, r4, sums, fsums) -> list:
    """Integer left/right sides of every exact arc and census identity.

    sums[f] is the plain per-arc sum of flag f, fsums[g] the sum of
    count*(count-1) for g in {o,i,tr,c,oi,ctr}.  All identities hold with
    residual exactly 0 on every tournament; a nonzero residual means a
    corrupted count.
    """
    b3 = math.comb(n, 3)
    b4 = math.comb(n, 4)
    checks = [
        # each transitive triple shows up once per single-flag arc census
        IdentityResult("arc_sum_o", sums["o"], tr3),
        IdentityResult("arc_sum_i", sums["i"], tr3),
        IdentityResult("arc_sum_tr", sums["tr"], tr3),
        # each 3-cycle is seen from all three of its arcs
        IdentityResult("arc_sum_c", sums["c"], 3 * c3),
        # p(C3) = 1/4 + (p(R4) - p(Tr4))/4, cleared of denominators
        IdentityResult("chain_rule", 4 * c3 * b4, b3 * (b4 + r4 - tr4)),
        # ordered pairs of equal flags around an arc count quadruple classes
        IdentityResult("m2_c", fsums["c"], 2 * r4),
        IdentityResult("m2_o", fsums["o"], 2 * tr4),
        IdentityResult("m2_i", fsums["i"], 2 * tr4),
        IdentityResult("m2_tr", fsums["tr"], 2 * tr4),
        IdentityResult("m2_oi", fsums["oi"], 6 * tr4 + 2 * r4),
        IdentityResult("m2_ctr", fsums["ctr"], 2 * tr4 + 6 * r4),
    ]
    return checks


def identity_suite(t: Tournament) -> list:
    """Evaluate every exact counting identity on integer counts.

    Returns IdentityResult entries whose lhs/rhs are exact integers; all of
    them must agree on any valid tournament.
    """
    if t.n < 6:
        raise OrderTooSmall(f"identity suite needs n >= 6, got {t.n}")
    tr3, c3 = triple_counts(t)
    dists = arc_flag_distributions(t)
    tr4, w4, l4, r4 = _quads_from_sums(t, dists)
    sums = {f: dists[f].count_sum() for f in ("o", "i", "tr", "c")}
    fsums = {g: d.factorial_sum() for g, d in dists.items()}
    return _identity_checks(t.n, tr3, c3, tr4, w4, l4, r4, sums, fsums)


# ---------------------------------------------------------------------------
# diagnostic reports


@dataclass(frozen=True)
class ReportConfig:
    """Threshold and sampling knobs for the report batteries.

    eps feeds the balance statistic, delta the concentration statistic.
    A residual passes when it is at most max(floor, slack/sqrt(n)); the
    defaults are engineering choices for finite n, not limits claims.
    """
    eps: float = 0.05
    delta: float = 0.05
    samples: int = 1_000_000
    seed: object = 0
    exact_limit: int = 8000
    floor: float = 0.02
    slack: float = 4.0

    def pass_bar(self, n: int) -> float:
        return max(self.floor, self.slack / math.sqrt(n))


@dataclass(frozen=True)
class DiagnosticReport:
    """Named residuals with per-statistic verdicts for one profile."""
    profile: str
    n: int
    residuals: dict
    verdicts: dict
    passed: bool
    threshold: float
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile,
            "n": self.n,
            "threshold": self.threshold,
            "residuals": dict(self.residuals),
            "verdicts": dict(self.verdicts),
            "passed": self.passed,
            "provenance": dict(self.provenance),
        }

    def to_json(self) -> str:
        """Canonical JSON; identical inputs and config give identical bytes."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _gather_counts(t: Tournament, config: ReportConfig) -> tuple:
    """(census densities and mode, flag distributions): exact up to the budget."""
    n = t.n
    tr3, c3 = triple_counts(t)
    b3 = math.comb(n, 3)
    info = {"n": n, "p_c3": c3 / b3, "mode": "exact"}
    if n <= config.exact_limit:
        dists = arc_flag_distributions(t)
        tr4, w4, l4, r4 = _quads_from_sums(t, dists)
        b4 = math.comb(n, 4)
        info.update(p_tr4=tr4 / b4, p_w4=w4 / b4, p_l4=l4 / b4, p_r4=r4 / b4)
    else:
        sq = sampled_quad_densities(t, config.samples, config.seed)
        info.update(p_tr4=sq.p_tr4, p_w4=sq.p_w4, p_l4=sq.p_l4, p_r4=sq.p_r4,
                    mode="sampled")
        dists = arc_flag_distributions(t, config.samples, config.seed)
    return info, dists


def quasi_carousel_report(t: Tournament, config: ReportConfig | None = None,
                          provenance: dict | None = None) -> DiagnosticReport:
    """Residual battery against the carousel profile.

    Statistics: balance (bal), local transitivity (lt), R4 maximality (r4),
    Tr4/R4 agreement (t4r4), 3-cycle density (c3), KS of single flags
    against U(0, 1/2) (ks_F.*), KS of combined flags against U(0, 1)
    (ks_G.*), and the factorial second moments against their census
    counterparts (m2_F.*, m2_G.*).
    """
    config = config or ReportConfig()
    if t.n < 5:
        raise OrderTooSmall(f"report needs n >= 5, got {t.n}")
    info, dists = _gather_counts(t, config)
    res = {
        "bal": balance_deficiency(t, config.eps),
        "lt": info["p_w4"] + info["p_l4"],
        "r4": abs(info["p_r4"] - 0.5),
        "t4r4": abs(info["p_tr4"] - info["p_r4"]),
        "c3": abs(info["p_c3"] - 0.25),
    }
    half = ReferenceDistribution.uniform(0.5)
    full = ReferenceDistribution.uniform(1.0)
    for f in ("o", "i", "tr", "c"):
        res[f"ks_F.{f}"] = ks_distance(dists[f], half)
    for g in ("oi", "ctr"):
        res[f"ks_G.{g}"] = ks_distance(dists[g], full)
    m2 = {f: d.second_factorial_moment for f, d in dists.items()}
    res["m2_F.c"] = abs(m2["c"] - info["p_r4"] / 6.0)
    for f in ("o", "i", "tr"):
        res[f"m2_F.{f}"] = abs(m2[f] - info["p_tr4"] / 6.0)
    res["m2_G.oi"] = abs(m2["oi"] - (info["p_tr4"] / 2.0 + info["p_r4"] / 6.0))
    res["m2_G.ctr"] = abs(m2["ctr"] - (info["p_tr4"] / 6.0 + info["p_r4"] / 2.0))
    return _finish_report("carousel", t, config, res, info, provenance)


def quasi_random_report(t: Tournament, config: ReportConfig | None = None,
                        provenance: dict | None = None) -> DiagnosticReport:
    """Residual battery against the coin-flip profile.

    Statistics: 3-cycle density (c3), the Tr4+R4 >= 3/4 slack (p2, signed),
    per-flag concentration away from 1/4 (conc_F.*), W4/L4 symmetry (w4l4)
    and the W4 <= 1/8 cap (w4cap, signed).  Verdicts use absolute values.
    """
    config = config or ReportConfig()
    if t.n < 5:
        raise OrderTooSmall(f"report needs n >= 5, got {t.n}")
    info, dists = _gather_counts(t, config)
    res = {
        "c3": abs(info["p_c3"] - 0.25),
        "p2": info["p_tr4"] + info["p_r4"] - 0.75,
        "w4l4": abs(info["p_w4"] - info["p_l4"]),
        "w4cap": info["p_w4"] - 0.125,
    }
    for f in ("o", "i", "tr", "c"):
        vals, mult = dists[f].value_counts()
        res[f"conc_F.{f}"] = int(mult[np.abs(vals - 0.25) > config.delta].sum()) / dists[f].size
    return _finish_report("random", t, config, res, info, provenance)


def _finish_report(profile, t, config, res, info, provenance) -> DiagnosticReport:
    bar = config.pass_bar(t.n)
    verdicts = {k: bool(abs(v) <= bar) for k, v in res.items()}
    prov = {
        "mode": info["mode"],
        "eps": config.eps,
        "delta": config.delta,
        "exact_limit": config.exact_limit,
    }
    if info["mode"] == "sampled":
        prov["samples"] = config.samples
        prov["seed"] = repr(config.seed)
    if provenance:
        prov.update(provenance)
    return DiagnosticReport(
        profile=profile, n=t.n,
        residuals={k: float(v) for k, v in res.items()},
        verdicts=verdicts,
        passed=all(verdicts.values()),
        threshold=bar,
        provenance=prov,
    )
