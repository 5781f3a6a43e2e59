"""Extremal curve, exact identity suite, diagnostic report batteries."""
import json

import numpy as np
import pytest

from tourney import (
    ReportConfig,
    carousel,
    digraphon_sample,
    identity_suite,
    maximize_phi_t,
    phi_t_w4,
    quasi_carousel_report,
    quasi_random_report,
    random_uniform,
    transitive,
    w4_curve_grid,
)
from tourney.analysis import _identity_checks
from tourney.errors import OrderTooSmall, OutOfDomain

T_STAR = (2 * 3 ** (2 / 3) - 3 ** (1 / 3) - 2) / 5
PHI_MAX = 1 + (3 ** (5 / 3) - 3 ** (7 / 3)) / 8


class TestCurve:
    def test_known_values(self):
        assert phi_t_w4(0.5) == pytest.approx(0.075, abs=1e-15)
        assert phi_t_w4(T_STAR) == pytest.approx(PHI_MAX, abs=1e-14)
        assert phi_t_w4(0.143584) == pytest.approx(0.157501, abs=1e-5)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(OutOfDomain):
                phi_t_w4(bad)

    def test_maximize_matches_closed_form(self):
        t_star, value = maximize_phi_t()
        assert t_star == pytest.approx(T_STAR, abs=1e-6)
        assert value == pytest.approx(PHI_MAX, abs=1e-9)
        with pytest.raises(ValueError):
            maximize_phi_t(tolerance=0.0)

    def test_grid_unimodal(self):
        vals = [p.value for p in w4_curve_grid(1000)]
        peak = int(np.argmax(vals))
        assert all(a < b for a, b in zip(vals[:peak], vals[1:peak + 1]))
        assert all(a > b for a, b in zip(vals[peak:], vals[peak + 1:]))
        with pytest.raises(ValueError):
            w4_curve_grid(0)


class TestIdentitySuite:
    def test_all_exact_on_structured_inputs(self):
        for t in (carousel(9), carousel(21), transitive(10)):
            for res in identity_suite(t):
                assert res.exact_zero, res
                assert res.residual == 0.0

    def test_all_exact_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(6, 45))
            t = random_uniform(n, seed=int(rng.integers(2**31)))
            for res in identity_suite(t):
                assert res.exact_zero, (n, res)

    def test_names_stable(self):
        names = [r.name for r in identity_suite(carousel(7))]
        assert names == ["arc_sum_o", "arc_sum_i", "arc_sum_tr", "arc_sum_c",
                         "chain_rule", "m2_c", "m2_o", "m2_i", "m2_tr",
                         "m2_oi", "m2_ctr"]

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            identity_suite(transitive(5))

    def test_fault_injection_is_detected(self):
        # recompute the suite inputs for carousel(9), then corrupt one count
        # at a time and demand some identity notices
        t = carousel(9)
        from tourney import quad_counts, triple_counts
        from tourney.counting import arc_flag_count_arrays
        tr3, c3 = triple_counts(t)
        tr4, w4, l4, r4 = quad_counts(t)
        hists = arc_flag_count_arrays(t)
        k = np.arange(8)
        sums = {f: int(k @ hists[f]) for f in ("o", "i", "tr", "c")}
        fsums = {g: int((k * (k - 1)) @ hists[g])
                 for g in ("o", "i", "tr", "c", "oi", "ctr")}
        baseline = _identity_checks(9, tr3, c3, tr4, w4, l4, r4, sums, fsums)
        assert all(r.exact_zero for r in baseline)

        corrupted = [
            _identity_checks(9, tr3 + 1, c3, tr4, w4, l4, r4, sums, fsums),
            _identity_checks(9, tr3, c3 - 2, tr4, w4, l4, r4, sums, fsums),
            _identity_checks(9, tr3, c3, tr4 + 5, w4, l4, r4, sums, fsums),
            _identity_checks(9, tr3, c3, tr4, w4, l4, r4 - 1, sums, fsums),
            _identity_checks(9, tr3, c3, tr4, w4, l4, r4,
                             {**sums, "c": sums["c"] + 3}, fsums),
            _identity_checks(9, tr3, c3, tr4, w4, l4, r4, sums,
                             {**fsums, "oi": fsums["oi"] + 2}),
        ]
        for checks in corrupted:
            assert any(not r.exact_zero for r in checks)
            assert any(r.residual > 0 for r in checks)


class TestReportConfig:
    def test_pass_bar(self):
        cfg = ReportConfig()
        assert cfg.pass_bar(10_000) == pytest.approx(0.04)
        assert cfg.pass_bar(1_000_000) == 0.02  # floor takes over


class TestQuasiCarouselReport:
    def test_carousel_passes(self):
        r = quasi_carousel_report(carousel(301))
        assert r.passed
        assert r.profile == "carousel"
        assert set(r.verdicts) == set(r.residuals)
        assert r.residuals["bal"] == 0.0
        assert r.residuals["lt"] == 0.0

    def test_random_fails_via_ks(self):
        r = quasi_carousel_report(random_uniform(301, seed=1))
        assert not r.passed
        assert r.residuals["ks_F.c"] > r.threshold

    def test_transitive_fails(self):
        r = quasi_carousel_report(transitive(301))
        assert not r.passed
        assert not r.verdicts["t4r4"]

    def test_residuals_shrink_with_order(self):
        r101 = quasi_carousel_report(carousel(101))
        r1001 = quasi_carousel_report(carousel(1001))
        for key in ("r4", "t4r4", "c3", "ks_F.c", "ks_G.oi"):
            assert r1001.residuals[key] <= r101.residuals[key] + 1e-12

    def test_too_small(self):
        with pytest.raises(OrderTooSmall):
            quasi_carousel_report(carousel(3))


class TestQuasiRandomReport:
    def test_random_passes(self):
        r = quasi_random_report(random_uniform(501, seed=2))
        assert r.passed
        assert r.profile == "random"

    def test_carousel_fails_via_concentration(self):
        r = quasi_random_report(carousel(501))
        assert not r.passed
        assert r.residuals["conc_F.c"] > r.threshold

    def test_concentration_is_strict_at_delta(self):
        # carousel(5): o/(n-2) is 0 or 1/3 and c/(n-2) is 1/3 or 2/3, half
        # the arcs each; |0 - 1/4| equals delta = 1/4 and is not beyond it
        r = quasi_random_report(carousel(5), ReportConfig(delta=0.25))
        assert r.residuals["conc_F.o"] == 0.0
        assert r.residuals["conc_F.c"] == 0.5

    def test_signed_residuals_keep_sign(self):
        # carousel: p2 = p_tr4 + p_r4 - 3/4 is +1/4 - o(1), w4cap is -1/8
        r = quasi_random_report(carousel(501))
        assert r.residuals["p2"] > 0.2
        assert r.residuals["w4cap"] == pytest.approx(-0.125)
        # verdicts judge the magnitude, not the sign
        assert r.verdicts["w4cap"] == (abs(r.residuals["w4cap"]) <= r.threshold)


class TestReportMechanics:
    def test_json_deterministic(self):
        a = quasi_carousel_report(carousel(101)).to_json()
        b = quasi_carousel_report(carousel(101)).to_json()
        assert a == b
        parsed = json.loads(a)
        assert parsed["n"] == 101
        assert parsed["provenance"]["mode"] == "exact"

    def test_sampled_mode_beyond_budget(self):
        cfg = ReportConfig(exact_limit=50, samples=40_000, seed=3)
        r = quasi_carousel_report(carousel(101), config=cfg)
        assert r.provenance["mode"] == "sampled"
        assert r.provenance["samples"] == 40_000
        # sampled carousel still looks like a carousel
        assert r.passed

    def test_sampled_matches_exact_closely(self):
        t = digraphon_sample(401, seed=4)
        exact = quasi_carousel_report(t)
        sampled = quasi_carousel_report(
            t, config=ReportConfig(exact_limit=50, samples=300_000, seed=5))
        for key in ("r4", "t4r4", "lt"):
            assert sampled.residuals[key] == pytest.approx(exact.residuals[key], abs=0.02)

    def test_caller_provenance_merged(self):
        r = quasi_random_report(random_uniform(101, seed=6),
                                provenance={"source": "unit-test"})
        assert r.provenance["source"] == "unit-test"

    def test_reports_never_expand_flag_histograms(self, monkeypatch):
        # exact and sampled reports and the identity suite work from the
        # flag histograms alone, never from one value per arc
        from tourney.counting import EmpiricalDistribution
        t = digraphon_sample(61, seed=2)
        configs = (ReportConfig(), ReportConfig(exact_limit=50, samples=5000, seed=1))
        want = [fn(t, cfg).to_json() for cfg in configs
                for fn in (quasi_carousel_report, quasi_random_report)]

        def refuse(self):
            raise AssertionError("a per-arc array was built")

        for name in ("counts", "values"):
            monkeypatch.setattr(EmpiricalDistribution, name, property(refuse), raising=False)
        got = [fn(t, cfg).to_json() for cfg in configs
               for fn in (quasi_carousel_report, quasi_random_report)]
        assert got == want
        assert all(r.exact_zero for r in identity_suite(t))

    def test_verdicts_follow_threshold(self):
        r = quasi_carousel_report(carousel(101))
        for k, v in r.residuals.items():
            assert r.verdicts[k] == (abs(v) <= r.threshold)
        assert r.passed == all(r.verdicts.values())
