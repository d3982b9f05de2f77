import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from crpstail import (
    DomainError,
    FORECASTERS,
    MODELS,
    ParameterError,
    pit_calibration,
    simulate,
    simulate_forecasters,
    wcrps_ranking_curve,
)
from crpstail.simulation import _gamma4_quantile


class TestStreamContract:
    def test_reproducible(self):
        a = simulate("ge", "ideal", 200, seed=5)
        b = simulate("ge", "ideal", 200, seed=5)
        assert_array_equal(a.y, b.y)
        assert_array_equal(a.params, b.params)
        assert_array_equal(a.hidden, b.hidden)

    def test_seed_changes_stream(self):
        a = simulate("nn", "ideal", 200, seed=5)
        b = simulate("nn", "ideal", 200, seed=6)
        assert not np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("model", MODELS)
    def test_prefix_stability(self, model):
        long = simulate(model, "ideal", 100, seed=11)
        short = simulate(model, "ideal", 50, seed=11)
        assert_array_equal(long.y[:50], short.y)
        assert_array_equal(long.hidden[:50], short.hidden)
        assert_array_equal(long.params[:50], short.params)

    @pytest.mark.parametrize("model", MODELS)
    def test_window_matches_full_stream(self, model):
        full = simulate(model, "unfocused", 100, seed=11)
        tail = simulate(model, "unfocused", 50, seed=11, t0=50)
        assert_array_equal(tail.y, full.y[50:])
        assert_array_equal(tail.params, full.params[50:])
        assert_array_equal(tail.t, np.arange(50, 100))

    def test_observations_shared_across_forecasters(self):
        batches = [simulate("ge", name, 300, seed=2) for name in FORECASTERS]
        for other in batches[1:]:
            assert_array_equal(other.y, batches[0].y)
            assert_array_equal(other.hidden, batches[0].hidden)

    def test_time_column_and_tags(self):
        b = simulate("nn", "climatological", 25, seed=0)
        assert_array_equal(b.t, np.arange(25))
        assert b.family == "normal"
        assert len(b) == 25

    def test_validation(self):
        with pytest.raises(ParameterError):
            simulate("ar1", "ideal", 10)
        with pytest.raises(ParameterError):
            simulate("nn", "sharp", 10)
        with pytest.raises(DomainError):
            simulate("nn", "ideal", 0)
        with pytest.raises(DomainError):
            simulate("nn", "ideal", -5)


class TestSimulateForecasters:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("t0", [0, 37])
    def test_each_batch_equals_simulate(self, model, t0):
        batches = simulate_forecasters(model, FORECASTERS, 400, seed=8, t0=t0)
        assert list(batches) == list(FORECASTERS)
        for name, batch in batches.items():
            alone = simulate(model, name, 400, seed=8, t0=t0)
            assert batch.family == alone.family
            for column in ("t", "y", "params", "hidden"):
                got, want = getattr(batch, column), getattr(alone, column)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (name, column)

    def test_stream_arrays_are_shared(self):
        batches = simulate_forecasters("ge", ("ideal", "extremist"), 50, seed=1)
        ideal, extremist = batches["ideal"], batches["extremist"]
        assert ideal.y is extremist.y and ideal.hidden is extremist.hidden
        assert not np.shares_memory(ideal.params, ideal.hidden)

    @pytest.mark.parametrize("model", MODELS)
    def test_climatological_params_are_a_read_only_row(self, model):
        params = simulate(model, "climatological", 30, seed=2).params
        assert params.shape == (30, 2) and params.strides[0] == 0
        assert not params.flags.writeable
        with pytest.raises(ValueError):
            params[0, 0] = 1.0

    @pytest.mark.parametrize("model", MODELS)
    def test_subset_of_climatological_rows_stays_a_read_only_row(self, model):
        batch = simulate(model, "climatological", 30, seed=2)
        for index in (slice(3, 20), batch.y > np.median(batch.y), np.array([4, 0, 29, 7])):
            params = batch.subset(index).params
            assert params.shape == (batch.y[index].size, 2) and params.strides[0] == 0
            assert not params.flags.writeable
            assert_array_equal(params, batch.params[index])

    def test_uniforms_are_drawn_in_blocks(self):
        import tracemalloc

        t = 2**18
        simulate_forecasters("ge", ("ideal",), 10, seed=3)  # imports outside the trace
        tracemalloc.start()
        try:
            batches = simulate_forecasters("ge", ("ideal", "climatological"), t, seed=3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(batches["ideal"]) == t
        # beyond the arrays it returns, the simulator never held as much as
        # half of the stream's (t, 4) uniforms at once
        assert peak - held < t * 4 * 8 / 2, (peak, held)

    @pytest.mark.parametrize("model", MODELS)
    def test_block_size_leaves_the_stream_bit_for_bit(self, model, monkeypatch):
        from crpstail import distributions

        whole = simulate_forecasters(model, FORECASTERS, 100, seed=9, t0=5)
        monkeypatch.setattr(distributions, "_BLOCK_DRAWS", 7)
        blocks = simulate_forecasters(model, FORECASTERS, 100, seed=9, t0=5)
        for name in FORECASTERS:
            for column in ("t", "y", "params", "hidden"):
                got, want = getattr(blocks[name], column), getattr(whole[name], column)
                assert got.tobytes() == want.tobytes(), (name, column)

    @pytest.mark.parametrize(
        "names",
        [("sharp", "ideal", "unfocused"), ("ideal", "sharp", "unfocused"),
         ("ideal", "unfocused", "sharp")],
    )
    def test_unknown_forecaster_anywhere(self, names):
        with pytest.raises(ParameterError, match="sharp"):
            simulate_forecasters("nn", names, 10)

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        seed=st.integers(0, 2**32),
        t0=st.integers(0, 300),
        n=st.integers(1, 200),
        data=st.data(),
    )
    def test_windows_of_one_seed_agree_bit_for_bit(self, model, seed, t0, n, data):
        """A second window starting inside the first shares its records."""
        shift = data.draw(st.integers(0, n - 1))
        n_b = data.draw(st.integers(1, 200))
        a = simulate_forecasters(model, FORECASTERS, n, seed=seed, t0=t0)
        b = simulate_forecasters(model, FORECASTERS, n_b, seed=seed, t0=t0 + shift)
        overlap = min(n - shift, n_b)
        for name in FORECASTERS:
            for column in ("t", "y", "params", "hidden"):
                got = getattr(a[name], column)[shift : shift + overlap]
                want = getattr(b[name], column)[:overlap]
                assert got.tobytes() == want.tobytes(), (name, column)

    def test_validation(self):
        with pytest.raises(ParameterError):
            simulate_forecasters("ar1", FORECASTERS, 10)
        with pytest.raises(DomainError):
            simulate_forecasters("ge", FORECASTERS, 0)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_key_range(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            simulate_forecasters("ge", FORECASTERS, 10, seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            simulate("nn", "ideal", 10, seed=seed)

    def test_largest_seed(self):
        assert len(simulate("ge", "ideal", 5, seed=2**128 - 1)) == 5


class TestModelNn:
    def test_marginal_moments(self, nn_small):
        y = nn_small["ideal"].y
        n = y.size
        assert abs(y.mean()) < 3.0 * np.sqrt(2.0 / n)
        # Var(Y) = 2; the sample variance has sd sqrt(2 * 4 / (n - 1))
        assert abs(y.var() - 2.0) < 3.0 * np.sqrt(8.0 / (n - 1))

    def test_ideal_centered_on_hidden(self, nn_small):
        b = nn_small["ideal"]
        assert b.family == "normal"
        assert_array_equal(b.params[:, 0], b.hidden)
        assert_allclose(b.params[:, 1], 1.0)

    def test_climatological_is_marginal_law(self, nn_small):
        b = nn_small["climatological"]
        assert b.family == "normal"
        assert_allclose(b.params[:, 0], 0.0)
        assert_allclose(b.params[:, 1], np.sqrt(2.0))
        # the marginal forecast is calibrated unconditionally
        assert pit_calibration(b).auto_calibrated()

    def test_unfocused_mixture_structure(self, nn_small):
        b = nn_small["unfocused"]
        assert b.family == "normal_mixture2"
        assert_allclose(b.params[:, 0], 0.5)
        assert_array_equal(b.params[:, 1], b.hidden)
        assert_allclose(b.params[:, 2], 1.0)
        assert_allclose(b.params[:, 4], 1.0)
        tau = b.params[:, 3] - b.params[:, 1]
        assert_allclose(np.abs(tau), 2.0, rtol=1e-12)
        # the displacement direction is a fair coin
        frac = np.mean(tau > 0)
        assert abs(frac - 0.5) < 3.0 * 0.5 / np.sqrt(len(b))

    def test_extremist_shift(self, nn_small):
        b = nn_small["extremist"]
        assert_allclose(b.params[:, 0], b.hidden + 2.5, rtol=1e-15)
        assert not pit_calibration(b).auto_calibrated()

    def test_ideal_pit_uniform(self, nn_small):
        assert pit_calibration(nn_small["ideal"]).auto_calibrated()


class TestModelGe:
    def test_hidden_rate_moments(self, ge_small):
        d = ge_small["ideal"].hidden
        n = d.size
        # Gamma(4, 4): mean 1, variance 1/4
        assert abs(d.mean() - 1.0) < 3.0 * np.sqrt(0.25 / n)
        assert abs(d.var() - 0.25) < 0.02
        assert np.all(d > 0.0)

    def test_observations_positive(self, ge_small):
        assert np.all(ge_small["ideal"].y > 0.0)

    def test_ideal_uses_hidden_rate(self, ge_small):
        b = ge_small["ideal"]
        assert b.family == "exponential"
        assert_array_equal(b.params[:, 0], b.hidden)
        assert pit_calibration(b).auto_calibrated()

    def test_climatological_is_pareto_marginal(self, ge_small):
        # a Gamma(4, 4) mixture of exponentials is exactly GP(1, 1/4), so
        # the constant Pareto forecast is uniformly calibrated
        b = ge_small["climatological"]
        assert b.family == "generalized_pareto"
        assert_allclose(b.params[:, 0], 1.0)
        assert_allclose(b.params[:, 1], 0.25)
        assert pit_calibration(b).auto_calibrated()

    def test_unfocused_focus_multiplier(self, ge_small):
        b = ge_small["unfocused"]
        assert b.family == "exponential"
        tau = b.hidden / b.params[:, 0]
        assert np.all(tau >= 2.0 / 3.0 - 1e-12)
        assert np.all(tau <= 4.0 / 3.0 + 1e-12)
        # tau = 2/3 + (u + u') / 3: mean 1, variance 1/54
        n = tau.size
        assert abs(tau.mean() - 1.0) < 3.0 * np.sqrt(1.0 / 54.0 / n)
        assert abs(tau.var() - 1.0 / 54.0) < 0.002

    def test_extremist_dilutes_rate(self, ge_small):
        b = ge_small["extremist"]
        assert_allclose(b.params[:, 0], b.hidden / 1.5, rtol=1e-15)
        assert not pit_calibration(b).auto_calibrated()


class TestRankingCurve:
    def test_structure(self):
        orders = [0.5, 0.875, 0.95]
        curve = wcrps_ranking_curve("ge", 20_000, orders, seed=3)
        assert curve.model == "ge"
        assert_allclose(curve.orders, orders)
        obs = simulate("ge", "ideal", 20_000, seed=3).y
        assert_allclose(curve.thresholds, np.quantile(obs, orders))
        assert set(curve.means) == set(FORECASTERS)
        for vals in curve.means.values():
            assert vals.shape == (3,)
            assert np.all(vals > 0.0)
            # raising the threshold shrinks the weighted region
            assert np.all(np.diff(vals) < 0.0)

    def test_ideal_ranks_first(self):
        curve = wcrps_ranking_curve("ge", 20_000, [0.5, 0.875, 0.9], seed=3)
        ranks = curve.ranks()
        assert_array_equal(ranks["ideal"], 1)
        for name in FORECASTERS:
            assert sorted(r[0] for r in (ranks[n] for n in FORECASTERS)) == [
                1,
                2,
                3,
                4,
            ]
            break

    def test_extremist_beats_clim_in_the_bulk(self):
        # the rate-diluted forecast wins on mean weighted score at the
        # median threshold (0.55 E[1/rate] < 16/21 unweighted); only the
        # far-tail ranking and the extremes index expose it
        curve = wcrps_ranking_curve("ge", 20_000, [0.5], seed=3)
        assert curve.means["extremist"][0] < curve.means["climatological"][0]

    def test_log1p_means(self):
        curve = wcrps_ranking_curve("nn", 2_000, [0.5, 0.9], seed=1)
        logs = curve.log1p_means()
        for name in curve.means:
            assert_allclose(logs[name], np.log1p(curve.means[name]))

    def test_reproducible(self):
        a = wcrps_ranking_curve("ge", 2_000, [0.9], seed=4)
        b = wcrps_ranking_curve("ge", 2_000, [0.9], seed=4)
        for name in a.means:
            assert_array_equal(a.means[name], b.means[name])

    def test_forecaster_subset(self):
        curve = wcrps_ranking_curve(
            "nn", 1_000, [0.5], seed=2, forecasters=("ideal", "climatological")
        )
        assert set(curve.means) == {"ideal", "climatological"}


def _gamma4_ulps(u, x):
    """Distance of ``x`` from the 40-digit root of P(4, x) = u (of
    Q(4, x) = 1 - u above u = 1/2), in units of the root's last place."""
    with mpmath.workdps(40):
        u, x = mpmath.mpf(float(u)), mpmath.mpf(float(x))
        if u <= 0.5:
            root = mpmath.findroot(lambda r: mpmath.gammainc(4, 0, r, regularized=True) - u, x)
        else:
            root = mpmath.findroot(
                lambda r: mpmath.gammainc(4, r, mpmath.inf, regularized=True) - (1 - u), x)
        return float(abs(x - root)) / np.spacing(float(root))


class TestHiddenRateInverse:
    """The ge stream's Gamma(4, 1) quantile, inverted in numpy."""

    EPS = np.finfo(float).eps
    # both tails at the clipped uniforms' ends, and the two floats beside 1/2
    GRID = [1e-17, 1e-12, 1e-6, 0.5 - EPS / 4, 0.5, 0.5 + EPS / 2, 1 - 1e-10, 1 - 1e-16]

    def test_within_three_ulp_of_the_root(self):
        u = np.concatenate([self.GRID, np.random.default_rng(28).random(300)])
        x = _gamma4_quantile(u)
        ulps = [_gamma4_ulps(ui, xi) for ui, xi in zip(u, x)]
        assert max(ulps) <= 3.0, (max(ulps), u[int(np.argmax(ulps))])

    def test_increasing_in_u(self):
        u = np.sort(np.clip(np.random.default_rng(29).random(100_000), 1e-17, 1 - 1e-16))
        x = _gamma4_quantile(u)
        assert np.all(np.diff(x) > 0)
        # the roots at 1/2 and the next float lie 1.2 ulp apart: no order is
        # lost, though the two values may be one float
        assert np.all(np.diff(_gamma4_quantile(np.array(self.GRID))) >= 0)
