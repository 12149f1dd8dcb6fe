"""Tests for Algorithm 3 (Tradeoff)."""

import pytest

from repro.algorithms.tradeoff import Tradeoff
from repro.exceptions import ParameterError
from repro.model.machine import MulticoreMachine
from repro.numerics.executor import verify_schedule
from repro.sim.runner import run_experiment
from repro.sim.sweep import order_sweep


class TestParameters:
    def test_defaults_from_bandwidths(self, paper_q32):
        alg = Tradeoff(paper_q32, 48, 48, 48)
        params = alg.parameters()
        # alpha_num(q32, sigmaS=sigmaD=1, p=4) ~ 23.02 -> alpha = 16
        assert params["alpha"] == 16
        assert params["mu"] == 4
        assert params["alpha_num"] == pytest.approx(23.02, abs=0.01)
        # capacity constraint holds
        a, b = params["alpha"], params["beta"]
        assert a * a + 2 * a * b <= paper_q32.cs

    def test_alpha_must_be_multiple_of_grid_mu(self, quad):
        with pytest.raises(ParameterError):
            Tradeoff(quad, 8, 8, 8, alpha=6, mu=4)  # 6 not multiple of 8

    def test_capacity_constraint_enforced(self, quad):
        # CS=100: alpha=8, beta=4, mu=4 -> 64 + 64 = 128 > 100
        with pytest.raises(ParameterError):
            Tradeoff(quad, 8, 8, 8, alpha=8, beta=4, mu=4)

    def test_mu_capacity_check(self, quad):
        with pytest.raises(ParameterError):
            Tradeoff(quad, 8, 8, 8, alpha=10, beta=1, mu=5)

    def test_beta_default_maximal(self, paper_q32):
        alg = Tradeoff(paper_q32, 16, 16, 16, alpha=16)
        # beta = floor((977 - 256) / 32) = 22
        assert alg.beta == 22

    def test_beta_without_alpha_rejected(self, paper_q32):
        # The optimizer picks beta with alpha; silently replacing the
        # override would simulate the default plan under a beta=3 label.
        with pytest.raises(ParameterError, match="pass alpha too"):
            Tradeoff(paper_q32, 8, 8, 8, beta=3)
        with pytest.raises(ParameterError, match="pass alpha too"):
            order_sweep([("tradeoff", "ideal", {"beta": 3})], paper_q32, [8])

    def test_single_subblock_flag(self, paper_q32):
        assert Tradeoff(paper_q32, 8, 8, 8, alpha=8, beta=4, mu=4).single_subblock
        assert not Tradeoff(paper_q32, 16, 16, 16, alpha=16, beta=4, mu=4).single_subblock


class TestIdealCounts:
    def test_general_case_formulas(self, paper_q32):
        # alpha=16 > sqrt(p)*mu=8; beta=4 divides z=16
        r = run_experiment(
            "tradeoff", paper_q32, 16, 16, 16, "ideal", check=True,
            alpha=16, beta=4, mu=4,
        )
        m = n = z = 16
        assert r.ms == m * n + 2 * m * n * z // 16
        assert r.md == (m * n // 4) * (z // 4) + 2 * m * n * z // (4 * 4)
        assert r.md == r.predicted.md

    def test_degenerate_case_matches_distributed_opt(self, paper_q32):
        # alpha = sqrt(p)*mu: C term falls to mn/p
        r = run_experiment(
            "tradeoff", paper_q32, 16, 16, 16, "ideal", check=True,
            alpha=8, beta=8, mu=4,
        )
        d = run_experiment(
            "distributed-opt", paper_q32, 16, 16, 16, "ideal", check=True, mu=4
        )
        assert r.md == d.md

    def test_beta_not_dividing_z(self, paper_q32):
        # z=10, beta=4 -> ceil(10/4)=3 substeps; MS stays exact.
        r = run_experiment(
            "tradeoff", paper_q32, 16, 16, 10, "ideal", check=True,
            alpha=16, beta=4, mu=4,
        )
        assert r.ms == 16 * 16 + 2 * 16 * 16 * 10 // 16
        assert r.md == r.predicted.md

    def test_ragged_all_dims_checked(self, paper_q32):
        run_experiment(
            "tradeoff", paper_q32, 13, 11, 7, "ideal", check=True,
            alpha=16, beta=4, mu=4,
        )


class TestBandwidthAdaptation:
    def test_fast_distributed_gives_shared_like_alpha(self, paper_q32):
        # sigma_d >> sigma_s: alpha grows toward alpha_max
        m = paper_q32.with_bandwidth_ratio(0.01)
        fast_d = Tradeoff(m, 48, 48, 48)
        slow_d = Tradeoff(paper_q32.with_bandwidth_ratio(0.99), 48, 48, 48)
        assert fast_d.alpha > slow_d.alpha
        # Extreme slow distributed cache: minimal tile sqrt(p)*mu
        assert slow_d.alpha == 2 * slow_d.mu

    def test_equal_bandwidths_alpha_num(self, paper_q32):
        from repro.analysis.tradeoff_opt import alpha_num

        # rho = p = 4 here (sigma equal), not the singular case
        assert alpha_num(paper_q32) == pytest.approx(23.02, abs=0.01)


class TestNumeric:
    @pytest.mark.parametrize(
        "dims", [(16, 16, 16), (8, 8, 8), (7, 5, 9), (20, 12, 6)]
    )
    def test_computes_product(self, paper_q32, dims):
        verify_schedule(Tradeoff(paper_q32, *dims, alpha=8, beta=8, mu=4), q=3)

    def test_computes_product_general_case(self, paper_q32):
        verify_schedule(Tradeoff(paper_q32, 16, 16, 16, alpha=16, beta=4, mu=4), q=3)

    def test_single_core(self, unicore):
        verify_schedule(Tradeoff(unicore, 6, 6, 6), q=2)
