"""Gaussian-model tests: closed forms, structure, and the Monte Carlo audit."""

import math

import numpy as np
import pytest

from semrd.errors import InfeasibleDistortionError, ProbabilityError
from semrd.gaussian import (
    GaussianSpec,
    equal_rate_semantic_target,
    gaussian_rate,
    mmse,
    monte_carlo_decomposition_check,
    nats_to_bits,
    r_s_given_y,
    r_x1_given_y,
    r_x2_given_y,
    sample_latent_observation_side,
    semantic_zero_rate_threshold,
    var_x1_given_y,
    var_x2_given_y,
)

STD = GaussianSpec(
    var_s=2.0, var_x1=2.0, var_x2=2.0, var_y=2.0, cov_sx1=1.0, cov_x1y=1.0, cov_x2y=1.0
)
HALF_LN_1_5 = 0.202732554054082  # (1/2) ln 1.5
HALF_LN_3_75 = 0.660877919991048  # (1/2) ln 3.75


class TestSpecValidation:
    def test_psd_rejection(self):
        with pytest.raises(ProbabilityError, match="PSD"):
            GaussianSpec(1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 0.0)

    def test_positive_variances(self):
        with pytest.raises(ProbabilityError):
            GaussianSpec(0.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0)

    def test_boundary_cov_allowed(self):
        GaussianSpec(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5)


class TestMmse:
    def test_standard(self):
        assert mmse(STD) == pytest.approx(1.5, abs=1e-15)

    def test_perfect_observability(self):
        spec = GaussianSpec(2.0, 2.0, 1.0, 1.0, 2.0, 0.0, 0.0)
        assert mmse(spec) == pytest.approx(0.0, abs=1e-15)

    def test_uninformative(self):
        spec = GaussianSpec(3.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        assert mmse(spec) == pytest.approx(3.0, abs=1e-15)


class TestBackgroundRate:
    def test_frozen_value(self):
        assert r_x2_given_y(STD, 1.0) == pytest.approx(HALF_LN_1_5, abs=1e-12)

    def test_clamp_boundary(self):
        assert r_x2_given_y(STD, var_x2_given_y(STD)) == 0.0
        assert r_x2_given_y(STD, 3.0) == 0.0

    def test_one_nat(self):
        d2 = var_x2_given_y(STD) / math.e**2
        assert r_x2_given_y(STD, d2) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ProbabilityError):
            r_x2_given_y(STD, 0.0)


class TestSemanticRate:
    def test_frozen_value(self):
        assert r_s_given_y(STD, 1.6) == pytest.approx(HALF_LN_3_75, abs=1e-12)

    def test_threshold_exact_zero(self):
        assert semantic_zero_rate_threshold(STD) == pytest.approx(1.875, abs=1e-15)
        assert r_s_given_y(STD, 1.875) == 0.0

    def test_vanishing_excess_reported_unbounded(self):
        assert math.isfinite(r_s_given_y(STD, 1.5 + 1e-12))

    def test_infeasible(self):
        with pytest.raises(InfeasibleDistortionError):
            r_s_given_y(STD, 1.5)
        with pytest.raises(InfeasibleDistortionError):
            r_s_given_y(STD, 1.2)


class TestGaussianRate:
    def test_parts_known_from_side_information_have_rate_zero(self):
        # cov^2 = var * var: x1 and x2 are functions of y
        spec = GaussianSpec(
            var_s=2.0, var_x1=1.0, var_x2=1.0, var_y=1.0, cov_sx1=1.0, cov_x1y=1.0, cov_x2y=1.0
        )
        assert var_x1_given_y(spec) == var_x2_given_y(spec) == 0.0
        assert r_x1_given_y(spec, 0.5) == r_x2_given_y(spec, 1.0) == 0.0
        assert gaussian_rate(spec, 0.5, 1.0, 1.5).rate_nats == 0.0

    def test_background_only(self):
        res = gaussian_rate(STD, 1.5, 1.0, 1.9)
        assert res.rate_nats == pytest.approx(HALF_LN_1_5, abs=1e-12)
        assert nats_to_bits(res.rate_nats) == pytest.approx(HALF_LN_1_5 / math.log(2), abs=1e-12)

    def test_observation_branch_value(self):
        res = gaussian_rate(STD, 0.5, 1.0, 1.9)
        assert res.rate_nats == pytest.approx(0.5 * math.log(3.0) + HALF_LN_1_5, abs=1e-12)
        assert res.term_x1_branch == "observation"
        assert res.mmse == pytest.approx(1.5, abs=1e-15)

    def test_semantic_branch_recorded(self):
        res = gaussian_rate(STD, 1.4, 1.0, 1.55)
        assert res.term_x1_branch == "semantic"
        assert res.rate_nats == pytest.approx(HALF_LN_1_5 + r_s_given_y(STD, 1.55), abs=1e-12)

    def test_all_slack_zero(self):
        res = gaussian_rate(STD, 1.6, 1.6, 1.9)
        assert res.rate_nats == 0.0

    def test_structural_identity(self):
        for d1 in np.linspace(0.2, 1.8, 6):
            for d2 in np.linspace(0.3, 1.8, 5):
                for ds in np.linspace(1.52, 1.95, 5):
                    res = gaussian_rate(STD, float(d1), float(d2), float(ds))
                    composed = r_x2_given_y(STD, float(d2)) + max(
                        r_x1_given_y(STD, float(d1)), r_s_given_y(STD, float(ds))
                    )
                    assert res.rate_nats == pytest.approx(composed, abs=1e-12)

    def test_monotone_and_convex_on_interior(self):
        ds = 1.6
        d2 = 1.0
        grid = np.linspace(0.2, 1.2, 21)
        rates = [gaussian_rate(STD, float(d1), d2, ds).rate_nats for d1 in grid]
        for lo, hi in zip(rates, rates[1:]):
            assert hi <= lo + 1e-12
        second = np.diff(rates, 2)
        assert float(second.min()) >= -1e-9

    def test_infeasible_semantic(self):
        with pytest.raises(InfeasibleDistortionError):
            gaussian_rate(STD, 0.5, 1.0, 1.5)

    def test_domain(self):
        with pytest.raises(ProbabilityError):
            gaussian_rate(STD, 0.0, 1.0, 1.6)

    def test_bool_rejected(self):
        # True == 1 would pass every range test below
        with pytest.raises(ProbabilityError, match="D1"):
            gaussian_rate(STD, True, 1.0, 1.6)
        with pytest.raises(ProbabilityError, match="Ds"):
            gaussian_rate(STD, 0.5, 1.0, True)

    def test_equal_rate_locus(self):
        assert equal_rate_semantic_target(STD, 1.0) == pytest.approx(1.75, abs=1e-15)
        # on the locus both x1-term arguments coincide
        d1 = 0.8
        ds = equal_rate_semantic_target(STD, d1)
        assert r_x1_given_y(STD, d1) == pytest.approx(r_s_given_y(STD, ds), abs=1e-12)


class TestSampling:
    def test_empirical_covariance(self):
        rng = np.random.default_rng(11)
        s, x1, y = sample_latent_observation_side(STD, 200_000, rng)
        assert np.cov(s, x1)[0, 1] == pytest.approx(1.0, abs=0.03)
        assert np.cov(x1, y)[0, 1] == pytest.approx(1.0, abs=0.03)
        # latent chain fill-in: cov(s, y) = cov_sx1 cov_x1y / var_x1
        assert np.cov(s, y)[0, 1] == pytest.approx(0.5, abs=0.03)

    def test_mmse_estimator_floor(self):
        rng = np.random.default_rng(23)
        s, x1, _y = sample_latent_observation_side(STD, 200_000, rng)
        s_tilde = 0.5 * x1
        emp = float(((s - s_tilde) ** 2).mean())
        assert emp == pytest.approx(1.5, abs=0.02)


class TestMonteCarloCheck:
    def test_standard_run_passes(self):
        rep = monte_carlo_decomposition_check(STD, 100_000, seed=7, D1=1.0, Ds=1.7)
        assert rep.passed
        for case in rep.cases:
            assert case.decomposition_residual <= case.decomposition_tol
            assert case.bound_value <= case.bound_limit + case.bound_tol

    def test_case_targets_hit(self):
        rep = monte_carlo_decomposition_check(STD, 200_000, seed=3, D1=1.0, Ds=1.7)
        obs_first, sem_first = rep.cases
        # observation-first semantic distortion approaches mmse + (cov/var)^2 D1
        assert obs_first.semantic_distortion == pytest.approx(1.75, abs=0.02)
        # semantic-first hits the semantic target itself
        assert sem_first.semantic_distortion == pytest.approx(1.7, abs=0.02)

    def test_sample_floor(self):
        with pytest.raises(ProbabilityError, match="n_samples"):
            monte_carlo_decomposition_check(STD, 100, seed=1, D1=1.0, Ds=1.7)

    def test_applicability_guards(self):
        with pytest.raises(ProbabilityError, match="zero-rate threshold"):
            monte_carlo_decomposition_check(STD, 10_000, seed=1, D1=1.0, Ds=1.9)
        with pytest.raises(ProbabilityError, match="induces"):
            monte_carlo_decomposition_check(STD, 10_000, seed=1, D1=0.5, Ds=1.7)
        with pytest.raises(InfeasibleDistortionError):
            monte_carlo_decomposition_check(STD, 10_000, seed=1, D1=1.0, Ds=1.4)

    def test_determinism(self):
        a = monte_carlo_decomposition_check(STD, 20_000, seed=5, D1=1.0, Ds=1.7)
        b = monte_carlo_decomposition_check(STD, 20_000, seed=5, D1=1.0, Ds=1.7)
        assert a.cases[0].semantic_distortion == b.cases[0].semantic_distortion
