"""Closed-form rates for the jointly Gaussian model, plus a Monte Carlo
audit of the semantic-distortion decomposition.

All variables are zero-mean; ``var_*``/``cov_*`` are variances and
covariances (not standard deviations). The latent acts on the observation
only (chain s - x1 - (x2, y)) and the background is conditionally independent
of the observation given side information. Rates are in nats; use
``nats_to_bits`` for plotting parity with the discrete models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDistortionError, ProbabilityError
from .prob import check_int, check_real


def nats_to_bits(x: float) -> float:
    return x / math.log(2.0)


@dataclass(frozen=True)
class GaussianSpec:
    """Second-order description of (latent, observation, background, side info):
    finite reals (:mod:`semrd.prob`) stored as Python floats, the variances positive."""

    var_s: float
    var_x1: float
    var_x2: float
    var_y: float
    cov_sx1: float
    cov_x1y: float
    cov_x2y: float

    def __post_init__(self) -> None:
        for name in ("var_s", "var_x1", "var_x2", "var_y"):
            object.__setattr__(self, name, check_real(getattr(self, name), name, gt=0.0))
        for name, va, vb in (("cov_sx1", self.var_s, self.var_x1),
                             ("cov_x1y", self.var_x1, self.var_y),
                             ("cov_x2y", self.var_x2, self.var_y)):
            cov = check_real(getattr(self, name), name)
            object.__setattr__(self, name, cov)
            if cov * cov > va * vb:
                raise ProbabilityError(
                    f"{name}^2 = {cov * cov} exceeds {va * vb}; 2x2 block not PSD")


def mmse(spec: GaussianSpec) -> float:
    """Irreducible error of estimating the latent from the observation."""
    return spec.var_s - spec.cov_sx1**2 / spec.var_x1


def var_x1_given_y(spec: GaussianSpec) -> float:
    return spec.var_x1 - spec.cov_x1y**2 / spec.var_y


def var_x2_given_y(spec: GaussianSpec) -> float:
    return spec.var_x2 - spec.cov_x2y**2 / spec.var_y


def _half_log(ratio: float) -> float:
    """(1/2) ln(ratio), clamped at 0. A ratio of at most 1 gives 0 without
    taking the log: a ratio of 0 (a part known from y) has rate 0."""
    return 0.5 * math.log(ratio) if ratio > 1.0 else 0.0


def r_x2_given_y(spec: GaussianSpec, D2: float) -> float:
    """(1/2) ln(var(x2|y) / D2), clamped at 0. Nats."""
    D2 = check_real(D2, "D2", gt=0.0)
    return _half_log(var_x2_given_y(spec) / D2)


def r_x1_given_y(spec: GaussianSpec, D1: float) -> float:
    """(1/2) ln(var(x1|y) / D1), clamped at 0. Nats."""
    D1 = check_real(D1, "D1", gt=0.0)
    return _half_log(var_x1_given_y(spec) / D1)


def semantic_zero_rate_threshold(spec: GaussianSpec) -> float:
    """Semantic target above which no rate is needed for the latent:
    mmse + cov_sx1^2 var(x1|y) / var_x1^2."""
    return mmse(spec) + spec.cov_sx1**2 * var_x1_given_y(spec) / spec.var_x1**2


def _semantic_ratio(spec: GaussianSpec, Ds: float) -> tuple[float, float]:
    """(ratio, mmse), ratio = cov_sx1^2 var(x1|y) / (var_x1^2 (Ds - mmse)) the
    argument of the semantic term. Ds <= mmse is infeasible (no estimator
    beats the irreducible error)."""
    m = mmse(spec)
    Ds = check_real(Ds, "Ds")
    if Ds <= m:
        raise InfeasibleDistortionError(
            f"semantic target {Ds} does not exceed the estimation floor mmse={m}"
        )
    return spec.cov_sx1**2 * var_x1_given_y(spec) / (spec.var_x1**2 * (Ds - m)), m


def r_s_given_y(spec: GaussianSpec, Ds: float) -> float:
    """Rate of the latent-only constraint:
    (1/2) ln[cov_sx1^2 var(x1|y) / (var_x1^2 (Ds - mmse))], clamped at 0."""
    return _half_log(_semantic_ratio(spec, Ds)[0])


@dataclass(frozen=True)
class GaussianRDResult:
    rate_nats: float
    term_x1_branch: str  # "observation" or "semantic": which max argument won
    mmse: float


def gaussian_rate(spec: GaussianSpec, D1: float, D2: float, Ds: float) -> GaussianRDResult:
    """Total rate: background term plus the max of the observation and
    semantic terms, each clamped at zero. Nats."""
    D1 = check_real(D1, "D1", gt=0.0)
    D2 = check_real(D2, "D2", gt=0.0)
    arg_sem, m = _semantic_ratio(spec, Ds)
    arg_obs = var_x1_given_y(spec) / D1
    branch = "observation" if arg_obs >= arg_sem else "semantic"
    term_x1 = _half_log(max(arg_obs, arg_sem))
    rate = r_x2_given_y(spec, D2) + term_x1
    return GaussianRDResult(rate_nats=rate, term_x1_branch=branch, mmse=m)


def equal_rate_semantic_target(spec: GaussianSpec, D1: float) -> float:
    """Semantic target making the two x1-term arguments equal:
    Ds = mmse + (cov_sx1^2 / var_x1^2) D1. The locus separating the regimes
    where one constraint alone pins the rate."""
    D1 = check_real(D1, "D1", gt=0.0)
    return mmse(spec) + spec.cov_sx1**2 * D1 / spec.var_x1**2


# ---------------------------------------------------------------------------
# Monte Carlo audit


def sample_latent_observation_side(
    spec: GaussianSpec, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (s, x1, y) from the joint Gaussian; cov(s, y) follows from the
    latent chain: cov_sx1 * cov_x1y / var_x1."""
    cov_sy = spec.cov_sx1 * spec.cov_x1y / spec.var_x1
    cov = np.array(
        [
            [spec.var_s, spec.cov_sx1, cov_sy],
            [spec.cov_sx1, spec.var_x1, spec.cov_x1y],
            [cov_sy, spec.cov_x1y, spec.var_y],
        ]
    )
    eig_min = float(np.linalg.eigvalsh(cov).min())
    if eig_min < -1e-12:
        raise ProbabilityError(f"joint covariance not PSD (min eigenvalue {eig_min:.3e})")
    draws = rng.multivariate_normal(np.zeros(3), cov, size=n_samples, method="cholesky")
    return draws[:, 0], draws[:, 1], draws[:, 2]


@dataclass(frozen=True)
class MonteCarloCase:
    label: str
    semantic_distortion: float  # empirical E(s - shat)^2
    decomposition_residual: float  # |E[(s-shat)^2 - (stilde-shat)^2] - mmse|
    decomposition_tol: float  # 3 sampling standard deviations
    bound_value: float  # empirical side of the case inequality
    bound_limit: float  # analytic side
    bound_tol: float  # 3 sampling standard deviations
    passed: bool


@dataclass(frozen=True)
class MonteCarloReport:
    cases: tuple[MonteCarloCase, MonteCarloCase]
    passed: bool


def _three_sigma(samples: np.ndarray) -> float:
    return 3.0 * float(samples.std(ddof=1)) / math.sqrt(samples.size)


def monte_carlo_decomposition_check(
    spec: GaussianSpec,
    n_samples: int,
    seed: int,
    D1: float,
    Ds: float,
) -> MonteCarloReport:
    """Simulate both achievability estimator orders and check, within three
    sampling standard deviations each:

    * the decomposition E(s - shat)^2 = mmse + E(stilde - shat)^2, where
      stilde is the least-squares estimate of the latent from the observation;
    * observation-first: semantic distortion <= mmse + (cov/var)^2 D1;
    * semantic-first: observation distortion equals
      (var/cov)^2 (Ds - mmse), which must stay below D1.

    The generator is numpy's default PCG64 seeded with ``seed``; results are
    reproducible bit-for-bit for a fixed (seed, n_samples) in serial use.
    """
    n_samples = check_int(n_samples, "n_samples", 10_000)
    if spec.cov_sx1 == 0.0:
        raise ProbabilityError("cov_sx1 = 0 leaves the latent unobservable; no estimator order")
    m = mmse(spec)
    v1y = var_x1_given_y(spec)
    D1 = check_real(D1, "D1", gt=0.0)
    Ds = check_real(Ds, "Ds")
    if D1 > v1y:
        raise ProbabilityError(f"D1={D1} exceeds var(x1|y)={v1y}; no rate is needed there")
    if Ds <= m:
        raise InfeasibleDistortionError(f"Ds={Ds} does not exceed mmse={m}")
    c = spec.cov_sx1 / spec.var_x1
    sigma_tilde_y = c * c * v1y  # var of the latent estimate given side info
    if Ds - m > sigma_tilde_y:
        raise ProbabilityError(
            f"Ds={Ds} exceeds the zero-rate threshold {m + sigma_tilde_y}; "
            "the semantic-first channel is undefined there"
        )
    induced_d1 = (spec.var_x1**2 / spec.cov_sx1**2) * (Ds - m)
    if induced_d1 > D1 * (1.0 + 1e-9):
        raise ProbabilityError(
            f"semantic-first order induces observation distortion {induced_d1} > D1={D1}; "
            "pick (D1, Ds) with (Ds - mmse) var_x1^2 / cov_sx1^2 <= D1"
        )

    rng = np.random.default_rng(seed)
    s, x1, y = sample_latent_observation_side(spec, n_samples, rng)
    s_tilde = c * x1
    x1_bar = (spec.cov_x1y / spec.var_y) * y  # E[x1 | y]

    def _case(label: str, s_hat: np.ndarray, bound_samples: np.ndarray, bound_limit: float):
        sq = (s - s_hat) ** 2
        decomp = sq - (s_tilde - s_hat) ** 2
        resid = abs(float(decomp.mean()) - m)
        tol = _three_sigma(decomp)
        bval = float(bound_samples.mean())
        btol = _three_sigma(bound_samples)
        ok = resid <= tol and bval <= bound_limit + btol
        return MonteCarloCase(
            label=label,
            semantic_distortion=float(sq.mean()),
            decomposition_residual=resid,
            decomposition_tol=tol,
            bound_value=bval,
            bound_limit=bound_limit,
            bound_tol=btol,
            passed=ok,
        )

    # observation-first: x1hat through the distortion-D1 side-info channel
    alpha1 = 1.0 - D1 / v1y
    noise1 = rng.normal(0.0, math.sqrt(max(D1 * alpha1, 0.0)), size=n_samples)
    x1_hat = x1_bar + alpha1 * (x1 - x1_bar) + noise1
    s_hat_1 = c * x1_hat
    case1 = _case(
        "observation-first",
        s_hat_1,
        bound_samples=(s - s_hat_1) ** 2,
        bound_limit=m + c * c * D1,
    )

    # semantic-first: shat reconstructs the latent estimate at excess Ds - mmse
    s_tilde_bar = c * x1_bar
    alpha2 = 1.0 - (Ds - m) / sigma_tilde_y
    noise2 = rng.normal(0.0, math.sqrt(max((Ds - m) * alpha2, 0.0)), size=n_samples)
    s_hat_2 = s_tilde_bar + alpha2 * (s_tilde - s_tilde_bar) + noise2
    x1_hat_2 = s_hat_2 / c
    case2 = _case(
        "semantic-first",
        s_hat_2,
        bound_samples=(x1 - x1_hat_2) ** 2,
        bound_limit=D1,
    )
    return MonteCarloReport(
        cases=(case1, case2),
        passed=case1.passed and case2.passed,
    )
