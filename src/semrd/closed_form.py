"""Closed-form rate-distortion evaluators for the binary and integer models.

All rates are in bits. Each evaluator is exact on its stated validity region
and raises :class:`RegionError` outside it instead of extrapolating; figure
and sweep code routes out-of-region points to the numerical solver.

Model summary (all distortions Hamming):

* ``conditional_binary_rd`` -- one binary source with two-sided side
  information, the pair doubly symmetric with crossover p0.
* ``semantic_binary_rd`` -- reconstruct only the latent binary variable seen
  through a crossover-p observation channel.
* ``rate_conditionally_independent`` -- observation + background independent
  given side information (separate compression is optimal).
* ``rate_correlated`` -- side information coupled to the background only
  through the observation; proven on the small-distortion region
  ``in_region_correlated``. ``correlated_expression`` is the same
  expression without the region check, for comparison columns only.
* ``rate_classification`` -- integer observation in [1:N], binary parity
  semantics; proven on ``in_region_classification``.
"""

from __future__ import annotations

import math

from .errors import ProbabilityError, RegionError
from .prob import BinarySourceSpec, binary_entropy, is_finite_real
from .semantic import ds0


def _check_distortion(name: str, value: float) -> float:
    if not is_finite_real(value) or value < 0.0:
        raise ProbabilityError(f"{name} must be a finite nonnegative real, got {value!r}")
    return float(value)


def conditional_binary_rd(p0: float, D: float) -> float:
    """[h(p0) - h(D)] for 0 <= D <= p0, else 0."""
    if not is_finite_real(p0) or p0 < 0.0 or p0 > 0.5:
        raise ProbabilityError(f"p0 must lie in [0, 0.5], got {p0!r}")
    D = _check_distortion("D", D)
    if D > p0:
        return 0.0
    return binary_entropy(p0) - binary_entropy(D)


def semantic_binary_rd(p: float, Ds: float) -> float:
    """[1 - h((Ds - p)/(1 - 2p))] for p <= Ds <= 0.5; 0 above; infeasible below p.

    A target below p is unattainable by any code: even a lossless copy of the
    observation leaves residual semantic distortion p.
    """
    Ds = _check_distortion("Ds", Ds)
    if Ds > 0.5:
        return 0.0
    d0 = ds0(Ds, p)  # raises InfeasibleDistortionError for Ds < p
    return 1.0 - binary_entropy(d0)


def effective_observation_distortion(spec_p: float, D1: float, Ds: float) -> float:
    """min{D1, Ds0} -- the single observation-level target that both the
    reconstruction and the semantic constraint reduce to."""
    return min(D1, ds0(Ds, spec_p))


def rate_conditionally_independent(
    spec: BinarySourceSpec, D1: float, D2: float, Ds: float
) -> float:
    """Sum of the two side-information rates for the independent-parts model.

    Needs spec fields p, p2, p3 (p1 is implied by the Markov structure).
    """
    spec.require("p", "p2", "p3")
    D1 = _check_distortion("D1", D1)
    D2 = _check_distortion("D2", D2)
    Ds = _check_distortion("Ds", Ds)
    m = effective_observation_distortion(spec.p, D1, Ds)
    term_x2 = binary_entropy(spec.p3) - binary_entropy(D2) if D2 <= spec.p3 else 0.0
    term_x1 = binary_entropy(spec.p2) - binary_entropy(m) if m <= spec.p2 else 0.0
    return term_x2 + term_x1


def in_region_correlated(spec: BinarySourceSpec, D1: float, D2: float, Ds: float) -> bool:
    """Small-distortion region of the correlated model:
    min{D1, Ds0} <= p1*p2 and D2 <= p1 (all nonnegative)."""
    spec.require("p", "p1", "p2")
    D1 = _check_distortion("D1", D1)
    D2 = _check_distortion("D2", D2)
    Ds = _check_distortion("Ds", Ds)
    m = effective_observation_distortion(spec.p, D1, Ds)
    return 0.0 <= m <= spec.p1 * spec.p2 and 0.0 <= D2 <= spec.p1


def correlated_expression(spec: BinarySourceSpec, D1: float, D2: float, Ds: float) -> float:
    """h(p1) + h(p2) - h(min{D1, Ds0}) - h(D2), evaluated at any target: the
    correlated model's rate on its region (see :func:`rate_correlated`), an
    unchecked expression elsewhere."""
    m = effective_observation_distortion(spec.p, D1, Ds)
    return (
        binary_entropy(spec.p1)
        + binary_entropy(spec.p2)
        - binary_entropy(m)
        - binary_entropy(D2)
    )


def rate_correlated(spec: BinarySourceSpec, D1: float, D2: float, Ds: float) -> float:
    """h(p1) + h(p2) - h(min{D1, Ds0}) - h(D2) on the small-distortion region."""
    if not in_region_correlated(spec, D1, D2, Ds):
        raise RegionError(
            f"(D1={D1}, D2={D2}, Ds={Ds}) lies outside the proven region "
            f"(min{{D1, Ds0}} <= {spec.p1 * spec.p2}, D2 <= {spec.p1}); "
            "use the numerical solver for this point"
        )
    return correlated_expression(spec, D1, D2, Ds)


def _check_classification_params(p: float, p2: float, N: int) -> None:
    for name, v in (("p", p), ("p2", p2)):
        if not is_finite_real(v) or v < 0.0 or v > 0.5:
            raise ProbabilityError(f"{name} must lie in [0, 0.5], got {v!r}")
    if not isinstance(N, int) or N < 4 or N % 2 != 0:
        raise ProbabilityError(f"N must be an even integer >= 4, got {N!r}")


def classification_region_bound(p2: float, N: int) -> float:
    """Upper limit 2(N-1)p2/N on min{D1, Ds0} for the integer-parity model."""
    return 2.0 * (N - 1) * p2 / N


def in_region_classification(
    p: float, p2: float, N: int, D1: float, D2: float, Ds: float
) -> bool:
    """min{D1, Ds0} <= 2(N-1)p2/N and D2 <= 0.5 (all nonnegative)."""
    _check_classification_params(p, p2, N)
    D1 = _check_distortion("D1", D1)
    D2 = _check_distortion("D2", D2)
    Ds = _check_distortion("Ds", Ds)
    m = effective_observation_distortion(p, D1, Ds)
    return 0.0 <= m <= classification_region_bound(p2, N) and 0.0 <= D2 <= 0.5


def rate_classification(
    p: float, p2: float, N: int, D1: float, D2: float, Ds: float
) -> float:
    """[h(p2) + log2(N/2) - h(min{D1, Ds0}) - D1 log2(N-1)] + [1 - h(D2)].

    Transcribed literally: the linear term uses D1 itself even when Ds0 is the
    smaller of the pair. On the Ds0 < D1 subregion the expression is therefore
    a transcription, not an independently verified value; cross-checks against
    the numerical solver report the gap there rather than asserting it away.
    """
    if not in_region_classification(p, p2, N, D1, D2, Ds):
        raise RegionError(
            f"(D1={D1}, D2={D2}, Ds={Ds}) lies outside the proven region "
            f"(min{{D1, Ds0}} <= {classification_region_bound(p2, N)}, D2 <= 0.5); "
            "use the numerical solver for this point"
        )
    m = effective_observation_distortion(p, D1, Ds)
    term_x1 = (
        binary_entropy(p2)
        + math.log2(N / 2)
        - binary_entropy(m)
        - D1 * math.log2(N - 1)
    )
    term_x2 = 1.0 - binary_entropy(D2)
    return term_x1 + term_x2
