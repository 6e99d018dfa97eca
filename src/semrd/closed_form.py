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
  through the observation, on the small-distortion region
  ``in_region_correlated``: min{D1, Ds0} <= p1 p2 and D2 <= p1. It is tight
  only where its noise construction also exists
  (``test_channels.correlated_construction_exists``), a lower bound elsewhere,
  so the router (``models.correlated_model``) serves it only there.
  ``correlated_expression`` is the expression without the region check.
* ``rate_classification`` -- integer observation in [1:N], binary parity
  semantics, on ``in_region_classification``: D1 <= 2(N-1)p2/N and
  D2 <= 0.5. The parity-split form: the semantic target limits only the
  parity flips of the observation error, a = min{Ds0, D1 N/(2(N-1))}.
"""

from __future__ import annotations

import math

from .errors import RegionError
from .prob import BinarySourceSpec, binary_entropy, check_real
from .semantic import ds0
from .sources import check_parity_n


def conditional_binary_rd(p0: float, D: float) -> float:
    """[h(p0) - h(D)] for 0 <= D <= p0, else 0."""
    p0 = check_real(p0, "p0", 0.0, 0.5)
    D = check_real(D, "D", 0.0)
    if D > p0:
        return 0.0
    return binary_entropy(p0) - binary_entropy(D)


def semantic_binary_rd(p: float, Ds: float) -> float:
    """[1 - h((Ds - p)/(1 - 2p))] for p <= Ds <= 0.5; 0 above; infeasible below p.

    A target below p is unattainable by any code: even a lossless copy of the
    observation leaves residual semantic distortion p.
    """
    Ds = check_real(Ds, "Ds", 0.0)
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
    D1 = check_real(D1, "D1", 0.0)
    D2 = check_real(D2, "D2", 0.0)
    Ds = check_real(Ds, "Ds", 0.0)
    m = effective_observation_distortion(spec.p, D1, Ds)
    term_x2 = binary_entropy(spec.p3) - binary_entropy(D2) if D2 <= spec.p3 else 0.0
    term_x1 = binary_entropy(spec.p2) - binary_entropy(m) if m <= spec.p2 else 0.0
    return term_x2 + term_x1


def in_region_correlated(spec: BinarySourceSpec, D1: float, D2: float, Ds: float) -> bool:
    """Small-distortion region of the correlated model:
    min{D1, Ds0} <= p1*p2 and D2 <= p1 (all nonnegative)."""
    spec.require("p", "p1", "p2")
    D1 = check_real(D1, "D1", 0.0)
    D2 = check_real(D2, "D2", 0.0)
    Ds = check_real(Ds, "Ds", 0.0)
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


def classification_region_bound(p2: float, N: int) -> float:
    """Upper limit 2(N-1)p2/N on D1 for the integer-parity model."""
    return 2.0 * (N - 1) * p2 / N


def in_region_classification(
    p: float, p2: float, N: int, D1: float, D2: float, Ds: float
) -> bool:
    """D1 <= 2(N-1)p2/N and D2 <= 0.5 (all nonnegative, Ds >= p). The bound
    holds on D1 itself: the semantic target limits only the parity part of
    the observation error, so a small Ds0 does not admit a larger D1."""
    bound = classification_region_bound(check_real(p2, "p2", 0.0, 0.5), check_parity_n(N, "N"))
    D1 = check_real(D1, "D1", 0.0)
    D2 = check_real(D2, "D2", 0.0)
    ds0(check_real(Ds, "Ds", 0.0), p)  # checks p; raises for Ds < p
    return D1 <= bound and D2 <= 0.5


def rate_classification(
    p: float, p2: float, N: int, D1: float, D2: float, Ds: float
) -> float:
    """h(p2) + log2(N/2) - H(X1|X1h) + [1 - h(D2)], the parity-split form, where

    H(X1|X1h) = H(1-D1, a, D1-a) + a log2(N/2) + (D1-a) log2(N/2-1) and
    a = min{Ds0, D1 N/(2(N-1))}.

    Given the reproduction X1h (and Y), X1's error has three parts: a parity
    flip with probability a, uniform over the N/2 opposite-parity symbols; a
    same-parity change with probability D1 - a, uniform over the N/2 - 1
    others; and no change otherwise. The semantic target bounds only the
    parity flips (a <= Ds0); at a = D1 N/(2(N-1)) the error is uniform over
    the N - 1 other symbols and the x1 term is h(p2) + log2(N/2) - h(D1) -
    D1 log2(N-1). ``test_channels.build_classification_channel`` realizes it.
    """
    if not in_region_classification(p, p2, N, D1, D2, Ds):
        raise RegionError(
            f"(D1={D1}, D2={D2}, Ds={Ds}) lies outside the proven region "
            f"(D1 <= {classification_region_bound(p2, N)}, D2 <= 0.5); "
            "use the numerical solver for this point"
        )
    D1, N = float(D1), int(N)  # both checked by the region test
    a = min(ds0(Ds, p), D1 * N / (2.0 * (N - 1)))
    error = (-sum(q * math.log2(q) for q in (1.0 - D1, a, D1 - a) if q > 0.0)
             + a * math.log2(N / 2) + (D1 - a) * math.log2(N / 2 - 1))
    return binary_entropy(p2) + math.log2(N / 2) - error + 1.0 - binary_entropy(D2)
