"""Explicit achievability constructions for the binary and integer models.

These single-letter test channels realize the closed-form rates exactly (up
to float error), so they double as an independent check on both the closed
forms and the numerical solver. Construction happens in XOR-transformed
coordinates for the correlated model: with z_i = y XOR x_i and
zhat_i = y XOR xhat_i, the source noise pair (z1, z2) has the product-form
law ``correlated_noise_law`` and the channel flips the two coordinates
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProbabilityError, RegionError
from .prob import Alphabet, BinarySourceSpec, DistortionMatrix, JointPMF, check_real
from .semantic import ds0
from .sources import (
    S_HAT,
    X1,
    X1_HAT,
    X2,
    X2_HAT,
    Y,
    check_parity_n,
    parity_bit,
)
from .closed_form import classification_region_bound, in_region_correlated

Q_NEGATIVE_DUST = -1e-12
DEGENERATE_FLIP_TOL = 1e-9


def correlated_noise_law(p1: float, p2: float) -> np.ndarray:
    """Law of the XOR noise pair (z1, z2) over {00, 01, 10, 11}:
    [(1-p1)(1-p2), p1(1-p2), p1 p2, (1-p1) p2].

    Equivalently z1 ~ Ber(p2) and z1 XOR z2 ~ Ber(p1), independent."""
    return np.array(
        [
            (1.0 - p1) * (1.0 - p2),
            p1 * (1.0 - p2),
            p1 * p2,
            (1.0 - p1) * p2,
        ]
    )


def correlated_q_unclipped(p1: float, p2: float, D1: float, D2: float) -> np.ndarray:
    """The reproduction-noise law of :func:`correlated_q_vector` as the
    channel inversion gives it: entries may be negative, where the
    construction does not exist."""
    for name, dd in (("D1", D1), ("D2", D2)):
        if abs(1.0 - 2.0 * dd) < DEGENERATE_FLIP_TOL:
            raise ProbabilityError(
                f"{name}={dd} makes the channel inversion degenerate (flip prob ~ 0.5)"
            )
    denom = (1.0 - 2.0 * D1) * (1.0 - 2.0 * D2)
    u = (1.0 - p2) - D1
    v = p2 - D1
    a = (1.0 - p1 - p2 + 2.0 * p1 * p2) - D2
    b = (p1 + p2 - 2.0 * p1 * p2) - D2
    w = p2 * (1.0 - 2.0 * p1) * (1.0 - p2)
    return np.array([u * a + w, u * b - w, v * a - w, v * b + w]) / denom


def correlated_construction_exists(p1: float, p2: float, D1: float, D2: float) -> bool:
    """Whether the construction exists at (D1, D2), i.e. :func:`correlated_q_vector`
    returns a law: the inversion is not degenerate and its law is nonnegative up to dust."""
    try:
        return float(correlated_q_unclipped(p1, p2, D1, D2).min()) >= Q_NEGATIVE_DUST
    except ProbabilityError:
        return False


def correlated_q_vector(p1: float, p2: float, D1: float, D2: float) -> np.ndarray:
    """Reproduction-noise law (zhat1, zhat2) ~ (q1, q2, q3, q4) that makes the
    independent-flip channel reproduce ``correlated_noise_law``.

    Entries can carry float dust slightly below zero at region boundaries;
    dust above ``Q_NEGATIVE_DUST`` is clipped and the vector renormalized,
    anything lower raises RegionError.
    """
    q = correlated_q_unclipped(p1, p2, D1, D2)
    if float(q.min()) < Q_NEGATIVE_DUST:
        raise RegionError(
            f"reproduction-noise law has negative entry {float(q.min()):.3e}; "
            f"(D1={D1}, D2={D2}) lies outside the construction's validity region"
        )
    q = np.where(q < 0.0, 0.0, q)
    return q / q.sum()


@dataclass(frozen=True)
class CorrelatedBinaryChannel:
    """Achievability distribution for the correlated binary model."""

    p: float
    p1: float
    p2: float
    effective_d1: float  # min(D1, Ds0): flip probability of the first coordinate
    role_switched: bool  # True when the semantic target was the binding one
    q: np.ndarray
    joint: JointPMF


def build_correlated_binary_channel(
    p: float, p1: float, p2: float, D1: float, D2: float, Ds: float
) -> CorrelatedBinaryChannel:
    """Construct the correlated-model test channel meeting (D1, D2, Ds).

    The semantic reproduction always copies the observation reproduction.
    When Ds0 < D1 the roles of the observation target and the transformed
    semantic target are switched: the first coordinate is built at flip
    probability Ds0, which then meets both constraints.
    """
    spec = BinarySourceSpec.correlated(p=p, p1=p1, p2=p2)
    if not in_region_correlated(spec, D1, D2, Ds):
        raise RegionError(
            f"(D1={D1}, D2={D2}, Ds={Ds}) lies outside the correlated model's "
            "small-distortion region"
        )
    d0 = ds0(Ds, p)
    role_switched = d0 < D1
    flip1 = min(D1, d0)
    q = correlated_q_vector(p1, p2, flip1, D2)

    k1 = np.array([[1.0 - flip1, flip1], [flip1, 1.0 - flip1]])
    k2 = np.array([[1.0 - D2, D2], [D2, 1.0 - D2]])
    probs = np.zeros((2, 2, 2, 2, 2, 2))  # (x1, x2, y, x1h, x2h, sh)
    for y in range(2):
        for zh1 in range(2):
            for zh2 in range(2):
                mass = 0.5 * q[zh1 * 2 + zh2]
                x1h = y ^ zh1
                x2h = y ^ zh2
                for z1 in range(2):
                    for z2 in range(2):
                        probs[y ^ z1, y ^ z2, y, x1h, x2h, x1h] += (
                            mass * k1[zh1, z1] * k2[zh2, z2]
                        )
    axes = (
        Alphabet.binary(X1),
        Alphabet.binary(X2),
        Alphabet.binary(Y),
        Alphabet.binary(X1_HAT),
        Alphabet.binary(X2_HAT),
        Alphabet.binary(S_HAT),
    )
    return CorrelatedBinaryChannel(
        p=p,
        p1=p1,
        p2=p2,
        effective_d1=flip1,
        role_switched=role_switched,
        q=q,
        joint=JointPMF(axes, probs),
    )


@dataclass(frozen=True)
class ClassificationChannel:
    """Achievability distribution for the integer-parity model (observation
    part only; the background bit separates off)."""

    p2: float
    n: int
    p_y_given_x1_hat: np.ndarray  # shape (2, n)
    joint: JointPMF  # axes (x1, y, x1_hat, s_hat), s_hat = parity(x1_hat)


def build_classification_channel(
    p2: float, n: int, D1: float, a: float | None = None
) -> ClassificationChannel:
    """The parity-split backward channel of ``closed_form.rate_classification``.

    The reproduction is uniform on [1:n]. Given it, X1 flips parity with
    probability ``a``, uniform over the n/2 opposite-parity symbols; changes
    within its parity class with probability D1 - a, uniform over the
    n/2 - 1 others; and stays otherwise. ``a`` lies in [0, D1 n/(2(n-1))] and
    defaults to its top, where the error is uniform over the n - 1 other
    symbols. Side info is attached through the reproduction's parity, with
    the crossover that makes it a crossover-p2 view of X1's parity.
    """
    n = check_parity_n(n, "n")
    bound = classification_region_bound(p2, n)
    if D1 < 0.0 or D1 > bound:
        raise RegionError(
            f"D1={D1} outside [0, {bound}]: the side-information table would go negative"
        )
    t = n * D1 / (2.0 * (n - 1.0))
    a = t if a is None else check_real(a, "a", 0.0, t)
    denom = 1.0 - 2.0 * a
    if denom < DEGENERATE_FLIP_TOL:
        raise ProbabilityError(f"D1={D1} makes the side-information table degenerate")
    mismatch = (p2 - a) / denom
    match = (1.0 - p2 - a) / denom
    if mismatch < Q_NEGATIVE_DUST:
        raise RegionError(f"side-information table entry {mismatch:.3e} is negative")
    mismatch = max(mismatch, 0.0)

    parity = np.array([parity_bit(j + 1) for j in range(n)])
    p_y_given_x1h = np.where(np.arange(2)[:, None] == parity[None, :], match, mismatch)
    same = parity[:, None] == parity[None, :]
    x1_channel = np.where(same, (D1 - a) / (n / 2 - 1.0), a / (n / 2))
    np.fill_diagonal(x1_channel, 1.0 - D1)

    probs = np.zeros((n, 2, n, 2))  # (x1, y, x1h, sh)
    for j in range(n):
        for y in range(2):
            probs[:, y, j, parity[j]] = (1.0 / n) * p_y_given_x1h[y, j] * x1_channel[j, :]
    axes = (
        Alphabet.integers(X1, n),
        Alphabet.binary(Y),
        Alphabet.integers(X1_HAT, n),
        Alphabet.binary(S_HAT),
    )
    return ClassificationChannel(
        p2=p2,
        n=n,
        p_y_given_x1_hat=p_y_given_x1h,
        joint=JointPMF(axes, probs),
    )


@dataclass(frozen=True)
class AchievabilityReport:
    marginal_residual: float
    achieved: tuple[float | None, float | None, float | None]
    rate: float
    rate_gap: float


def verify_achievability(
    joint: JointPMF,
    source: JointPMF,
    expected_rate: float,
    d1: DistortionMatrix | None = None,
    d2: DistortionMatrix | None = None,
    ds_mod: DistortionMatrix | None = None,
) -> AchievabilityReport:
    """Audit a candidate achievability joint.

    Checks (a) the induced source marginal against the declared law, (b) the
    expected distortions for whichever tables are supplied, and (c) the
    conditional mutual information between the source axes and the
    reproduction axes given the side information ``y``, compared to
    ``expected_rate``.
    """
    source_names = source.axis_names
    for name in source_names:
        joint.axis_index(name)  # raises on mismatch
    if Y not in source_names:
        raise ProbabilityError(f"side-info axis {Y!r} not among {source_names}")
    induced = joint.marginalize(source_names).probs
    residual = float(np.abs(induced - source.probs).max())

    def _exp(d: DistortionMatrix | None, src: str, rep: str) -> float | None:
        if d is None:
            return None
        return joint.expected_distortion(d, src, rep)

    achieved = (
        _exp(d1, X1, X1_HAT),
        _exp(d2, X2, X2_HAT),
        _exp(ds_mod, X1, S_HAT),
    )
    repro_names = tuple(n for n in joint.axis_names if n not in source_names)
    src_group = tuple(n for n in source_names if n != Y)
    rate = joint.conditional_mutual_information(src_group, repro_names, (Y,))
    expected_rate = check_real(expected_rate, "expected_rate")
    return AchievabilityReport(
        marginal_residual=residual,
        achieved=achieved,
        rate=rate,
        rate_gap=abs(rate - expected_rate),
    )
