"""Semantic-distortion transforms.

The latent task variable S is never seen by the encoder; it acts on the
observation X1 through p(s|x1) only. Averaging the semantic distortion
d_s(s, shat) over that posterior yields an observation-level table
d'_s(x1, shat) with the same expectation, which is what the solver and the
closed forms consume. ``ds0`` is the scalar companion transform for the
binary Hamming case.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleDistortionError, ProbabilityError
from .prob import DistortionMatrix, JointPMF, check_real

MARKOV_CHECK_TOL = 1e-10


def modified_distortion(joint_sx1: JointPMF, ds: DistortionMatrix) -> DistortionMatrix:
    """Posterior-averaged distortion between the observation and the semantic
    reconstruction.

    ``joint_sx1`` must have exactly two axes, one of which equals the source
    alphabet of ``ds`` (the latent S); the other is the observation X1.
    Returns the table d'(x1, shat) = sum_s p(s|x1) ds(s, shat).

    Raises ProbabilityError if any observation symbol has zero mass: the
    transform divides by p(x1), and a silently invented row would poison
    every downstream expectation.
    """
    if len(joint_sx1.axes) != 2:
        raise ProbabilityError(
            f"expected a 2-axis joint over (latent, observation), got axes {joint_sx1.axis_names}"
        )
    if joint_sx1.axes[0] == ds.source_axis:
        s_pos, x_pos = 0, 1
    elif joint_sx1.axes[1] == ds.source_axis:
        s_pos, x_pos = 1, 0
    else:
        raise ProbabilityError(
            "neither axis of the joint matches the distortion table's latent alphabet"
        )
    x_alpha = joint_sx1.axes[x_pos]
    joint = joint_sx1.probs if s_pos == 0 else joint_sx1.probs.T  # (s, x1)
    p_x = joint.sum(axis=0)
    dead = np.where(p_x <= 0.0)[0]
    if dead.size:
        labels = [x_alpha.symbol_labels[i] for i in dead]
        raise ProbabilityError(
            f"observation symbols {labels} of axis {x_alpha.name!r} have zero probability; "
            "the posterior-averaged distortion is undefined there"
        )
    posterior = joint / p_x[None, :]  # p(s|x1), column-stochastic
    values = posterior.T @ ds.values  # (x1, shat)
    return DistortionMatrix(x_alpha, ds.repro_axis, values)


def ds0(Ds: float, p: float) -> float:
    """Convert a semantic Hamming target into the equivalent observation-level
    target (Ds - p) / (1 - 2p), defined for Ds >= p and p < 0.5."""
    p = check_real(p, "p", 0.0, lt=0.5)
    Ds = check_real(Ds, "Ds")
    if Ds < p:
        raise InfeasibleDistortionError(
            f"semantic distortion {Ds} is below the irreducible floor {p}"
        )
    return (Ds - p) / (1.0 - 2.0 * p)


def check_distortion_equivalence(
    joint: JointPMF,
    ds: DistortionMatrix,
    s_axis: str = "s",
    x1_axis: str = "x1",
    s_hat_axis: str = "s_hat",
) -> float:
    """Residual |E ds(S, Shat) - E d's(X1, Shat)| under the latent Markov chain.

    The identity holds whenever S is conditionally independent of everything
    except X1 given X1; that chain is verified (conditional mutual information
    below ``MARKOV_CHECK_TOL`` bits) before the expectations are compared.
    """
    rest = tuple(n for n in joint.axis_names if n not in (s_axis, x1_axis))
    if not rest:
        raise ProbabilityError("joint must contain at least one axis beyond the latent pair")
    if s_hat_axis not in rest:
        raise ProbabilityError(f"joint has no axis {s_hat_axis!r}")
    leak = joint.conditional_mutual_information((s_axis,), rest, (x1_axis,))
    if leak > MARKOV_CHECK_TOL:
        raise ProbabilityError(
            f"latent Markov chain violated: I(S; rest | X1) = {leak:.3e} bits"
        )
    ds_mod = modified_distortion(joint.marginalize((s_axis, x1_axis)), ds)
    e_direct = joint.expected_distortion(ds, s_axis, s_hat_axis)
    e_modified = joint.expected_distortion(ds_mod, x1_axis, s_hat_axis)
    return abs(e_direct - e_modified)
