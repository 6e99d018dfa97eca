"""Builders for the concrete source models and their solver instances.

Axis naming convention used across the toolkit: latent ``s``, observation
``x1``, background ``x2``, side information ``y``, reproductions ``x1_hat``,
``x2_hat``, ``s_hat``.
"""

from __future__ import annotations

import numpy as np

from .errors import ProbabilityError
from .prob import Alphabet, BinarySourceSpec, DistortionMatrix, JointPMF, check_int, make_dsbs
from .semantic import modified_distortion
from .solver import RDProblem

S = "s"
X1 = "x1"
X2 = "x2"
Y = "y"
X1_HAT = "x1_hat"
X2_HAT = "x2_hat"
S_HAT = "s_hat"


def _bsc(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def conditionally_independent_source(p2: float, p3: float, p_y: float = 0.5) -> JointPMF:
    """Side info with P(y = 1) = p_y; observation and background are
    independent crossover channels from it (chain x1 - y - x2)."""
    k1, k3 = _bsc(p2), _bsc(p3)
    probs = np.einsum("y,ya,yb->aby", np.array([1.0 - p_y, p_y]), k1, k3)
    return JointPMF((Alphabet.binary(X1), Alphabet.binary(X2), Alphabet.binary(Y)), probs)


def correlated_source(p1: float, p2: float) -> JointPMF:
    """Uniform observation; side info and background are crossover channels
    from it (chain y - x1 - x2)."""
    k2, k1 = _bsc(p2), _bsc(p1)
    probs = np.einsum("a,ab,ay->aby", np.full(2, 0.5), k1, k2)
    return JointPMF((Alphabet.binary(X1), Alphabet.binary(X2), Alphabet.binary(Y)), probs)


def parity_bit(value: int) -> int:
    """1 for odd integer values, 0 for even (class convention everywhere)."""
    return value % 2


def check_parity_n(n: int, name: str) -> int:
    """The parity model's alphabet size: an even integer >= 4, as an int."""
    n = check_int(n, name, 4)
    if n % 2:
        raise ProbabilityError(f"{name} must be even, got {n!r}")
    return n


def classification_source(p2: float, n: int) -> JointPMF:
    """Uniform integer observation on [1:n]; binary side info equals the
    observation's parity bit through a crossover-p2 channel; background is an
    independent fair bit."""
    n = check_parity_n(n, "n")
    x1 = Alphabet.integers(X1, n)
    probs = np.zeros((n, 2, 2))
    for i in range(n):
        par = parity_bit(i + 1)
        for y in range(2):
            p_y = 1.0 - p2 if y == par else p2
            probs[i, :, y] = (1.0 / n) * p_y * 0.5
    return JointPMF((x1, Alphabet.binary(X2), Alphabet.binary(Y)), probs)


def semantic_observation_joint(p: float) -> JointPMF:
    """Doubly symmetric (latent, observation) pair with crossover p."""
    return make_dsbs(p, S, X1)


def parity_semantic_joint(p: float, n: int) -> JointPMF:
    """Joint of the binary latent and the integer observation: the latent is
    the observation's parity bit seen through a crossover-p channel."""
    x1 = Alphabet.integers(X1, n)
    probs = np.zeros((2, n))
    for i in range(n):
        par = parity_bit(i + 1)
        for s in range(2):
            probs[s, i] = (1.0 / n) * (1.0 - p if s == par else p)
    return JointPMF((Alphabet.binary(S), x1), probs)


def _semantic_table(joint_sx1: JointPMF) -> DistortionMatrix:
    s_alpha = joint_sx1.axis(S)
    ds = DistortionMatrix.hamming(s_alpha, Alphabet.binary(S_HAT))
    return modified_distortion(joint_sx1, ds)


def conditionally_independent_problem(spec: BinarySourceSpec) -> RDProblem:
    spec.require("p", "p2", "p3")
    source = conditionally_independent_source(spec.p2, spec.p3)
    return binary_problem(source, spec.p)


def correlated_problem(spec: BinarySourceSpec) -> RDProblem:
    spec.require("p", "p1", "p2")
    source = correlated_source(spec.p1, spec.p2)
    return binary_problem(source, spec.p)


def binary_problem(source: JointPMF, p: float) -> RDProblem:
    """Solver instance of a binary (x1, x2, y) source under Hamming
    distortions, the latent seen by the observation through a crossover-p
    channel."""
    x1, x2, _y = source.axes
    return RDProblem(
        source=source,
        d1=DistortionMatrix.hamming(x1, Alphabet.binary(X1_HAT)),
        d2=DistortionMatrix.hamming(x2, Alphabet.binary(X2_HAT)),
        ds_mod=_semantic_table(semantic_observation_joint(p)),
    )


def classification_problem(p: float, p2: float, n: int) -> RDProblem:
    source = classification_source(p2, n)
    x1, x2, _y = source.axes
    return RDProblem(
        source=source,
        d1=DistortionMatrix.hamming(x1, Alphabet.integers(X1_HAT, n)),
        d2=DistortionMatrix.hamming(x2, Alphabet.binary(X2_HAT)),
        ds_mod=_semantic_table(parity_semantic_joint(p, n)),
    )
