"""Finite-alphabet probability primitives.

Everything downstream (closed forms, the alternating-minimization solver,
achievability channels) is built on three value types defined here:

* :class:`Alphabet` -- a named finite symbol set,
* :class:`JointPMF` -- a dense joint pmf over an ordered tuple of alphabets,
* :class:`DistortionMatrix` -- a per-letter distortion table between a source
  alphabet and a reproduction alphabet.

All types are immutable after construction and all operations are pure, so
they are safe to share across threads/processes.

Conventions: ``0 * log 0 == 0`` throughout; entropies and informations are
in bits (the unit rule of :mod:`semrd`); pmfs must sum to 1 within
``NORMALIZATION_TOL`` at construction time and are rejected rather than
silently renormalized.

The number rule, for every scalar argument: a real is a finite
``numbers.Real`` other than a bool (numpy real scalars and ``Fraction``
included; ``True`` and ``np.bool_`` are flags, not numbers), and an integer a
``numbers.Integral`` other than a bool. :func:`check_real` and
:func:`check_int` apply it, return a Python float or int, and raise
:class:`ProbabilityError` naming the argument; no other module repeats it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import AlphabetMismatchError, ProbabilityError

NORMALIZATION_TOL = 1e-12
# outputs of internal ops may carry float dust this far below zero; anything
# more negative indicates a caller bug and is rejected
NEGATIVE_DUST_TOL = -1e-15


def check_real(value: object, name: str, lo: float | None = None, hi: float | None = None, *,
               gt: float | None = None, lt: float | None = None) -> float:
    """``value`` as a Python float, if it is a real (the module docstring's
    rule) within the bounds given: lo <= value <= hi and gt < value < lt."""
    # a float skips the type tests: a sweep checks each query's targets
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        v = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ProbabilityError(f"{name} must be a finite real, got {value!r}")
    if ((lo is not None and v < lo) or (hi is not None and v > hi)
            or (gt is not None and v <= gt) or (lt is not None and v >= lt)):
        rule = " and ".join(f"{op} {bound}" for op, bound in (
            (">=", lo), (">", gt), ("<=", hi), ("<", lt)) if bound is not None)
        raise ProbabilityError(f"{name} must be {rule}, got {value!r}")
    return v


def check_int(value: object, name: str, lo: int) -> int:
    """``value`` as a Python int, if it is an integer (the module docstring's rule) >= lo."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise ProbabilityError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


def binary_entropy(q: float) -> float:
    """Entropy of a Bernoulli(q) variable in bits.

    Raises ProbabilityError for q outside [0, 1].
    """
    q = check_real(q, "q", 0.0, 1.0)
    if q == 0.0 or q == 1.0:
        return 0.0
    return -(q * math.log(q) + (1.0 - q) * math.log(1.0 - q)) / math.log(2.0)


def star(a: float, b: float) -> float:
    """Binary convolution a*b = a(1-b) + b(1-a) of two crossover probabilities."""
    a = check_real(a, "a", 0.0, 1.0)
    b = check_real(b, "b", 0.0, 1.0)
    return a * (1.0 - b) + b * (1.0 - a)


@dataclass(frozen=True)
class Alphabet:
    """A named finite alphabet with distinct symbol labels."""

    name: str
    size: int
    symbol_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ProbabilityError("alphabet name must be a non-empty string")
        object.__setattr__(self, "size", check_int(self.size, "alphabet size", 1))
        labels = tuple(str(s) for s in self.symbol_labels)
        if not labels:
            labels = tuple(str(i) for i in range(self.size))
        if len(labels) != self.size:
            raise ProbabilityError(
                f"alphabet {self.name!r}: got {len(labels)} labels for size {self.size}"
            )
        if len(set(labels)) != len(labels):
            raise ProbabilityError(f"alphabet {self.name!r}: symbol labels must be distinct")
        object.__setattr__(self, "symbol_labels", labels)

    @classmethod
    def binary(cls, name: str) -> "Alphabet":
        return cls(name, 2, ("0", "1"))

    @classmethod
    def integers(cls, name: str, n: int) -> "Alphabet":
        """Alphabet of the integers 1..n (labels are the integers)."""
        return cls(name, n, tuple(str(i) for i in range(1, n + 1)))

    def index_of(self, label: str) -> int:
        try:
            return self.symbol_labels.index(str(label))
        except ValueError:
            raise ProbabilityError(
                f"symbol {label!r} not in alphabet {self.name!r}"
            ) from None


def _as_prob_array(probs: np.ndarray | Sequence, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(probs, dtype=float)
    if arr.shape != shape:
        raise ProbabilityError(f"pmf shape {arr.shape} does not match axes shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise ProbabilityError("pmf entries must be finite")
    if arr.size and float(arr.min()) < NEGATIVE_DUST_TOL:
        raise ProbabilityError(
            f"pmf has negative entry {float(arr.min()):.3e} below tolerance {NEGATIVE_DUST_TOL:.0e}"
        )
    arr = np.where(arr < 0.0, 0.0, arr)  # clip dust in [-1e-15, 0)
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ProbabilityError(
            f"pmf must sum to 1 within {NORMALIZATION_TOL:.0e}; got sum {total!r}"
        )
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointPMF:
    """Dense joint pmf over an ordered tuple of alphabets.

    Axis order is part of the identity: operations never silently permute
    axes, and marginalization preserves the original relative order of the
    kept axes.
    """

    axes: tuple[Alphabet, ...]
    probs: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        if not axes:
            raise ProbabilityError("JointPMF needs at least one axis")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ProbabilityError(f"duplicate axis names: {names}")
        object.__setattr__(self, "axes", axes)
        shape = tuple(a.size for a in axes)
        object.__setattr__(self, "probs", _as_prob_array(self.probs, shape))

    # ---- axis bookkeeping -------------------------------------------------

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def axis_index(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise ProbabilityError(f"unknown axis {name!r}; have {list(self.axis_names)}")

    def axis(self, name: str) -> Alphabet:
        return self.axes[self.axis_index(name)]

    def _resolve(self, names: Iterable[str]) -> tuple[int, ...]:
        idx = tuple(self.axis_index(n) for n in names)
        if len(set(idx)) != len(idx):
            raise ProbabilityError(f"repeated axis in {tuple(names)!r}")
        return idx

    # ---- core operations ---------------------------------------------------

    def marginalize(self, keep_axes: Iterable[str]) -> "JointPMF":
        """Sum out all axes not named in ``keep_axes`` (original order kept)."""
        keep = set(keep_axes)
        idx = self._resolve(keep)  # validates names
        del idx
        kept = tuple(a for a in self.axes if a.name in keep)
        if not kept:
            raise ProbabilityError("cannot marginalize away every axis; at least one must be kept")
        drop = tuple(i for i, a in enumerate(self.axes) if a.name not in keep)
        return JointPMF(kept, self.probs.sum(axis=drop) if drop else self.probs)

    def condition_on(self, axis_name: str, symbol: str) -> "JointPMF":
        """Condition on one axis taking a particular symbol; drops that axis."""
        i = self.axis_index(axis_name)
        if len(self.axes) == 1:
            raise ProbabilityError("cannot condition away the only axis")
        k = self.axes[i].index_of(symbol)
        slc = np.take(self.probs, k, axis=i)
        mass = float(slc.sum())
        if mass <= 0.0:
            raise ProbabilityError(
                f"conditioning event {axis_name}={symbol!r} has zero probability"
            )
        rest = tuple(a for j, a in enumerate(self.axes) if j != i)
        return JointPMF(rest, slc / mass)

    # ---- information measures ----------------------------------------------

    def _entropy_nats(self, axis_names: Iterable[str] | None = None) -> float:
        if axis_names is None:
            arr = self.probs
        else:
            arr = self.marginalize(axis_names).probs
        pos = arr[arr > 0.0]
        return float(-(pos * np.log(pos)).sum())

    def entropy(self, axis_names: Iterable[str] | None = None) -> float:
        """Joint entropy of the named axes (all axes when None)."""
        return self._entropy_nats(axis_names) / math.log(2.0)

    def conditional_entropy(self, target: Iterable[str], given: Iterable[str]) -> float:
        target = tuple(target)
        given = tuple(given)
        if set(target) & set(given):
            raise ProbabilityError("target and conditioning axes must be disjoint")
        if not given:
            return self.entropy(target)
        h_joint = self._entropy_nats(target + given)
        h_given = self._entropy_nats(given)
        return (h_joint - h_given) / math.log(2.0)

    def conditional_mutual_information(
        self, group_a: Iterable[str], group_b: Iterable[str], cond: Iterable[str] = ()
    ) -> float:
        """I(A; B | C) computed from the joint; clamped to 0 at float dust level."""
        a, b, c = tuple(group_a), tuple(group_b), tuple(cond)
        if not a or not b:
            raise ProbabilityError("group_a and group_b must be non-empty")
        groups = a + b + c
        if len(set(groups)) != len(groups):
            raise ProbabilityError(
                f"groups must be disjoint, got a={a!r} b={b!r} cond={c!r}"
            )
        self._resolve(groups)
        h_ac = self._entropy_nats(a + c)
        h_bc = self._entropy_nats(b + c)
        h_abc = self._entropy_nats(groups)
        h_c = self._entropy_nats(c) if c else 0.0
        value = (h_ac + h_bc - h_abc - h_c) / math.log(2.0)
        if value < -1e-12:
            raise ProbabilityError(
                f"conditional mutual information evaluated to {value:.3e} < -1e-12; "
                "input pmf is likely corrupt"
            )
        return max(value, 0.0)

    def mutual_information(self, group_a: Iterable[str], group_b: Iterable[str]) -> float:
        return self.conditional_mutual_information(group_a, group_b)

    def expected_distortion(
        self, d: "DistortionMatrix", source_axis: str, repro_axis: str
    ) -> float:
        """E d(A, Ahat) over the pair marginal of the named axes."""
        src = self.axis(source_axis)
        rep = self.axis(repro_axis)
        if src != d.source_axis:
            raise AlphabetMismatchError(
                f"axis {source_axis!r} does not match the distortion table's source alphabet"
            )
        if rep != d.repro_axis:
            raise AlphabetMismatchError(
                f"axis {repro_axis!r} does not match the distortion table's reproduction alphabet"
            )
        pair = self.marginalize((source_axis, repro_axis)).probs
        if self.axis_index(source_axis) > self.axis_index(repro_axis):
            pair = pair.T
        return float((pair * d.values).sum())


@dataclass(frozen=True)
class DistortionMatrix:
    """Per-letter distortion d(a, ahat) as a dense finite nonnegative table."""

    source_axis: Alphabet
    repro_axis: Alphabet
    values: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        shape = (self.source_axis.size, self.repro_axis.size)
        if arr.shape != shape:
            raise ProbabilityError(
                f"distortion table shape {arr.shape} does not match alphabets {shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ProbabilityError("distortion entries must be finite")
        if arr.size and float(arr.min()) < 0.0:
            raise ProbabilityError("distortion entries must be nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def hamming(cls, source_axis: Alphabet, repro_axis: Alphabet) -> "DistortionMatrix":
        """0/1 distortion by symbol position; alphabets must have equal size."""
        if source_axis.size != repro_axis.size:
            raise AlphabetMismatchError(
                "Hamming distortion needs equal-size alphabets, got "
                f"{source_axis.size} and {repro_axis.size}"
            )
        return cls(source_axis, repro_axis, 1.0 - np.eye(source_axis.size))

    @classmethod
    def zero(cls, source_axis: Alphabet, repro_axis: Alphabet) -> "DistortionMatrix":
        return cls(source_axis, repro_axis, np.zeros((source_axis.size, repro_axis.size)))


def make_dsbs(p0: float, name_a: str = "x", name_b: str = "y") -> JointPMF:
    """Doubly symmetric binary source: uniform binary pair disagreeing w.p. p0."""
    p0 = check_real(p0, "DSBS parameter p0", 0.0, 0.5)
    probs = np.array(
        [[(1.0 - p0) / 2.0, p0 / 2.0], [p0 / 2.0, (1.0 - p0) / 2.0]]
    )
    return JointPMF((Alphabet.binary(name_a), Alphabet.binary(name_b)), probs)


MARKOV_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class BinarySourceSpec:
    """Parameters of the binary source models.

    ``p`` is the semantic crossover (latent vs observation); ``p1``, ``p2``,
    ``p3`` are the pairwise crossover parameters of (observation, background),
    (observation, side-info), and (background, side-info). A given model uses
    only a subset; unused entries stay None.
    """

    p: float | None = None
    p1: float | None = None
    p2: float | None = None
    p3: float | None = None

    def __post_init__(self) -> None:
        for fname in ("p", "p1", "p2", "p3"):
            v = getattr(self, fname)
            if v is not None:
                object.__setattr__(self, fname, check_real(v, fname, 0.0, 0.5))

    @classmethod
    def conditionally_independent(cls, p: float, p2: float, p3: float) -> "BinarySourceSpec":
        """Observation and background independent given side info; p1 = p2*p3."""
        return cls(p=p, p1=star(p2, p3), p2=p2, p3=p3)

    @classmethod
    def correlated(cls, p: float, p1: float, p2: float) -> "BinarySourceSpec":
        """Side info sees the background only through the observation; p3 = p1*p2."""
        return cls(p=p, p1=p1, p2=p2, p3=star(p1, p2))

    def require(self, *fields: str) -> None:
        missing = [f for f in fields if getattr(self, f) is None]
        if missing:
            raise ProbabilityError(f"BinarySourceSpec is missing {missing} for this evaluation")

    def check_markov_x1_y_x2(self) -> None:
        """Assert the conditional-independence consistency p1 = p2 * p3."""
        self.require("p1", "p2", "p3")
        expected = star(self.p2, self.p3)
        if abs(self.p1 - expected) > MARKOV_CONSISTENCY_TOL:
            raise ProbabilityError(
                f"p1={self.p1} inconsistent with p2*p3={expected} "
                "(conditional independence of the two observed parts requires equality)"
            )
