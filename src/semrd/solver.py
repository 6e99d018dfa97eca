"""Alternating-minimization solver for the three-constraint conditional
rate-distortion problem.

The problem: over conditional pmfs t(x1h, x2h, sh | x1, x2, y), minimize
I(X1, X2; X1h, X2h, Sh | Y) subject to

    E d1(X1, X1h) <= D1,   E d2(X2, X2h) <= D2,   E d's(X1, Sh) <= Ds,

where d's is the posterior-averaged semantic distortion (already a plain
table over observation x reproduction symbols by the time it reaches this
module). The semantic target Ds is consumed raw; no scalar transform is
applied here.

Approach
--------
For fixed nonnegative multipliers (l1, l2, ls) the Lagrangian decomposes into
one classical rate-distortion problem per side-information value y, on the
composite source alphabet X1 x X2 and composite reproduction alphabet
X1h x X2h x Sh with per-letter cost l1*d1 + l2*d2 + ls*d's. Each per-y
problem is solved by alternating minimization between the reproduction
marginal q_y and the channel t_y (t_y proportional to q_y * exp(-cost), cost
in nats). Sharing one multiplier triple across all y realizes the optimal
distortion allocation across side-information values, because each per-y
rate-distortion surface is convex.

* There is one loop, and its only stopping rule is an optimality
  certificate (Blahut, "Computation of channel capacity and rate-distortion
  functions", IEEE TIT 1972). With c(h) = sum_x p(x) W(x,h) / Z(x) (the
  multiplicative marginal update), convexity gives
  F(q) - min F <= max_h c(h) - 1; a run stops once this bound is below
  ``CERT_TOL``. Decrease-based stopping can freeze a warm-started run far
  from the new fixed point; the certificate stop cannot, so where a run
  starts moves its answer only by rounding. A target solve (below) and a
  fixed-multiplier run (``ba_fixed_multipliers``) take the same steps, the
  latter with the multipliers held at the given values in place of the
  multiplier solve.

* The multipliers are not searched for from outside. A target solve is one
  constrained BA run (Chen et al., "A Constrained BA Algorithm for
  Rate-Distortion and Distortion-Rate Functions", 2023, with three
  multipliers in place of one). Each step holds the marginals q fixed and
  solves exactly for the multipliers that meet the targets: it maximises the
  concave dual g_q(l) = -sum p(x, y) log Z_l(x, y) - l.D over l >= 0, whose
  gradient is E_l[d] - D and whose Hessian is minus the (y, x)-averaged 3x3
  covariance of the costs, by projected Newton
  (:meth:`_ConstrainedBA._solve_dual`), on cost groups rather than letters
  (:class:`_Workspace`). The step then takes the BA marginal update at those
  multipliers. Its value F(q) = max_l g_q(l) never increases from step to
  step; an increase beyond rounding raises :class:`SolverError`. The
  certificate above, read at the solved multipliers, bounds F(q) minus the
  optimal rate. The marginal update is accelerated (:class:`_Anderson`).

  A coordinate whose multiplier solves to 0 meets its target through the
  KKT conditions: its gradient E d_i - D_i is at most the residual, so the
  final channel itself satisfies it. A linear segment of the rate surface
  needs no time-sharing: at fixed q the map from multipliers to distortions
  is smooth, and q converges to the mixture.

* Active set (Blahut 1972; Yu, "Squeezing the Arimoto-Blahut algorithm for
  faster convergence", IEEE TIT 2010). Near a support threshold the mass of a
  letter the optimum does not use decays only geometrically, and the
  certificate waits for it. At fixed multipliers the objective separates over
  y, and each part f(q) = -sum_x P(x|y) log sum_h q(h) W(x, h) is convex in q,
  with gradient -c and sum_h q(h) c(h) = 1. For an optimum q*, convexity and
  f(q*) <= f(q) give sum_h c(h) q*(h) >= 1 + f(q) - f(q*) >= 1, so
  1 <= c(h) q*(h) + c_max (1 - q*(h)) and

      q*(h) <= (c_max - 1) / (c_max - c(h))     for each letter h with c(h) < c_max.

  A letter whose bound is below ``_TAU`` is dropped
  (:meth:`_ConstrainedBA._active_set`). The bound holds at the step's
  multipliers, which still move, so a dropped letter may be needed after
  all, and is revived. A drop whose target solve then ends above the KKT
  gate is refused (:meth:`_ConstrainedBA.advance`): that refusal is what
  catches a support whose costs are collinear, which makes the dual linear
  along a direction, where the Newton solve stalls. The stop is unchanged:
  the certificate runs over every letter, dropped ones included, and bounds
  F(q) minus the optimum at any q, so a wrong drop costs steps, never a
  wrong rate.

* A solved point is a handful of numbers read off the final step's arrays
  (:meth:`_Workspace.rate`, :meth:`_Batch._point`): no channel over
  (y, x, h) is built after the loop. A batch of queries is solved by
  continuation along chains (:class:`_Batch`), whose cells run in lockstep
  (:class:`_ConstrainedBA`). A source whose observation and background are
  independent given the side information is solved as two smaller problems
  (:attr:`RDProblem.split`).

Rates are in bits (the unit rule of :mod:`semrd`); multipliers are
natural-log based (they appear inside exp). The tolerances are module
constants, not options; :class:`SolverOptions` holds the one option,
``max_iters``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InfeasibleDistortionError, ProbabilityError, SemrdError, SolverError
from .prob import Alphabet, DistortionMatrix, JointPMF, check_int, check_real


@dataclass(frozen=True)
class SolverOptions:
    """The one option of the alternating minimization, taken by the two
    entries a caller sets it on: :func:`solve_rd_point` and
    :func:`ba_fixed_multipliers`. Every other entry runs with
    ``DEFAULT_OPTIONS``. Its tolerances are the module constants
    ``CERT_TOL``, ``CONSTRAINT_TOL``, ``RATE_TOL`` and ``LAMBDA_CAP``. A run
    starts from the uniform marginal, or, along a chain of a batch
    (:func:`solve_cells`), from its predecessor's final step; the
    certificate stop makes the rate independent of the start up to rounding.

    ``max_iters`` caps the steps of a run. It leaves headroom for the slow
    regime where a reproduction atom sits near its support threshold: the
    certificate then decays sublinearly. With Anderson acceleration a target
    solve there takes tens of steps (20 at the correlated example's query
    (0.05, 0.23, 0.45)). A run that exhausts the cap is reported with
    converged=False.
    """

    max_iters: int = 50000

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_iters",
                           check_int(self.max_iters, "solver option max_iters", 1))


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class RDProblem:
    """One solver instance: source law and distortion tables, whose
    reproduction axes are the problem's reproduction alphabets."""

    source: JointPMF  # axes (x1, x2, y)
    d1: DistortionMatrix  # x1 x x1h
    d2: DistortionMatrix  # x2 x x2h
    ds_mod: DistortionMatrix  # x1 x sh (posterior-averaged semantic table)

    def __post_init__(self) -> None:
        if len(self.source.axes) != 3:
            raise ProbabilityError(
                f"source must have exactly 3 axes (observation, background, side info); "
                f"got {self.source.axis_names}"
            )
        names = self.axis_names
        if len(set(names)) != 6:
            raise ProbabilityError(f"source and reproduction axis names must be distinct: {names}")
        x1, x2, _y = self.source.axes
        for label, d, src in (("d1", self.d1, x1), ("d2", self.d2, x2), ("ds_mod", self.ds_mod, x1)):
            if d.source_axis != src:
                raise ProbabilityError(
                    f"{label} source alphabet {d.source_axis.name} does not match "
                    f"problem axis {src.name}"
                )

    @property
    def repro_alphabets(self) -> tuple[Alphabet, Alphabet, Alphabet]:
        """(x1h, x2h, sh): the reproduction axes of d1, d2 and ds_mod."""
        return (self.d1.repro_axis, self.d2.repro_axis, self.ds_mod.repro_axis)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return self.source.axis_names + tuple(a.name for a in self.repro_alphabets)

    @functools.cached_property
    def split(self) -> tuple[RDProblem, RDProblem] | None:
        """The observation-side and background-side problems when the source
        factorises as p(x1|y) p(x2|y) p(y), each entry to a relative 1e-12,
        and both x1 and x2 have more than one letter; else None. Computed
        once per problem object, so the two parts keep their identity (and
        their workspaces) across the solves of a sweep.

        The split is exact (Gray, "Conditional rate-distortion theory",
        Stanford technical report, 1972): the observation side on (X1, Y)
        under the d1 and d's targets, and the background side, the
        conditional rate-distortion function of X2 given Y, under the d2
        target. For any channel, with X2 independent of X1 given Y,

            I(X1 X2; X1h X2h Sh | Y) = I(X1; X1h X2h Sh | Y) + I(X2; X1h X2h Sh | X1 Y)
                                     >= I(X1; X1h Sh | Y) + I(X2; X2h | Y),

        and each distortion involves one side's reproduction only, so no
        channel beats the sum of the two sides' optima; the product of the
        two optimal channels meets all three targets with equality, so
        R(D1, D2, Ds) = R_obs(D1, Ds) + R_bg(D2). Each part's rate is within
        its certificate of its optimum, so the composed rate is within the
        sum of the two certificates of the joint optimum."""
        x1, x2, _y = self.source.axes
        if x1.size == 1 or x2.size == 1:
            return None
        probs = self.source.probs
        p_x1y, p_x2y = probs.sum(axis=1), probs.sum(axis=0)
        p_y = p_x1y.sum(axis=0)
        product = p_x1y[:, None, :] * p_x2y[None, :, :] / np.where(p_y > 0.0, p_y, 1.0)
        if not np.allclose(probs, product, rtol=1e-12, atol=0.0):
            return None
        return observation_side_problem(self), background_side_problem(self)

    @functools.cached_property
    def _workspace(self) -> _Workspace:
        """The solver's arrays for this problem, built on first use and kept
        as long as the problem object: the cells of a sweep share them.
        Problems that compare equal may hold different arrays, so each object
        has its own."""
        return _Workspace(self)


def observation_side_problem(problem: RDProblem) -> RDProblem:
    """Reduced instance keeping (observation, side info) and both
    observation-level constraints; the background axes become degenerate."""
    x1, x2, y = problem.source.axes
    marg = problem.source.marginalize((x1.name, y.name)).probs
    bg = Alphabet(x2.name, 1, ("*",))
    bg_hat = Alphabet(problem.d2.repro_axis.name, 1, ("*",))
    source = JointPMF((x1, bg, y), marg.reshape(x1.size, 1, y.size))
    return RDProblem(source, problem.d1, DistortionMatrix.zero(bg, bg_hat), problem.ds_mod)


def background_side_problem(problem: RDProblem) -> RDProblem:
    """Reduced instance keeping (background, side info) only."""
    x1, x2, y = problem.source.axes
    marg = problem.source.marginalize((x2.name, y.name)).probs
    obs = Alphabet(x1.name, 1, ("*",))
    obs_hat = Alphabet(problem.d1.repro_axis.name, 1, ("*",))
    sem_hat = Alphabet(problem.ds_mod.repro_axis.name, 1, ("*",))
    source = JointPMF((obs, x2, y), marg.reshape(1, x2.size, y.size))
    return RDProblem(source, DistortionMatrix.zero(obs, obs_hat), problem.d2,
                     DistortionMatrix.zero(obs, sem_hat))


@dataclass(frozen=True)
class RDQuery:
    """Target distortions, each a finite real >= 0 (the number rule of
    :mod:`semrd.prob`) stored as a Python float. ``ds`` is the raw semantic
    target; the constraint enforced is E d's(X1, Sh) <= ds."""

    d1: float
    d2: float
    ds: float

    def __post_init__(self) -> None:
        for name in ("d1", "d2", "ds"):
            v = getattr(self, name)
            if (checked := check_real(v, name, 0.0)) is not v:  # a float comes back as itself
                object.__setattr__(self, name, checked)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.d1, self.d2, self.ds)


@dataclass(frozen=True)
class RDPoint:
    """A solved point, as numbers only: the rate (bits/symbol, the unit rule
    of :mod:`semrd`) and the achieved distortions of one channel, the
    multipliers used (natural-log based), and solver diagnostics. On both
    solver paths the channel is the final BA step's, so a coordinate with
    multiplier 0 reports what that channel achieves (at most its target, up to
    the KKT residual), which depends on where the run started: the final
    channel is one of the optimal channels, and a slack coordinate does not
    single one out. The rate and the multipliers of a solved point move only
    by rounding with the start (:func:`solve_cells`). On the zero-rate path
    the channel is the best channel of y alone, and ``achieved`` holds the
    zero-rate floors. ``iterations`` counts the point's own steps, Anderson
    proposals included, on both paths (a target solve's steps each solve for
    the multipliers, a fixed-multiplier run's hold them): in a batch each step
    advances several cells, and each counts it once. It is 0 on the zero-rate
    path, and on an answer a batch takes from its chain's last answer without
    a run (:func:`solve_cells`), which then carries that answer's rate,
    ``achieved``, multipliers and ``cs_residual``. ``cs_residual`` bounds
    |rate - optimum| via complementary slackness.

    On a split problem (:attr:`RDProblem.split`) the point composes its two
    parts' points: the rate is their sum, ``achieved`` and ``multipliers``
    take d1 and d's from the observation side and d2 from the background
    side, ``iterations`` and ``cs_residual`` are sums, and ``converged``
    holds when both parts converged and the summed ``cs_residual`` is at most
    ``RATE_TOL``. The channel is the product of the two parts' channels."""

    rate: float
    achieved: tuple[float, float, float]
    multipliers: tuple[float, float, float]
    iterations: int
    converged: bool
    cs_residual: float = 0.0


@dataclass(frozen=True)
class SurfaceCell:
    query: RDQuery
    point: RDPoint | None
    error: str | None = None


@dataclass(frozen=True)
class RDSurface:
    points: tuple[SurfaceCell, ...]


def _row_groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group each row's entries by exact equality of value.

    Returns (index, distinct): index[r, j] is the group of values[r, j] and
    distinct[r, k] the value of group k, for k below the largest number of
    groups in any row. Groups are numbered by increasing value, so group 0
    holds the row's least. A row with fewer groups repeats its smallest value
    in the padding slots, which hold no letter."""
    rows = np.arange(len(values))[:, None]
    order = np.argsort(values, axis=1, kind="stable")
    ordered = values[rows, order]
    rank = np.zeros(ordered.shape, dtype=np.intp)
    rank[:, 1:] = np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1)
    index = np.empty_like(rank)
    index[rows, order] = rank
    distinct = np.repeat(ordered[:, :1], rank[:, -1].max() + 1, axis=1)
    distinct[rows, rank] = ordered
    return index, distinct


class _Workspace:
    """Flattened tensors for one problem: P[y, x] conditionals over the
    composite source index x = (x1, x2), cost tables c_i[x, h] over the
    composite reproduction index h = (x1h, x2h, sh).

    The multiplier solve runs on cost groups, not on letters. Within one
    source row x, reproduction letters with the same cost triple share one
    kernel value w(x, k) = exp(-l.(c(x, k) - c(x, 0))), so with M(y, x, k)
    the mass q_y puts on group k of row x, Z(y, x) = sum_k M(y, x, k) w(x, k);
    the dual value, its gradient and the covariance are sums over the same
    groups. The dual therefore depends on q only through M, and the grouped
    solve is exact: only the order of summation changes. Each table row is
    grouped by exact equality of value (d1 rows over x1h, d2 rows over x2h,
    d's rows over sh), and a composite letter's group is the triple of its
    table groups, so every source row x has K = K1 K2 Ks groups (Ki the most
    groups in any row of table i; rows with fewer carry empty padding
    groups): 8 of 256 letters for the classification model at N = 64, all 8
    letters on the binary models, and K = nh where no table repeats a value.
    ``group_costs[i, x, k]`` is the cost of
    group k of row x, ``letter_group[x, h]`` the flat (x, k) index of letter
    h's group, and :meth:`group_masses` sums a marginal Q[y, h] over each
    row's groups, once per step, in one product with the 0/1 matrix of
    letter-in-group membership (nh x nx K). The BA marginal update, the
    certificate and the acceleration stay per letter, with the letter kernel
    gathered from w.

    Each group's costs are stored less those of its row's group 0, the row's
    least, once: the kernel's exponent l.(c(x, 0) - c(x, k)) is then at most
    0, 0 on group 0, and one product with nothing to cancel, and the dual
    adds l.E c(X, 0) back as three terms. E c_i(X, 0) = sum_x p(x) min_h
    c_i(x, h) is coordinate i's full-information floor (``absolute_floors``);
    its zero-rate floor sum_y min_h sum_x p(y, x) c_i(x, h)
    (``zero_rate_floors``) is read off its own table.

    One workspace serves every solve of its problem object
    (``RDProblem._workspace``); the two parts of a split problem keep one
    each."""

    def __init__(self, problem: RDProblem):
        x1, x2, y = problem.source.axes
        h1, h2, hs = problem.repro_alphabets
        self.nx1, self.nx2, self.ny = x1.size, x2.size, y.size
        self.nh1, self.nh2, self.nhs = h1.size, h2.size, hs.size
        self.nx = self.nx1 * self.nx2
        self.nh = self.nh1 * self.nh2 * self.nhs

        src = problem.source.probs  # (nx1, nx2, ny)
        p_y_full = src.sum(axis=(0, 1))
        self.y_idx = np.where(p_y_full > 0.0)[0]
        if self.y_idx.size == 0:
            raise ProbabilityError("source has no side-information mass")
        self.p_y = p_y_full[self.y_idx]
        flat = np.moveaxis(src, 2, 0).reshape(self.ny, self.nx)[self.y_idx]
        self.P = flat / self.p_y[:, None]
        self.Pw = self.p_y[:, None] * self.P
        self.p_x = self.Pw.sum(axis=0)

        # the zero-rate floors: each table applied to p(y, letter of its source)
        # and its best reproduction taken per y
        Pw3 = self.Pw.reshape(-1, self.nx1, self.nx2)
        p1, p2 = Pw3.sum(axis=2), Pw3.sum(axis=1)
        self.zero_rate_floors = tuple(float((p @ d.values).min(axis=1).sum()) for p, d in (
            (p1, problem.d1), (p2, problem.d2), (p1, problem.ds_mod)))

        g1, u1 = _row_groups(problem.d1.values)
        g2, u2 = _row_groups(problem.d2.values)
        gs, us = _row_groups(problem.ds_mod.values)
        self.K1, self.K2, self.Ks = u1.shape[1], u2.shape[1], us.shape[1]
        self.K = self.K1 * self.K2 * self.Ks
        shape_g = (self.nx1, self.nx2, self.K1, self.K2, self.Ks)
        self.group_costs = np.stack([
            np.broadcast_to(u, shape_g).reshape(self.nx, self.K)
            for u in (u1[:, None, :, None, None], u2[None, :, None, :, None],
                      us[:, None, None, None, :])
        ])
        # flat (x, k) index, x = x1 nx2 + x2 and k = (k1 K2 + k2) Ks + ks
        at1 = np.arange(self.nx1)[:, None] * (self.nx2 * self.K) + g1 * (self.K2 * self.Ks)
        at2 = np.arange(self.nx2)[:, None] * self.K + g2 * self.Ks
        # spread each table over h = (x1h nh2 + x2h) nhs + sh, then add over x
        per1 = np.repeat(at1, self.nh2 * self.nhs, axis=1)
        per2 = np.tile(np.repeat(at2, self.nhs, axis=1), self.nh1)
        pers = np.tile(gs, self.nh1 * self.nh2)
        self.letter_group = (
            (per1 + pers)[:, None, :] + per2[None, :, :]
        ).reshape(self.nx, self.nh)
        # one-hot membership of letter h in the flat group (x, k), for every x
        self.members = np.zeros((self.nh, self.nx * self.K))
        self.members[np.arange(self.nh), self.letter_group] = 1.0
        # the kernel's exponents per multiplier: each group's costs less its
        # row's least, those of group 0 (which holds the least of each table's
        # row), flat over (x, k); the least costs weighted by p(x), which are
        # the full-information floors
        self.drops = (self.group_costs[:, :, :1] - self.group_costs).reshape(3, -1)
        self.absolute_floors = tuple((self.group_costs[:, :, 0] @ self.p_x).tolist())
        # the group costs over (y, x, k), the same weighted by p(y, x), and as
        # one (k, i) table per source row; the weights of the dual's sums as columns
        shape = (3, len(self.p_y), self.nx, self.K)
        self.costs_yxk = np.broadcast_to(self.group_costs[:, None], shape).reshape(3, -1)
        self.weighted = (self.Pw[None, :, :, None] * self.group_costs[:, None]).reshape(3, -1)
        self.costs_xki = np.ascontiguousarray(self.group_costs.transpose(1, 2, 0))
        self.Pw_col, self.p_y_col = self.Pw.reshape(-1, 1), self.p_y[:, None]

    def group_masses(self, Q: np.ndarray) -> np.ndarray:
        """M[..., y, x, k]: the mass Q[..., y, h] puts on group k of source
        row x, one product with the membership matrix for every cell and y."""
        rows = Q.reshape(-1, self.nh)
        # numpy sums a one-row product in another order (matrix-vector, not
        # matrix-matrix), so a lone row goes in twice: each row's sums then do
        # not depend on how many rows the product covers
        M = (np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows) @ self.members
        return M[:len(rows)].reshape(Q.shape[:-1] + (self.nx, self.K))

    # ---- alternating minimization -------------------------------------

    def initial_marginal(self) -> np.ndarray:
        """The uniform marginal Q[y, h], where a cold run starts."""
        return np.full((len(self.p_y), self.nh), 1.0 / self.nh)

    def rate(self, s: _Step, b: int) -> float:
        """I(X1, X2; X1h, X2h, Sh | Y) in bits of the channel
        T = Q W / Z of cell b of a step, the form of every BA channel.

        Within a source row T / Q = w / Z is constant on each cost group, so
        KL(T(.|y, x) || Q_y) over letters is KL(R || M) over groups, R the
        group law and M the group masses of Q. With Q_out = Q c the BA update,
        I = sum p(y, x) KL(R || M) - sum p(y) KL(Q_out || Q), the
        alternating-minimization form of Csiszar & Tusnady ("Information
        geometry and alternating minimization procedures", 1984) and of
        Blahut (1972), exact on groups. Both sums are of nonnegative terms,
        so nothing cancels at large multipliers."""
        Q, d, c = s.Q[b], s.dual, s.c[b]
        # R / M = w / Z on every group that R charges
        kl_rows = np.add.reduce(d.R[b] * (d.log_w[b] - np.log(d.Z[b])[:, :, None]), axis=2)
        Q_out = Q * c
        log_c = np.log(c, out=np.zeros_like(c), where=Q_out > 0.0)
        nats = (float(np.vdot(self.Pw, kl_rows))
                - float(np.dot(self.p_y, np.add.reduce(Q_out * log_c, axis=1))))
        value = nats / math.log(2.0)
        if not value >= -1e-12:  # NaN included
            raise SolverError(f"rate evaluated to {value:.3e}")
        return max(value, 0.0)


# Constants of the constrained BA loop. The dual is re-solved whenever its KKT
# residual exceeds _KKT_TOL (or a tenth of the last certificate, when that is
# smaller): multipliers left anywhere inside the CONSTRAINT_TOL band make the
# certificate stall far above CERT_TOL.
CERT_TOL = 1e-12
CONSTRAINT_TOL = 1e-9
RATE_TOL = 1e-6
LAMBDA_CAP = 1e8
_KKT_TOL = 1e-12
_NEWTON_STEPS = 100
_ARMIJO = 1e-4
_BACKTRACKS = 40
# A free block of the covariance is singular to working precision when its
# determinant is at most this fraction of the product of its diagonal (at most
# 1 for a PSD block, and invariant to rescaling the costs). Rounding puts the
# determinant of an exactly singular block near 1e-16 of that product.
_SINGULAR = 1e-12
# Anderson acceleration: secant pairs kept, least share of its image an atom keeps
_MEMORY = 5
_FLOOR = 0.1
# active set: a letter drops once its optimal mass is bounded below _TAU; a
# revival's masses are halved at most _HALVINGS times before its step
_TAU = 5e-2
_HALVINGS = 60
# share of the uniform marginal mixed into a chain's warm start
_WARM_MIX = 1e-3


def _kkt_residual(lam: Sequence[float], grad: Sequence[float]) -> float:
    """Largest KKT violation of the dual over lam >= 0: |grad| on positive
    multipliers, the positive part of grad on zero ones."""
    (l0, l1, l2), (g0, g1, g2) = lam, grad
    return max(abs(g0) if l0 > 0.0 else max(g0, 0.0), abs(g1) if l1 > 0.0 else max(g1, 0.0),
               abs(g2) if l2 > 0.0 else max(g2, 0.0))


def _newton_direction(cov: np.ndarray, grad: Sequence[float], free: Sequence[bool]) -> list[float]:
    """The step s with cov[F, F] s[F] = grad[F] on the free coordinates F and
    s = 0 elsewhere, by one closed-form 3x3 solve in which each fixed
    coordinate's row and column of cov are the identity's and its gradient is
    0. A free block (symmetric PSD) that is singular to working precision gets
    the least-norm solution instead."""
    (a, b, e), (_, f, h), (_, _, k) = cov.tolist()
    f0, f1, f2 = free
    a, f, k = (a if f0 else 1.0), (f if f1 else 1.0), (k if f2 else 1.0)
    b, e, h = (b if f0 and f1 else 0.0), (e if f0 and f2 else 0.0), (h if f1 and f2 else 0.0)
    g0, g1, g2 = (grad[0] if f0 else 0.0), (grad[1] if f1 else 0.0), (grad[2] if f2 else 0.0)
    # cofactors of [[a, b, e], [b, f, h], [e, h, k]]
    c00, c01, c02 = f * k - h * h, e * h - b * k, b * h - e * f
    c11, c12, c22 = a * k - e * e, b * e - a * h, a * f - b * b
    det = a * c00 + b * c01 + e * c02
    if det > _SINGULAR * a * f * k:
        inv = 1.0 / det
        return [
            (c00 * g0 + c01 * g1 + c02 * g2) * inv,
            (c01 * g0 + c11 * g1 + c12 * g2) * inv,
            (c02 * g0 + c12 * g1 + c22 * g2) * inv,
        ]
    mask = np.array(free)
    sol = np.linalg.lstsq(cov * (mask[:, None] & mask), np.array(grad) * mask, rcond=None)[0]
    return (sol * mask).tolist()


@dataclass
class _Dual:
    """The dual g_Q of each cell at its multipliers ``lam[b]``: the kernel
    w[b, x, k] = exp(lam[b].drops(x, k)) per cost group and its log, the
    value and a bound on the rounding in it, the gradient E[d] - D, the
    normaliser Z[b, y, x] and the law R[b, y, x, k] of the cost group given
    (y, x)."""

    lam: list[list[float]]
    log_w: np.ndarray
    w: np.ndarray
    value: list[float]
    rounding: list[float]
    grad: list[list[float]]
    Z: np.ndarray
    R: np.ndarray


@dataclass
class _Step:
    """One constrained step of each cell from Q[b]: the dual solved at Q (its
    multipliers and value F(Q)), the certificate, the BA update of Q and its
    multiplicative factor c[b, y, h]."""

    Q: np.ndarray
    dual: _Dual
    cert: list[float]
    Q_next: np.ndarray
    c: np.ndarray


class _Anderson:
    """Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011) of one
    cell's marginal update, whose sequence converges linearly, slowly where
    an atom sits at its support threshold or a multiplier tends to zero.

    Rows of dR, dG: the last _MEMORY differences of the residuals r = Q_next - Q
    and images g = Q_next of one cell's accepted steps, ``count`` since the last
    clear, difference k in ring slot k % _MEMORY. ``rows`` holds r above the
    rows of dR, so that one product gives the Gram of r and the differences.
    The buffers start zeroed; slots past ``count`` hold zeros or a cleared
    history's differences, and the fit gives them no weight. A cell's history
    starts at its first step, whose (Q, Q_next) it takes."""

    def __init__(self, Q: np.ndarray, Q_next: np.ndarray):
        self.rows, self.dG = np.zeros((_MEMORY + 1, Q.size)), np.zeros((_MEMORY, Q.size))
        self.r, self.dR = self.rows[0], self.rows[1:]
        np.subtract(Q_next.ravel(), Q.ravel(), out=self.r)
        self.count, self.g = 0, Q_next

    def push(self, Q: np.ndarray, Q_next: np.ndarray) -> None:
        r, i = (Q_next - Q).ravel(), self.count % _MEMORY
        np.subtract(r, self.r, out=self.dR[i])
        np.subtract(Q_next.ravel(), self.g.ravel(), out=self.dG[i])
        self.r[:] = r
        self.count, self.g = self.count + 1, Q_next

    def propose(self) -> np.ndarray | None:
        """g minus the image differences weighted by the least-squares fit of the
        residual differences to r, shortened so that every atom keeps _FLOOR of g
        (0 stays 0), renormalised; None without history.

        The history is often singular to working precision: on a symmetric
        source a side's marginal has fewer degrees of freedom than the
        history has differences. So the fit takes the newest differences that
        working precision resolves, Walker & Ni's remedy of dropping the old
        differences that add nothing but rounding: the Cholesky factor of
        their Gram, newest first, stops at the first pivot that is not above
        machine epsilon times the largest diagonal entry so far. A fit whose step does not advance along r (delta.r >=
        r.r, or not finite) drops the oldest difference it kept and is solved
        again from the leading block of the same factor; None once no
        difference is left. The blend weights cover every ring slot, 0 on
        the slots left out."""
        n = min(self.count, _MEMORY)
        if not n:
            return None
        G = (self.rows @ self.rows.T).tolist()
        rr, eps = G[0][0], sys.float_info.epsilon
        # rows of G, newest difference first
        order = [1 + (self.count - 1 - j) % _MEMORY for j in range(n)]
        # L L^T: the Gram of the kept differences in that order, each row of L
        # ending at its diagonal; L y: their products with r
        L: list[list[float]] = []
        y: list[float] = []
        top = 0.0
        for j, a in enumerate(order):
            Ga = G[a]
            row, pivot, rhs = [Ga[c] for c in order[:j]], Ga[a], G[0][a]
            for i, Li in enumerate(L):
                v = row[i]
                for k in range(i):
                    v -= row[k] * Li[k]
                row[i] = v = v / Li[i]
                pivot -= v * v
                rhs -= v * y[i]
            top = max(top, Ga[a])
            if not pivot > eps * top:
                break
            row.append(math.sqrt(pivot))
            y.append(rhs / row[j])
            L.append(row)
        for m in range(len(L), 0, -1):
            # back-substitution on the leading m x m block: the newest m differences
            x, gamma = y[:m], [0.0] * _MEMORY
            for j in range(m - 1, -1, -1):
                for k in range(j + 1, m):
                    x[j] -= L[k][j] * x[k]
                x[j] /= L[j][j]
                gamma[order[j] - 1] = x[j]
            delta = np.dot(gamma, self.dG)
            if np.dot(delta, self.r) < rr:
                break
        else:
            return None
        g = self.g
        delta = delta.reshape(g.shape)
        # the largest share t <= 1 of the step that leaves g - t delta >= _FLOOR g;
        # the masking is needed only where g has a zero letter
        if g.min() > 0.0:
            Q = g - (1.0 - _FLOOR) / max((delta / g).max(), 1.0 - _FLOOR) * delta
        else:
            live = g > 0.0
            over = np.divide(delta, g, out=np.zeros(g.shape), where=live).max()
            Q = np.where(live, g - (1.0 - _FLOOR) / max(over, 1.0 - _FLOOR) * delta, 0.0)
        return Q / np.add.reduce(Q, axis=1, keepdims=True)


@dataclass
class _Cell:
    """A cell of a batch: its slot (its chain), targets and steps taken; its
    last accepted step (row ``row`` of a batch step) with that step's
    multipliers, BA image, F and certificate, where its next step starts; its
    Anderson history; and the error that stopped it, if one did. Before the
    first step ``lam`` and ``Q_next`` hold the start, and F and the
    certificate are infinite: no step exceeds them.

    The active set (:meth:`_ConstrainedBA._active_set`): ``saved`` holds the
    mass each dropped letter had at its drop and 0 elsewhere, ``pinned`` the
    letters never dropped again, and ``drop`` (the letters) or ``revive``
    (their masses) what the next start changes; None stands for none."""

    slot: int
    targets: tuple[float, ...]
    lam: list[float]
    Q_next: np.ndarray
    value: float = math.inf
    cert: float = math.inf
    step: _Step | None = None
    row: int = 0
    iterations: int = 0
    history: _Anderson | None = None
    error: SolverError | None = None
    saved: np.ndarray | None = None
    pinned: np.ndarray | None = None
    drop: np.ndarray | None = None
    revive: np.ndarray | None = None


class _ConstrainedBA:
    """Alternating minimization under the three distortion constraints for a
    batch of cells of one problem, each with its own targets: an exact
    multiplier solve per cell at every step, on the workspace's cost groups,
    and Anderson acceleration of each cell's marginal update. One
    :meth:`advance` takes one step of every live cell: each array operation
    covers them all, and only the few scalars of each cell are handled one
    cell at a time. A lone solve is a batch of one.

    Every sum over one cell's arrays is a stack of per-cell products, and
    the one product over all cells' rows together, the group masses, takes a
    lone row twice (:meth:`_Workspace.group_masses`); so a cell's numbers do
    not depend on the cells beside it: a batch returns bit for bit the
    points of its chains run one after another."""

    # a step's multipliers are solved to meet the cells' targets
    _targeted = True

    def __init__(self, ws: _Workspace, opts: SolverOptions):
        self.ws = ws
        self.opts = opts
        self.cells: list[_Cell] = []

    # ---- the dual at fixed Q ----------------------------------------------

    def _letters(self, d: _Dual) -> np.ndarray:
        """The kernel per letter, W[b, x, h]."""
        return np.take(d.w.reshape(len(d.w), -1), self.ws.letter_group, axis=1)

    def _evaluate(self, M: np.ndarray, lam: list[list[float]],
                  targets: Sequence[Sequence[float]]) -> _Dual:
        """g_Q of each cell at its multipliers lam[b], from the group masses
        M[b] of its Q."""
        ws = self.ws
        n = len(M)
        log_w = (np.array(lam)[:, None, :] @ ws.drops).reshape(n, ws.nx, ws.K)
        w = np.exp(log_w)
        R = M * w[:, None]
        Z = np.add.reduce(R, axis=3)  # (n, ny, nx)
        R /= Z[:, :, :, None]
        # g = lam.absolute_floors - sum p log Z - lam.D; with large multipliers
        # the first and last terms nearly cancel, so rounding scales with their
        # size (both are nonnegative, as costs and multipliers are)
        log_z = (np.log(Z).reshape(n, 1, -1) @ ws.Pw_col).ravel().tolist()
        mean = (ws.weighted @ R.reshape(n, -1, 1)).tolist()
        (c0, c1, c2), value, rounding, grad = ws.absolute_floors, [], [], []
        for l, z, t, ((m0,), (m1,), (m2,)) in zip(lam, log_z, targets, mean):
            s = l[0] * c0 + l[1] * c1 + l[2] * c2
            ld = l[0] * t[0] + l[1] * t[1] + l[2] * t[2]
            value.append(s - z - ld)
            rounding.append(1e-14 * (1.0 + (abs(s) + abs(z) + abs(ld))))
            grad.append([m0 - t[0], m1 - t[1], m2 - t[2]])
        return _Dual(lam, log_w, w, value, rounding, grad, Z, R)

    def _covariance(self, d: _Dual) -> np.ndarray:
        """The cost covariance behind each cell's dual, averaged over (y, x):
        the negated Hessian, (n, 3, 3)."""
        ws = self.ws
        n = len(d.R)
        second = (ws.weighted * d.R.reshape(n, 1, -1)) @ ws.costs_yxk.T
        # cost means conditional on (y, x), as (n, x, y, i), and the same weighted by p(y, x)
        m1 = d.R.swapaxes(1, 2) @ ws.costs_xki
        B = ws.Pw.T[:, :, None] * m1
        return second - B.reshape(n, -1, 3).swapaxes(1, 2) @ m1.reshape(n, -1, 3)

    def _newton(self, M: np.ndarray, d: _Dual, targets: Sequence[Sequence[float]],
                tol: list[float]) -> tuple[_Dual, list[int]]:
        """Projected Newton with Armijo backtracking on each cell's g_Q over
        0 <= lam <= LAMBDA_CAP from d, to a KKT residual of its tol, or of the
        rounding in g where that is larger, but never above _KKT_TOL. Returns
        the final duals, and the cells that stopped above that residual (out
        of Newton or backtracking steps, or at once along a direction that is
        not an ascent direction, where g falls for every share t, as rounding
        makes one where the costs are nearly collinear on the support): the
        stalled ones.

        Every evaluation covers every cell; a cell that is done, or whose
        backtracking is, keeps its multipliers and so its dual."""

        def unsolved(d: _Dual, b: int) -> bool:
            return (_kkt_residual(d.lam[b], d.grad[b])
                    > min(_KKT_TOL, max(tol[b], d.rounding[b])))

        active = [b for b in range(len(M)) if unsolved(d, b)]
        stalled: list[int] = []
        for _ in range(_NEWTON_STEPS):
            if not active:
                break
            # Newton direction on the free coordinates; the others stay put. No
            # coordinate moves by more than max(1, lam_i)
            lam, grad, value, rounding = d.lam, d.grad, d.value, d.rounding
            cov, at, steps = self._covariance(d), list(lam), {}
            for b in active:
                l, g = lam[b], grad[b]
                step = _newton_direction(cov[b], g, [x > 0.0 or y > 0.0 for x, y in zip(l, g)])
                (l0, l1, l2), (s0, s1, s2) = l, step
                reach = min(max(1.0, l0) / max(abs(s0), 1e-300),
                            max(1.0, l1) / max(abs(s1), 1e-300),
                            max(1.0, l2) / max(abs(s2), 1e-300))
                if reach < 1.0:
                    step = [y * reach for y in step]
                steps[b] = step
                x = at[b] = [min(LAMBDA_CAP, max(0.0, v + y)) for v, y in zip(l, step)]
                if g[0] * (x[0] - l0) + g[1] * (x[1] - l1) + g[2] * (x[2] - l2) <= 0.0:
                    # not an ascent direction: no share of it passes Armijo
                    at[b] = l
                    stalled.append(b)
            # every cell still backtracking has failed the same shares t before
            t, pending = 1.0, [b for b in active if b not in stalled]
            for _ in range(_BACKTRACKS):
                new = self._evaluate(M, at, targets)
                # Armijo, up to rounding in g once the gain is that small
                failed = []
                for b in pending:
                    x, l, g = at[b], lam[b], grad[b]
                    gain = g[0] * (x[0] - l[0]) + g[1] * (x[1] - l[1]) + g[2] * (x[2] - l[2])
                    if not new.value[b] >= value[b] + _ARMIJO * gain - rounding[b]:
                        failed.append(b)
                pending = failed
                if not pending:
                    break
                t *= 0.5
                for b in pending:
                    at[b] = [min(LAMBDA_CAP, max(0.0, x + t * y)) for x, y in zip(lam[b], steps[b])]
            else:
                # out of backtracking steps: those cells stay where they are
                for b in pending:
                    at[b] = lam[b]
                new = self._evaluate(M, at, targets)
                stalled += pending
            d = new
            active = [b for b in active if b not in stalled and unsolved(d, b)]
        return d, stalled + active

    def _solve_dual(self, M: np.ndarray, lam: list[list[float]],
                    targets: Sequence[Sequence[float]], tol: list[float]) -> _Dual:
        """Maximise each cell's g_Q by :meth:`_newton`, warm-started at its
        multipliers lam[b]; M holds the group masses of the cells' Q. A cell
        that stalls from nonzero multipliers is solved again from zero at the
        same Q, and keeps the multipliers of the larger of the two values:
        both are lower bounds on F(Q). An inherited multiplier stalls this way
        where the new target is slack enough: its cost's variance underflows
        and Newton cannot move it."""
        d, stalled = self._newton(M, self._evaluate(M, lam, targets), targets, tol)
        retry = sorted(b for b in stalled if any(lam[b]))
        if retry:
            Mr, tr = M[retry], [targets[b] for b in retry]
            zero = self._evaluate(Mr, [[0.0, 0.0, 0.0] for _ in retry], tr)
            again, _ = self._newton(Mr, zero, tr, [tol[b] for b in retry])
            best = list(d.lam)
            for i, b in enumerate(retry):
                if again.value[i] > d.value[b]:
                    best[b] = again.lam[i]
            if best != d.lam:
                d = self._evaluate(M, best, targets)
        return d

    # ---- steps ---------------------------------------------------------------

    def _update(self, Q: np.ndarray, d: _Dual) -> tuple[list[float], np.ndarray, np.ndarray]:
        """Per cell: the certificate at d, the BA update of Q and its factor
        c, per letter."""
        c = (self.ws.P / d.Z) @ self._letters(d)
        gap = np.maximum(np.maximum.reduce(c, axis=2) - 1.0, 0.0)
        Q_next = Q * c
        Q_next /= np.add.reduce(Q_next, axis=2, keepdims=True)
        cert = (gap.reshape(len(gap), 1, -1) @ self.ws.p_y_col).ravel().tolist()
        return cert, Q_next, c

    def add(self, slot: int, targets: Sequence[float], lam: Sequence[float] = (0.0, 0.0, 0.0),
            Q: np.ndarray | None = None) -> None:
        """A new cell, joining the batch at its next step: that step starts
        from the marginal Q (uniform when None) with its multiplier solve
        warm-started at lam. A letter Q leaves at 0 counts as dropped at the
        uniform mass 1 / nh, where its revival puts it back."""
        cell = _Cell(slot, tuple(targets), [float(l) for l in lam],
                     self.ws.initial_marginal() if Q is None else Q)
        if Q is not None and not Q.all():
            cell.saved = np.where(Q > 0.0, 0.0, 1.0 / self.ws.nh)
        self.cells.append(cell)

    def advance(self) -> list[_Cell]:
        """One step of every live cell: from its Anderson proposal, or else
        from its last BA image, with its pending drop or revival applied. A
        cell whose step raises F beyond rounding refuses what was proposed: a
        drop's letters are pinned and the cell continues from its undropped
        image, and otherwise the history goes and a revival's masses are
        halved (the restarts and monotonicity control of Henderson &
        Varadhan, "Damped Anderson acceleration ...", JCGS 2019); a plain
        step that raises F fails. A drop whose target solve ends above the
        KKT gate is refused too. Revived letters are pinned. A cell stops
        once its certificate is below CERT_TOL with no revival pending, or it
        has taken ``max_iters`` steps. Returns the cells that stopped, in
        slot order, and removes them from the batch: a cell converged when
        its certificate is below CERT_TOL, and the final step's channel
        Q W / Z meets its targets up to its dual's KKT residual."""
        cells, proposed, start = self.cells, [], []
        for cell in cells:
            P = None if cell.history is None else cell.history.propose()
            Q = cell.Q_next if P is None else P
            change = cell.drop is not None or cell.revive is not None
            if change:
                Q = np.where(cell.drop, 0.0, Q) if cell.drop is not None else Q + cell.revive
                Q = Q / np.add.reduce(Q, axis=1, keepdims=True)
            proposed.append(P is not None or change)
            start.append(Q)
            cell.iterations += 1
        Q = np.array(start)
        # the dual to a tenth of the last certificate where that is below
        # _KKT_TOL: multipliers frozen inside the _KKT_TOL band stall it
        d = self._solve_dual(self.ws.group_masses(Q), [cell.lam for cell in cells],
                             [cell.targets for cell in cells], [cell.cert / 10.0 for cell in cells])
        s = _Step(Q, d, *self._update(Q, d))
        kept = []
        for b, cell in enumerate(cells):
            v = d.value[b]
            if not v < math.inf or v > cell.value + 1e-11 * (1.0 + abs(v)) or (
                    cell.drop is not None and self._stalled(d, b)):
                # a rise beyond rounding (+inf and NaN included: a normaliser
                # underflowed), or a drop that leaves the targets unmet,
                # refuses a proposal; a plain step fails
                if not proposed[b]:
                    cell.error = SolverError(f"constrained objective increased from {cell.value!r}"
                                             f" to {v!r} at step {cell.iterations}")
                elif cell.drop is not None:
                    # the history stays: the next start is the same proposal, undropped
                    cell.pinned = cell.drop if cell.pinned is None else cell.pinned | cell.drop
                    cell.drop = None
                else:
                    cell.history.count = 0
                    if cell.revive is not None:
                        cell.revive *= 0.5
                continue
            if cell.drop is not None:
                # each dropped letter keeps the mass it had at its drop
                dropped = np.where(cell.drop, cell.Q_next, 0.0)
                cell.saved = dropped if cell.saved is None else cell.saved + dropped
                cell.drop = None
            elif cell.revive is not None:
                back = cell.revive > 0.0
                cell.pinned = back if cell.pinned is None else cell.pinned | back
                rest = np.where(back, 0.0, cell.saved)
                cell.saved = rest if rest.any() else None
                cell.revive = None
            if cell.history is None:
                cell.history = _Anderson(Q[b], s.Q_next[b])
            else:
                cell.history.push(Q[b], s.Q_next[b])
            cell.step, cell.row, cell.lam, cell.Q_next = s, b, d.lam[b], s.Q_next[b]
            cell.value, cell.cert = v, s.cert[b]
            kept.append(b)
        self._active_set(s, kept)
        live, out, cap = [], [], self.opts.max_iters
        for cell in cells:
            if cell.error is None and cell.iterations < cap and (
                    cell.cert >= CERT_TOL or cell.revive is not None):
                live.append(cell)
            else:
                out.append(cell)
        self.cells = live
        return out

    def _stalled(self, d: _Dual, b: int) -> bool:
        """Whether cell b's multiplier solve ended above the KKT gate of a
        converged point, a residual of 5 CONSTRAINT_TOL: its targets are not
        met. The one definition of that gate."""
        return self._targeted and _kkt_residual(d.lam[b], d.grad[b]) > 5.0 * CONSTRAINT_TOL

    def _active_set(self, s: _Step, kept: list[int]) -> None:
        """The drops and revivals of the cells whose step was just kept (rows
        ``kept`` of step s), for their next start.

        In each row y a letter whose bound (c_max - 1) / (c_max - c) on its
        optimal mass is below _TAU is dropped, unless it is pinned or the
        start without it fails :meth:`_trial`; a dropped letter whose c exceeds
        1 + CERT_TOL is revived at its saved mass. A cell that would stop with
        its targets unmet revives nothing: it stops, and :meth:`_Batch._point`
        reports it unconverged. The tests run on the whole step's arrays; only
        the cells they flag are handled one at a time."""
        cells, c, Q = self.cells, s.c, s.Q_next
        # the bound is below _TAU where c < top - (top - 1) / _TAU; a row whose
        # top is below 1 (rounding) flags every letter but its top ones
        top = np.maximum.reduce(c, axis=2, keepdims=True)
        drop = c < np.minimum(top, top * (1.0 - 1.0 / _TAU) + 1.0 / _TAU)
        drop &= Q > 0.0
        flagged = np.logical_or.reduce(drop, axis=(1, 2)).tolist()
        rising = None
        for b in kept:
            cell = cells[b]
            if cell.saved is not None:
                if rising is None:
                    rising = c > 1.0 + CERT_TOL
                back = rising[b] & (cell.saved > 0.0)
                if back.any():
                    # halved while g at the current multipliers exceeds F
                    masses = np.where(back, cell.saved, 0.0)
                    for _ in range(_HALVINGS):
                        if self._trial(cell, Q[b] + masses, s.dual, b):
                            break
                        masses *= 0.5
                    cell.revive = masses
                    continue
            if not flagged[b] or cell.cert < CERT_TOL:  # a cell that stops drops nothing
                continue
            mask = drop[b] if cell.pinned is None else drop[b] & ~cell.pinned
            if not mask.any():
                continue
            if self._trial(cell, np.where(mask, 0.0, Q[b]), s.dual, b):
                cell.drop = mask
            else:
                cell.pinned = mask if cell.pinned is None else cell.pinned | mask

    def _trial(self, cell: _Cell, Q: np.ndarray, d: _Dual, b: int) -> bool:
        """Whether the cell may start from Q, renormalised here: at the
        multipliers of cell b of the dual d no source row loses its whole
        normaliser, and g does not already exceed the cell's last kept F
        (where it does, F(Q) >= g does too, and the step would be refused)."""
        M = self.ws.group_masses((Q / np.add.reduce(Q, axis=1, keepdims=True))[None])
        if not np.all(np.add.reduce(M * d.w[b], axis=3) > 0.0):
            return False
        v = self._evaluate(M, [d.lam[b]], [cell.targets]).value[0]
        return not v > cell.value + 1e-11 * (1.0 + abs(v))

    def run(self) -> _Cell:
        """Advance a batch of one cell until it stops."""
        while not (done := self.advance()):
            pass
        return done[0]


class _FixedBA(_ConstrainedBA):
    """The same loop with the multipliers held where each cell starts them:
    each step evaluates g_Q there in place of the multiplier solve. With zero
    targets g_Q is the Lagrangian, so its monotonicity check, the
    acceleration and the certificate carry over unchanged."""

    _targeted = False

    def _solve_dual(self, M, lam, targets, tol) -> _Dual:
        return self._evaluate(M, lam, targets)


def ba_fixed_multipliers(
    problem: RDProblem,
    lambda1: float,
    lambda2: float,
    lambda_s: float,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> RDPoint:
    """Solve the Lagrangian problem at fixed multipliers (natural-log based).

    Returns the rate and achieved distortions of the final BA channel, as
    :func:`solve_rd_point` does; coordinates with zero multiplier keep
    whatever (rate-free) reproduction the alternating minimization settles on.
    """
    lam = tuple(check_real(v, f"multiplier {name}", 0.0) for name, v in (
        ("lambda1", lambda1), ("lambda2", lambda2), ("lambda_s", lambda_s)))
    ws = problem._workspace
    run = _FixedBA(ws, opts)
    run.add(0, (0.0, 0.0, 0.0), lam)
    done = run.run()
    if done.error is not None:
        raise done.error
    achieved = tuple(done.step.dual.grad[done.row])
    return RDPoint(ws.rate(done.step, done.row), achieved, lam, done.iterations,
                   done.cert < CERT_TOL)


class _Batch:
    """Chains of queries on one problem (:func:`_chains`), solved in lockstep
    by one :class:`_ConstrainedBA`: each chain owns a slot, and each slot
    holds one live cell at a time. When a slot's cell stops, the slot takes
    the next query of its chain; a query below a floor or at zero rate is
    answered there and the slot moves on, and so is a query whose changed
    targets are slack at the slot's last answer, a converged point (their
    multipliers 0 there, the targets at least what it achieves): that
    answer stands, with no step (Boyd & Vandenberghe, "Convex
    Optimization", 2004, section 5.6: loosening a constraint whose
    multiplier is 0 leaves the optimum where it is). Proof: with l_i = 0 the
    dual g_q(l) does not contain D_i, and its i-gradient at l is
    E d_i - D'_i <= 0 for the new target D'_i, so the same l is KKT-optimal
    for the new targets at the same q; F(q), the certificate and the channel
    q W / Z are those the answer already reports, and its convergence gates
    hold at the new targets. On a (d1, ds) sweep, where the semantic target
    is slack over much of the grid, most cells are answered this way.

    The chain is traced by continuation, as Blahut (1972) traced a
    rate-distortion curve: a chain's first run starts from the uniform
    marginal at zero multipliers, and each later run where the previous one
    ended. A slot keeps one record, ``last[slot]``: the targets and point of
    its last answer, a converged one, and the warm start it leaves, the
    final step's BA marginal mixed with _WARM_MIX of the uniform marginal,
    the multipliers being the point's. The BA update never revives a zero
    atom, and the active set revives one only once its c exceeds 1: without
    the mix some sweeps take more steps. Every converged run sets the
    record, at any rate, and an answer without a run keeps its marginal;
    every other outcome clears it, and the next run starts cold.

    :meth:`run` advances the batch once, until every chain is answered, and
    returns each chain's answers in order."""

    def __init__(self, problem: RDProblem, chains: Sequence[Sequence[RDQuery]],
                 opts: SolverOptions):
        self.ws = problem._workspace
        self.cba = _ConstrainedBA(self.ws, opts)
        self.queries = [iter(chain) for chain in chains]
        self.answers: list[list[RDPoint | SemrdError]] = [[] for _ in chains]
        self.last: list[tuple | None] = [None for _ in chains]
        for slot in range(len(chains)):
            self._take(slot)

    def _take(self, slot: int) -> None:
        """Answer the slot's next queries that need no run, and start a run on
        the first one that does."""
        ws = self.ws
        for query in self.queries[slot]:
            targets, last = query.as_tuple(), self.last[slot]
            self.last[slot] = None
            for coord, floor in enumerate(ws.absolute_floors):
                if targets[coord] < floor - 1e-12:
                    answer = InfeasibleDistortionError(
                        f"constraint {coord}: target {targets[coord]} is below the "
                        f"full-information floor {floor}")
                    break
            else:
                floors = ws.zero_rate_floors
                if all(t >= f - 1e-15 for t, f in zip(targets, floors)):
                    # zero rate: each reproduction is the best function of y alone
                    answer = RDPoint(0.0, floors, (0.0, 0.0, 0.0), 0, True)
                elif last is not None and all(
                        t == u or (l == 0.0 and t >= a)
                        for t, u, l, a in zip(targets, last[0], last[1].multipliers,
                                              last[1].achieved)):
                    # every changed target is slack at the last answer, which
                    # stands; the chain keeps its warm start
                    answer = replace(last[1], iterations=0)
                    self.last[slot] = (targets, answer, last[2])
                else:
                    start = () if last is None else (last[1].multipliers, last[2])
                    self.cba.add(slot, targets, *start)
                    return
            self.answers[slot].append(answer)

    def _point(self, done: _Cell) -> RDPoint | SemrdError:
        """The point of a stopped cell, or its error; a converged point
        becomes its chain's last answer, whose multipliers and final BA
        marginal, mixed with _WARM_MIX of the uniform one, start the chain's
        next run. The achieved distortions are the final dual's gradient plus
        the targets, E d_i = sum p(x, y) R(k | x, y) c_i(x, k) over groups."""
        if done.error is not None:
            return done.error
        s, b, targets = done.step, done.row, done.targets
        lam, grad = tuple(s.dual.lam[b]), s.dual.grad[b]
        achieved = tuple(g + t for g, t in zip(grad, targets))
        cs = sum(l * abs(g) for l, g in zip(lam, grad))
        cs /= math.log(2.0)
        try:
            rate = self.ws.rate(s, b)
        except SolverError as exc:
            return exc
        ok = (
            done.cert < CERT_TOL
            and not self.cba._stalled(s.dual, b)
            and cs <= RATE_TOL
            and all(a <= t + 10.0 * CONSTRAINT_TOL for a, t in zip(achieved, targets))
        )
        point = RDPoint(rate, achieved, lam, done.iterations, ok, cs)
        if ok:
            Q = s.Q_next[b]
            self.last[done.slot] = (targets, point,
                                    (1.0 - _WARM_MIX) * Q + _WARM_MIX / Q.shape[1])
        return point

    def run(self) -> list[list[RDPoint | SemrdError]]:
        """Advance the batch until every chain is answered; each chain's
        answers, in order, as points or errors."""
        while self.cba.cells:
            for done in self.cba.advance():
                self.answers[done.slot].append(self._point(done))
                self._take(done.slot)
        return self.answers


def solve_rd_point(
    problem: RDProblem,
    query: RDQuery,
    opts: SolverOptions = DEFAULT_OPTIONS,
    *,
    _answer: RDPoint | SemrdError | None = None,
) -> RDPoint:
    """Minimum rate meeting the query's three expected-distortion targets.

    Targets at or above the zero-rate distortion of a coordinate leave that
    constraint slack (zero multiplier). Targets below the full-information
    floor raise :class:`InfeasibleDistortionError`. The returned point's
    achieved distortions satisfy the query up to ``CONSTRAINT_TOL``.

    A split problem (:attr:`RDProblem.split`) is solved through its two
    parts (:func:`_points`); every other problem by one joint solve, as
    :func:`solve_joint_point` does. ``opts`` caps the steps of each run
    (:class:`SolverOptions`). ``_answer`` is private to :func:`_solve_chains`:
    an answer its batch has already found, returned here, or raised if it is
    an error, with nothing solved.
    """
    if _answer is None:
        if problem.split is None:
            _answer = _Batch(problem, [[query]], opts).run()[0][0]
        else:
            (_answer,) = _points(problem, [query], opts)
    return _raised(_answer)


def solve_joint_point(problem: RDProblem, query: RDQuery) -> RDPoint:
    """:func:`solve_rd_point` as one joint solve over all three constraints,
    whether or not the source splits: what :func:`solve_rd_point` does on a
    problem that does not split, and the reference for those that do. It is
    a batch of one chain of one query."""
    return _raised(_Batch(problem, [[query]], DEFAULT_OPTIONS).run()[0][0])


def _raised(answer: RDPoint | SemrdError) -> RDPoint:
    """The point, or the error raised."""
    if isinstance(answer, SemrdError):
        raise answer
    return answer


def semantic_rd(joint_sx1: JointPMF, ds: DistortionMatrix, Ds: float) -> RDPoint:
    """Semantic-only rate: reconstruct just the latent variable, no side
    information, observation unconstrained.

    Builds the posterior-averaged distortion from ``joint_sx1`` and solves the
    single-source special case (background and side-information axes
    degenerate, observation constraint vacuous).
    """
    from .semantic import modified_distortion

    ds_mod = modified_distortion(joint_sx1, ds)
    x1_alpha = ds_mod.source_axis
    reserved = {"bg", "si", "bg_hat", "obs_hat"}
    if x1_alpha.name in reserved or ds.repro_axis.name in reserved:
        raise ProbabilityError(f"axis names {reserved} are reserved by semantic_rd")
    p_x1 = joint_sx1.marginalize((x1_alpha.name,)).probs
    bg = Alphabet("bg", 1, ("*",))
    si = Alphabet("si", 1, ("*",))
    obs_hat = Alphabet("obs_hat", 1, ("*",))
    bg_hat = Alphabet("bg_hat", 1, ("*",))
    source = JointPMF((x1_alpha, bg, si), p_x1.reshape(-1, 1, 1))
    problem = RDProblem(source, DistortionMatrix.zero(x1_alpha, obs_hat),
                        DistortionMatrix.zero(bg, bg_hat), ds_mod)
    return solve_rd_point(problem, RDQuery(0.0, 0.0, Ds))


def _chains(queries: Sequence[RDQuery]) -> list[list[RDQuery]]:
    """The queries cut into chains: maximal runs of consecutive queries each
    differing from the previous one in exactly one target."""
    chains, prev = [], None
    for q in queries:
        t = q.as_tuple()
        if prev is None or sum(a != b for a, b in zip(t, prev)) != 1:
            chains.append([])
        chains[-1].append(q)
        prev = t
    return chains


def _pieces(chains: Sequence[Sequence[RDQuery]]) -> list[Sequence[RDQuery]]:
    """Each chain cut into consecutive pieces of at most floor(sqrt(q))
    queries, q being the queries of all the chains: a side of q queries runs
    about sqrt(q) pieces of about sqrt(q) queries side by side. Chains no
    longer than that stay whole, as on a square grid.

    The cut trades two costs. A batch takes about as many steps as its
    longest chain takes one after another, and a batch step costs a fixed
    part and a part per live cell that grows with the alphabet. With n
    identical cells, a step took about 230-350 us plus 50-90 us per extra
    cell on the binary observation side of the independent example (4
    letters), and about 320-390 us plus 170-200 us per extra cell on the
    N = 64 classification observation side (128 letters): wall time, medians
    of 30 batches on a shared 2-core Xeon, context only. Side-by-side pieces
    share the fixed part of each step; every extra piece adds a cold head,
    whose run takes more cell steps than a warm one. Pieces of about sqrt(q)
    queries balance the two. A side whose queries form one chain, as on a
    curve or on the background side of a split sweep (its distinct d2
    values), runs side by side too, not one query at a time. One-query
    pieces, all cold, cost more cell steps than they save batch steps on
    large alphabets."""
    size = math.isqrt(sum(len(c) for c in chains))
    return [c[i:i + size] for c in chains for i in range(0, len(c), size)]


def _solve_chains(problem: RDProblem, chains: Sequence[Sequence[RDQuery]],
                  opts: SolverOptions) -> list[RDPoint | SemrdError]:
    """One point or error per query of each chain, in order. The chains are
    one :class:`_Batch`, run once; each answer is then handed out through
    one :func:`solve_rd_point` call, which solves nothing. The call goes
    through the module attribute so that a caller may wrap it."""
    answers, found = [], _Batch(problem, chains, opts).run()
    for q, answer in zip(itertools.chain(*chains), itertools.chain(*found)):
        try:
            answers.append(solve_rd_point(problem, q, opts, _answer=answer))
        except SemrdError as exc:
            answers.append(exc)
    return answers


def _compose(obs: RDPoint | SemrdError, bg: RDPoint | SemrdError) -> RDPoint | SemrdError:
    """The point of a split problem from its two parts' points (see
    :class:`RDPoint`); an error in either part is the cell's error."""
    if isinstance(obs, SemrdError):
        return obs
    if isinstance(bg, SemrdError):
        return bg
    cs = obs.cs_residual + bg.cs_residual
    return RDPoint(
        obs.rate + bg.rate,
        (obs.achieved[0], bg.achieved[1], obs.achieved[2]),
        (obs.multipliers[0], bg.multipliers[1], obs.multipliers[2]),
        obs.iterations + bg.iterations,
        obs.converged and bg.converged and cs <= RATE_TOL,
        cs,
    )


def _points(problem: RDProblem, queries: Sequence[RDQuery],
            opts: SolverOptions) -> list[RDPoint | SemrdError]:
    """One point or error per query, in order: the one place where queries
    become batches. The sides are the problem itself or, on a split problem,
    its observation part under each distinct (d1, ds) and its background
    part under each distinct d2, whose points are composed. Each side's
    chains (:func:`_chains`) are cut into pieces of at most floor(sqrt(q))
    queries, q the side's query count (:func:`_pieces`), and its pieces are
    one batch, solved in this process."""
    split = problem.split
    if split is None:
        sides = [(problem, queries)]
    else:
        obs_keys = list(dict.fromkeys((q.d1, q.ds) for q in queries))
        bg_keys = list(dict.fromkeys(q.d2 for q in queries))
        sides = [(split[0], [RDQuery(d1, 0.0, ds) for d1, ds in obs_keys]),
                 (split[1], [RDQuery(0.0, d2, 0.0) for d2 in bg_keys])]
    points = [p for part, qs in sides if qs
              for p in _solve_chains(part, _pieces(_chains(qs)), opts)]
    if split is None:
        return points
    obs_points = dict(zip(obs_keys, points))
    bg_points = dict(zip(bg_keys, points[len(obs_keys):]))
    return [_compose(obs_points[q.d1, q.ds], bg_points[q.d2]) for q in queries]


def solve_cells(problem: RDProblem, queries: Sequence[RDQuery]) -> Iterator[SurfaceCell]:
    """Solve each query and yield one cell per query, in order. Per-cell
    failures are yielded as flagged cells, not raised.

    The queries are solved by continuation, in one lockstep batch per side
    (:func:`_points`, :class:`_Batch`): each run after a piece's
    first starts from its predecessor's final marginal and multipliers, which
    saves steps and moves rates only by rounding against a lone
    :func:`solve_rd_point` call, a batch of one that starts cold. A query
    whose changed targets are slack at its predecessor's converged answer
    (multipliers 0, targets at least the achieved distortions) takes that
    answer with no run and ``iterations`` 0. Each side's batch runs once, to
    its end; each answer is then handed out through one
    :func:`solve_rd_point` call through the module attribute, once per query
    or, on a split problem, once per distinct part query, which solves
    nothing. A point's ``iterations`` are its query's own steps.
    """
    points = _points(problem, queries, DEFAULT_OPTIONS)
    return (
        SurfaceCell(q, p) if isinstance(p, RDPoint)
        else SurfaceCell(q, None, error=f"{type(p).__name__}: {p}")
        for q, p in zip(queries, points)
    )


def sweep_surface(problem: RDProblem, grid: Mapping[str, Sequence[float]]) -> RDSurface:
    """Solve one point per grid cell (Cartesian product of the three target
    lists), as one batch (:func:`solve_cells`). Per-cell failures are
    returned as flagged cells, not raised. Keys other than d1, d2 and ds, or
    an axis that is not a list of finite reals, raise :class:`ProbabilityError`.
    """
    keys = ("d1", "d2", "ds")
    if set(grid.keys()) != set(keys):
        raise ProbabilityError(f"grid must have exactly the keys {keys}, got {tuple(grid.keys())}")
    axes = []
    for k in keys:
        try:
            values = list(grid[k])
        except TypeError:
            raise ProbabilityError(f"grid {k} must be a list of values, got {grid[k]!r}") from None
        axes.append([check_real(v, f"grid {k}") for v in values])
    if not all(axes):
        raise ProbabilityError("empty grid")
    queries = [RDQuery(*t) for t in itertools.product(*axes)]
    return RDSurface(tuple(solve_cells(problem, queries)))
