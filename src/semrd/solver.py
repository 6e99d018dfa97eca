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

Two numerical details matter:

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
  covariance of the costs. The solve is a projected Newton iteration with
  Armijo backtracking, warm-started at the previous multipliers, run to a
  KKT residual of 1e-12, because multipliers left anywhere inside the
  ``CONSTRAINT_TOL`` band make the certificate stall; once the certificate
  is below 1e-11 the residual goes to a tenth of the previous step's
  certificate (never below the rounding in g), because multipliers frozen
  inside the 1e-12 band stall it in its last digits. Its direction solves
  the free block of the covariance (1x1, 2x2 or 3x3) in closed form; a
  block singular to working precision gets the least-norm solution. The step
  then takes the BA marginal update at those multipliers. Its value
  F(q) = max_l g_q(l) never increases from step to step; an increase beyond
  rounding raises :class:`SolverError`. The certificate above, read at the
  solved multipliers, bounds F(q) minus the optimal rate.

  The marginal sequence converges linearly, slowly where an atom sits at its
  support threshold or a multiplier tends to zero. Anderson acceleration
  (Walker & Ni, SIAM J. Numer. Anal. 2011) fits differences of the
  residuals r = Q_next - Q, among the last five, to r by least squares and
  proposes Q_next minus the same blend of differences of Q_next, shortened
  so that no atom falls below a tenth of its BA image, and renormalised.
  The history is often singular to working precision: on a symmetric
  source a side's marginal has fewer degrees of freedom than the history
  has differences. So the fit factors the differences' Gram by Cholesky,
  newest first, and keeps only the differences before the first pivot that
  is not above machine epsilon times the largest diagonal entry so far:
  Walker & Ni's remedy of dropping the old differences that add nothing
  but rounding. A fit whose step does not advance along r
  (delta.r >= r.r) drops its oldest kept difference and is solved again
  from the leading block of the same factor; a history with no difference
  left proposes nothing. A proposal's step is kept unless F rises beyond
  rounding; then the history is cleared and a plain step follows: the
  restarts and monotonicity control of Henderson & Varadhan ("Damped
  Anderson acceleration ...", JCGS 2019).

  The multiplier solve runs on cost groups, not on letters. Within one
  source row x, reproduction letters with the same cost triple
  (d1, d2, d's) share one kernel value w(x, k) = exp(shift - l.c), so with
  M(y, x, k) the mass q_y puts on group k of row x,
  Z(y, x) = sum_k M(y, x, k) w(x, k); the dual value, its gradient and the
  covariance are sums over the same groups. The dual therefore depends on q
  only through M, and the grouped solve is exact: only the order of
  summation changes. Groups are formed per table (equal values within a row
  of d1 over x1h, of d2 over x2h, of d's over sh) and combined, so each row
  has K = K1 K2 Ks groups: 8 of 256 letters for the classification model at
  N = 64, all 8 letters on the binary models. Each step sums q to M once,
  in one product with the 0/1 matrix of letter-in-group membership
  (nh x nx K). The BA marginal update, the certificate and the
  acceleration stay per letter, with the letter kernel gathered from w; the
  kernel is rebuilt only when the multipliers change.

  A coordinate whose multiplier solves to 0 meets its target through the
  KKT conditions: its gradient E d_i - D_i is at most the residual, so the
  final channel itself satisfies it. A linear segment of the rate surface
  needs no time-sharing: at fixed q the map from multipliers to distortions
  is smooth, and q converges to the mixture.

* A solved point is a handful of numbers read off the final step's arrays:
  no channel over (y, x, h) is built after the loop, and its rate and
  distortions are those of the final BA channel t = q W / Z at the final
  step's multipliers. Within a source row t / q = w / Z is
  constant on each cost group, and KL(t(.|x, y) || q_y) over letters equals
  KL(R || M) over groups, R being the group law. With q_out = q c the BA
  update, the rate is I = sum p(x, y) KL(R || M) - sum p(y) KL(q_out || q),
  the alternating-minimization form of Csiszar & Tusnady ("Information
  geometry and alternating minimization procedures", 1984) and of Blahut
  (1972). It is exact on groups, only the order of summation changes, and
  its two sums are of nonnegative terms, so nothing cancels at large
  multipliers. The achieved distortions are the final dual's gradient plus
  the targets, E d_i = sum p(x, y) R(k | x, y) c_i(x, k) over groups.

  A problem's workspace (flattened law, cost tables, cost groups, and each
  coordinate's two floors) is built on the problem object's first solve and
  kept on the object (``RDProblem._workspace``): every later solve of that
  object shares it, and the two parts of a split problem keep one each.

* A batch of queries is solved by continuation, as Blahut (1972) traced a
  rate-distortion curve: each slope's run started from the previous slope's
  output marginal. :func:`solve_cells` cuts the batch into chains, maximal
  runs of consecutive queries (on a split problem, of distinct part queries)
  each differing from the previous one in exactly one target, and each chain
  into pieces of at most floor(sqrt(q)) consecutive queries, q being the
  queries of its side (the problem, or one part of a split problem); a piece
  is a chain of its own. A chain's first run starts from the uniform
  marginal at zero multipliers; each later run starts from the previous
  run's final BA marginal, mixed with 0.1% of the uniform one (BA never
  revives a zero atom), and its multiplier solve from the previous run's
  multipliers. A zero-rate, failed or unconverged point restarts its chain
  cold. An inherited multiplier can saturate where the new target is slack
  enough: its cost's variance underflows, Newton cannot move it and the
  multiplier solve stops above its tolerance. Any solve that stalls from
  nonzero multipliers, at any step, is repeated from zero multipliers at the
  same marginal, and the larger of the two dual values is kept: both are
  lower bounds on F(q).

  The chains of a batch run in lockstep (:class:`_ConstrainedBA`). Each
  chain owns a slot of one batch, a slot holds one cell (one run) at a time,
  and one step advances every live cell: the marginals as a (cells, y, h)
  array, the multiplier solves, the Anderson histories and the stopping
  rules each cell's own. A slot whose cell stops takes its chain's next
  query; a lone solve is a batch of one. Every sum over one cell's arrays is
  a stack of per-cell products, so a cell's numbers do not depend on the
  cells beside it: a batch returns bit for bit the points of its chains run
  one after another.

  The cut into pieces trades two costs. A batch step costs little more for
  more cells, so a batch takes about as many steps as its longest chain
  takes one after another; every extra piece adds a cold head, whose run
  takes more cell steps than a warm one. Pieces of about sqrt(q) queries
  balance the two: a side of q queries runs about sqrt(q) pieces side by
  side. A square grid's chains are that long already and stay whole; a side
  whose queries form one chain, as on a curve or on the background side of
  a split sweep (its distinct d2 values), runs side by side too, not one
  query at a time. One-query pieces, all cold, cost more cell steps than
  they save batch steps on large alphabets.

* A source whose observation and background are independent given the side
  information (the chain X1 - Y - X2, p(x1, x2, y) = p(x1|y) p(x2|y) p(y)) is
  solved as two smaller problems (Gray, "Conditional rate-distortion theory",
  Stanford technical report, 1972): the observation side on (X1, Y) under the
  d1 and d's targets, and the background side, the conditional
  rate-distortion function of X2 given Y, under the d2 target. The split is
  exact. For any channel, with X2 independent of X1 given Y,

      I(X1 X2; X1h X2h Sh | Y) = I(X1; X1h X2h Sh | Y) + I(X2; X1h X2h Sh | X1 Y)
                               >= I(X1; X1h Sh | Y) + I(X2; X2h | Y),

  and each distortion involves one side's reproduction only, so no channel
  beats the sum of the two sides' optima; the product of the two optimal
  channels meets all three targets with equality, so
  R(D1, D2, Ds) = R_obs(D1, Ds) + R_bg(D2). Each part's rate is within its
  certificate of its optimum, so the composed rate is within the sum of the
  two certificates of the joint optimum. The factorisation is detected once
  per problem object (:attr:`RDProblem.split`), to rounding, and only when
  both x1 and x2 have more than one letter; a batch on such a problem solves
  each distinct (d1, ds) on the observation side and each distinct d2 on the
  background side once. :func:`solve_joint_point` is the joint solve on any
  problem, the reference the split is checked against.

Exponent underflow is handled by shifting each cost row by its maximum before
exponentiation. Rates are returned in ``problem.log_base`` units; multipliers
are natural-log based (they appear inside exp).

The tolerances are module constants, not options; :class:`SolverOptions`
holds the one option, ``max_iters``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InfeasibleDistortionError, ProbabilityError, SemrdError, SolverError
from .prob import Alphabet, DistortionMatrix, JointPMF, _check_log_base, check_int, check_real

_COORDS = (0, 1, 2)


@dataclass(frozen=True)
class SolverOptions:
    """The one option of the alternating minimization, shared by target
    solves and fixed-multiplier runs; its tolerances are the module
    constants ``CERT_TOL``, ``CONSTRAINT_TOL``, ``RATE_TOL`` and
    ``LAMBDA_CAP``. A run starts from the uniform marginal, or, along a chain
    of a batch (:func:`solve_cells`), from its predecessor's final step; the
    certificate stop makes the rate independent of the start up to rounding.

    ``max_iters`` caps the steps of a run. It leaves headroom for the slow
    regime where a reproduction atom sits near its support threshold: the
    certificate then decays sublinearly. With Anderson acceleration a target
    solve there takes tens of steps (21 at the correlated example's query
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
    """One solver instance: source law, reproduction alphabets, distortions."""

    source: JointPMF  # axes (x1, x2, y)
    repro_alphabets: tuple[Alphabet, Alphabet, Alphabet]  # (x1h, x2h, sh)
    d1: DistortionMatrix  # x1 x x1h
    d2: DistortionMatrix  # x2 x x2h
    ds_mod: DistortionMatrix  # x1 x sh (posterior-averaged semantic table)
    log_base: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_base", _check_log_base(self.log_base))
        if len(self.source.axes) != 3:
            raise ProbabilityError(
                f"source must have exactly 3 axes (observation, background, side info); "
                f"got {self.source.axis_names}"
            )
        repro = tuple(self.repro_alphabets)
        if len(repro) != 3:
            raise ProbabilityError("repro_alphabets must be a triple")
        object.__setattr__(self, "repro_alphabets", repro)
        names = self.source.axis_names + tuple(a.name for a in repro)
        if len(set(names)) != 6:
            raise ProbabilityError(f"source and reproduction axis names must be distinct: {names}")
        x1, x2, _y = self.source.axes
        pairs = (
            ("d1", self.d1, x1, repro[0]),
            ("d2", self.d2, x2, repro[1]),
            ("ds_mod", self.ds_mod, x1, repro[2]),
        )
        for label, d, src, rep in pairs:
            if d.source_axis != src or d.repro_axis != rep:
                raise ProbabilityError(
                    f"{label} alphabets {d.source_axis.name}x{d.repro_axis.name} do not match "
                    f"problem axes {src.name}x{rep.name}"
                )

    @property
    def axis_names(self) -> tuple[str, ...]:
        return self.source.axis_names + tuple(a.name for a in self.repro_alphabets)

    @functools.cached_property
    def split(self) -> tuple[RDProblem, RDProblem] | None:
        """The observation-side and background-side problems when the source
        factorises as p(x1|y) p(x2|y) p(y), each entry to a relative 1e-12,
        and both x1 and x2 have more than one letter; else None. Computed
        once per problem object, so the two parts keep their identity (and
        their workspaces) across the solves of a sweep."""
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
    h1, h2, hs = problem.repro_alphabets
    marg = problem.source.marginalize((x1.name, y.name)).probs
    bg = Alphabet(x2.name, 1, ("*",))
    bg_hat = Alphabet(h2.name, 1, ("*",))
    source = JointPMF((x1, bg, y), marg.reshape(x1.size, 1, y.size))
    return RDProblem(
        source=source,
        repro_alphabets=(h1, bg_hat, hs),
        d1=problem.d1,
        d2=DistortionMatrix.zero(bg, bg_hat),
        ds_mod=problem.ds_mod,
        log_base=problem.log_base,
    )


def background_side_problem(problem: RDProblem) -> RDProblem:
    """Reduced instance keeping (background, side info) only."""
    x1, x2, y = problem.source.axes
    h1, h2, hs = problem.repro_alphabets
    marg = problem.source.marginalize((x2.name, y.name)).probs
    obs = Alphabet(x1.name, 1, ("*",))
    obs_hat = Alphabet(h1.name, 1, ("*",))
    sem_hat = Alphabet(hs.name, 1, ("*",))
    source = JointPMF((obs, x2, y), marg.reshape(1, x2.size, y.size))
    return RDProblem(
        source=source,
        repro_alphabets=(obs_hat, h2, sem_hat),
        d1=DistortionMatrix.zero(obs, obs_hat),
        d2=problem.d2,
        ds_mod=DistortionMatrix.zero(obs, sem_hat),
        log_base=problem.log_base,
    )


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
    """A solved point, as numbers only: the rate (log_base units/symbol) and
    the achieved distortions of one channel, the multipliers used
    (natural-log based), and solver diagnostics. On both solver paths the
    channel is the final BA step's, so a coordinate with multiplier 0
    reports what that channel achieves (at most its target, up to the KKT
    residual), which depends on where the run started: the final channel is
    one of the optimal channels, and a slack coordinate does not single one
    out. The rate and the multipliers of a solved point move only by rounding
    with the start (:func:`solve_cells`). On the zero-rate path the channel
    is the best channel of y alone, and ``achieved`` holds the zero-rate
    floors. ``iterations`` counts the point's own steps, Anderson proposals
    included, on both paths (a target solve's steps each solve for the
    multipliers, a fixed-multiplier run's hold them): in a batch each step
    advances several cells, and each counts it once. It is 0 on the
    zero-rate path. ``cs_residual`` bounds
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

    The constrained solve also sees the letters grouped by cost. Each table
    row is grouped by exact equality of value (d1 rows over x1h, d2 rows over
    x2h, d's rows over sh), and a composite letter's group is the triple of
    its table groups, so every source row x has K = K1 K2 Ks groups (Ki the
    most groups in any row of table i; rows with fewer carry empty padding
    groups). ``group_costs[i, x, k]`` is the cost of group k of row x,
    ``letter_group[x, h]`` the flat (x, k) index of letter h's group, and
    :meth:`group_masses` sums a marginal Q[y, h] over each row's groups.
    Tables with no repeated values give K = nh.

    One workspace serves every solve of its problem object
    (``RDProblem._workspace``), and holds each coordinate's floors."""

    def __init__(self, problem: RDProblem):
        self.log_base = problem.log_base
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

        # per-coordinate small tables indexed by composite x, used by the floors
        d1x = np.broadcast_to(problem.d1.values[:, None, :], (self.nx1, self.nx2, self.nh1))
        d2x = np.broadcast_to(problem.d2.values[None, :, :], (self.nx1, self.nx2, self.nh2))
        dsx = np.broadcast_to(problem.ds_mod.values[:, None, :], (self.nx1, self.nx2, self.nhs))
        self.coord_costs = tuple(
            np.ascontiguousarray(d.reshape(self.nx, -1)) for d in (d1x, d2x, dsx)
        )
        self.absolute_floors = tuple(self.absolute_floor(c) for c in _COORDS)
        self.zero_rate_floors = tuple(self.zero_rate_floor(c) for c in _COORDS)

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
        # the group costs flat over (x, k) and over (y, x, k), the same
        # weighted by p(y, x), and as one (k, i) table per source row; the
        # weights of the dual's sums as columns
        self.flat = self.group_costs.reshape(3, -1)
        shape = (3, len(self.p_y), self.nx, self.K)
        self.costs_yxk = np.broadcast_to(self.group_costs[:, None], shape).reshape(3, -1)
        self.weighted = (self.Pw[None, :, :, None] * self.group_costs[:, None]).reshape(3, -1)
        self.costs_xki = np.ascontiguousarray(self.group_costs.transpose(1, 2, 0))
        self.Pw_col, self.p_x_col = self.Pw.reshape(-1, 1), self.p_x[:, None]
        self.p_y_col = self.p_y[:, None]

    def group_masses(self, Q: np.ndarray) -> np.ndarray:
        """M[..., y, x, k]: the mass Q[..., y, h] puts on group k of source
        row x, one product with the membership matrix for every cell and y."""
        return (Q.reshape(-1, self.nh) @ self.members).reshape(Q.shape[:-1] + (self.nx, self.K))

    # ---- alternating minimization -------------------------------------

    def initial_marginal(self) -> np.ndarray:
        """The uniform marginal Q[y, h], where a cold run starts."""
        return np.full((len(self.p_y), self.nh), 1.0 / self.nh)

    def rate(self, s: _Step, b: int) -> float:
        """I(X1, X2; X1h, X2h, Sh | Y) in ``log_base`` units of the channel
        T = Q W / Z of cell b of a step, the form of every BA channel.

        Within a source row T / Q = w / Z is constant on each cost group, so
        KL(T(.|y, x) || Q_y) over letters is KL(R || M) over groups, R the
        group law and M the group masses of Q. With Q_out = Q c the BA update,
        I = sum p(y, x) KL(R || M) - sum p(y) KL(Q_out || Q). Both sums are
        of nonnegative terms, so nothing cancels at large multipliers."""
        Q, d, c = s.Q[b], s.dual, s.c[b]
        # R / M = w / Z on every group that R charges
        kl_rows = np.add.reduce(d.R[b] * (d.kernel.log_w[b] - np.log(d.Z[b])[:, :, None]), axis=2)
        Q_out = Q * c
        log_c = np.log(c, out=np.zeros_like(c), where=Q_out > 0.0)
        nats = (float(np.vdot(self.Pw, kl_rows))
                - float(np.dot(self.p_y, np.add.reduce(Q_out * log_c, axis=1))))
        value = nats / math.log(self.log_base)
        if value < -1e-12:
            raise SolverError(f"rate evaluated to {value:.3e} < -1e-12")
        return max(value, 0.0)

    # ---- floors ---------------------------------------------------------

    def absolute_floor(self, coord: int) -> float:
        """Distortion floor with full observation knowledge (max-rate limit)."""
        return float((self.p_x * self.coord_costs[coord].min(axis=1)).sum())

    def zero_rate_floor(self, coord: int) -> float:
        """Best distortion with reproductions depending on y alone."""
        ed = np.einsum("yx,xk->yk", self.Pw, self.coord_costs[coord])
        return float(ed.min(axis=1).sum())


# Constants of the constrained BA loop (see the module docstring). The dual is
# re-solved whenever its KKT residual exceeds _KKT_TOL (or a tenth of the last
# certificate, when that is smaller): multipliers left anywhere inside the
# CONSTRAINT_TOL band make the certificate stall far above CERT_TOL.
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
# share of the uniform marginal mixed into a chain's warm start
_WARM_MIX = 1e-3


def _kkt_residual(lam: Sequence[float], grad: Sequence[float]) -> float:
    """Largest KKT violation of the dual over lam >= 0: |grad| on positive
    multipliers, the positive part of grad on zero ones."""
    (l0, l1, l2), (g0, g1, g2) = lam, grad
    return max(abs(g0) if l0 > 0.0 else max(g0, 0.0), abs(g1) if l1 > 0.0 else max(g1, 0.0),
               abs(g2) if l2 > 0.0 else max(g2, 0.0))


def _newton_direction(
    cov: np.ndarray, grad: Sequence[float], free: Sequence[bool]
) -> list[float]:
    """The step s with cov[F, F] s[F] = grad[F] on the free coordinates F and
    s = 0 elsewhere. The free block (1x1, 2x2 or 3x3, symmetric PSD) is solved
    in closed form; a block that is singular to working precision gets the
    least-norm solution instead."""
    idx = [i for i in _COORDS if free[i]]
    c = cov.tolist()
    step = [0.0, 0.0, 0.0]
    if len(idx) == 1:
        (i,) = idx
        a = c[i][i]
        if a > 0.0:  # the determinant test, det and diagonal both being a
            step[i] = grad[i] / a
            return step
    elif len(idx) == 2:
        i, j = idx
        a, b, e = c[i][i], c[i][j], c[j][j]
        det = a * e - b * b
        if det > _SINGULAR * a * e:
            inv = 1.0 / det
            step[i] = (e * grad[i] - b * grad[j]) * inv
            step[j] = (a * grad[j] - b * grad[i]) * inv
            return step
    elif len(idx) == 3:
        (a, b, e), (_, f, h), (_, _, k) = c
        # cofactors of [[a, b, e], [b, f, h], [e, h, k]]
        c00, c01, c02 = f * k - h * h, e * h - b * k, b * h - e * f
        c11, c12, c22 = a * k - e * e, b * e - a * h, a * f - b * b
        det = a * c00 + b * c01 + e * c02
        if det > _SINGULAR * a * f * k:
            g0, g1, g2 = grad
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
class _Kernel:
    """exp(shift - lam.c) per cost group and cell, shift being each source
    row's least cost: ``w[b, x, k]``, its log ``log_w``, and ``p_shift[b]`` =
    p(x).shift, at the multipliers ``lam[b]``."""

    lam: list[list[float]]
    p_shift: list[float]
    log_w: np.ndarray
    w: np.ndarray


@dataclass
class _Dual:
    """The dual g_Q of each cell at its multipliers: its value and a bound on
    the rounding in it, the gradient E[d] - D, with the kernel, the
    normaliser Z[b, y, x] and the law R[b, y, x, k] of the cost group given
    (y, x)."""

    kernel: _Kernel
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
    """Rows of dR, dG: the last _MEMORY differences of the residuals r = Q_next - Q
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

        The fit takes the newest differences that working precision resolves:
        the Cholesky factor of their Gram, newest first, stops at the first
        pivot that is not above machine epsilon times the largest diagonal
        entry so far. A fit whose step does not advance along r (delta.r >=
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
        delta, live = delta.reshape(g.shape), g > 0.0
        # the largest share t <= 1 of the step that leaves g - t delta >= _FLOOR g
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
    certificate are infinite: no step exceeds them."""

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


class _ConstrainedBA:
    """Alternating minimization under the three distortion constraints for a
    batch of cells of one problem, each with its own targets: an exact
    multiplier solve per cell at every step, on the workspace's cost groups,
    and Anderson acceleration of each cell's marginal update. One
    :meth:`advance` takes one step of every live cell: each array operation
    covers them all, and only the few scalars of each cell are handled one
    cell at a time. A lone solve is a batch of one."""

    def __init__(self, ws: _Workspace, opts: SolverOptions):
        self.ws = ws
        self.opts = opts
        self.cells: list[_Cell] = []
        self._last_kernel: _Kernel | None = None

    # ---- the dual at fixed Q ----------------------------------------------

    def _kernel(self, lam: list[list[float]]) -> _Kernel:
        """The kernel of each cell at its multipliers lam[b]."""
        ws = self.ws
        # log w[b, x, k] = shift[b, x] - lam[b].c(x, k), shift being row x's least
        # cost: that of group 0, which holds the least of each table's row
        # (:func:`_row_groups`), as lam >= 0
        n = len(lam)
        log_w = (np.array(lam)[:, None, :] @ ws.flat).reshape(n, ws.nx, ws.K)
        shift = log_w[:, :, 0].copy()
        np.subtract(shift[:, :, None], log_w, out=log_w)
        p_shift = (shift.reshape(n, 1, -1) @ ws.p_x_col).ravel().tolist()
        return _Kernel(lam, p_shift, log_w, np.exp(log_w))

    def _letters(self, k: _Kernel) -> np.ndarray:
        """The kernel per letter, W[b, x, h]."""
        return np.take(k.w.reshape(len(k.w), -1), self.ws.letter_group, axis=1)

    def _evaluate(self, M: np.ndarray, k: _Kernel, targets: Sequence[Sequence[float]]) -> _Dual:
        """g_Q of each cell at its kernel's multipliers, from the group masses
        M[b] of its Q."""
        ws = self.ws
        n = len(M)
        R = M * k.w[:, None]
        Z = np.add.reduce(R, axis=3)  # (n, ny, nx)
        R /= Z[:, :, :, None]
        # g = p.shift - sum p log Z - lam.D; with large multipliers the first
        # and last terms nearly cancel, so rounding scales with their size
        # (both are nonnegative, as costs and multipliers are)
        log_z = (np.log(Z).reshape(n, 1, -1) @ ws.Pw_col).ravel().tolist()
        mean = (ws.weighted @ R.reshape(n, -1, 1)).tolist()
        value, rounding, grad = [], [], []
        for s, z, l, t, ((m0,), (m1,), (m2,)) in zip(k.p_shift, log_z, k.lam, targets, mean):
            ld = l[0] * t[0] + l[1] * t[1] + l[2] * t[2]
            value.append(s - z - ld)
            rounding.append(1e-14 * (1.0 + (abs(s) + abs(z) + abs(ld))))
            grad.append([m0 - t[0], m1 - t[1], m2 - t[2]])
        return _Dual(k, value, rounding, grad, Z, R)

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
        """Projected Newton on each cell's g_Q over 0 <= lam <= LAMBDA_CAP from
        d, to a KKT residual of its tol, or of the rounding in g where that is
        larger, but never above _KKT_TOL. Returns the final duals, and the
        cells that stopped above that residual (out of Newton or backtracking
        steps): the stalled ones.

        Every evaluation covers every cell; a cell that is done, or whose
        backtracking is, keeps its multipliers and so its dual."""

        def unsolved(d: _Dual, b: int) -> bool:
            return (_kkt_residual(d.kernel.lam[b], d.grad[b])
                    > min(_KKT_TOL, max(tol[b], d.rounding[b])))

        active = [b for b in range(len(M)) if unsolved(d, b)]
        stalled: list[int] = []
        for _ in range(_NEWTON_STEPS):
            if not active:
                break
            # Newton direction on the free coordinates; the others stay put. No
            # coordinate moves by more than max(1, lam_i)
            lam, grad, value, rounding = d.kernel.lam, d.grad, d.value, d.rounding
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
                at[b] = [min(LAMBDA_CAP, max(0.0, x + y)) for x, y in zip(l, step)]
            # every cell still backtracking has failed the same shares t before
            t, pending = 1.0, active
            for _ in range(_BACKTRACKS):
                new = self._evaluate(M, self._kernel(at), targets)
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
                new = self._evaluate(M, self._kernel(at), targets)
                stalled += pending
            d = new
            active = [b for b in active if b not in pending and unsolved(d, b)]
        return d, stalled + active

    def _solve_dual(self, M: np.ndarray, k: _Kernel, targets: Sequence[Sequence[float]],
                    tol: list[float]) -> _Dual:
        """Maximise each cell's g_Q by :meth:`_newton`, warm-started at the
        kernel's multipliers; M holds the group masses of the cells' Q. A
        cell that stalls from nonzero multipliers is solved again from zero
        at the same Q, and keeps the multipliers of the larger of the two
        values: both are lower bounds on F(Q). An inherited multiplier stalls
        this way where the new target is slack enough: its cost's variance
        underflows and Newton cannot move it."""
        d, stalled = self._newton(M, self._evaluate(M, k, targets), targets, tol)
        retry = sorted(b for b in stalled if any(k.lam[b]))
        if retry:
            Mr, tr = M[retry], [targets[b] for b in retry]
            zero = self._evaluate(Mr, self._kernel([[0.0, 0.0, 0.0] for _ in retry]), tr)
            again, _ = self._newton(Mr, zero, tr, [tol[b] for b in retry])
            lam = list(d.kernel.lam)
            for i, b in enumerate(retry):
                if again.value[i] > d.value[b]:
                    lam[b] = again.kernel.lam[i]
            if lam != d.kernel.lam:
                d = self._evaluate(M, self._kernel(lam), targets)
        return d

    # ---- steps ---------------------------------------------------------------

    def _update(self, Q: np.ndarray, d: _Dual) -> tuple[list[float], np.ndarray, np.ndarray]:
        """Per cell: the certificate at d, the BA update of Q and its factor
        c, per letter."""
        c = (self.ws.P / d.Z) @ self._letters(d.kernel)
        gap = np.maximum(np.maximum.reduce(c, axis=2) - 1.0, 0.0)
        Q_next = Q * c
        Q_next /= np.add.reduce(Q_next, axis=2, keepdims=True)
        cert = (gap.reshape(len(gap), 1, -1) @ self.ws.p_y_col).ravel().tolist()
        return cert, Q_next, c

    def add(self, slot: int, targets: Sequence[float], lam: Sequence[float] = (0.0, 0.0, 0.0),
            Q: np.ndarray | None = None) -> None:
        """A new cell, joining the batch at its next step: that step starts
        from the marginal Q (uniform when None) with its multiplier solve
        warm-started at lam."""
        self.cells.append(_Cell(slot, tuple(targets), [float(l) for l in lam],
                                self.ws.initial_marginal() if Q is None else Q))

    def advance(self) -> list[_Cell]:
        """One step of every live cell: from its Anderson proposal, or else
        from its last BA image. A cell whose step raises F beyond rounding
        drops a proposal and its history, or fails on a plain step; a cell
        stops once its certificate is below CERT_TOL or it has taken
        ``max_iters`` steps. Returns the cells that stopped, in slot order,
        and removes them from the batch: a cell converged when its
        certificate is below CERT_TOL, and the final step's channel Q W / Z
        meets its targets up to its dual's KKT residual."""
        cells, proposed, start = self.cells, [], []
        for cell in cells:
            P = None if cell.history is None else cell.history.propose()
            proposed.append(P is not None)
            start.append(cell.Q_next if P is None else P)
            cell.iterations += 1
        Q, lam = np.array(start), [cell.lam for cell in cells]
        # the last evaluation's kernel, while the cells keep its multipliers
        k = self._last_kernel
        if k is None or k.lam != lam:
            k = self._kernel(lam)
        # the dual to a tenth of the last certificate where that is below
        # _KKT_TOL: multipliers frozen inside the _KKT_TOL band stall it
        d = self._solve_dual(self.ws.group_masses(Q), k, [cell.targets for cell in cells],
                             [cell.cert / 10.0 for cell in cells])
        self._last_kernel = d.kernel
        s = _Step(Q, d, *self._update(Q, d))
        live, out, cap = [], [], self.opts.max_iters
        for b, cell in enumerate(cells):
            v = d.value[b]
            if v > cell.value + 1e-11 * (1.0 + abs(v)):
                # a rise beyond rounding drops a proposal and the history; a plain step fails
                if proposed[b]:
                    cell.history.count = 0
                else:
                    cell.error = SolverError(f"constrained objective increased from {cell.value!r}"
                                             f" to {v!r} at step {cell.iterations}")
            else:
                if cell.history is None:
                    cell.history = _Anderson(Q[b], s.Q_next[b])
                else:
                    cell.history.push(Q[b], s.Q_next[b])
                cell.step, cell.row, cell.lam, cell.Q_next = s, b, d.kernel.lam[b], s.Q_next[b]
                cell.value, cell.cert = v, s.cert[b]
            if cell.error is None and cell.cert >= CERT_TOL and cell.iterations < cap:
                live.append(cell)
            else:
                out.append(cell)
        self.cells = live
        return out

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

    def _solve_dual(self, M, k, targets, tol) -> _Dual:
        return self._evaluate(M, k, targets)


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
    answered there and the slot moves on. Each run starts where its chain's
    previous one ended: a run that converges at a positive rate leaves its
    final step's multipliers and BA marginal, mixed with _WARM_MIX of the
    uniform marginal because BA never revives a zero atom; every other
    outcome leaves a cold start.

    :meth:`result` hands out one chain's answers in order, advancing the
    batch only until the next one is ready; answers of the other chains wait
    in the batch, with their targets, until they are asked for."""

    def __init__(self, problem: RDProblem, chains: Sequence[Sequence[RDQuery]],
                 opts: SolverOptions):
        self.problem = problem
        self.ws = problem._workspace
        self.cba = _ConstrainedBA(self.ws, opts)
        self.queries = [iter(chain) for chain in chains]
        self.ready: list[collections.deque] = [collections.deque() for _ in chains]
        self.starts: list[tuple] = [() for _ in chains]
        for slot in range(len(chains)):
            self._take(slot)

    def _take(self, slot: int) -> None:
        """Answer the slot's next queries that need no run, and start a run on
        the first one that does."""
        ws = self.ws
        for query in self.queries[slot]:
            start, self.starts[slot] = self.starts[slot], ()
            targets = query.as_tuple()
            for coord, floor in enumerate(ws.absolute_floors):
                if targets[coord] < floor - 1e-12:
                    self.ready[slot].append((targets, InfeasibleDistortionError(
                        f"constraint {coord}: target {targets[coord]} is below the "
                        f"full-information floor {floor}")))
                    break
            else:
                floors = ws.zero_rate_floors
                if not all(t >= f - 1e-15 for t, f in zip(targets, floors)):
                    self.cba.add(slot, targets, *start)
                    return
                # zero rate: each reproduction is the best function of y alone
                self.ready[slot].append((targets, RDPoint(0.0, floors, (0.0, 0.0, 0.0), 0, True)))

    def _point(self, done: _Cell) -> RDPoint | SemrdError:
        """The point of a stopped cell, or its error; a converged point at a
        positive rate becomes the warm start of its chain's next run."""
        if done.error is not None:
            return done.error
        s, b, targets = done.step, done.row, done.targets
        lam, grad = tuple(s.dual.kernel.lam[b]), s.dual.grad[b]
        achieved = tuple(g + t for g, t in zip(grad, targets))
        cs = sum(l * abs(g) for l, g in zip(lam, grad))
        cs /= math.log(self.ws.log_base)
        try:
            rate = self.ws.rate(s, b)
        except SolverError as exc:
            return exc
        ok = (
            done.cert < CERT_TOL
            and _kkt_residual(lam, grad) <= 5.0 * CONSTRAINT_TOL
            and cs <= RATE_TOL
            and all(a <= t + 10.0 * CONSTRAINT_TOL for a, t in zip(achieved, targets))
        )
        if ok:
            Q = s.Q_next[b]
            self.starts[done.slot] = (lam, (1.0 - _WARM_MIX) * Q + _WARM_MIX / Q.shape[1])
        return RDPoint(rate, achieved, lam, done.iterations, ok, cs)

    def result(self, problem: RDProblem, query: RDQuery, slot: int) -> RDPoint:
        """The answer to ``query``, the next query of chain ``slot``: its
        point, or its error raised. A query that is not that chain's next
        one, or a problem that is not the batch's, raises
        :class:`SolverError`: answers go to the queries they belong to."""
        ready = self.ready[slot]
        while not ready:
            if not self.cba.cells:
                raise SolverError(f"chain {slot} has no query left")
            for done in self.cba.advance():
                self.ready[done.slot].append((done.targets, self._point(done)))
                self._take(done.slot)
        targets, answer = ready[0]
        if problem is not self.problem or targets != query.as_tuple():
            raise SolverError(f"query {query.as_tuple()} is not the next query {targets} "
                              f"of chain {slot} of this batch")
        ready.popleft()
        if isinstance(answer, SemrdError):
            raise answer
        return answer


def solve_rd_point(
    problem: RDProblem,
    query: RDQuery,
    opts: SolverOptions = DEFAULT_OPTIONS,
    *,
    _batch: tuple[_Batch, int] | None = None,
) -> RDPoint:
    """Minimum rate meeting the query's three expected-distortion targets.

    Targets at or above the zero-rate distortion of a coordinate leave that
    constraint slack (zero multiplier). Targets below the full-information
    floor raise :class:`InfeasibleDistortionError`. The returned point's
    achieved distortions satisfy the query up to ``CONSTRAINT_TOL``.

    A split problem (:attr:`RDProblem.split`) is solved through its two
    parts (:func:`_points`); every other problem by :func:`solve_joint_point`.
    ``_batch`` is private to :func:`_solve_chains`: the shared batch and the
    chain whose next answer this call returns.
    """
    if _batch is not None:
        batch, slot = _batch
        return batch.result(problem, query, slot)
    if problem.split is None:
        return solve_joint_point(problem, query, opts)
    (point,) = _points(problem, [query], opts)
    if isinstance(point, SemrdError):
        raise point
    return point


def solve_joint_point(
    problem: RDProblem,
    query: RDQuery,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> RDPoint:
    """:func:`solve_rd_point` as one joint solve over all three constraints,
    whether or not the source splits: the solver of every problem that does
    not split, and the reference for those that do. It is a batch of one
    chain of one query."""
    return _Batch(problem, [[query]], opts).result(problem, query, 0)


def semantic_rd(
    joint_sx1: JointPMF,
    ds: DistortionMatrix,
    Ds: float,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> RDPoint:
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
    problem = RDProblem(
        source=source,
        repro_alphabets=(obs_hat, bg_hat, ds.repro_axis),
        d1=DistortionMatrix.zero(x1_alpha, obs_hat),
        d2=DistortionMatrix.zero(bg, bg_hat),
        ds_mod=ds_mod,
        log_base=2.0,
    )
    return solve_rd_point(problem, RDQuery(0.0, 0.0, Ds), opts)


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
    longer than that stay whole, as on a square grid."""
    size = math.isqrt(sum(len(c) for c in chains))
    return [c[i:i + size] for c in chains for i in range(0, len(c), size)]


def _solve_chains(problem: RDProblem, chains: Sequence[Sequence[RDQuery]],
                  opts: SolverOptions) -> list[RDPoint | SemrdError]:
    """One point or error per query of each chain, in order, the chains in one
    :class:`_Batch`. Each is one :func:`solve_rd_point` call, through the
    module attribute so that a caller may wrap it, that returns the next
    answer of its chain."""
    batch, answers = _Batch(problem, chains, opts), []
    for slot, chain in enumerate(chains):
        for q in chain:
            try:
                answers.append(solve_rd_point(problem, q, opts, _batch=(batch, slot)))
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


def solve_cells(
    problem: RDProblem,
    queries: Sequence[RDQuery],
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> Iterator[SurfaceCell]:
    """Solve each query and yield one cell per query, in order. Per-cell
    failures are yielded as flagged cells, not raised.

    The queries are solved by continuation, in one lockstep batch per side
    (:func:`_points`; see the module docstring): each run after a piece's
    first starts from its predecessor's final marginal and multipliers, which
    saves steps and moves rates only by rounding against a lone
    :func:`solve_rd_point` call, a batch of one that starts cold. Each answer
    is one :func:`solve_rd_point` call through the module attribute, once per
    query or, on a split problem, once per distinct part query; a call
    advances the shared batch until its own query is done, and its point's
    ``iterations`` are that query's own steps.
    """
    points = _points(problem, queries, opts)
    return (
        SurfaceCell(q, p) if isinstance(p, RDPoint)
        else SurfaceCell(q, None, error=f"{type(p).__name__}: {p}")
        for q, p in zip(queries, points)
    )


def sweep_surface(
    problem: RDProblem,
    grid: Mapping[str, Sequence[float]],
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> RDSurface:
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
    return RDSurface(tuple(solve_cells(problem, queries, opts)))
