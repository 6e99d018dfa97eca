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
  (Walker & Ni, SIAM J. Numer. Anal. 2011) fits the last five differences of
  the residuals r = Q_next - Q to r by least squares and proposes Q_next
  minus the same blend of differences of Q_next, shortened so that no atom
  falls below a tenth of its BA image, and renormalised. Its step is kept
  unless F rises beyond rounding; then the history is cleared and a plain
  step follows: the restarts and monotonicity control of Henderson &
  Varadhan ("Damped Anderson acceleration ...", JCGS 2019).

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
  table by table. The BA marginal update, the certificate and the
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

  A problem's workspace (flattened law, cost tables, cost groups) lives as
  long as the problem object: the last one built is reused while solves are
  handed the same object, as the cells of a sweep are.

* A batch of queries is solved by continuation, as Blahut (1972) traced a
  rate-distortion curve: each slope's run started from the previous slope's
  output marginal. :func:`solve_cells` cuts the batch into chains, maximal
  runs of consecutive queries (on a split problem, of distinct part queries)
  each differing from the previous one in exactly one target. A chain's first
  run starts from the uniform marginal at zero multipliers; each later run
  starts from the previous run's final BA marginal, mixed with 0.1% of the
  uniform one (BA never revives a zero atom), and its multiplier solve from
  the previous run's multipliers. A zero-rate, failed or unconverged point
  restarts its chain cold. An inherited multiplier can saturate where the
  new target is slack enough: its cost's variance underflows, Newton cannot
  move it and the first multiplier solve stops above its tolerance; that
  solve is then repeated from zero multipliers at the same marginal. Chains
  depend on the queries only, and a process pool takes whole chains, so a
  pooled batch returns exactly the serial points.

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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InfeasibleDistortionError, ProbabilityError, SemrdError, SolverError
from .prob import Alphabet, DistortionMatrix, JointPMF, _check_log_base, is_finite_real

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
    solve there takes tens of steps (27 at the correlated example's query
    (0.05, 0.23, 0.45)). A run that exhausts the cap is reported with
    converged=False.
    """

    max_iters: int = 50000

    def __post_init__(self) -> None:
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, int) or (
            self.max_iters < 1
        ):
            raise ProbabilityError(f"solver option max_iters must be an int >= 1, "
                                   f"got {self.max_iters!r}")


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
        _check_log_base(self.log_base)
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
    """Target distortions. ``ds`` is the raw semantic target; the constraint
    enforced is E d's(X1, Sh) <= ds."""

    d1: float
    d2: float
    ds: float

    def __post_init__(self) -> None:
        for name in ("d1", "d2", "ds"):
            v = getattr(self, name)
            if not (is_finite_real(v) and v >= 0.0):
                raise ProbabilityError(f"query {name} must be finite and >= 0, got {v!r}")

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
    floors. ``iterations`` counts the steps
    of the run, Anderson proposals included, on both paths (a target solve's
    steps each solve for the multipliers, a fixed-multiplier run's hold
    them), and is 0 on the zero-rate path. ``cs_residual`` bounds
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
    groups in any row. A row with fewer groups repeats its smallest value in
    the padding slots, which hold no letter."""
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

    One workspace serves every solve of its problem object (``_workspace``)."""

    def __init__(self, problem: RDProblem):
        self.problem = problem
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
        # one-hot group membership per table: (x1 k1, x1h), (x2h, x2 k2), (-, x1, -, sh, ks)
        self._member1 = (g1[:, None, :] == np.arange(self.K1)[None, :, None]).reshape(
            self.nx1 * self.K1, self.nh1).astype(float)
        self._member2 = (g2.T[:, :, None] == np.arange(self.K2)).reshape(
            self.nh2, self.nx2 * self.K2).astype(float)
        self._members = (gs[:, :, None] == np.arange(self.Ks)).astype(float)[None, :, None]
        # the group costs flat over (x, k) and over (y, x, k), the same
        # weighted by p(y, x), and as one (k, i) table per source row
        self.flat = self.group_costs.reshape(3, -1)
        shape = (3, len(self.p_y), self.nx, self.K)
        self.costs_yxk = np.broadcast_to(self.group_costs[:, None], shape).reshape(3, -1)
        self.weighted = (self.Pw[None, :, :, None] * self.group_costs[:, None]).reshape(3, -1)
        self.costs_xki = np.ascontiguousarray(self.group_costs.transpose(1, 2, 0))

    def group_masses(self, Q: np.ndarray) -> np.ndarray:
        """M[y, x, k]: the mass Q[y, h] puts on group k of source row x,
        summed one table at a time (x1h, then x2h, then sh)."""
        ny = len(Q)
        S = self._member1 @ Q.reshape(ny, self.nh1, self.nh2 * self.nhs)
        S = S.reshape(ny, self.nx1, self.K1, self.nh2, self.nhs)  # (y, x1, k1, x2h, sh)
        S = S.swapaxes(3, 4) @ self._member2  # (y, x1, k1, sh, x2 k2)
        S = S.swapaxes(3, 4) @ self._members  # (y, x1, k1, x2 k2, ks)
        S = S.reshape(ny, self.nx1, self.K1, self.nx2, self.K2, self.Ks)
        return S.transpose(0, 1, 3, 2, 4, 5).reshape(ny, self.nx, self.K)

    # ---- alternating minimization -------------------------------------

    def initial_marginal(self) -> np.ndarray:
        """The uniform marginal Q[y, h], where a cold run starts."""
        return np.full((len(self.p_y), self.nh), 1.0 / self.nh)

    def rate(self, s: _Step) -> float:
        """I(X1, X2; X1h, X2h, Sh | Y) in ``log_base`` units of the step's
        channel T = Q W / Z, the form of every BA channel.

        Within a source row T / Q = w / Z is constant on each cost group, so
        KL(T(.|y, x) || Q_y) over letters is KL(R || M) over groups, R the
        group law and M the group masses of Q. With Q_out = Q c the BA update,
        I = sum p(y, x) KL(R || M) - sum p(y) KL(Q_out || Q). Both sums are
        of nonnegative terms, so nothing cancels at large multipliers."""
        d, c = s.dual, s.c
        # R / M = w / Z on every group that R charges
        kl_rows = (d.R * (d.kernel.log_w - np.log(d.Z)[:, :, None])).sum(axis=2)
        Q_out = s.Q * c
        log_c = np.log(c, out=np.zeros_like(c), where=Q_out > 0.0)
        nats = float(np.vdot(self.Pw, kl_rows)) - float(np.dot(self.p_y, (Q_out * log_c).sum(axis=1)))
        value = nats / math.log(self.problem.log_base)
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


_last_workspace: _Workspace | None = None


def _workspace(problem: RDProblem) -> _Workspace:
    """The workspace of ``problem``. The last one built is kept and reused
    while the same problem object is solved again (a sweep's cells). Reuse is
    keyed on identity: problems that compare equal may hold different
    arrays. A problem's arrays are read-only, so its workspace never goes
    stale."""
    global _last_workspace
    ws = _last_workspace
    if ws is None or ws.problem is not problem:
        ws = _last_workspace = _Workspace(problem)
    return ws


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
    return max(abs(g) if l > 0.0 else max(g, 0.0) for l, g in zip(lam, grad))


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
    """exp(shift - cost) per cost group at one multiplier vector, shift
    being each source row's least cost: ``w[x, k]``, its log ``log_w`` and
    ``p_shift`` = p(x).shift."""

    lam: tuple[float, ...]
    p_shift: float
    log_w: np.ndarray
    w: np.ndarray


@dataclass
class _Dual:
    """The dual g_Q at one multiplier vector: its value and a bound on the
    rounding in it, the gradient E[d] - D and KKT residual, with the kernel,
    the normaliser Z[y, x] and the law R[y, x, k] of the cost group given
    (y, x). ``stalled`` marks the end of a multiplier solve that stopped above
    its tolerance."""

    lam: tuple[float, ...]
    value: float
    rounding: float
    grad: tuple[float, ...]
    kkt: float
    kernel: _Kernel
    Z: np.ndarray
    R: np.ndarray
    stalled: bool = False


@dataclass
class _Step:
    """One constrained step from Q: the dual solved at Q (its multipliers,
    value F(Q) and KKT residual), the certificate, the BA update of Q and its
    multiplicative factor c[y, h]."""

    Q: np.ndarray
    dual: _Dual
    cert: float
    Q_next: np.ndarray
    c: np.ndarray


class _Anderson:
    """Rows of dR, dG: the last _MEMORY differences of the residuals r = Q_next - Q
    and images g = Q_next of a run's accepted steps, ``count`` since the last clear."""

    def __init__(self, s: _Step):
        self.dR, self.dG = np.empty((2, _MEMORY, s.Q.size))
        self.count, self.r, self.g = 0, (s.Q_next - s.Q).ravel(), s.Q_next

    def push(self, s: _Step) -> None:
        r, i = (s.Q_next - s.Q).ravel(), self.count % _MEMORY
        np.subtract(r, self.r, out=self.dR[i])
        np.subtract(s.Q_next.ravel(), self.g.ravel(), out=self.dG[i])
        self.count, self.r, self.g = self.count + 1, r, s.Q_next

    def propose(self) -> np.ndarray | None:
        """g minus the image differences weighted by the least-squares fit of the
        residual differences to r, shortened so that every atom keeps _FLOOR of g
        (0 stays 0), renormalised; None without history, on a singular fit or no advance."""
        if not self.count:
            return None
        dR, dG, r, g = self.dR[:self.count], self.dG[:self.count], self.r, self.g
        try:
            delta = np.linalg.solve(dR @ dR.T, dR @ r) @ dG
        except np.linalg.LinAlgError:
            return None
        if not np.dot(delta, r) < np.dot(r, r):
            return None  # the secant of a residual that grows along itself, or not finite
        delta, live = delta.reshape(g.shape), g > 0.0
        # the largest share t <= 1 of the step that leaves g - t delta >= _FLOOR g
        over = np.divide(delta, g, out=np.zeros(g.shape), where=live).max()
        Q = np.where(live, g - (1.0 - _FLOOR) / max(over, 1.0 - _FLOOR) * delta, 0.0)
        return Q / np.add.reduce(Q, axis=1, keepdims=True)


class _ConstrainedBA:
    """Alternating minimization under the three distortion constraints for
    one query: an exact multiplier solve at every step, on the workspace's
    cost groups, and Anderson acceleration of the marginal update."""

    def __init__(self, ws: _Workspace, targets: Sequence[float], opts: SolverOptions):
        self.ws = ws
        self.targets = tuple(float(t) for t in targets)
        self.opts = opts
        self.iterations = 0
        self._last_kernel: _Kernel | None = None

    # ---- the dual at fixed Q ----------------------------------------------

    def _kernel(self, lam: tuple[float, ...]) -> _Kernel:
        """The kernel at lam; the last one built is reused while lam is
        unchanged (the first evaluation of each step)."""
        k = self._last_kernel
        if k is None or k.lam != lam:
            ws = self.ws
            # log w[x, k] = shift[x] - lam.c(x, k), shift[x] being row x's least cost
            log_w = np.dot(lam, ws.flat).reshape(ws.nx, ws.K)
            shift = np.minimum.reduce(log_w, axis=1)
            np.subtract(shift[:, None], log_w, out=log_w)
            k = self._last_kernel = _Kernel(lam, float(np.dot(ws.p_x, shift)), log_w, np.exp(log_w))
        return k

    def _letters(self, k: _Kernel) -> np.ndarray:
        """The kernel per letter, W[x, h]."""
        return np.take(k.w, self.ws.letter_group)

    def _evaluate(self, M: np.ndarray, lam: Sequence[float]) -> _Dual:
        """g_Q at lam, from the group masses M of Q."""
        ws = self.ws
        lam = tuple(map(float, lam))
        k = self._kernel(lam)
        R = M * k.w
        Z = np.add.reduce(R, axis=2)  # (ny, nx)
        R /= Z[:, :, None]
        # g = p.shift - sum p log Z - lam.D; with large multipliers the first
        # and last terms nearly cancel, so rounding scales with their size
        terms = (
            k.p_shift,
            -float(np.vdot(ws.Pw, np.log(Z))),
            -sum(l * t for l, t in zip(lam, self.targets)),
        )
        rounding = 1e-14 * (1.0 + sum(abs(v) for v in terms))
        mean = (ws.weighted @ R.ravel()).tolist()
        grad = tuple(m - t for m, t in zip(mean, self.targets))
        return _Dual(lam, sum(terms), rounding, grad, _kkt_residual(lam, grad), k, Z, R)

    def achieved(self, d: _Dual) -> tuple[float, float, float]:
        """E d_i of the BA channel behind d: its gradient plus the targets
        (with zero targets, the gradient itself)."""
        return tuple(g + t for g, t in zip(d.grad, self.targets))

    def _covariance(self, d: _Dual) -> np.ndarray:
        """The cost covariance behind d, averaged over (y, x): the negated Hessian."""
        ws = self.ws
        second = (ws.weighted * d.R.ravel()) @ ws.costs_yxk.T
        # cost means conditional on (y, x), as (x, y, i), and the same weighted by p(y, x)
        m1 = d.R.swapaxes(0, 1) @ ws.costs_xki
        B = ws.Pw.T[:, :, None] * m1
        return second - B.reshape(-1, 3).T @ m1.reshape(-1, 3)

    def _solve_dual(self, M: np.ndarray, lam: Sequence[float], tol: float = _KKT_TOL) -> _Dual:
        """Maximise g_Q over 0 <= lam <= LAMBDA_CAP by projected Newton,
        warm-started at lam, to a KKT residual of tol, or of the rounding in
        g where that is larger, but never above _KKT_TOL; M holds the group
        masses of Q. A solve that stops above that residual (out of Newton or
        backtracking steps) returns its last dual marked ``stalled``."""
        d = self._evaluate(M, lam)
        for _ in range(_NEWTON_STEPS):
            if d.kkt <= min(_KKT_TOL, max(tol, d.rounding)):
                return d
            # Newton direction on the free coordinates; the others stay put
            free = [l > 0.0 or g > 0.0 for l, g in zip(d.lam, d.grad)]
            step = _newton_direction(self._covariance(d), d.grad, free)
            # no coordinate moves by more than max(1, lam_i)
            reach = min(max(1.0, l) / max(abs(s), 1e-300) for l, s in zip(d.lam, step))
            if reach < 1.0:
                step = [s * reach for s in step]
            t = 1.0
            for _ in range(_BACKTRACKS):
                new = self._evaluate(
                    M, [min(LAMBDA_CAP, max(0.0, l + t * s)) for l, s in zip(d.lam, step)]
                )
                # Armijo, up to rounding in g once the gain is that small
                gain = sum(g * (n - l) for g, n, l in zip(d.grad, new.lam, d.lam))
                if new.value >= d.value + _ARMIJO * gain - d.rounding:
                    break
                t *= 0.5
            else:
                break
            d = new
        d.stalled = d.kkt > min(_KKT_TOL, max(tol, d.rounding))
        return d

    # ---- steps ---------------------------------------------------------------

    def _update(self, Q: np.ndarray, d: _Dual) -> tuple[float, np.ndarray, np.ndarray]:
        """The certificate at d, the BA update of Q and its factor c, per letter."""
        c = (self.ws.P / d.Z) @ self._letters(d.kernel)
        cert = float(np.dot(self.ws.p_y, np.maximum(np.maximum.reduce(c, axis=1) - 1.0, 0.0)))
        Q_next = Q * c
        Q_next /= np.add.reduce(Q_next, axis=1, keepdims=True)
        return cert, Q_next, c

    def _step(self, Q: np.ndarray, lam: Sequence[float], tol: float = _KKT_TOL) -> _Step:
        self.iterations += 1
        M = self.ws.group_masses(Q)
        d = self._solve_dual(M, lam, tol)
        if d.stalled and self.iterations == 1 and any(lam):
            # a multiplier inherited from a neighbouring query can saturate, its
            # block of the covariance singular: solve again from 0 at this Q
            d = self._solve_dual(M, (0.0, 0.0, 0.0), tol)
        return _Step(Q, d, *self._update(Q, d))

    def run(
        self, lam: tuple[float, ...] = (0.0, 0.0, 0.0), Q: np.ndarray | None = None
    ) -> tuple[_Step, bool]:
        """Returns (final step, converged), the first step from the marginal
        Q (uniform when None) with its multiplier solve warm-started at lam.
        The final step's channel Q W / Z meets the targets up to its dual's
        KKT residual."""
        cap = self.opts.max_iters
        cur = self._step(self.ws.initial_marginal() if Q is None else Q, lam)
        history = _Anderson(cur)
        # no step, the Anderson proposal included, once the cap is reached
        while cur.cert >= CERT_TOL and self.iterations < cap:
            Q = history.propose()
            # the dual to a tenth of the last certificate where that is below
            # _KKT_TOL: multipliers frozen inside the _KKT_TOL band stall it
            s = self._step(cur.Q_next if Q is None else Q, cur.dual.lam, cur.cert / 10.0)
            # a rise beyond rounding drops a proposal and the history; a plain step raises
            if s.dual.value > cur.dual.value + 1e-11 * (1.0 + abs(s.dual.value)):
                if Q is not None:
                    history.count = 0
                    continue
                raise SolverError(f"constrained objective increased from {cur.dual.value!r}"
                                  f" to {s.dual.value!r} at step {self.iterations}")
            cur = s
            history.push(s)
        return cur, cur.cert < CERT_TOL


class _FixedBA(_ConstrainedBA):
    """The same loop with the multipliers held where ``run`` starts them:
    each step evaluates g_Q there in place of the multiplier solve. With zero
    targets g_Q is the Lagrangian, so its monotonicity check, the
    acceleration and the certificate carry over unchanged."""

    def _solve_dual(self, M: np.ndarray, lam: Sequence[float], tol: float = _KKT_TOL) -> _Dual:
        return self._evaluate(M, lam)


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
    lam = (float(lambda1), float(lambda2), float(lambda_s))
    if any(not math.isfinite(l) or l < 0.0 for l in lam):
        raise ProbabilityError(f"multipliers must be finite and >= 0, got {lam}")
    ws = _workspace(problem)
    run = _FixedBA(ws, (0.0, 0.0, 0.0), opts)
    final, converged = run.run(lam)
    return RDPoint(ws.rate(final), run.achieved(final.dual), lam, run.iterations, converged)


class _Start:
    """Where the next run of a chain of queries starts (:func:`_solve_chain`):
    the arguments of :meth:`_ConstrainedBA.run`, empty for a cold start. A
    solve takes them before anything else, so one that raises or ends at zero
    rate leaves a cold start; one that converges at a positive rate leaves its
    final step's multipliers and BA marginal, mixed with _WARM_MIX of the
    uniform marginal because BA never revives a zero atom."""

    def __init__(self) -> None:
        self.args: tuple = ()

    def take(self) -> tuple:
        args, self.args = self.args, ()
        return args

    def keep(self, final: _Step) -> None:
        Q = final.Q_next
        self.args = (final.dual.lam, (1.0 - _WARM_MIX) * Q + _WARM_MIX / Q.shape[1])


def solve_rd_point(
    problem: RDProblem,
    query: RDQuery,
    opts: SolverOptions = DEFAULT_OPTIONS,
    *,
    _start: _Start | None = None,
) -> RDPoint:
    """Minimum rate meeting the query's three expected-distortion targets.

    Targets at or above the zero-rate distortion of a coordinate leave that
    constraint slack (zero multiplier). Targets below the full-information
    floor raise :class:`InfeasibleDistortionError`. The returned point's
    achieved distortions satisfy the query up to ``CONSTRAINT_TOL``.

    A split problem (:attr:`RDProblem.split`) is solved as a batch of one
    through its two parts; every other problem by :func:`solve_joint_point`.
    ``_start`` is private to the chains of :func:`solve_cells`.
    """
    if problem.split is None:
        return solve_joint_point(problem, query, opts, _start=_start)
    (point,) = _solve_split(problem, [query], opts, None)
    if isinstance(point, SemrdError):
        raise point
    return point


def solve_joint_point(
    problem: RDProblem,
    query: RDQuery,
    opts: SolverOptions = DEFAULT_OPTIONS,
    *,
    _start: _Start | None = None,
) -> RDPoint:
    """:func:`solve_rd_point` as one joint solve over all three constraints,
    whether or not the source splits: the solver of every problem that does
    not split, and the reference for those that do."""
    start = _start.take() if _start is not None else ()
    ws = _workspace(problem)
    targets = query.as_tuple()
    for coord in _COORDS:
        floor = ws.absolute_floor(coord)
        if targets[coord] < floor - 1e-12:
            raise InfeasibleDistortionError(
                f"constraint {coord}: target {targets[coord]} is below the "
                f"full-information floor {floor}"
            )
    floors = tuple(ws.zero_rate_floor(c) for c in _COORDS)
    if all(t >= f - 1e-15 for t, f in zip(targets, floors)):
        # zero rate: each reproduction is the best function of y alone
        return RDPoint(0.0, floors, (0.0, 0.0, 0.0), 0, True)

    cba = _ConstrainedBA(ws, targets, opts)
    final, converged = cba.run(*start)
    d = final.dual
    achieved = cba.achieved(d)
    cs = sum(l * abs(g) for l, g in zip(d.lam, d.grad)) / math.log(problem.log_base)
    ok = (
        converged
        and d.kkt <= 5.0 * CONSTRAINT_TOL
        and cs <= RATE_TOL
        and all(a <= t + 10.0 * CONSTRAINT_TOL for a, t in zip(achieved, targets))
    )
    if ok and _start is not None:
        _start.keep(final)
    return RDPoint(ws.rate(final), achieved, d.lam, cba.iterations, ok, cs)


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


def _valid_workers(workers: object) -> bool:
    """A process count is None (serial) or an int >= 1; bools are rejected."""
    return workers is None or (
        isinstance(workers, int) and not isinstance(workers, bool) and workers >= 1
    )


def _chains(problem: RDProblem, queries: Sequence[RDQuery], opts: SolverOptions) -> list:
    """The queries cut into chains, as (problem, queries, options): maximal
    runs of consecutive queries each differing from the previous one in
    exactly one target."""
    chains, prev = [], None
    for q in queries:
        t = q.as_tuple()
        if prev is None or sum(a != b for a, b in zip(t, prev)) != 1:
            chains.append((problem, [], opts))
        chains[-1][1].append(q)
        prev = t
    return chains


def _solve_chain(args) -> list[RDPoint | SemrdError]:
    """One point or error per query of a chain, in order. Each is one
    :func:`solve_rd_point` call, through the module attribute so that a caller
    may wrap it; each starts where the previous one ended (:class:`_Start`),
    the first one and any after a zero-rate, failed or unconverged point
    from the uniform marginal at zero multipliers."""
    problem, queries, opts = args
    start, points = _Start(), []
    for q in queries:
        try:
            points.append(solve_rd_point(problem, q, opts, _start=start))
        except SemrdError as exc:
            points.append(exc)
    return points


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


def _solve_split(
    problem: RDProblem, queries: Sequence[RDQuery], opts: SolverOptions, workers: int | None
) -> Iterator[RDPoint | SemrdError]:
    """The points of a split problem, in query order. Each distinct (d1, ds)
    is solved once on the observation side and each distinct d2 once on the
    background side, in one batch with every observation solve first, so the
    one kept workspace serves each side's solves and a pool starts once."""
    obs, bg = problem.split
    obs_keys = list(dict.fromkeys((q.d1, q.ds) for q in queries))
    bg_keys = list(dict.fromkeys(q.d2 for q in queries))
    points = list(_solve_all(
        _chains(obs, [RDQuery(d1, 0.0, ds) for d1, ds in obs_keys], opts)
        + _chains(bg, [RDQuery(0.0, d2, 0.0) for d2 in bg_keys], opts), workers))
    obs_points = dict(zip(obs_keys, points))
    bg_points = dict(zip(bg_keys, points[len(obs_keys):]))
    for q in queries:
        yield _compose(obs_points[q.d1, q.ds], bg_points[q.d2])


def _solve_all(chains: list, workers: int | None) -> Iterator[RDPoint | SemrdError]:
    """One point or error per query of each chain (:func:`_solve_chain`), in
    order; whole chains go to a process pool when ``workers`` > 1 and there
    are at least two of them."""
    if workers is None or workers == 1 or len(chains) < 2:
        return itertools.chain.from_iterable(map(_solve_chain, chains))
    return _solve_in_pool(chains, workers)


def solve_cells(
    problem: RDProblem,
    queries: Sequence[RDQuery],
    opts: SolverOptions = DEFAULT_OPTIONS,
    workers: int | None = None,
) -> Iterator[SurfaceCell]:
    """Solve each query and yield one cell per query, in order. Per-cell
    failures are yielded as flagged cells, not raised.

    The queries are solved by continuation along chains of neighbours (see
    the module docstring): each run after a chain's first starts from its
    predecessor's final marginal and multipliers, which saves steps and moves
    rates only by rounding against a lone :func:`solve_rd_point` call, a
    batch of one that starts cold. Each solve is one :func:`solve_rd_point`
    call through the module attribute, once per query or, on a split
    problem, once per distinct part query. ``workers`` > 1 evaluates whole
    chains in that many separate processes, with the points of a serial run,
    when there are at least two chains (on a split problem, the two sides'
    chains share the pool). ``workers`` must be None or an int >= 1, else
    :class:`ProbabilityError` is raised.
    """
    if not _valid_workers(workers):
        raise ProbabilityError(f"workers must be None or an int >= 1, got {workers!r}")
    if problem.split is not None:
        points = _solve_split(problem, queries, opts, workers)
    else:
        points = _solve_all(_chains(problem, queries, opts), workers)
    return (
        SurfaceCell(q, p) if isinstance(p, RDPoint)
        else SurfaceCell(q, None, error=f"{type(p).__name__}: {p}")
        for q, p in zip(queries, points)
    )


def _solve_in_pool(chains: list, workers: int) -> Iterator[RDPoint | SemrdError]:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        chunk = max(1, len(chains) // (4 * workers))
        for points in pool.map(_solve_chain, chains, chunksize=chunk):
            yield from points


def sweep_surface(
    problem: RDProblem,
    grid: Mapping[str, Sequence[float]],
    opts: SolverOptions = DEFAULT_OPTIONS,
    workers: int | None = None,
) -> RDSurface:
    """Solve one point per grid cell (Cartesian product of the three target
    lists). Per-cell failures are returned as flagged cells, not raised.

    ``workers`` > 1 evaluates cells in separate processes (see
    :func:`solve_cells`).
    """
    keys = ("d1", "d2", "ds")
    if set(grid.keys()) != set(keys):
        raise ProbabilityError(f"grid must have exactly the keys {keys}, got {tuple(grid.keys())}")
    axes = [[float(v) for v in grid[k]] for k in keys]
    if not all(axes):
        raise ProbabilityError("empty grid")
    queries = [RDQuery(*t) for t in itertools.product(*axes)]
    return RDSurface(tuple(solve_cells(problem, queries, opts, workers)))
