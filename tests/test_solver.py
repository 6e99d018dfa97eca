"""Solver tests: fixed-multiplier behavior, target solves against closed
forms, surfaces, and the degenerate/edge paths.

The frozen solver references below were double-checked during development
against an independent disciplined-convex-programming formulation of the same
minimization; the two agreed to ~1e-6 on every point, including the ones the
closed forms do not cover.
"""

import itertools
import math
import operator

import numpy as np
import pytest

import semrd.solver as solver_mod
import semrd.sources as sources
from semrd.closed_form import rate_conditionally_independent, rate_correlated
from semrd.errors import InfeasibleDistortionError, ProbabilityError, SemrdError, SolverError
from semrd.prob import Alphabet, BinarySourceSpec, DistortionMatrix, JointPMF, binary_entropy
from semrd.solver import (
    RDProblem,
    RDQuery,
    SolverOptions,
    ba_fixed_multipliers,
    semantic_rd,
    solve_rd_point,
    sweep_surface,
)

SPEC_IND = BinarySourceSpec.conditionally_independent(0.25, 0.25, 0.25)
SPEC_COR = BinarySourceSpec.correlated(0.25, 0.25, 0.25)

# The sweep_independent benchmark's reference cell, and the BA iterations the
# Gauss-Seidel multiplier search (24 fixed-multiplier runs) spent on it.
REFERENCE_CELL = RDQuery(
    float(np.linspace(0.02, 0.23, 5)[2]),
    float(np.linspace(0.02, 0.23, 5)[2]),
    float(np.linspace(0.26, 0.49, 4)[1]),
)
GAUSS_SEIDEL_ITERATIONS = 1662


@pytest.fixture(scope="module")
def prob_ind():
    return sources.conditionally_independent_problem(SPEC_IND)


@pytest.fixture(scope="module")
def prob_cor():
    return sources.correlated_problem(SPEC_COR)


@pytest.fixture(scope="module")
def prob_cls():
    return sources.classification_problem(0.25, 0.25, 64)


def single_source_problem():
    """Uniform bit, Hamming, no side information, semantic axis inert."""
    x1 = Alphabet.binary("x1")
    bg = Alphabet("x2", 1, ("*",))
    si = Alphabet("y", 1, ("*",))
    h1 = Alphabet.binary("x1_hat")
    h2 = Alphabet("x2_hat", 1, ("*",))
    hs = Alphabet("s_hat", 1, ("*",))
    source = JointPMF((x1, bg, si), np.array([0.5, 0.5]).reshape(2, 1, 1))
    return RDProblem(
        source=source,
        repro_alphabets=(h1, h2, hs),
        d1=DistortionMatrix.hamming(x1, h1),
        d2=DistortionMatrix.zero(bg, h2),
        ds_mod=DistortionMatrix.zero(x1, hs),
    )


def random_table_problem(seed):
    """Seeded random source law and distortion tables (3x2x2 source, binary
    reproductions)."""
    rng = np.random.default_rng(seed)

    def alphabet(name, n):
        return Alphabet(name, n, tuple(str(i) for i in range(n)))

    x1, x2, y = alphabet("x1", 3), alphabet("x2", 2), alphabet("y", 2)
    h1, h2, hs = alphabet("x1_hat", 2), alphabet("x2_hat", 2), alphabet("s_hat", 2)
    source = JointPMF((x1, x2, y), rng.dirichlet(np.ones(12)).reshape(3, 2, 2))

    def table(a, b):
        return DistortionMatrix(a, b, rng.uniform(0.0, 1.0, (a.size, b.size)))

    return RDProblem(source, (h1, h2, hs), table(x1, h1), table(x2, h2), table(x1, hs))


def uneven_table_problem():
    """Seeded random source law with a d1 table whose rows repeat values
    unevenly: row 0 is constant, row 1 all distinct, row 2 has one repeat.
    Rows 0 and 2 therefore carry empty padding groups."""
    rng = np.random.default_rng(11)

    def alphabet(name, n):
        return Alphabet(name, n, tuple(str(i) for i in range(n)))

    x1, x2, y = alphabet("x1", 3), alphabet("x2", 2), alphabet("y", 2)
    h1, h2, hs = alphabet("x1_hat", 3), alphabet("x2_hat", 2), alphabet("s_hat", 2)
    source = JointPMF((x1, x2, y), rng.dirichlet(np.ones(12)).reshape(3, 2, 2))
    d1 = np.array([[0.5, 0.5, 0.5], [0.0, 0.3, 0.7], [0.2, 0.9, 0.2]])
    return RDProblem(
        source,
        (h1, h2, hs),
        DistortionMatrix(x1, h1, d1),
        DistortionMatrix(x2, h2, rng.uniform(0.0, 1.0, (2, 2))),
        DistortionMatrix(x1, hs, rng.uniform(0.0, 1.0, (3, 2))),
    )


def between_floors(problem, fractions):
    """Targets at the given fractions of the way from each coordinate's
    full-information floor to its zero-rate distortion."""
    ws = solver_mod._Workspace(problem)
    return RDQuery(*(
        ws.absolute_floor(c) + f * (ws.zero_rate_floor(c) - ws.absolute_floor(c))
        for c, f in enumerate(fractions)
    ))


def _solved(build, fractions=None, query=None, slack=False):
    """A case of the lean-point test: (problem, solved point, the targets
    when a coordinate's multiplier solves to 0 with its target slack, else
    None)."""

    def case():
        problem = build()
        q = query if query is not None else between_floors(problem, fractions)
        return problem, solve_rd_point(problem, q), q.as_tuple() if slack else None

    return case


def _fixed(build, lam, opts=solver_mod.DEFAULT_OPTIONS):
    def case():
        problem = build()
        return problem, ba_fixed_multipliers(problem, *lam, opts=opts), None

    return case


LEAN_POINT_CASES = [
    _solved(lambda: sources.conditionally_independent_problem(SPEC_IND),
            query=RDQuery(0.1, 0.1, 0.5)),
    _solved(lambda: sources.correlated_problem(SPEC_COR), query=RDQuery(0.05, 0.1, 0.3),
            slack=True),
    _solved(lambda: sources.classification_problem(0.25, 0.25, 64),
            query=RDQuery(0.096, 0.1, 0.26)),
    _solved(lambda: sources.classification_problem(0.25, 0.25, 64),
            query=RDQuery(0.172, 0.1, 0.398), slack=True),
    _solved(lambda: random_table_problem(5), fractions=(0.3, 0.4, 0.5)),
    _solved(uneven_table_problem, fractions=(0.4, 0.5, 0.5)),
    _solved(lambda: sources.correlated_problem(SPEC_COR), query=RDQuery(0.6, 0.6, 0.55)),
    _fixed(lambda: sources.correlated_problem(SPEC_COR), (2.0, 1.0, 0.5)),
    _fixed(lambda: sources.classification_problem(0.25, 0.25, 64), (3.0, 1.0, 0.0)),
    # three iterations from uniform: the output marginal still differs from Q
    _fixed(lambda: random_table_problem(5), (2.0, 1.0, 0.5), SolverOptions(max_iters=3)),
]
LEAN_POINT_IDS = [
    "independent", "correlated_reattached", "classification64",
    "classification64_reattached", "random_table", "uneven_table", "zero_rate",
    "fixed_correlated", "fixed_classification64", "fixed_three_iterations",
]


class TestFixedMultipliers:
    def test_zero_multipliers_zero_rate(self, prob_cor):
        pt = ba_fixed_multipliers(prob_cor, 0.0, 0.0, 0.0)
        assert pt.rate == pytest.approx(0.0, abs=1e-9)
        assert pt.converged

    def test_classical_binary_slope(self):
        # at multiplier ln 9 the uniform-bit Hamming problem sits at D = 0.1
        pt = ba_fixed_multipliers(single_source_problem(), math.log(9.0), 0.0, 0.0)
        assert pt.achieved[0] == pytest.approx(0.1, abs=1e-6)
        assert pt.rate == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-4)

    def test_lossless_limit(self):
        pt = ba_fixed_multipliers(single_source_problem(), 40.0, 0.0, 0.0)
        assert pt.achieved[0] == pytest.approx(0.0, abs=1e-9)
        assert pt.rate == pytest.approx(1.0, abs=1e-6)

    def test_negative_multiplier_rejected(self, prob_cor):
        with pytest.raises(ProbabilityError):
            ba_fixed_multipliers(prob_cor, -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("lam,match", [
        (("x", 1, 1), "multiplier lambda1 .* got 'x'"),
        ((True, 1, 1), "multiplier lambda1 .* got True"),
        ((1, "2", 1), "multiplier lambda2 .* got '2'"),
        ((1, 1, None), "multiplier lambda_s .* got None"),
        ((1, 1, math.nan), "multiplier lambda_s .* got nan"),
    ])
    def test_bad_multipliers_rejected(self, prob_cor, lam, match):
        with pytest.raises(ProbabilityError, match=match):
            ba_fixed_multipliers(prob_cor, *lam)


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
def test_max_iters_caps_the_steps(prob_cor, cap):
    """No step, an Anderson proposal included, once the cap is reached."""
    opts = SolverOptions(max_iters=cap)
    assert solve_rd_point(prob_cor, RDQuery(0.05, 0.23, 0.45), opts).iterations == cap
    assert ba_fixed_multipliers(prob_cor, 2.0, 1.0, 0.5, opts=opts).iterations == cap


def dense_costs(problem):
    """The stacked cost tables per letter pair, costs[i] = c_i[x, h]."""
    ws = problem._workspace
    shape5 = (ws.nx1, ws.nx2, ws.nh1, ws.nh2, ws.nhs)
    c1 = np.broadcast_to(problem.d1.values[:, None, :, None, None], shape5)
    c2 = np.broadcast_to(problem.d2.values[None, :, None, :, None], shape5)
    cs = np.broadcast_to(problem.ds_mod.values[:, None, None, None, :], shape5)
    return np.stack([c.reshape(ws.nx, ws.nh) for c in (c1, c2, cs)])


def reference_ba(problem, lam, cert_tol):
    """Plain BA at fixed multipliers on the dense costs, from the uniform
    marginal until Blahut's certificate is below cert_tol: no cost groups, no
    extrapolation. Returns the rate (log_base units) and the distortions of
    its channel, each summed over every (y, x, h) letter."""
    ws = problem._workspace
    costs = dense_costs(problem)
    e = -np.tensordot(lam, costs, axes=1)
    W = np.exp(e - e.max(axis=1)[:, None])
    Q = ws.initial_marginal()
    for _ in range(solver_mod.DEFAULT_OPTIONS.max_iters):
        Z = Q @ W.T
        c = (ws.P / Z) @ W
        if float(np.dot(ws.p_y, np.maximum(c.max(axis=1) - 1.0, 0.0))) < cert_tol:
            break
        Q = Q * c
        Q /= Q.sum(axis=1, keepdims=True)
    else:
        pytest.fail("the reference loop did not reach the certificate")
    T = Q[:, None, :] * W[None, :, :] / Z[:, :, None]
    J = ws.Pw[:, :, None] * T
    Q_out = J.sum(axis=1) / ws.p_y[:, None]
    log_ratio = np.log(np.where(J > 0.0, T / Q_out[:, None, :], 1.0))
    rate = float((J * log_ratio).sum()) / math.log(problem.log_base)
    return rate, tuple(float((J * c[None]).sum()) for c in costs)


@pytest.fixture(scope="module")
def support_multipliers(prob_cor):
    """The multipliers of the support-threshold point, where plain BA is
    slowest."""
    return solve_rd_point(prob_cor, RDQuery(0.05, 0.23, 0.45)).multipliers


class TestBaAgainstReference:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: sources.conditionally_independent_problem(SPEC_IND),
            lambda: sources.correlated_problem(SPEC_COR),
            lambda: sources.classification_problem(0.25, 0.25, 64),
        ],
        ids=["independent", "correlated", "classification64"],
    )
    def test_matches_reference_loop(self, build, support_multipliers):
        # ba_fixed_multipliers runs the constrained loop with the multipliers
        # held; it must land on the plain loop's fixed point
        problem = build()
        for lam in ((2.0, 1.0, 0.5), support_multipliers):
            pt = ba_fixed_multipliers(problem, *lam)
            rate, achieved = reference_ba(problem, np.array(lam), solver_mod.CERT_TOL)
            assert pt.converged
            assert abs(pt.rate - rate) <= 1e-9
            assert np.max(np.abs(np.subtract(pt.achieved, achieved))) <= 1e-9


def test_fixed_multipliers_at_the_support_point_converge(prob_cor, support_multipliers):
    # plain BA is slowest at these multipliers. SQUAREM took 414 steps;
    # Anderson takes 26, and 63 when a proposal with a nonpositive atom is
    # dropped instead of shortened
    pt = ba_fixed_multipliers(prob_cor, *support_multipliers)
    assert pt.converged
    assert pt.iterations < 414


class TestAnderson:
    """The accelerated loop: its proposal, and the steps it keeps."""

    @staticmethod
    def contraction_history():
        """A history of plain steps of the linear map Q -> p + 0.9 (Q - p).
        Row 0 of p has an atom of 1e-9, far below a tenth of its image; the
        last image drops atom 3 of row 1 to exactly 0, as underflow does."""
        p = np.array([[0.5, 0.3, 0.2 - 1e-9, 1e-9], [0.4, 0.4, 0.2, 0.0]])
        Q, steps = np.full((2, 4), 0.25), []
        for k in range(4):
            g = p + 0.9 * (Q - p)
            if k == 3:
                g[1, 3] = 0.0
                g /= g.sum(axis=1, keepdims=True)
            steps.append((Q, g))
            Q = g
        history = solver_mod._Anderson(*steps[0])
        for s in steps[1:]:
            history.push(*s)
        return history, Q

    @staticmethod
    def assert_admissible(Q, g):
        """Zero atoms of the image g stay exactly 0, live ones keep a tenth
        of it (up to the rounding of the renormalisation), rows sum to 1."""
        live = g > 0.0
        assert np.all(Q[~live] == 0.0)
        assert np.all(Q[live] >= solver_mod._FLOOR * g[live] * (1.0 - 1e-12))
        assert np.max(np.abs(Q.sum(axis=1) - 1.0)) <= 1e-15

    def test_proposal_is_shortened_and_keeps_zero_atoms(self):
        history, g = self.contraction_history()
        Q = history.propose()
        self.assert_admissible(Q, g)
        # the shortening binds: the tiny atom sits at exactly a tenth of its
        # image, and the dropped atom stays 0 though it moved in the history
        assert np.min(Q[g > 0.0] / g[g > 0.0]) == pytest.approx(solver_mod._FLOOR, rel=1e-12)
        assert np.any(history.dG[:history.count, 7] != 0.0)
        # a cleared history proposes nothing: the next step is plain
        history.count = 0
        assert history.propose() is None

    @staticmethod
    def history_of(residuals, images):
        """The history of steps (g - r, g) for the residuals r and images g:
        its differences are those of the residuals and of the images."""
        history = solver_mod._Anderson(images[0] - residuals[0], images[0])
        for r, g in zip(residuals[1:], images[1:]):
            history.push(g - r, g)
        return history

    # orthogonal residual directions on a 2 x 4 marginal, rows summing to 0;
    # every value below is dyadic, so differences and products are exact
    A = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]) / 16
    B = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 0.0, 0.0]]) / 32
    E = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, -1.0, -1.0]]) / 64

    def test_repeated_difference_is_cut(self):
        # residual differences A, B, A: the oldest repeats the newest, so the
        # Gram is singular (np.linalg.solve raises on it). The fit drops the
        # oldest and proposes what the history of the newer two proposes
        r0 = np.array([[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, 0.0, 0.0]]) / 64
        residuals = [r0, r0 + self.A, r0 + self.A + self.B, r0 + 2 * self.A + self.B]
        images = [np.full((2, 4), 0.25) + r for r in residuals]
        history = self.history_of(residuals, images)
        assert history.count == 3
        assert np.array_equal(history.dR[0], history.dR[2])
        Q = history.propose()
        assert Q is not None
        self.assert_admissible(Q, images[-1])
        newer = self.history_of(residuals[1:], images[1:])
        np.testing.assert_allclose(Q, newer.propose(), rtol=0.0, atol=1e-16)
        # the images move with the residuals, so the step removes r's
        # component in the span of A and B
        r = residuals[-1].ravel()
        inside = sum(np.dot(r, d.ravel()) / np.dot(d.ravel(), d.ravel()) * d for d in (self.A, self.B))
        np.testing.assert_allclose(Q, images[-1] - inside, rtol=0.0, atol=1e-16)

    def test_fit_without_advance_is_refit_on_fewer_differences(self):
        # residual differences B (oldest) then A, and r = A/2 + B + E: the full
        # fit weighs B's image difference, 2 r, by 1, so its step runs past r
        # (delta.r >= r.r); the refit on A alone is the secant along A
        r2 = self.A / 2 + self.B + self.E
        r1 = r2 - self.A
        residuals = [r1 - self.B, r1, r2]
        g2 = np.full((2, 4), 0.25)
        images = [g2 - self.A - 2 * r2, g2 - self.A, g2]
        history = self.history_of(residuals, images)
        dR, dG = history.dR[:2], history.dG[:2]
        full = np.linalg.solve(dR @ dR.T, dR @ r2.ravel()) @ dG
        assert np.dot(full, r2.ravel()) >= np.dot(r2.ravel(), r2.ravel())
        Q = history.propose()
        self.assert_admissible(Q, g2)
        np.testing.assert_allclose(Q, g2 - self.A / 2, rtol=0.0, atol=1e-16)

    def test_one_difference_gives_the_scalar_secant(self):
        # one difference d of the residuals and e of the images: the fit is
        # the scalar secant d.r / d.d, and the step too short to be shortened
        rng = np.random.default_rng(7)
        images = [rng.dirichlet(np.full(5, 20.0), size=3) for _ in range(2)]
        residuals = [0.01 * (rng.dirichlet(np.ones(5), size=3) - 0.2) for _ in range(2)]
        history = self.history_of(residuals, images)
        d, e, r = residuals[1] - residuals[0], images[1] - images[0], residuals[1]
        secant = np.sum(d * r) / np.sum(d * d)
        assert abs(secant) * np.max(np.abs(e) / images[1]) < 1.0 - solver_mod._FLOOR
        np.testing.assert_allclose(history.propose(), images[1] - secant * e, rtol=1e-13)

    @pytest.mark.parametrize("case", ["support", "classification", "underflow"])
    def test_runs_propose_admissibly_and_never_raise_F(self, case, monkeypatch, prob_cor, prob_cls):
        problem, query = {
            "support": (prob_cor, RDQuery(0.05, 0.23, 0.45)),
            "classification": (prob_cls, RDQuery(0.4, 0.1, 0.352)),
            "underflow": (random_table_problem(25), None),
        }[case]
        if query is None:
            query = between_floors(problem, (0.5, 0.0, 0.5))
        # a lone solve is a batch of one cell: each kept step's marginal Q
        # reaches its history, with F(Q) from the multiplier solve just before
        proposals, kept, last = [], [], []
        propose, init, push = (solver_mod._Anderson.propose, solver_mod._Anderson.__init__,
                               solver_mod._Anderson.push)
        solve_dual = solver_mod._ConstrainedBA._solve_dual

        def capture_proposal(self):
            Q = propose(self)
            if Q is not None:
                proposals.append((Q, self.g))
            return Q

        def capture_dual(self, *args):
            d = solve_dual(self, *args)
            last[:] = d.value
            return d

        def capture_first(self, Q, Q_next):
            kept.append((Q.copy(), last[0]))
            init(self, Q, Q_next)

        def capture_kept(self, Q, Q_next):
            kept.append((Q.copy(), last[0]))
            push(self, Q, Q_next)

        monkeypatch.setattr(solver_mod._Anderson, "propose", capture_proposal)
        monkeypatch.setattr(solver_mod._Anderson, "__init__", capture_first)
        monkeypatch.setattr(solver_mod._Anderson, "push", capture_kept)
        monkeypatch.setattr(solver_mod._ConstrainedBA, "_solve_dual", capture_dual)
        pt = solve_rd_point(problem, query)
        assert pt.converged
        assert proposals
        for Q, g in proposals:
            self.assert_admissible(Q, g)
        # every kept step, proposals among them, is no worse than the step
        # before it beyond the rounding allowance 1e-11 (1 + |F|)
        assert any(np.array_equal(Q, P) for Q, _ in kept for P, _ in proposals)
        for (_, prev), (_, F) in zip(kept, kept[1:]):
            assert F <= prev + 1e-11 * (1.0 + abs(F))


def reference_dual_step(problem, targets, Q, lam):
    """The dense multiplier-solve formulas over every (x, h) letter pair:
    the dual value and gradient, the cost covariance, the certificate and the
    BA update of Q. The grouped solve in ``_ConstrainedBA`` must reproduce
    them."""
    ws = problem._workspace
    costs = dense_costs(problem)
    flat = costs.reshape(3, -1)
    cost = (lam @ flat).reshape(ws.nx, ws.nh)
    shift = cost.min(axis=1)
    W = np.exp(shift[:, None] - cost)
    Z = Q @ W.T
    value = float(np.dot(ws.p_x, shift)) - float(np.vdot(ws.Pw, np.log(Z))) - float(lam @ targets)
    J = ((ws.Pw / Z).T @ Q) * W
    grad = flat @ J.ravel() - targets
    m1 = (Q @ (costs * W).reshape(-1, ws.nh).T).reshape(len(Q), 3, ws.nx) / Z[:, None, :]
    cov = (flat * J.ravel()) @ flat.T - np.einsum("yx,yix,yjx->ij", ws.Pw, m1, m1)
    c = (ws.P / Z) @ W
    cert = float(np.dot(ws.p_y, np.maximum(c.max(axis=1) - 1.0, 0.0)))
    Q_next = Q * c
    Q_next /= Q_next.sum(axis=1, keepdims=True)
    return value, grad, cov, cert, Q_next


def identity_groups(values):
    """Every letter its own cost group: the grouped solve then runs on the
    dense arrays."""
    return np.broadcast_to(np.arange(values.shape[1]), values.shape).copy(), values.copy()


GROUPED_WORKSPACES = [
    lambda: sources.conditionally_independent_problem(SPEC_IND),
    lambda: sources.classification_problem(0.25, 0.25, 64),
    lambda: random_table_problem(5),
    uneven_table_problem,
]
GROUPED_IDS = ["independent", "classification64", "random_table", "uneven_table"]


def jittered_marginal(ws, rng):
    """The uniform marginal with a multiplicative jitter of up to 1e-3."""
    shape = (len(ws.p_y), ws.nh)
    Q = np.full(shape, 1.0 / ws.nh) * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=shape))
    return Q / Q.sum(axis=1, keepdims=True)


class TestGroupedDual:
    @pytest.mark.parametrize("build", GROUPED_WORKSPACES, ids=GROUPED_IDS)
    def test_matches_dense_reference(self, build):
        problem = build()
        ws = solver_mod._Workspace(problem)
        targets = np.array(between_floors(problem, (0.3, 0.4, 0.5)).as_tuple())
        cba = solver_mod._ConstrainedBA(ws, solver_mod.DEFAULT_OPTIONS)
        cold = ws.initial_marginal()
        # seven plain constrained steps from the cold start, a batch of one
        Q, lam = cold, [0.0, 0.0, 0.0]
        for _ in range(7):
            M = ws.group_masses(Q[None])
            d = cba._solve_dual(M, cba._kernel([lam]), targets[None], [solver_mod._KKT_TOL])
            mid, Q, lam = Q, cba._update(Q[None], d)[1][0], d.kernel.lam[0]
        for Q in (cold, mid):
            for lam in (np.array([2.0, 1.0, 0.5]), np.array([2.0, 0.0, 0.5])):
                value, grad, cov, cert, Q_next = reference_dual_step(problem, targets, Q, lam)
                d = cba._evaluate(ws.group_masses(Q[None]), cba._kernel([lam.tolist()]),
                                  targets[None])
                got_cert, got_Q_next, _ = cba._update(Q[None], d)
                # relative to the size of the terms: g and the gradient are
                # differences of O(1) sums, the certificate a deviation from 1
                assert abs(d.value[0] - value) <= 1e-12 * (1.0 + abs(value))
                assert np.max(np.abs(d.grad[0] - grad)) <= 1e-12 * (1.0 + np.max(np.abs(targets)))
                assert np.max(np.abs(cba._covariance(d)[0] - cov)) <= 1e-12 * np.max(np.abs(cov))
                assert abs(got_cert[0] - cert) <= 1e-12 * (1.0 + cert)
                assert np.max(np.abs(got_Q_next[0] - Q_next)) <= 1e-12 * np.max(Q_next)

    @pytest.mark.parametrize("build", GROUPED_WORKSPACES, ids=GROUPED_IDS)
    def test_groups_hold_one_cost_triple(self, build):
        problem = build()
        ws = solver_mod._Workspace(problem)
        # every letter's group carries exactly that letter's costs
        assert np.array_equal(ws.group_costs.reshape(3, -1)[:, ws.letter_group],
                              dense_costs(problem))
        # group masses of Q sum its mass over each row's letters, on a
        # non-uniform Q
        Q = jittered_marginal(ws, np.random.default_rng(4))
        M = ws.group_masses(Q)
        expect = [
            np.bincount(ws.letter_group.ravel(), np.tile(Qy, ws.nx), minlength=ws.nx * ws.K)
            for Qy in Q
        ]
        assert np.max(np.abs(M.reshape(len(Q), -1) - expect)) <= 1e-15

    @pytest.mark.parametrize("build", GROUPED_WORKSPACES + [
        lambda: sources.correlated_problem(SPEC_COR),
        lambda: sources.classification_problem(0.25, 0.25, 8),
        lambda: sources.conditionally_independent_problem(SPEC_IND).split[0],
        lambda: sources.conditionally_independent_problem(SPEC_IND).split[1],
        lambda: sources.classification_problem(0.25, 0.25, 64).split[0],
    ], ids=GROUPED_IDS + ["correlated", "classification8", "independent_observation",
                          "independent_background", "classification64_observation"])
    def test_shift_is_the_least_group_cost(self, build):
        # the kernel's shift, lam.c of the row's group 0, is the least of
        # lam.c(x, k) over the row's groups bit for bit, at multipliers over
        # seven decades, zeros included, and batch sizes 1-20
        ws = solver_mod._Workspace(build())
        assert np.array_equal(ws.group_costs[:, :, 0], ws.group_costs.min(axis=2))
        cba = solver_mod._ConstrainedBA(ws, solver_mod.DEFAULT_OPTIONS)
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8, 13, 20):
            lam = 10.0 ** rng.uniform(-3.0, 4.0, (n, 3))
            lam[rng.random((n, 3)) < 0.3] = 0.0
            costs = (lam[:, None, :] @ ws.flat).reshape(n, ws.nx, ws.K)
            least = np.minimum.reduce(costs, axis=2)
            kernel = cba._kernel(lam.tolist())
            assert np.array_equal(least[:, :, None] - costs, kernel.log_w)
            assert kernel.p_shift == (least.reshape(n, 1, -1) @ ws.p_x_col).ravel().tolist()

    def test_classification_has_eight_groups_per_row(self, prob_cls):
        ws = solver_mod._Workspace(prob_cls)
        assert (ws.nx, ws.nh, ws.K) == (128, 256, 8)
        counts = np.bincount(ws.letter_group.ravel(), minlength=ws.nx * ws.K)
        assert np.all(counts > 0)
        for x in range(ws.nx):
            assert len(np.unique(ws.group_costs[:, x, :].T, axis=0)) == 8

    @pytest.mark.parametrize("seed", range(5))
    def test_distinct_tables_give_one_group_per_letter(self, seed):
        ws = solver_mod._Workspace(random_table_problem(seed))
        assert ws.K == ws.nh

    def test_uneven_repeats(self, monkeypatch):
        problem = uneven_table_problem()
        ws = solver_mod._Workspace(problem)
        assert (ws.K1, ws.K2, ws.Ks) == (3, 2, 2)
        counts = np.bincount(ws.letter_group.ravel(), minlength=ws.nx * ws.K).reshape(ws.nx, ws.K)
        # x1 = 0 (rows x = 0, 1) uses one of its three d1 groups, x1 = 2 two
        assert np.count_nonzero(counts[:2]) == 2 * 4
        assert np.count_nonzero(counts[4:]) == 2 * 8
        assert np.all(counts[2:4] > 0)
        q = between_floors(problem, (0.4, 0.5, 0.5))
        pt = solve_rd_point(problem, q)
        assert pt.converged
        assert all(a <= t + 1e-8 for a, t in zip(pt.achieved, q.as_tuple()))
        monkeypatch.setattr(solver_mod, "_row_groups", identity_groups)
        assert solver_mod._Workspace(problem).K == ws.nh
        # a new problem object, so that the solve builds its own workspace
        dense = solve_rd_point(uneven_table_problem(), q)
        assert dense.converged
        assert pt.rate == pytest.approx(dense.rate, abs=1e-9)
        assert np.allclose(pt.achieved, dense.achieved, rtol=0, atol=1e-9)


def random_psd(rng, rank):
    """A 3x3 symmetric PSD matrix of the given rank, rows scaled over four
    decades as the cost covariances are."""
    L = rng.normal(size=(3, rank)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(3, 1))
    return L @ L.T


FREE_MASKS = [m for m in itertools.product((False, True), repeat=3) if any(m)]


class TestNewtonDirection:
    """The closed-form solve of the free block against the least-norm solve
    it replaces."""

    @pytest.mark.parametrize("rank", [3, 2, 1, 0])
    @pytest.mark.parametrize("free", FREE_MASKS)
    def test_matches_lstsq(self, rank, free, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        rng = np.random.default_rng(100 * rank + int("".join("01"[f] for f in free), 2))
        mask = np.array(free)
        for _ in range(20):
            cov = random_psd(rng, rank)
            g = rng.normal(size=3)
            expect = lstsq(cov * np.outer(mask, mask), g * mask, rcond=None)[0] * mask
            calls.clear()
            step = np.array(solver_mod._newton_direction(cov, tuple(g.tolist()), free))
            if mask.sum() <= rank:
                assert not calls
                assert np.linalg.norm(step - expect) <= 1e-9 * np.linalg.norm(expect)
                assert np.all(step[~mask] == 0.0)
            else:
                # singular free block: the least-norm solution, as computed before
                assert len(calls) == 1
                assert np.array_equal(step, expect)

    def test_zero_covariance_of_a_deterministic_law(self):
        # all of Q on one letter: each row's group law is a point mass, the
        # covariance is zero and the dual is linear in lam; warm-started at
        # its maximiser, the solve stays there
        ws = solver_mod._Workspace(single_source_problem())
        cba = solver_mod._ConstrainedBA(ws, solver_mod.DEFAULT_OPTIONS)
        targets = np.array([[0.6, 0.0, 0.0]])
        Q = np.zeros((1, 1, ws.nh))
        Q[0, 0, 0] = 1.0
        M = ws.group_masses(Q)
        lam = [[0.0, 1.0, 1.0]]
        assert np.all(cba._covariance(cba._evaluate(M, cba._kernel(lam), targets)) == 0.0)
        d = cba._solve_dual(M, cba._kernel(lam), targets, [solver_mod._KKT_TOL])
        assert solver_mod._kkt_residual(d.kernel.lam[0], d.grad[0]) <= solver_mod._KKT_TOL
        assert d.kernel.lam == lam

    def test_zero_variance_coordinates_take_the_fallback(self):
        # d2 and d's are zero tables: their rows of the covariance vanish while
        # their positive multipliers keep them free, so every Newton step
        # falls back to the least-norm solve; lam1 still reaches its optimum
        # log 4 (E d1 = 1 / (1 + e^lam1) = 0.2 under the uniform Q)
        ws = solver_mod._Workspace(single_source_problem())
        cba = solver_mod._ConstrainedBA(ws, solver_mod.DEFAULT_OPTIONS)
        d = cba._solve_dual(ws.group_masses(ws.initial_marginal()[None]),
                            cba._kernel([[0.0, 1.0, 1.0]]), np.array([[0.2, 0.0, 0.0]]),
                            [solver_mod._KKT_TOL])
        (lam,) = d.kernel.lam
        assert solver_mod._kkt_residual(lam, d.grad[0]) <= solver_mod._KKT_TOL
        assert lam[0] == pytest.approx(math.log(4.0), abs=1e-12)
        assert lam[1:] == [1.0, 1.0]


def joint_of(problem, T):
    """The joint over (x1, x2, y, x1h, x2h, sh) that the channel T[y, x, h]
    induces on the problem's source law."""
    ws = problem._workspace
    full = np.zeros((ws.nx, ws.ny, ws.nh))
    full[:, ws.y_idx] = (ws.Pw[:, :, None] * T).swapaxes(0, 1)
    total = full.sum()
    assert abs(total - 1.0) <= 1e-9, f"joint mass {total!r} drifted from 1"
    shaped = full.reshape(ws.nx1, ws.nx2, ws.ny, ws.nh1, ws.nh2, ws.nhs)
    return JointPMF(problem.source.axes + problem.repro_alphabets, shaped / total)


def y_only_channel(ws):
    """The zero-rate channel T[y, x, h]: each reproduction coordinate takes,
    for each y, the letter of least expected cost given y."""
    letters = [(ws.Pw @ costs).argmin(axis=1) for costs in ws.coord_costs]  # per y
    h = (letters[0] * ws.nh2 + letters[1]) * ws.nhs + letters[2]
    T = np.zeros((len(ws.p_y), ws.nx, ws.nh))
    T[np.arange(len(ws.p_y)), :, h] = 1.0
    return T


class TestSolveRdPoint:
    def test_independent_parts_example(self, prob_ind):
        pt = solve_rd_point(prob_ind, RDQuery(0.1, 0.1, 0.5))
        assert pt.rate == pytest.approx(0.684565061739704, abs=1e-3)
        assert pt.converged

    def test_correlated_example(self, prob_cor):
        pt = solve_rd_point(prob_cor, RDQuery(0.05, 0.1, 0.3))
        assert pt.rate == pytest.approx(0.867163698213028, abs=1e-3)
        assert pt.converged

    def test_achieved_satisfies_query(self, prob_cor):
        q = RDQuery(0.2, 0.1, 0.26)
        pt = solve_rd_point(prob_cor, q)
        assert pt.achieved[0] <= q.d1 + 1e-7
        assert pt.achieved[1] <= q.d2 + 1e-7
        assert pt.achieved[2] <= q.ds + 1e-7
        # the semantic target is the binding one here; the observation
        # constraint rides along at the transformed value 0.02, so tightening
        # it there costs nothing
        assert pt.multipliers[0] == 0.0
        tight = solve_rd_point(prob_cor, RDQuery(0.02, 0.1, 0.26))
        assert abs(pt.rate - tight.rate) <= 1e-9

    @pytest.mark.parametrize("case", LEAN_POINT_CASES, ids=LEAN_POINT_IDS)
    def test_achieved_matches_channel_recomputation(self, case, monkeypatch):
        # the rate and distortions come from the final step's arrays; the
        # 6-axis joint of its channel Q W / Z must carry the same numbers. A
        # split problem's channel is the product of its two parts' channels.
        runs = []  # (batch, stopped cell)
        original = solver_mod._ConstrainedBA.advance

        def capturing(self):
            done = original(self)
            runs.extend((self, cell) for cell in done)
            return done

        def channel(part):
            """T[y, x, h] of the solve of ``part``: its final step, or the
            y-only channel of the zero-rate path."""
            for cba, cell in runs:
                if cba.ws is part._workspace:
                    s, d, b = cell.step, cell.step.dual, cell.row
                    return (s.Q[b][:, None, :] * cba._letters(d.kernel)[b][None, :, :]
                            / d.Z[b][:, :, None])
            return y_only_channel(part._workspace)

        monkeypatch.setattr(solver_mod._ConstrainedBA, "advance", capturing)
        problem, pt, slack_targets = case()
        split = problem.split is not None and all(cba.ws is not problem._workspace
                                                  for cba, _ in runs)
        ws = problem._workspace
        if split:
            T_obs, T_bg = map(channel, problem.split)
            assert len(runs) <= 2
            T = np.einsum(
                "yaik,ybj->yabijk",
                T_obs.reshape(len(ws.p_y), ws.nx1, ws.nh1, ws.nhs),
                T_bg.reshape(len(ws.p_y), ws.nx2, ws.nh2),
            ).reshape(len(ws.p_y), ws.nx, ws.nh)
        else:
            assert len(runs) <= 1
            T = channel(problem)
        assert pt.iterations == sum(cell.iterations for _, cell in runs)
        if slack_targets is not None:
            assert 0.0 in pt.multipliers and pt.iterations > 0
            # a zero-multiplier coordinate's own channel meets its target
            for a, t, l in zip(pt.achieved, slack_targets, pt.multipliers):
                assert l > 0.0 or a <= t + 1e-12
        joint = joint_of(problem, T)
        names = problem.axis_names
        recomputed = (
            joint.expected_distortion(problem.d1, names[0], names[3]),
            joint.expected_distortion(problem.d2, names[1], names[4]),
            joint.expected_distortion(problem.ds_mod, names[0], names[5]),
        )
        assert np.max(np.abs(np.subtract(recomputed, pt.achieved))) <= 1e-12
        rate = joint.conditional_mutual_information(
            names[:2], names[3:], names[2:3], problem.log_base
        )
        assert abs(rate - pt.rate) <= 1e-12

    def test_zero_rate_when_targets_slack(self, prob_cor):
        pt = solve_rd_point(prob_cor, RDQuery(0.6, 0.6, 0.55))
        assert pt.rate == pytest.approx(0.0, abs=1e-12)
        assert pt.multipliers == (0.0, 0.0, 0.0)
        assert pt.converged

    def test_infeasible_semantic_target(self, prob_cor):
        with pytest.raises(InfeasibleDistortionError, match="floor"):
            solve_rd_point(prob_cor, RDQuery(0.1, 0.1, 0.1))

    def test_boundary_target_zero(self, prob_cor):
        pt = solve_rd_point(prob_cor, RDQuery(0.0, 0.1, 0.5))
        expect = 2 * binary_entropy(0.25) - binary_entropy(0.1)
        assert pt.rate == pytest.approx(expect, abs=1e-3)

    def test_tie_between_constraints(self, prob_cor):
        # observation target equals the transformed semantic target exactly
        pt = solve_rd_point(prob_cor, RDQuery(0.02, 0.5, 0.26))
        expect = binary_entropy(0.25) - binary_entropy(0.02)
        assert pt.rate == pytest.approx(expect, abs=1e-3)
        assert pt.converged

    def test_support_threshold_point(self, prob_cor):
        # hard point: a reproduction atom sits at its support threshold; the
        # reference value is from the independent convex-program cross-check
        pt = solve_rd_point(prob_cor, RDQuery(0.05, 0.23, 0.45))
        assert pt.rate == pytest.approx(0.5626384, abs=2e-5)
        assert pt.converged
        # the Gauss-Seidel search spent 192,281 BA iterations here
        assert pt.iterations < 2000

    def test_support_threshold_point_does_not_stall(self, prob_cor):
        # with the dual solved only to _KKT_TOL, the multipliers froze from
        # step 23 and the certificate crept from 6.6e-12 to 4.8e-12 over 98
        # steps (121 in all); the value is that run's
        pt = solve_rd_point(prob_cor, RDQuery(0.05, 0.23, 0.45))
        assert pt.converged
        assert pt.iterations < 40
        assert abs(pt.rate - 0.562638443444521) <= 1e-9

    def test_named_failure_converges(self, prob_cor):
        # a query on the correlated model's documented region where the
        # closed form is only a lower bound (negative q-vector)
        q = RDQuery(0.06, 0.22, 0.48)
        pt = solve_rd_point(prob_cor, q)
        assert pt.converged
        assert all(a <= t + 1e-8 for a, t in zip(pt.achieved, q.as_tuple()))
        assert pt.rate >= rate_correlated(SPEC_COR, *q.as_tuple()) - 2e-3

    def test_ba_calls_reported(self, prob_ind):
        # one constrained BA run per point, none on the zero-rate path
        pt = solve_rd_point(prob_ind, REFERENCE_CELL)
        assert pt.converged
        assert pt.iterations < GAUSS_SEIDEL_ITERATIONS
        assert ba_fixed_multipliers(prob_ind, 1.0, 1.0, 1.0).iterations > 0
        assert solve_rd_point(prob_ind, RDQuery(0.6, 0.6, 0.55)).iterations == 0

    def test_reported_numbers_are_python_floats(self, prob_cor):
        pt = solve_rd_point(prob_cor, RDQuery(0.05, 0.1, 0.3))
        assert all(type(l) is float for l in pt.multipliers)
        assert type(pt.cs_residual) is float

    def test_classification_cell_converges(self, prob_cls):
        # the Gauss-Seidel search stopped here with the observation target
        # over-met at a positive multiplier (converged=False, rate 4.054214131426323)
        q = RDQuery(0.248, 0.1, 0.306)
        pt = solve_rd_point(prob_cls, q)
        assert pt.converged
        assert all(a <= t + 1e-8 for a, t in zip(pt.achieved, q.as_tuple()))
        assert pt.rate <= 4.054214131426323

    def test_vanishing_semantic_multiplier(self, prob_cls):
        # the semantic target is met with the semantic multiplier tending to 0
        pt = solve_rd_point(prob_cls, RDQuery(0.4, 0.1, 0.352))
        assert pt.converged
        assert pt.multipliers[2] <= 1e-8
        assert pt.rate == pytest.approx(2.980419967419392, abs=1e-6)

    def test_vanishing_semantic_multiplier_tail_is_short(self, prob_cls):
        # lam_s tends to 0 while the semantic target is almost tight; the
        # tail took 527 steps under SQUAREM
        pt = solve_rd_point(prob_cls, RDQuery(0.4, 0.1, 0.352))
        assert pt.converged
        assert pt.iterations < 200

    def test_extrapolation_survives_underflowed_atoms(self):
        # with the background target at its floor, reproduction atoms of the
        # marginal fall by about 15 orders of magnitude per step (to exactly
        # 0 once they underflow); Anderson proposals must keep coming, with
        # such atoms held at or above a tenth of their image (30 steps)
        problem = random_table_problem(25)
        pt = solve_rd_point(problem, between_floors(problem, (0.5, 0.0, 0.5)),
                            SolverOptions(max_iters=2000))
        assert pt.converged

    def test_dual_steps_accepted_at_large_multipliers(self, monkeypatch):
        # observation target at its floor drives lam1 into the hundreds,
        # where g_Q is a difference of terms of that size; Newton steps whose
        # gain is below that rounding must still be taken. About 2.7 dual
        # evaluations per step; a rounding allowance scaled by |g| alone
        # needed 213,648 for 239 steps.
        evaluations = []
        original = solver_mod._ConstrainedBA._evaluate

        def counting(self, *args):
            evaluations.append(1)
            return original(self, *args)

        monkeypatch.setattr(solver_mod._ConstrainedBA, "_evaluate", counting)
        problem = random_table_problem(3)
        pt = solve_rd_point(problem, between_floors(problem, (0.0, 0.5, 0.5)))
        assert pt.converged
        assert len(evaluations) < 10 * pt.iterations

    def test_rate_nonnegative_and_multipliers_nonnegative(self, prob_ind):
        pt = solve_rd_point(prob_ind, RDQuery(0.3, 0.4, 0.45))
        assert pt.rate >= 0.0
        assert all(l >= 0.0 for l in pt.multipliers)

    def test_determinism(self, prob_cor):
        a = solve_rd_point(prob_cor, RDQuery(0.05, 0.1, 0.3))
        b = solve_rd_point(prob_cor, RDQuery(0.05, 0.1, 0.3))
        assert a == b

    def test_jitter_initialization_changes_nothing_material(self, prob_ind, monkeypatch):
        # the certificate stop makes the answer independent of the start
        base = solve_rd_point(prob_ind, RDQuery(0.1, 0.1, 0.5))
        rng = np.random.default_rng(7)
        monkeypatch.setattr(solver_mod._Workspace, "initial_marginal",
                            lambda ws: jittered_marginal(ws, rng))
        jit = solve_rd_point(prob_ind, RDQuery(0.1, 0.1, 0.5))
        assert jit.rate == pytest.approx(base.rate, abs=1e-6)


class TestWorkspaceReuse:
    def test_one_workspace_per_serial_sweep(self, monkeypatch):
        # solve_cells calls solve_rd_point through the module attribute once
        # per cell, and the cells share one workspace
        problem = sources.correlated_problem(SPEC_COR)  # not seen by the solver yet
        solves, builds = [], []
        solve, init = solver_mod.solve_rd_point, solver_mod._Workspace.__init__

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "solve_rd_point", counting_solve)
        monkeypatch.setattr(solver_mod._Workspace, "__init__", counting_init)
        queries = [RDQuery(0.05, 0.1, 0.3), RDQuery(0.1, 0.1, 0.5), RDQuery(0.6, 0.6, 0.55),
                   RDQuery(0.1, 0.1, 0.1)]
        cells = list(solver_mod.solve_cells(problem, queries))
        assert len(cells) == len(solves) == 4
        assert len(builds) == 1
        assert [c.point is None for c in cells] == [False, False, False, True]

    def test_split_parts_keep_their_own_workspaces(self, monkeypatch):
        # alternating solves on the two parts of a split problem build each
        # part's workspace once, with its floors
        obs, bg = sources.conditionally_independent_problem(SPEC_IND).split
        builds, init = [], solver_mod._Workspace.__init__

        def counting_init(self, problem):
            builds.append(problem)
            init(self, problem)

        monkeypatch.setattr(solver_mod._Workspace, "__init__", counting_init)
        for d in (0.1, 0.15, 0.2):
            assert solve_rd_point(obs, RDQuery(d, 0.0, 0.4)).converged
            assert solve_rd_point(bg, RDQuery(0.0, d, 0.0)).converged
        assert len(builds) == 2
        assert builds[0] is obs and builds[1] is bg
        ws = obs._workspace
        assert ws.zero_rate_floors == tuple(ws.zero_rate_floor(c) for c in range(3))
        assert ws.absolute_floors == tuple(ws.absolute_floor(c) for c in range(3))

    def test_equal_problems_keep_their_own_laws(self, prob_ind, prob_cor):
        # the arrays do not take part in equality, so reuse is keyed on identity
        assert prob_ind == prob_cor
        assert prob_ind._workspace is not prob_cor._workspace
        q = RDQuery(0.2, 0.2, 0.4)
        ind, cor = solve_rd_point(prob_ind, q), solve_rd_point(prob_cor, q)
        assert abs(ind.rate - cor.rate) > 0.05
        assert solve_rd_point(prob_ind, q).rate == ind.rate


class TestSolverOptions:
    @pytest.mark.parametrize(
        "field",
        ["cert_tol", "constraint_tol", "rate_tol", "lambda_cap"],
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, "1e-9", True, None])
    def test_positive_fields(self, field, value):
        # the tolerances are solver constants now, not options
        with pytest.raises(TypeError, match=field):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("value", [0, -3, 2.5, 10.0, True, "100", None])
    def test_max_iters(self, value):
        with pytest.raises(ProbabilityError, match="max_iters"):
            SolverOptions(max_iters=value)

    @pytest.mark.parametrize("value", [1.5, "7", True])
    def test_init_seed(self, value):
        # the option is gone: a run starts from the uniform marginal or from
        # its chain predecessor's final step, never from a seeded draw
        with pytest.raises(TypeError, match="init_seed"):
            SolverOptions(init_seed=value)

    def test_valid_values_kept(self):
        assert SolverOptions(max_iters=1).max_iters == 1


class TestSemanticRd:
    DS = DistortionMatrix.hamming(Alphabet.binary("s"), Alphabet.binary("s_hat"))

    def test_lemma_value(self):
        pt = semantic_rd(sources.semantic_observation_joint(0.1), self.DS, 0.2)
        assert pt.rate == pytest.approx(0.456435556800032, abs=1e-3)

    def test_half_target_free(self):
        pt = semantic_rd(sources.semantic_observation_joint(0.1), self.DS, 0.5)
        assert pt.rate == pytest.approx(0.0, abs=1e-9)

    def test_floor_target_costs_full_bit(self):
        pt = semantic_rd(sources.semantic_observation_joint(0.1), self.DS, 0.1)
        assert pt.rate == pytest.approx(1.0, abs=1e-3)

    def test_below_floor_infeasible(self):
        with pytest.raises(InfeasibleDistortionError):
            semantic_rd(sources.semantic_observation_joint(0.1), self.DS, 0.05)


class TestSweepSurface:
    def test_single_cell(self, prob_cor):
        surf = sweep_surface(prob_cor, {"d1": [0.05], "d2": [0.1], "ds": [0.3]})
        assert len(surf.points) == 1
        cell = surf.points[0]
        assert cell.error is None
        assert cell.point.rate == pytest.approx(0.867163698213028, abs=1e-3)

    def test_empty_grid_rejected(self, prob_cor):
        with pytest.raises(ProbabilityError, match="empty grid"):
            sweep_surface(prob_cor, {"d1": [], "d2": [0.1], "ds": [0.3]})

    def test_unknown_axis_rejected(self, prob_cor):
        with pytest.raises(ProbabilityError):
            sweep_surface(prob_cor, {"d1": [0.1], "d2": [0.1], "dz": [0.3]})

    def test_monotone_in_d1(self, prob_cor):
        grid = {"d1": list(np.linspace(0.01, 0.06, 5)), "d2": [0.1], "ds": [0.45]}
        surf = sweep_surface(prob_cor, grid)
        rates = [c.point.rate for c in surf.points]
        for lo, hi in zip(rates, rates[1:]):
            assert hi <= lo + 1e-6

    def test_failures_flagged_not_raised(self, prob_cor):
        surf = sweep_surface(prob_cor, {"d1": [0.05], "d2": [0.1], "ds": [0.1, 0.3]})
        by_ds = {c.query.ds: c for c in surf.points}
        assert by_ds[0.1].point is None
        assert "Infeasible" in by_ds[0.1].error
        assert by_ds[0.3].point is not None

    @pytest.mark.parametrize("workers", [0, -1, True, 2.5, "2"])
    def test_bad_workers_rejected(self, prob_cor, workers):
        # every batch is solved in this process; workers is not a keyword at all
        queries = [RDQuery(0.05, 0.1, 0.3)]
        with pytest.raises(TypeError, match="workers"):
            solver_mod.solve_cells(prob_cor, queries, workers=workers)
        with pytest.raises(TypeError, match="workers"):
            sweep_surface(prob_cor, {"d1": [0.05], "d2": [0.1], "ds": [0.3]}, workers=workers)

    @pytest.mark.parametrize("axis,match", [
        (["x"], r"grid d1 must be a finite real, got 'x'"),
        ([None], r"grid d1 must be a finite real, got None"),
        ([True], r"grid d1 must be a finite real, got True"),
        ([0.05, math.inf], r"grid d1 must be a finite real, got inf"),
        (0.1, r"grid d1 must be a list of values, got 0\.1"),
    ], ids=["string", "none", "bool", "inf", "scalar"])
    def test_bad_grid_values_rejected(self, prob_cor, axis, match):
        with pytest.raises(ProbabilityError, match=match):
            sweep_surface(prob_cor, {"d1": axis, "d2": [0.1], "ds": [0.3]})

    def test_cells_do_not_depend_on_their_neighbours(self, prob_cor, prob_ind):
        # each side's pieces solved as one batch, and again cut into two runs
        # of consecutive pieces, each run its own batch: every cell starts
        # where it does in the whole batch, and its numbers are the same. The
        # achieved value of a slack coordinate depends on the start (ds 0.298
        # against 0.449 at (0.02, 0.1, 0.45) when cells of a chain were solved
        # apart), so a run keeps whole pieces. Four chains of the correlated
        # problem; the split problem's two observation chains, and its one
        # background chain, cut into two pieces of one target.
        obs, bg = prob_ind.split
        targets = (0.02, 0.05), (0.1, 0.2), (0.3, 0.45)
        sides = [
            (prob_cor, [RDQuery(*t) for t in itertools.product(*targets)], [2, 2, 2, 2]),
            (obs, [RDQuery(d1, 0.0, ds) for d1 in targets[0] for ds in targets[2]], [2, 2]),
            (bg, [RDQuery(0.0, d2, 0.0) for d2 in targets[1]], [1, 1]),
        ]
        opts = solver_mod.DEFAULT_OPTIONS
        for part, queries, sizes in sides:
            pieces = solver_mod._pieces(solver_mod._chains(queries))
            assert [len(c) for c in pieces] == sizes
            whole = solver_mod._solve_chains(part, pieces, opts)
            cut = len(pieces) // 2
            runs = (solver_mod._solve_chains(part, pieces[:cut], opts)
                    + solver_mod._solve_chains(part, pieces[cut:], opts))
            assert all(p.converged for p in whole)
            assert whole == runs


class TestClassicalForms:
    def test_uniform_binary_no_side_info(self):
        # R(D) = 1 - h(D) for the uniform bit under Hamming distortion
        prob = single_source_problem()
        for d in (0.05, 0.1, 0.2, 0.35):
            pt = solve_rd_point(prob, RDQuery(d, 0.0, 0.0))
            assert pt.rate == pytest.approx(1.0 - binary_entropy(d), abs=1e-4)

    def test_symmetric_pair_with_side_info(self, prob_cor):
        # conditional rate h(p0) - h(D) when the pair is doubly symmetric
        p0 = 0.25
        reduced = solver_mod.observation_side_problem(prob_cor)
        for d in (0.05, 0.1, 0.2):
            pt = solve_rd_point(reduced, RDQuery(d, 0.0, 0.5))
            assert pt.rate == pytest.approx(
                binary_entropy(p0) - binary_entropy(d), abs=1e-4
            )


def chain_table_problem(seed, perturbation=0.0):
    """Seeded random law with x1 and x2 independent given y (3x2x2 source,
    random tables), optionally perturbed off the chain by a relative
    ``perturbation`` on one entry."""
    base = random_table_problem(seed)
    rng = np.random.default_rng(seed)
    probs = np.einsum(
        "y,ya,yb->aby", rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3), size=2),
        rng.dirichlet(np.ones(2), size=2),
    )
    probs[0, 0, 0] *= 1.0 + perturbation
    source = JointPMF(base.source.axes, probs / probs.sum())
    return sources.custom_problem(source, base.d1, base.d2, base.ds_mod)


def separable_grids():
    """Criterion 02's axes on the independent-parts model, and an N = 8
    classification grid with the semantic target binding, slack and at its
    floor."""
    independent = [RDQuery(*q) for q in itertools.product(
        np.linspace(0.02, 0.23, 10).tolist(),
        np.linspace(0.02, 0.23, 10).tolist(),
        np.linspace(0.26, 0.49, 10).tolist(),
    )]
    classification = [RDQuery(*q) for q in itertools.product(
        np.linspace(0.0, 0.4, 5).tolist(), (0.05, 0.35, 0.5), np.linspace(0.25, 0.5, 6).tolist(),
    )]
    return [
        (sources.conditionally_independent_problem(SPEC_IND), independent),
        (sources.classification_problem(0.25, 0.25, 8), classification),
    ]


class TestSeparability:
    def test_reduced_problems_sum_to_joint(self):
        # the split answers (sums of the two reduced problems' points) agree
        # with the joint solve on every cell. The joint references run as one
        # batch on the unsplit problem, along the queries' chains
        for problem, queries in separable_grids():
            assert problem.split is not None
            split = list(solver_mod.solve_cells(problem, queries))
            references = solver_mod._solve_chains(problem, solver_mod._chains(queries),
                                                  solver_mod.DEFAULT_OPTIONS)
            for q, cell, joint in zip(queries, split, references, strict=True):
                assert abs(cell.point.rate - joint.rate) <= 1e-9, q
                assert cell.point.converged == joint.converged, q

    def test_only_chain_sources_split(self, monkeypatch):
        # an exactly separable custom source runs one solve per part; moved
        # off the chain by 1e-6 it runs one joint solve
        runs = []
        original = solver_mod._ConstrainedBA.add

        def counting(self, *args):
            runs.append(self.ws)
            return original(self, *args)

        monkeypatch.setattr(solver_mod._ConstrainedBA, "add", counting)
        for perturbation, parts in ((0.0, 2), (1e-6, 1)):
            problem = chain_table_problem(2, perturbation)
            assert (problem.split is not None) == (parts == 2)
            q = between_floors(problem, (0.3, 0.4, 0.5))
            runs.clear()
            pt = solve_rd_point(problem, q)
            solved = problem.split or (problem,)
            assert all(map(operator.is_, runs, (part._workspace for part in solved)))
            assert len(runs) == parts
            assert pt.converged
            assert abs(pt.rate - solver_mod.solve_joint_point(problem, q).rate) <= 1e-9

    def test_degenerate_axes_do_not_split(self, prob_ind):
        # a part of a split problem has a one-letter axis and is solved jointly
        obs, bg = prob_ind.split
        assert obs.split is None and bg.split is None
        assert prob_ind.split is prob_ind.split


def chain_grids():
    """separable_grids() plus a correlated grid whose chains along ds start at
    an infeasible semantic target and some end at zero rate."""
    correlated = [RDQuery(*q) for q in itertools.product(
        (0.02, 0.06, 0.1, 0.3), (0.1, 0.25, 0.5), (0.1, 0.26, 0.3, 0.4, 0.5),
    )]
    return separable_grids() + [(sources.correlated_problem(SPEC_COR), correlated)]


def curve_grids():
    """Two one-chain sides, each cut into pieces: a 20-point correlated curve
    along ds at (d1, d2) = (0.03, 0.5), whose head lies below the semantic
    floor, and a split sweep along d2 whose background side is ten targets
    and whose observation side is one."""
    ds_curve = [RDQuery(0.03, 0.5, ds) for ds in np.linspace(0.2, 0.5, 20).tolist()]
    background = [RDQuery(0.1, d2, 0.4) for d2 in np.linspace(0.02, 0.23, 10).tolist()]
    return [(sources.correlated_problem(SPEC_COR), ds_curve),
            (sources.conditionally_independent_problem(SPEC_IND), background)]


def part_queries(problem, queries):
    """The distinct queries of each part a batch on ``problem`` solves."""
    if problem.split is None:
        return [(problem, q) for q in queries]
    obs, bg = problem.split
    return ([(obs, RDQuery(d1, 0.0, ds)) for d1, ds in dict.fromkeys((q.d1, q.ds) for q in queries)]
            + [(bg, RDQuery(0.0, d2, 0.0)) for d2 in dict.fromkeys(q.d2 for q in queries)])


class TestChains:
    @pytest.mark.parametrize("grid", range(5), ids=["independent", "classification8", "correlated",
                                                    "correlated_ds_curve", "background_curve"])
    def test_warm_chains_change_answers_only_by_rounding(self, grid, monkeypatch):
        # a batch calls solve_rd_point through the module attribute once per
        # distinct part query, along its piece of a chain (the benchmark's
        # per-point spans wrap it); a call of its own is a batch of one and
        # starts cold
        problem, queries = (chain_grids() + curve_grids())[grid]
        calls = []  # (part, query, point or error)

        def recording(part, q, *args, **kwargs):
            try:
                point = solve_rd_point(part, q, *args, **kwargs)
            except SemrdError as exc:
                calls.append((part, q, exc))
                raise
            calls.append((part, q, point))
            return point

        monkeypatch.setattr(solver_mod, "solve_rd_point", recording)
        assert len(list(solver_mod.solve_cells(problem, queries))) == len(queries)
        assert [(part, q) for part, q, _ in calls] == part_queries(problem, queries)
        warm_steps = cold_steps = 0
        for part, q, warm in calls:
            try:
                cold = solve_rd_point(part, q)
            except SemrdError as exc:
                assert type(warm) is type(exc) and str(warm) == str(exc), q
                continue
            assert abs(warm.rate - cold.rate) <= 1e-9, q
            assert warm.converged == cold.converged, q
            warm_steps, cold_steps = warm_steps + warm.iterations, cold_steps + cold.iterations
        assert warm_steps < cold_steps

    def test_chains_follow_the_queries(self):
        # consecutive queries differing in exactly one target share a chain
        q = [RDQuery(0.05, 0.1, 0.3), RDQuery(0.05, 0.1, 0.4), RDQuery(0.05, 0.2, 0.4),
             RDQuery(0.1, 0.3, 0.4), RDQuery(0.1, 0.3, 0.4), RDQuery(0.2, 0.3, 0.4)]
        assert solver_mod._chains(q) == [q[:3], q[3:4], q[4:]]

    def test_pieces_are_square(self):
        # a side of q queries runs pieces of at most floor(sqrt(q)) queries:
        # one chain of ten is cut 3 + 3 + 3 + 1, the six chains of a 6 x 6
        # grid stay whole, and five background targets are cut 2 + 2 + 1
        line = [RDQuery(0.05, 0.1, ds) for ds in np.linspace(0.3, 0.5, 10).tolist()]
        assert [len(c) for c in solver_mod._pieces(solver_mod._chains(line))] == [3, 3, 3, 1]
        square = [RDQuery(d1, 0.1, ds) for d1, ds in itertools.product(
            np.linspace(0.02, 0.1, 6).tolist(), np.linspace(0.3, 0.5, 6).tolist())]
        chains = solver_mod._chains(square)
        assert [len(c) for c in chains] == [6] * 6
        assert solver_mod._pieces(chains) == chains
        background = [RDQuery(0.0, d2, 0.0) for d2 in np.linspace(0.02, 0.23, 5).tolist()]
        assert [len(c) for c in solver_mod._pieces([background])] == [2, 2, 1]

    def test_pieces_take_fewer_batch_steps_than_one_chain(self, monkeypatch):
        # the 20-point ds curve as pieces of four against the same queries as
        # one chain: the pieces advance side by side
        masses, group_masses = [], solver_mod._Workspace.group_masses

        def counting(self, Q):
            masses.append(len(Q))
            return group_masses(self, Q)

        monkeypatch.setattr(solver_mod._Workspace, "group_masses", counting)
        problem, queries = curve_grids()[0]
        pieced = list(solver_mod.solve_cells(problem, queries))
        pieced_steps = len(masses)
        masses.clear()
        chained = solver_mod._solve_chains(problem, [queries], solver_mod.DEFAULT_OPTIONS)
        assert len(pieced) == len(chained) == 20
        assert max(masses) == 1
        assert pieced_steps < len(masses)

    def test_stalled_warm_multipliers_solve_again_from_zero(self, monkeypatch):
        # from (d1, ds) = (0.4, 0.25) the inherited semantic multiplier (about
        # 76.9) saturates at (0.4, 0.3): the semantic cost's variance
        # underflows, Newton cannot move it and the solve stops at a KKT
        # residual of 0.05 with F = -3.007, against 0.589 at the next step,
        # which raised "constrained objective increased". Along a chain of
        # four queries the pair stays one piece
        stalls, newton = [], solver_mod._ConstrainedBA._newton

        def spying(self, M, d, *args):
            new, stalled = newton(self, M, d, *args)
            for b in stalled:
                kkt = solver_mod._kkt_residual(new.kernel.lam[b], new.grad[b])
                stalls.append((self.cells[b].iterations, d.kernel.lam[b][2], kkt))
            return new, stalled

        monkeypatch.setattr(solver_mod._ConstrainedBA, "_newton", spying)
        obs = sources.classification_problem(0.25, 0.25, 8).split[0]
        queries = [RDQuery(0.4, 0.0, ds) for ds in (0.25, 0.3, 0.35, 0.4)]
        assert solver_mod._pieces(solver_mod._chains(queries)) == [queries[:2], queries[2:]]
        cells = list(solver_mod.solve_cells(obs, queries))
        assert len(stalls) == 1
        step, lam_s, kkt = stalls[0]
        assert step == 1 and lam_s > 70.0 and kkt > 1e-3
        for q, cell in zip(queries, cells):
            assert cell.error is None and cell.point.converged
            assert abs(cell.point.rate - solve_rd_point(obs, q).rate) <= 1e-9

    def test_stalled_dual_is_solved_again_from_zero(self):
        # the retry lives in the multiplier solve, whatever the step: from the
        # saturated semantic multiplier of (0.4, 0.25) (about 76.9), Newton
        # stalls at the marginal the run for (0.4, 0.3) starts from, at a KKT
        # residual of 0.05 and F = -3.007; solved again from 0 it converges,
        # and the larger of the two values is kept
        obs = sources.classification_problem(0.25, 0.25, 8).split[0]
        ws = obs._workspace
        cba = solver_mod._ConstrainedBA(ws, solver_mod.DEFAULT_OPTIONS)
        cba.add(0, (0.4, 0.0, 0.25))
        first = cba.run()
        lam = first.step.dual.kernel.lam
        assert lam[0][2] > 70.0
        Q = (1.0 - solver_mod._WARM_MIX) * first.step.Q_next + solver_mod._WARM_MIX / ws.nh
        M, targets, tol = ws.group_masses(Q), np.array([[0.4, 0.0, 0.3]]), [solver_mod._KKT_TOL]
        kernel = cba._kernel(lam)
        stuck, stalled = cba._newton(M, cba._evaluate(M, kernel, targets), targets, tol)
        assert stalled == [0]
        assert solver_mod._kkt_residual(stuck.kernel.lam[0], stuck.grad[0]) > 1e-3
        d = cba._solve_dual(M, kernel, targets, tol)
        assert solver_mod._kkt_residual(d.kernel.lam[0], d.grad[0]) <= solver_mod._KKT_TOL
        assert d.value[0] > stuck.value[0] + 1.0
        assert d.kernel.lam[0][2] < 10.0

    def test_batch_matches_lone_solves(self, monkeypatch):
        # one batch of three chains on the N = 8 observation side, cut into
        # pieces of at most two queries: an infeasible head, a head patched
        # to fail on a rise of F, and a chain ending at zero rate. Each cell
        # answers as a lone cold solve does, and the batch takes fewer steps
        # than its cells
        obs = sources.classification_problem(0.25, 0.25, 8).split[0]
        queries = [RDQuery(*q) for q in (
            (0.4, 0.0, 0.2), (0.4, 0.0, 0.25), (0.4, 0.0, 0.3),
            (0.3, 0.0, 0.35), (0.3, 0.0, 0.45),
            (0.2, 0.0, 0.3), (0.2, 0.0, 0.4), (0.9, 0.0, 0.4),
        )]
        assert [len(c) for c in solver_mod._chains(queries)] == [3, 2, 3]
        assert [len(c) for c in solver_mod._pieces(solver_mod._chains(queries))] == [2, 1, 2, 2, 1]
        failing, solve_dual = (0.3, 0.0, 0.35), solver_mod._ConstrainedBA._solve_dual

        def rising(self, M, kernel, targets, tol):
            # F of the failing cell rises by 1 at every step
            d = solve_dual(self, M, kernel, targets, tol)
            for b, t in enumerate(targets):
                if tuple(t) == failing:
                    self.rises = getattr(self, "rises", 0) + 1
                    d.value[b] += self.rises
            return d

        monkeypatch.setattr(solver_mod._ConstrainedBA, "_solve_dual", rising)
        masses, group_masses = [], solver_mod._Workspace.group_masses

        def counting(self, Q):
            masses.append(len(Q))
            return group_masses(self, Q)

        monkeypatch.setattr(solver_mod._Workspace, "group_masses", counting)
        cells = list(solver_mod.solve_cells(obs, queries))
        batch_steps = len(masses)
        # four pieces run: the zero-rate query needs no run
        assert max(masses) == 4
        errors = [c.error.split(":")[0] if c.error else None for c in cells]
        assert errors == ["InfeasibleDistortionError", None, None, "SolverError"] + [None] * 4
        assert "at step 2" in cells[3].error
        assert cells[7].point.rate == 0.0 and cells[7].point.iterations == 0
        cell_steps = 0
        for q, cell in zip(queries, cells):
            try:
                lone = solve_rd_point(obs, q)
            except SemrdError as exc:
                assert cell.error == f"{type(exc).__name__}: {exc}", q
                continue
            assert abs(cell.point.rate - lone.rate) <= 1e-9, q
            assert cell.point.converged == lone.converged, q
            cell_steps += cell.point.iterations
        assert batch_steps < cell_steps

    def test_answers_go_to_their_queries(self, prob_cor, monkeypatch):
        # a wrapper of solve_rd_point that answers one query without the
        # batch leaves that query's answer waiting there: the next call, for
        # a later query of the chain, is refused rather than handed it. Three
        # chains of three queries are three pieces, each a whole chain
        queries = [RDQuery(d1, 0.1, ds) for d1 in (0.05, 0.1, 0.2) for ds in (0.3, 0.4, 0.5)]
        assert solver_mod._pieces(solver_mod._chains(queries)) == solver_mod._chains(queries)
        original = solver_mod.solve_rd_point

        def skipping(problem, query, *args, **kwargs):
            if query == queries[1]:
                return original(problem, query)
            return original(problem, query, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "solve_rd_point", skipping)
        cells = list(solver_mod.solve_cells(prob_cor, queries))
        assert [c.error is None for c in cells] == [True, True, False] + [True] * 6
        assert cells[2].error.startswith("SolverError: query (0.05, 0.1, 0.5) is not the next")
        batch = solver_mod._Batch(prob_cor, [queries[:3]], solver_mod.DEFAULT_OPTIONS)
        with pytest.raises(SolverError, match="is not the next query"):
            batch.result(sources.correlated_problem(SPEC_COR), queries[0], 0)
        assert batch.result(prob_cor, queries[0], 0).converged


@pytest.mark.parametrize("grid", ["independent", "classification64"])
def test_benchmark_grids_cell_steps(grid, prob_ind, prob_cls, monkeypatch):
    # the seed-0 grids of the sweep_independent and cli_classification
    # benchmarks, solved serially: the cell steps (cells advanced, summed over
    # batch steps) are deterministic. The rank-aware Anderson fit takes 160
    # and 245; a fit on every difference in the history took 217 and 282
    problem, bound, axes = {
        "independent": (prob_ind, 175, (np.linspace(0.02, 0.23, 5), np.linspace(0.02, 0.23, 5),
                                        np.linspace(0.26, 0.49, 4))),
        "classification64": (prob_cls, 265, (np.linspace(0.02, 0.40, 6), [0.1, 0.35],
                                             np.linspace(0.26, 0.49, 6))),
    }[grid]
    masses, group_masses = [], solver_mod._Workspace.group_masses

    def counting(self, Q):
        masses.append(len(Q))
        return group_masses(self, Q)

    monkeypatch.setattr(solver_mod._Workspace, "group_masses", counting)
    queries = [RDQuery(*map(float, q)) for q in itertools.product(*axes)]
    cells = list(solver_mod.solve_cells(problem, queries))
    assert all(c.point is not None and c.point.converged for c in cells)
    assert sum(masses) <= bound


class TestProblemValidation:
    def test_alphabet_mismatch_detected(self):
        x1 = Alphabet.binary("x1")
        src = JointPMF(
            (x1, Alphabet.binary("x2"), Alphabet.binary("y")), np.full((2, 2, 2), 0.125)
        )
        h1, h2, hs = Alphabet.binary("x1_hat"), Alphabet.binary("x2_hat"), Alphabet.binary("s_hat")
        wrong = DistortionMatrix.hamming(Alphabet.binary("other"), h1)
        with pytest.raises(ProbabilityError, match="d1"):
            RDProblem(src, (h1, h2, hs), wrong, DistortionMatrix.hamming(src.axes[1], h2),
                      DistortionMatrix.hamming(x1, hs))

    def test_name_collision_rejected(self):
        x1 = Alphabet.binary("x1")
        src = JointPMF(
            (x1, Alphabet.binary("x2"), Alphabet.binary("y")), np.full((2, 2, 2), 0.125)
        )
        h1 = Alphabet.binary("x1")  # collides with the source axis
        h2, hs = Alphabet.binary("x2_hat"), Alphabet.binary("s_hat")
        with pytest.raises(ProbabilityError, match="distinct"):
            RDProblem(src, (h1, h2, hs), DistortionMatrix.hamming(x1, h1),
                      DistortionMatrix.hamming(src.axes[1], h2),
                      DistortionMatrix.hamming(x1, hs))

    def test_query_validation(self):
        with pytest.raises(ProbabilityError):
            RDQuery(-0.1, 0.1, 0.1)
        with pytest.raises(ProbabilityError):
            RDQuery(0.1, math.inf, 0.1)
        # a bool is not a distortion, even though True == 1
        with pytest.raises(ProbabilityError, match="d1"):
            RDQuery(True, 0.1, 0.2)
        with pytest.raises(ProbabilityError, match="ds"):
            RDQuery(0.1, 0.1, False)
