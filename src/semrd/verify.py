"""Cross-module verification suites.

Three suites back the ``semrd verify`` command and the acceptance tests:

* ``closed_vs_ba_suite`` -- the numerical solver against every closed-form
  evaluator on grids inside the proven regions, and the router's contract
  on seeded random specs and targets: every value ``auto`` serves from a
  closed form matches the solver. Both sides come from
  :func:`semrd.models.route`, so a model's closed form and region are
  written once, in ``models``.
* ``channels_suite`` -- the explicit achievability constructions: induced
  source laws, exact distortions, and rates against the closed forms.
* ``properties_suite`` -- structural properties of the solver and the
  probability core: monotonicity, midpoint convexity, separability under the
  observation-side Markov chain, distortion equivalence, information
  identities.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import sources
from .closed_form import (
    classification_region_bound,
    rate_classification,
    rate_correlated,
    semantic_binary_rd,
)
from .errors import ConfigError
from .models import Model, classification_model, correlated_model, independent_model, route
from .prob import Alphabet, BinarySourceSpec, DistortionMatrix, JointPMF
from .semantic import check_distortion_equivalence, modified_distortion
from .solver import RDQuery, semantic_rd, solve_joint_point, solve_rd_point
from .test_channels import (
    build_classification_channel,
    build_correlated_binary_channel,
    classification_source_marginal,
    correlated_construction_exists,
    correlated_noise_law,
    correlated_q_unclipped,
    verify_achievability,
)

BINARY_P = 0.25


@dataclass
class Check:
    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    details: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [dataclasses.asdict(c) for c in self.checks],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            res = "" if c.residual is None else f" residual={c.residual:.3e}"
            tol = "" if c.tolerance is None else f" tol={c.tolerance:.0e}"
            lines.append(f"[{status}] {self.suite}/{c.name}{res}{tol}")
        lines.append(f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}")
        return lines


# ---------------------------------------------------------------------------
# closed form vs solver


def _grid_check(name: str, model: Model, points, tol: float) -> Check:
    """Asserted: the solver within tol of the closed form at every point,
    both answered by the router (under ``closed_form`` and under ``ba``). A
    flagged row on either side, or a solver row that did not converge, fails
    the check."""
    queries = [RDQuery(*pt) for pt in points]
    worst = 0.0
    ok = True
    for cf, ba in zip(route(model, queries, "closed_form"), route(model, queries, "ba")):
        ok = ok and cf.converged and ba.converged
        if cf.rate is not None and ba.rate is not None:
            worst = max(worst, abs(ba.rate - cf.rate))
    return Check(name, ok and worst < tol, worst, tol, details={"points": len(points)})


def independent_grid_check(shape: tuple[int, int, int] = (3, 3, 2), tol: float = 2e-3) -> Check:
    """Solver vs the independent-parts closed form on an indicator-active grid."""
    spec = BinarySourceSpec.conditionally_independent(BINARY_P, BINARY_P, BINARY_P)
    points = list(itertools.product(
        np.linspace(0.02, 0.23, shape[0]).tolist(),
        np.linspace(0.02, 0.23, shape[1]).tolist(),
        np.linspace(0.26, 0.49, shape[2]).tolist(),
    ))
    return _grid_check("independent_parts_grid", independent_model(spec), points, tol)


def _correlated_region_points(n_points: int, seed: int = 7) -> list[tuple[float, float, float]]:
    """Deterministic sample of the correlated model's proven region with the
    observation target binding (d1 <= transformed semantic target) and the
    companion noise construction valid (nonnegative reproduction-noise law).

    The construction goes invalid on part of the documented region (see
    ``q_nonnegativity_scan``); the closed form is certified tight only on the
    valid part, so grids that assert tightness sample from it."""
    rng = np.random.default_rng(seed)
    spec = BinarySourceSpec.correlated(BINARY_P, BINARY_P, BINARY_P)
    cap = spec.p1 * spec.p2
    pts = []
    while len(pts) < n_points:
        d1 = float(rng.uniform(0.004, cap * 0.98))
        d2 = float(rng.uniform(0.02, spec.p1 * 0.95))
        # keep ds0 >= d1 with margin so the construction's first coordinate is d1
        lo = BINARY_P + d1 * (1.0 - 2.0 * BINARY_P) + 0.01
        if lo >= 0.5:
            continue
        ds = float(rng.uniform(lo, 0.5))
        if not correlated_construction_exists(spec.p1, spec.p2, d1, d2):
            continue
        pts.append((d1, d2, ds))
    return pts


def correlated_grid_check(n_points: int = 8, tol: float = 2e-3) -> Check:
    spec = BinarySourceSpec.correlated(BINARY_P, BINARY_P, BINARY_P)
    points = _correlated_region_points(n_points)
    return _grid_check("correlated_grid", correlated_model(spec), points, tol)


def classification_points(
    n_points: int, p: float = BINARY_P, p2: float = BINARY_P, n_alpha: int = 8
) -> list[tuple[float, float, float]]:
    """Points of the integer model's region, d1 from 0.02 to min{bound, 0.38},
    each at two semantic targets: one where the observation target binds
    (Ds0 = d1 + 0.06, capped below 0.5) and one where the semantic target
    bounds the parity flips (Ds0 half of d1 N/(2(N-1)))."""
    bound = classification_region_bound(p2, n_alpha)
    pts = []
    for i, d1 in enumerate(np.linspace(0.02, min(bound, 0.38), n_points).tolist()):
        d2 = 0.1 if i % 2 == 0 else 0.35
        flips = d1 * n_alpha / (2.0 * (n_alpha - 1))
        pts.append((d1, d2, min(p + (1.0 - 2.0 * p) * d1 + 0.03, 0.499)))
        pts.append((d1, d2, p + (1.0 - 2.0 * p) * flips / 2))
    return pts


def classification_grid_check(n_points: int = 4, tol: float = 5e-3) -> Check:
    points = classification_points(n_points)
    model = classification_model(BINARY_P, BINARY_P, 8)
    return _grid_check("classification_grid", model, points, tol)


def router_contract_check() -> Check:
    """Asserted: every rate ``auto`` serves from a closed form lies within
    1e-9 of a converged ``ba`` row, on 8 seeded random specs of each model
    with a closed form. Crossovers are drawn from [0.05, 0.45] and N from
    {4, 6, 8, 16, 64}; 12 targets per spec from the whole box (d1 and d2 in
    [0, 0.5], ds in [p, 0.5]), not only the regions. Each spec's targets are
    routed as one batch under ``auto``, and its closed-form rows as one under
    ``ba``. ``details`` gives each model's closed-form share."""
    specs, targets, tol = 8, 12, 1e-9
    rng = np.random.default_rng(29)
    builders = {
        "independent": lambda p, a, b: independent_model(
            BinarySourceSpec.conditionally_independent(p, a, b)),
        "correlated": lambda p, a, b: correlated_model(BinarySourceSpec.correlated(p, a, b)),
        "classification": lambda p, a, b: classification_model(
            p, a, int(rng.choice((4, 6, 8, 16, 64)))),
    }
    worst, ok, details = 0.0, True, {}
    for kind, build in builders.items():
        served = 0
        for _ in range(specs):
            p, a, b = rng.uniform(0.05, 0.45, 3).tolist()
            model = build(p, a, b)
            queries = [RDQuery(*rng.uniform((0.0, 0.0, p), 0.5).tolist()) for _ in range(targets)]
            closed = [r for r in route(model, queries) if r.method == "closed_form" and r.converged]
            served += len(closed)
            for cf, ba in zip(closed, route(model, [r.query for r in closed], "ba")):
                ok = ok and ba.converged
                if ba.rate is not None:
                    worst = max(worst, abs(ba.rate - cf.rate))
        details[f"{kind}_closed_form_share"] = served / (specs * targets)
    return Check("router_contract", ok and worst < tol, worst, tol, details=details)


def semantic_rate_check(
    points_per_p: int = 6,
    p_values: tuple[float, ...] = (0.05, 0.1, 0.25),
    tol: float = 1e-3,
) -> Check:
    worst = 0.0
    n = 0
    for p in p_values:
        joint = sources.semantic_observation_joint(p)
        ds_table = DistortionMatrix.hamming(
            Alphabet.binary(sources.S), Alphabet.binary(sources.S_HAT)
        )
        for ds in np.linspace(p + 0.01, 0.49, points_per_p):
            expected = semantic_binary_rd(p, float(ds))
            point = semantic_rd(joint, ds_table, float(ds))
            worst = max(worst, abs(point.rate - expected))
            n += 1
    return Check("semantic_rate", worst < tol, worst, tol, details={"points": n})


def closed_vs_ba_suite() -> SuiteReport:
    checks = [
        independent_grid_check(),
        correlated_grid_check(),
        classification_grid_check(),
        router_contract_check(),
        semantic_rate_check(),
    ]
    return SuiteReport("closed-vs-ba", checks)


# ---------------------------------------------------------------------------
# achievability channels


def correlated_channel_checks(n_points: int = 20, seed: int = 11) -> list[Check]:
    spec = BinarySourceSpec.correlated(BINARY_P, BINARY_P, BINARY_P)
    source = sources.correlated_source(spec.p1, spec.p2)
    ds_table = modified_distortion(
        sources.semantic_observation_joint(spec.p),
        DistortionMatrix.hamming(Alphabet.binary(sources.S), Alphabet.binary(sources.S_HAT)),
    )
    d1_tab = DistortionMatrix.hamming(source.axes[0], Alphabet.binary(sources.X1_HAT))
    d2_tab = DistortionMatrix.hamming(source.axes[1], Alphabet.binary(sources.X2_HAT))
    worst = {
        "simplex": 0.0,
        "marginal": 0.0,
        "distortion": 0.0,
        "semantic_slack": 0.0,
        "rate": 0.0,
    }
    points = _correlated_region_points(n_points, seed=seed)
    for d1, d2, ds in points:
        ch = build_correlated_binary_channel(spec.p, spec.p1, spec.p2, d1, d2, ds)
        expected = rate_correlated(spec, d1, d2, ds)
        rep = verify_achievability(
            ch.joint, source, expected, d1=d1_tab, d2=d2_tab, ds_mod=ds_table
        )
        worst["simplex"] = max(worst["simplex"], abs(float(ch.q.sum()) - 1.0))
        worst["marginal"] = max(worst["marginal"], rep.marginal_residual)
        worst["distortion"] = max(
            worst["distortion"], abs(rep.achieved[0] - d1), abs(rep.achieved[1] - d2)
        )
        target_sem = (1.0 - d1) * spec.p + d1 * (1.0 - spec.p)
        worst["semantic_slack"] = max(
            worst["semantic_slack"],
            abs(rep.achieved[2] - target_sem),
            max(0.0, rep.achieved[2] - ds),
        )
        worst["rate"] = max(worst["rate"], rep.rate_gap)
    details = {"points": n_points}
    return [
        Check("correlated_q_simplex", worst["simplex"] < 1e-12, worst["simplex"], 1e-12, details=details),
        Check("correlated_source_marginal", worst["marginal"] < 1e-12, worst["marginal"], 1e-12, details=details),
        Check("correlated_distortions_exact", worst["distortion"] < 1e-12, worst["distortion"], 1e-12, details=details),
        Check("correlated_semantic_distortion", worst["semantic_slack"] < 1e-12, worst["semantic_slack"], 1e-12, details=details),
        Check("correlated_rate_match", worst["rate"] < 1e-9, worst["rate"], 1e-9, details=details),
    ]


def classification_channel_checks(n_points: int = 20) -> list[Check]:
    """The parity-split channel against ``rate_classification``: at Ds = 0.5,
    where the error is uniform, on ``n_points`` values of d1; and at each
    nonzero one of them again with the semantic target bounding the parity
    flips (Ds0 half of d1 N/(2(N-1))), where the channel must also meet Ds."""
    p, p2, n_alpha = BINARY_P, BINARY_P, 8
    declared = classification_source_marginal(p2, n_alpha)
    d1_tab = DistortionMatrix.hamming(
        Alphabet.integers(sources.X1, n_alpha), Alphabet.integers(sources.X1_HAT, n_alpha)
    )
    ds_tab = modified_distortion(
        sources.parity_semantic_joint(p, n_alpha),
        DistortionMatrix.hamming(Alphabet.binary(sources.S), Alphabet.binary(sources.S_HAT)),
    )
    bound = classification_region_bound(p2, n_alpha)
    worst = {"marginal": 0.0, "distortion": 0.0, "semantic": 0.0, "rate": 0.0}
    points = [(d1, None, 0.5) for d1 in np.linspace(0.0, bound * 0.995, n_points).tolist()]
    for d1, _, _ in points[1:]:
        a = d1 * n_alpha / (4.0 * (n_alpha - 1))
        points.append((d1, a, p + (1.0 - 2.0 * p) * a))
    for d1, a, ds in points:
        ch = build_classification_channel(p2, n_alpha, d1, a)
        expected = rate_classification(p, p2, n_alpha, d1, 0.5, ds)
        rep = verify_achievability(ch.joint, declared, expected, d1=d1_tab, ds_mod=ds_tab)
        worst["marginal"] = max(worst["marginal"], rep.marginal_residual)
        worst["distortion"] = max(worst["distortion"], abs(rep.achieved[0] - d1))
        worst["semantic"] = max(worst["semantic"], rep.achieved[2] - ds)
        worst["rate"] = max(worst["rate"], rep.rate_gap)
    details = {"points": len(points)}
    return [
        Check("classification_source_marginal", worst["marginal"] < 1e-12, worst["marginal"], 1e-12, details=details),
        Check("classification_distortion_exact", worst["distortion"] < 1e-12, worst["distortion"], 1e-12, details=details),
        Check("classification_semantic_distortion", worst["semantic"] < 1e-12, worst["semantic"], 1e-12, details=details),
        Check("classification_rate_match", worst["rate"] < 1e-9, worst["rate"], 1e-9, details=details),
    ]


def noise_law_check(n_points: int = 20, seed: int = 13) -> Check:
    """Induced XOR-noise marginal of the constructed channel equals the
    product-form law, for random parameters where the construction exists."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < n_points:
        p1 = float(rng.uniform(0.1, 0.45))
        p2 = float(rng.uniform(0.1, 0.45))
        cap = p1 * p2
        d1 = float(rng.uniform(0.001, cap * 0.98))
        d2 = float(rng.uniform(0.01, p1 * 0.95))
        p = 0.2
        lo = p + d1 * (1 - 2 * p) + 0.005
        ds = float(rng.uniform(lo, min(0.5, lo + 0.2)))
        if not correlated_construction_exists(p1, p2, d1, d2):
            continue
        ch = build_correlated_binary_channel(p, p1, p2, d1, d2, ds)
        # noise pair law: z_i = y xor x_i
        probs = ch.joint.marginalize((sources.X1, sources.X2, sources.Y)).probs
        law = np.zeros(4)
        for x1 in range(2):
            for x2 in range(2):
                for y in range(2):
                    law[(y ^ x1) * 2 + (y ^ x2)] += probs[x1, x2, y]
        worst = max(worst, float(np.abs(law - correlated_noise_law(p1, p2)).max()))
        done += 1
    return Check("xor_noise_law", worst < 1e-12, worst, 1e-12, details={"points": n_points})


def q_nonnegativity_scan(grid_n: int = 25) -> Check:
    """Asserted: on a (d1, d2) scan of the correlated region at ds = 0.5, the
    router flags under ``closed_form`` exactly the points where the
    reproduction-noise law has a negative entry, so that the closed form is
    served only where its construction exists. The residual counts the
    points where the two disagree; the details record the scan."""
    spec = BinarySourceSpec.correlated(BINARY_P, BINARY_P, BINARY_P)
    cap = spec.p1 * spec.p2
    points = list(itertools.product(
        np.linspace(1e-4, cap, grid_n).tolist(), np.linspace(1e-4, spec.p1 - 1e-4, grid_n).tolist()))
    laws = [correlated_q_unclipped(spec.p1, spec.p2, d1, d2) for d1, d2 in points]
    rows = route(correlated_model(spec), [RDQuery(d1, d2, 0.5) for d1, d2 in points], "closed_form")
    negative = [float(q.min()) < -1e-12 for q in laws]
    mismatches = sum((r.error is not None) != bad for r, bad in zip(rows, negative))
    worst = min(range(len(points)), key=lambda k: float(laws[k].min()))
    return Check(
        "q_nonnegativity_scan",
        mismatches == 0,
        float(mismatches),
        0.0,
        details={
            "region_points_scanned": len(points),
            "points_with_negative_entries": sum(negative),
            "worst_entry": min(float(laws[worst].min()), 0.0),
            "worst_point_d1_d2": points[worst] if negative[worst] else None,
            "p1": spec.p1,
            "p2": spec.p2,
        },
    )


def channels_suite() -> SuiteReport:
    checks = correlated_channel_checks()
    checks.extend(classification_channel_checks())
    checks.append(noise_law_check())
    checks.append(q_nonnegativity_scan())
    return SuiteReport("channels", checks)


# ---------------------------------------------------------------------------
# structural properties


def monotonicity_check(points_per_axis: int = 5, slack: float = 1e-6) -> Check:
    """Rates non-increasing along each target coordinate."""
    spec = BinarySourceSpec.correlated(BINARY_P, BINARY_P, BINARY_P)
    problem = sources.correlated_problem(spec)
    base = (0.04, 0.12, 0.33)
    grids = {
        0: np.linspace(0.01, 0.3, points_per_axis),
        1: np.linspace(0.02, 0.4, points_per_axis),
        2: np.linspace(0.26, 0.49, points_per_axis),
    }
    worst = -math.inf
    for coord, values in grids.items():
        prev = None
        for v in values:
            q = list(base)
            q[coord] = float(v)
            rate = solve_rd_point(problem, RDQuery(*q)).rate
            if prev is not None:
                worst = max(worst, rate - prev)
            prev = rate
    return Check("solver_monotonicity", worst <= slack, max(worst, 0.0), slack)


def convexity_check(n_pairs: int = 6, slack: float = 2e-3, seed: int = 5) -> Check:
    """Midpoint convexity of the solved rate over random query pairs."""
    rng = np.random.default_rng(seed)
    spec = BinarySourceSpec.conditionally_independent(BINARY_P, BINARY_P, BINARY_P)
    problem = sources.conditionally_independent_problem(spec)
    worst = -math.inf
    for _ in range(n_pairs):
        qa = (rng.uniform(0.02, 0.45), rng.uniform(0.02, 0.45), rng.uniform(0.27, 0.49))
        qb = (rng.uniform(0.02, 0.45), rng.uniform(0.02, 0.45), rng.uniform(0.27, 0.49))
        qm = tuple((a + b) / 2 for a, b in zip(qa, qb))
        ra = solve_rd_point(problem, RDQuery(*qa)).rate
        rb = solve_rd_point(problem, RDQuery(*qb)).rate
        rm = solve_rd_point(problem, RDQuery(*qm)).rate
        worst = max(worst, rm - (ra + rb) / 2)
    return Check("solver_midpoint_convexity", worst <= slack, max(worst, 0.0), slack)


def random_chain_problem(rng: np.random.Generator):
    """Random binary source with the observation and background independent
    given side information, as a solver instance."""
    p_y = float(rng.uniform(0.3, 0.7))
    p2 = float(rng.uniform(0.05, 0.45))  # observation | side info crossover
    p3 = float(rng.uniform(0.05, 0.45))  # background | side info crossover
    p_sem = float(rng.uniform(0.05, 0.4))
    source = sources.conditionally_independent_source(p2, p3, p_y)
    problem = sources.binary_problem(source, p_sem)
    return problem, p_sem


def separability_check(n_sources: int = 5, tol: float = 2e-3, seed: int = 23) -> Check:
    """The joint solve's rate equals the split solve's (the sum of the two
    reduced-problem rates) whenever the observation and background are
    independent given side information."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_sources):
        problem, p_sem = random_chain_problem(rng)
        d1 = float(rng.uniform(0.02, 0.3))
        d2 = float(rng.uniform(0.02, 0.3))
        ds = float(rng.uniform(p_sem + 0.02, 0.49))
        q = RDQuery(d1, d2, ds)
        worst = max(worst, abs(solve_joint_point(problem, q).rate - solve_rd_point(problem, q).rate))
    return Check("separability", worst < tol, worst, tol, details={"sources": n_sources})


def equivalence_check(n_joints: int = 100, tol: float = 1e-10, seed: int = 3) -> Check:
    """|E ds(S, Sh) - E d's(X1, Sh)| on random latent-chain joints."""
    rng = np.random.default_rng(seed)
    s = Alphabet.binary("s")
    worst = 0.0
    for _ in range(n_joints):
        n_x1 = int(rng.integers(2, 5))
        n_sh = int(rng.integers(2, 4))
        x1 = Alphabet("x1", n_x1)
        w = Alphabet("w", 2)
        sh = Alphabet("s_hat", n_sh)
        obs_joint = rng.dirichlet(np.ones(n_x1 * 2 * n_sh)).reshape(n_x1, 2, n_sh)
        post = rng.uniform(0.05, 0.95, size=n_x1)
        probs = np.zeros((2, n_x1, 2, n_sh))
        probs[0] = obs_joint * post[:, None, None]
        probs[1] = obs_joint * (1.0 - post)[:, None, None]
        joint = JointPMF((s, x1, w, sh), probs / probs.sum())
        ds_tab = DistortionMatrix(s, sh, rng.uniform(0.0, 1.0, size=(2, n_sh)))
        worst = max(worst, check_distortion_equivalence(joint, ds_tab))
    return Check("distortion_equivalence", worst < tol, worst, tol, details={"joints": n_joints})


def information_identity_check(n_pmfs: int = 50, tol: float = 1e-10, seed: int = 17) -> Check:
    """Chain rule and symmetry of the information measures on random pmfs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pmfs):
        sizes = rng.integers(2, 4, size=3)
        axes = tuple(Alphabet(n, int(k)) for n, k in zip(("a", "b", "c"), sizes))
        probs = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(tuple(sizes))
        j = JointPMF(axes, probs)
        lhs = j.mutual_information(("a",), ("b", "c"))
        rhs = j.mutual_information(("a",), ("c",)) + j.conditional_mutual_information(
            ("a",), ("b",), ("c",)
        )
        worst = max(worst, abs(lhs - rhs))
        sym = abs(
            j.conditional_mutual_information(("a",), ("b",), ("c",))
            - j.conditional_mutual_information(("b",), ("a",), ("c",))
        )
        worst = max(worst, sym)
    return Check("information_identities", worst < tol, worst, tol, details={"pmfs": n_pmfs})


def properties_suite() -> SuiteReport:
    checks = [
        monotonicity_check(),
        convexity_check(),
        separability_check(3),
        equivalence_check(),
        information_identity_check(),
    ]
    return SuiteReport("properties", checks)


SUITES = {
    "closed-vs-ba": closed_vs_ba_suite,
    "channels": channels_suite,
    "properties": properties_suite,
}


def run_suite(name: str) -> SuiteReport:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
