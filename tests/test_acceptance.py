"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. Grids and tolerances are pinned here; the heavy numerical checks
reuse the implementations in ``semrd.verify`` with the criterion's sizes.
"""

import csv
import math

import numpy as np
import pytest

import semrd.sources as sources
import semrd.verify as verify
from semrd.closed_form import semantic_binary_rd
from semrd.figures import generate_figure
from semrd.gaussian import GaussianSpec, monte_carlo_decomposition_check, r_x2_given_y
from semrd.prob import binary_entropy

GAUSS = GaussianSpec(
    var_s=2.0, var_x1=2.0, var_x2=2.0, var_y=2.0, cov_sx1=1.0, cov_x1y=1.0, cov_x2y=1.0
)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} ({name}): PASS - {detail}")


def test_criterion_01_gaussian_background_rate():
    """Background rate at unit distortion: 0.20 nats within 0.005."""
    rate = r_x2_given_y(GAUSS, 1.0)
    assert rate == pytest.approx(0.20, abs=0.005)
    assert rate == pytest.approx(0.5 * math.log(1.5), abs=1e-12)
    _report(1, "gaussian background rate", f"rate={rate:.6f} nats vs 0.20 +/- 0.005")


def test_criterion_02_oracle_equivalence_independent_parts():
    """Solver vs closed form, 10x10x10 indicator-active grid, < 2e-3 bits."""
    check = verify.independent_grid_check(shape=(10, 10, 10), tol=2e-3)
    assert check.passed, f"max gap {check.residual} >= 2e-3"
    _report(
        2,
        "oracle equivalence, independent parts",
        f"{check.details['points']} points, max |gap| = {check.residual:.2e} < 2e-3",
    )


def test_criterion_03_oracle_equivalence_correlated():
    """Solver vs closed form on 20 region points (construction-valid part),
    < 2e-3 bits; the router flags exactly the region points where the
    construction does not exist."""
    check = verify.correlated_grid_check(n_points=20, tol=2e-3)
    assert check.passed, f"max gap {check.residual} >= 2e-3"
    scan = verify.q_nonnegativity_scan()
    assert scan.passed, f"{scan.residual:.0f} scanned points routed against their noise law"
    _report(
        3,
        "oracle equivalence, correlated",
        f"20 points, max |gap| = {check.residual:.2e} < 2e-3; the "
        f"{scan.details['points_with_negative_entries']} of "
        f"{scan.details['region_points_scanned']} scanned region points without the "
        f"construction are flagged under closed_form",
    )


def test_criterion_04_oracle_equivalence_classification():
    """Solver vs closed form on 40 region points, half with the observation
    target binding and half with the semantic target bounding the parity
    flips, < 5e-3 bits."""
    check = verify.classification_grid_check(n_points=20, tol=5e-3)
    assert check.passed, f"max gap {check.residual} >= 5e-3"
    assert check.details == {"points": 40}
    _report(
        4,
        "oracle equivalence, classification",
        f"40 points, max |gap| = {check.residual:.2e} < 5e-3",
    )


def test_criterion_05_test_channel_exactness():
    """Explicit constructions: exact source laws, exact distortions, rates
    matching the closed forms to 1e-9 (20 + 20 points)."""
    checks = verify.correlated_channel_checks(n_points=20)
    checks += verify.classification_channel_checks(n_points=20)
    for check in checks:
        assert check.passed, f"{check.name}: residual {check.residual} > {check.tolerance}"
    worst = {c.name: c.residual for c in checks}
    _report(5, "test-channel exactness", f"residuals: { {k: f'{v:.1e}' for k, v in worst.items()} }")


def test_criterion_06_semantic_rate_and_ordering():
    """Solver semantic-only rate vs the closed form (20 points per crossover,
    1e-3); the semantic curve sits strictly above the direct curve."""
    check = verify.semantic_rate_check(points_per_p=20, p_values=(0.05, 0.1, 0.25), tol=1e-3)
    assert check.passed, f"max gap {check.residual} >= 1e-3"
    p = 0.1
    grid = np.linspace(p + 0.01, 0.49, 100)
    margins = [
        semantic_binary_rd(p, float(d)) - (1.0 - binary_entropy(float(d))) for d in grid
    ]
    assert min(margins) > 0.0
    _report(
        6,
        "semantic rate",
        f"{check.details['points']} solver points, max |gap| = {check.residual:.2e} < 1e-3; "
        f"semantic-vs-direct margin >= {min(margins):.3e} bits on 100 points",
    )


def test_criterion_07_separability():
    """Joint solve equals the sum of the two reduced solves for 5 random
    sources with the observation-background chain, < 2e-3 bits."""
    check = verify.separability_check(n_sources=5, tol=2e-3)
    assert check.passed, f"max gap {check.residual} >= 2e-3"
    _report(7, "separability", f"5 sources, max |gap| = {check.residual:.2e} < 2e-3")


def test_criterion_08_property_suite():
    """Monotonicity (1e-6 slack), midpoint convexity (2e-3), distortion
    equivalence on 100 joints (1e-10), information identities (1e-10)."""
    checks = [
        verify.monotonicity_check(points_per_axis=6, slack=1e-6),
        verify.convexity_check(n_pairs=8, slack=2e-3),
        verify.equivalence_check(n_joints=100, tol=1e-10),
        verify.information_identity_check(n_pmfs=60, tol=1e-10),
    ]
    for check in checks:
        assert check.passed, f"{check.name}: residual {check.residual} > {check.tolerance}"
    _report(
        8,
        "property suite",
        f"residuals: { {c.name: f'{c.residual:.1e}' for c in checks} }",
    )


def test_criterion_09_gaussian_monte_carlo():
    """Decomposition identity and both estimator-order bounds within three
    sampling standard deviations at one million samples, fixed seed."""
    rep = monte_carlo_decomposition_check(GAUSS, 1_000_000, seed=20260811, D1=1.0, Ds=1.7)
    assert rep.passed
    for case in rep.cases:
        assert case.decomposition_residual <= case.decomposition_tol
        assert case.bound_value <= case.bound_limit + case.bound_tol
    _report(
        9,
        "gaussian monte carlo",
        "; ".join(
            f"{c.label}: decomp {c.decomposition_residual:.2e} <= {c.decomposition_tol:.2e}, "
            f"bound {c.bound_value:.4f} <= {c.bound_limit:.4f} + {c.bound_tol:.1e}"
            for c in rep.cases
        ),
    )


def test_criterion_10_figure_reproduction(tmp_path):
    """Every figure preset emits complete CSVs; in-region cells equal the
    closed forms; out-of-region cells carry converged solver values (>= 99%).

    Runs reduced grids here to keep the suite quick; the full-scale default
    grids complete in well under the half-hour budget (timings in README).
    """
    from semrd.closed_form import rate_classification

    stats = {}
    # fig4 at a grid containing the reference abscissas exactly
    generate_figure("fig4", str(tmp_path), grid_n=51)
    with open(tmp_path / "fig4_rate_curves.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_d = {r["d"]: r for r in rows}
    assert float(by_d["0.1"]["rate_source_bits"]) == pytest.approx(
        1 - binary_entropy(0.1), abs=1e-9
    )
    assert float(by_d["0.2"]["rate_semantic_bits"]) == pytest.approx(
        semantic_binary_rd(0.1, 0.2), abs=1e-9
    )
    stats["fig4"] = f"{len(rows)} rows, reference cells exact"

    converged = total_ba = 0
    for fig, n in (("fig5", 10), ("fig6a", 12), ("fig6b", 12)):
        manifest = generate_figure(fig, str(tmp_path), grid_n=n)
        s = manifest["stats"]
        assert s["failed_cells"] == 0
        ba_cells = s["method_counts"].get("ba", 0)
        assert ba_cells > 0  # background target out of the proven region
        total_ba += ba_cells
        converged += s["converged_cells"]
        stats[fig] = f"{ba_cells} solver cells, {s['converged_cells']} converged"
    assert converged / total_ba >= 0.99

    manifest = generate_figure("fig7", str(tmp_path), grid_n=10)
    with open(tmp_path / "fig7_surface.csv", newline="") as fh:
        fig7_rows = list(csv.DictReader(fh))
    g = manifest["grid"]
    d1_grid = np.linspace(g["d1"]["start"], g["d1"]["stop"], g["d1"]["num"])
    ds_grid = np.linspace(g["ds"]["start"], g["ds"]["stop"], g["ds"]["num"])
    exact = [
        rate_classification(0.25, 0.25, 8, float(d1), 0.5, float(ds))
        for d1 in d1_grid
        for ds in ds_grid
    ]
    assert len(fig7_rows) == len(exact)
    for r, expect in zip(fig7_rows, exact):
        assert r["method"] == "closed_form"
        # exact up to the CSV's 9-significant-digit serialization
        assert r["rate_bits"] == format(expect, ".9g")
    stats["fig7"] = f"{len(fig7_rows)} closed-form cells exact"

    manifest = generate_figure("fig8", str(tmp_path), grid_n=10)
    assert manifest["stats"]["min_rate_nats"] == pytest.approx(0.2027, abs=0.005)
    stats["fig8"] = f"min rate {manifest['stats']['min_rate_nats']:.4f} nats"
    manifest = generate_figure("fig9", str(tmp_path), grid_n=10)
    assert len(manifest["files"]) == 2
    stats["fig9"] = "surface + equal-rate locus emitted"

    _report(10, "figure reproduction", str(stats))
