"""The router: closed form on its region, one solver batch for the rest."""

import dataclasses
import itertools

import numpy as np
import pytest

import semrd.solver as solver_mod
import semrd.sources as sources
import semrd.verify as verify
from semrd.closed_form import (
    classification_region_bound,
    in_region_correlated,
    rate_classification,
    rate_correlated,
)
from semrd.errors import ConfigError, SolverError
from semrd.models import (
    OUTSIDE_REGION,
    Model,
    classification_model,
    correlated_model,
    custom_model,
    route,
)
from semrd.prob import BinarySourceSpec
from semrd.semantic import ds0
from semrd.solver import RDQuery

SPEC = BinarySourceSpec.correlated(0.25, 0.25, 0.25)
# d1 and d2 on both sides of the region's caps p1 p2 = 0.0625 and p1 = 0.25
QUERIES = [RDQuery(*q) for q in itertools.product((0.03, 0.1), (0.1, 0.5), (0.3, 0.45))]
OUTSIDE = [not in_region_correlated(SPEC, *q.as_tuple()) for q in QUERIES]


@pytest.fixture
def calls(monkeypatch):
    """Counts of solve_cells batches, solve_rd_point solves and problem builds."""
    counts = {"batches": 0, "solves": 0, "builds": 0}
    solve_cells, solve = solver_mod.solve_cells, solver_mod.solve_rd_point

    def counting_cells(*args):
        counts["batches"] += 1
        return solve_cells(*args)

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_cells", counting_cells)
    monkeypatch.setattr(solver_mod, "solve_rd_point", counting_solve)
    model = correlated_model(SPEC)

    def counting_build():
        counts["builds"] += 1
        return model.build()

    return counts, Model(counting_build, model.closed_form, model.in_region)


def test_grid_straddles_the_region():
    assert 0 < sum(OUTSIDE) < len(QUERIES)


def test_auto_solves_out_of_region_cells_in_one_batch(calls):
    counts, model = calls
    rows = route(model, QUERIES)
    assert counts == {"batches": 1, "solves": sum(OUTSIDE), "builds": 1}
    assert [r.query for r in rows] == QUERIES
    for row, outside in zip(rows, OUTSIDE):
        if outside:
            assert (row.method, row.converged, row.error) == ("ba", True, None)
        else:
            assert row.method == "closed_form" and row.converged
            assert row.rate == rate_correlated(SPEC, *row.query.as_tuple())


def test_closed_form_flags_out_of_region_cells(calls):
    counts, model = calls
    rows = route(model, QUERIES, "closed_form")
    assert counts == {"batches": 0, "solves": 0, "builds": 0}
    for row, outside in zip(rows, OUTSIDE):
        assert row.method == "closed_form"
        assert (row.error == OUTSIDE_REGION) == outside
        assert row.converged != outside


def test_ba_solves_every_cell(calls):
    counts, model = calls
    rows = route(model, QUERIES, "ba")
    assert counts == {"batches": 1, "solves": len(QUERIES), "builds": 1}
    assert all(r.method == "ba" for r in rows)


def test_closed_form_on_a_model_without_one_is_rejected(calls):
    # the correlated tables given as a custom model: no rows are labelled
    # "ba" under the closed_form method, and nothing is solved
    counts, _ = calls
    model = custom_model(sources.correlated_problem(SPEC))
    with pytest.raises(ConfigError, match="no closed form"):
        route(model, [RDQuery(0.05, 0.1, 0.3)], "closed_form")
    assert counts == {"batches": 0, "solves": 0, "builds": 0}


def test_closed_form_errors_become_flagged_rows(calls):
    # a semantic target below the floor p = 0.25: the closed form raises,
    # the solver reports the infeasible target
    counts, model = calls
    below = [RDQuery(0.03, 0.1, 0.1)]
    (auto,) = route(model, below)
    assert (auto.method, auto.rate, auto.converged) == ("closed_form", None, False)
    # labelled as the solver labels its errors: the class name, then the message
    assert auto.error.startswith("InfeasibleDistortionError: ") and "floor" in auto.error
    assert counts["batches"] == 0
    (ba,) = route(model, below, "ba")
    assert ba.method == "ba" and ba.error.startswith("InfeasibleDistortionError")


_SOLVE = solver_mod.solve_rd_point


def _unconverged(*args, **kwargs):
    return dataclasses.replace(_SOLVE(*args, **kwargs), converged=False)


def _failing(*args, **kwargs):
    raise SolverError("forced")


@pytest.mark.parametrize("patch", [_unconverged, _failing], ids=["unconverged", "solver_error"])
def test_verify_grid_check_fails_on_bad_solver_rows(monkeypatch, patch):
    """An asserted closed-form-vs-solver check fails, without raising, when a
    solver row did not converge or was flagged."""
    # both points in the region and where the noise construction exists, so
    # that the router serves the closed form there
    points = [(0.03, 0.1, 0.45), (0.05, 0.15, 0.45)]
    model = correlated_model(SPEC)
    assert verify._grid_check("grid", model, points, 2e-3).passed
    monkeypatch.setattr(solver_mod, "solve_rd_point", patch)
    check = verify._grid_check("grid", model, points, 2e-3)
    assert not check.passed
    assert check.details == {"points": 2}


def test_classification_region_bounds_d1_itself(calls):
    # D1 past 2(N-1)p2/N = 0.4375 with a semantic target small enough that
    # min{D1, Ds0} lies under the bound: the literal form is off by -0.53 to
    # +0.43 bits on this grid, so none of it is served
    counts, _ = calls
    model = classification_model(0.25, 0.25, 8)
    grid = itertools.product(np.linspace(0.45, 0.9, 6), [0.3], np.linspace(0.26, 0.30, 6))
    queries = [RDQuery(*q) for q in grid]
    assert all(ds0(q.ds, 0.25) < classification_region_bound(0.25, 8) for q in queries)
    rows = route(model, queries, "closed_form")
    assert [r.error for r in rows] == [OUTSIDE_REGION] * 36
    assert counts == {"batches": 0, "solves": 0, "builds": 0}
    # at the bound itself, with the semantic target binding, it is served
    (row,) = route(model, [RDQuery(0.4375, 0.3, 0.27)], "closed_form")
    assert row.converged and row.rate == rate_classification(0.25, 0.25, 8, 0.4375, 0.3, 0.27)


# in the correlated region, where the noise construction does not exist: the
# expression lies 0.0045, 0.0158 and 0.0059 bits below the solver there
NO_CONSTRUCTION = [(0.05, 0.23, 0.45), (0.0625, 0.25, 0.5), (0.06, 0.22, 0.48)]


def test_correlated_closed_form_needs_its_construction(calls):
    counts, model = calls
    queries = [RDQuery(*q) for q in NO_CONSTRUCTION]
    assert all(in_region_correlated(SPEC, *q.as_tuple()) for q in queries)
    assert [r.error for r in route(model, queries, "closed_form")] == [OUTSIDE_REGION] * 3
    assert counts["solves"] == 0
    assert [r.method for r in route(model, queries)] == ["ba"] * 3


def test_correlated_closed_form_rows_match_the_solver():
    # seeded in-region draws over three specs: every row auto serves from
    # the closed form agrees with the solver, and some are solved instead
    rng = np.random.default_rng(0)
    served = solved = 0
    for p1, p2 in ((0.25, 0.25), (0.2, 0.35), (0.4, 0.15)):
        spec = BinarySourceSpec.correlated(0.2, p1, p2)
        queries = [RDQuery(rng.uniform(0.0, p1 * p2), rng.uniform(0.0, p1), rng.uniform(0.3, 0.5))
                   for _ in range(12)]
        model = correlated_model(spec)
        for auto, ba in zip(route(model, queries), route(model, queries, "ba")):
            assert ba.converged
            if auto.method == "closed_form":
                served += 1
                assert abs(auto.rate - ba.rate) < 1e-9
            else:
                solved += 1
    assert served and solved


def test_router_contract_on_random_specs():
    # verify's closed-vs-ba sampler: 8 seeded specs per model, 12 targets
    # each over the whole box; every closed-form row auto serves matches ba
    check = verify.router_contract_check()
    assert check.passed, check
    shares = check.details
    assert shares["independent_closed_form_share"] == 1.0
    # the regions neither swallow nor miss the box
    assert 0.0 < shares["correlated_closed_form_share"] < 1.0
    assert 0.0 < shares["classification_closed_form_share"] < 1.0


def test_fig7_grid_auto_matches_ba():
    # fig7's 12x12 grid (N = 8, d2 = 0.5), with Ds0 < D1 on 63 cells: every
    # cell auto serves from the closed form agrees with the solver
    model = classification_model(0.25, 0.25, 8)
    grid = itertools.product(np.linspace(0.0, classification_region_bound(0.25, 8), 12), [0.5],
                             np.linspace(0.25, 0.5, 12))
    queries = [RDQuery(*q) for q in grid]
    assert sum(ds0(q.ds, 0.25) < q.d1 for q in queries) == 63
    for auto, ba in zip(route(model, queries), route(model, queries, "ba")):
        assert auto.method == "closed_form" and ba.converged
        assert abs(auto.rate - ba.rate) < 1e-9
