"""The router: closed form on its region, one solver batch for the rest."""

import dataclasses
import itertools

import pytest

import semrd.solver as solver_mod
import semrd.sources as sources
import semrd.verify as verify
from semrd.closed_form import in_region_correlated, rate_correlated
from semrd.errors import ConfigError, SolverError
from semrd.models import OUTSIDE_REGION, Model, correlated_model, custom_model, route
from semrd.prob import BinarySourceSpec
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
    solver row did not converge or was flagged; a recorded report gives a
    flagged row's gap as None."""
    points = [(0.03, 0.1, 0.45), (0.05, 0.2, 0.45)]
    model = correlated_model(SPEC)
    assert verify._grid_check("grid", model, points, 2e-3).passed
    monkeypatch.setattr(solver_mod, "solve_rd_point", patch)
    check = verify._grid_check("grid", model, points, 2e-3)
    assert not check.passed
    assert check.details == {"points": 2}
    gaps = verify._gap_report("gaps", model, points, lambda *q: q, "formula").details
    assert all((g["gap_bits"] is None) == (patch is _failing) for g in gaps.values())
