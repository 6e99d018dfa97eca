"""The models of every sweep kind and the one router that serves their queries.

A :class:`Model` holds three parts: a builder of its solver instance or None,
its closed form or None, and the predicate of the region on which that
closed form is proven. :func:`route` answers a batch of target queries for a
model: the closed form inside its region, the solver everywhere else. Sweeps
of all five kinds (the three binary and parity models, the Gaussian model and
custom tables) and every cell of figures fig5-fig9 go through it, so the
choice between the two, and which methods a model supports
(:func:`check_method`), are decided here and nowhere else. fig4's curves are
closed forms of a single-source problem, which no model covers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from . import solver, sources
from .closed_form import (
    effective_observation_distortion,
    in_region_classification,
    in_region_correlated,
    rate_classification,
    rate_conditionally_independent,
    rate_correlated,
)
from .errors import ConfigError, SemrdError
from .gaussian import GaussianSpec, gaussian_rate
from .prob import BinarySourceSpec
from .solver import RDProblem, RDQuery
from .test_channels import correlated_construction_exists

METHODS = ("auto", "closed_form", "ba")
OUTSIDE_REGION = "RegionError: outside the closed form's proven region"


@dataclass(frozen=True)
class Model:
    """``build()`` returns the solver instance (None: the model is never
    solved); ``closed_form(d1, d2, ds)`` the rate (in the model's unit, by the
    unit rule of :mod:`semrd`), valid where ``in_region(d1, d2, ds)`` holds
    (at every target when it is None). A model without a closed form is always
    solved."""

    build: Callable[[], RDProblem] | None
    closed_form: Callable[[float, float, float], float] | None = None
    in_region: Callable[[float, float, float], bool] | None = None


@dataclass(frozen=True)
class Row:
    """One routed query. ``method`` is "closed_form" or "ba"; a flagged row
    has ``converged`` False, an ``error`` and no rate."""

    query: RDQuery
    method: str
    rate: float | None = None
    converged: bool = False
    cs_residual: float | None = None
    error: str | None = None


def independent_model(spec: BinarySourceSpec) -> Model:
    """Observation and background independent given side information: the
    closed form holds at every target."""
    return Model(
        lambda: sources.conditionally_independent_problem(spec),
        functools.partial(rate_conditionally_independent, spec),
    )


def correlated_model(spec: BinarySourceSpec) -> Model:
    """The closed form on its region where its noise construction exists;
    elsewhere in the region it is only a lower bound, so those are solved."""

    def in_region(d1: float, d2: float, ds: float) -> bool:
        return in_region_correlated(spec, d1, d2, ds) and correlated_construction_exists(
            spec.p1, spec.p2, effective_observation_distortion(spec.p, d1, ds), d2)

    return Model(lambda: sources.correlated_problem(spec), functools.partial(rate_correlated, spec),
                 in_region)


def classification_model(p: float, p2: float, n: int) -> Model:
    return Model(
        lambda: sources.classification_problem(p, p2, n),
        functools.partial(rate_classification, p, p2, n),
        functools.partial(in_region_classification, p, p2, n),
    )


def custom_model(problem: RDProblem) -> Model:
    """Explicit tables: no closed form, every query is solved."""
    return Model(lambda: problem)


def gaussian_model(spec: GaussianSpec) -> Model:
    """The jointly Gaussian model: a closed form in nats at every target, and
    no solver instance."""
    return Model(None, lambda d1, d2, ds: gaussian_rate(spec, d1, d2, ds).rate_nats)


def check_method(model: Model, method: str) -> None:
    """Raise :class:`ConfigError` unless ``method`` is one of METHODS and
    ``model`` supports it: ``closed_form`` needs a closed form and ``ba`` a
    solver instance."""
    if method not in METHODS:
        raise ConfigError(f"method: must be one of {METHODS}, got {method!r}")
    if method == "closed_form" and model.closed_form is None:
        raise ConfigError("method: custom sweeps have no closed form; use 'ba' (or 'auto')")
    if method == "ba" and model.build is None:
        raise ConfigError("method: the gaussian kind has no solver route; use closed_form/auto")


def route(model: Model, queries: Sequence[RDQuery], method: str = "auto") -> list[Row]:
    """One row per query, in order.

    ``auto`` serves the closed form on its region and solves the rest;
    ``closed_form`` flags the queries outside the region instead; ``ba``
    solves every query. A closed form that raises :class:`SemrdError` gives a
    flagged row. The queries left to the solver go to one
    :func:`solver.solve_cells` call in this process, on one problem built for it.
    A method the model does not support raises :class:`ConfigError`
    (:func:`check_method`).
    """
    check_method(model, method)
    rows: list[Row | None] = []
    for q in queries:
        row = None
        if method != "ba" and model.closed_form is not None:
            try:
                if model.in_region is None or model.in_region(*q.as_tuple()):
                    row = Row(q, "closed_form", model.closed_form(*q.as_tuple()), True)
                elif method == "closed_form":
                    row = Row(q, "closed_form", error=OUTSIDE_REGION)
            except SemrdError as exc:
                row = Row(q, "closed_form", error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    pending = [i for i, row in enumerate(rows) if row is None]
    if pending:
        # through the module attribute, so that a caller may wrap the batch
        cells = solver.solve_cells(model.build(), [queries[i] for i in pending])
        for i, cell in zip(pending, cells):
            p = cell.point
            rows[i] = (
                Row(cell.query, "ba", error=cell.error) if p is None
                else Row(cell.query, "ba", p.rate, p.converged, p.cs_residual)
            )
    return rows
