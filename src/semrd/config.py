"""Sweep configuration: a single JSON document with a ``kind`` discriminator.

Kinds and their ``params``:

* ``binary_independent`` -- {p, p2, p3}
* ``binary_correlated``  -- {p, p1, p2}
* ``classification``     -- {p, p2, n}
* ``gaussian``           -- {var_s, var_x1, var_x2, var_y, cov_sx1, cov_x1y, cov_x2y}
* ``custom``             -- inline pmf and distortion tables (see below)

Common fields: ``grid`` with entries ``d1``/``d2``/``ds``, each either an
explicit list of values or {"linspace": [start, stop, num]}; every grid value
must be nonnegative. Optional ``method``: every kind, Gaussian sweeps
included, is answered by :func:`semrd.models.route` ("auto" serves each
model's closed form on its proven region and solves the rest; "closed_form"
flags the points outside the region; "ba" always solves), and a method the
kind's model does not support is rejected (:func:`semrd.models.check_method`).
Optional ``solver``: {"max_iters": int}, the one solver option (the
tolerances are constants of :mod:`semrd.solver`). ``solver`` applies only
where the solver runs: a kind and method that never reach it
(:func:`semrd.models.reaches_solver`: the gaussian kind, ``closed_form``,
and ``binary_independent`` under ``auto``) reject it. Optional ``base``
("bits"/"nats", gaussian only). Any other top-level field is rejected.

``custom`` params: {"alphabets": {name: [labels...]}, "source": {"axes":
[names], "probs": nested}, "repro_axes": [names], "d1"/"d2"/"ds_mod":
{"source_axis": name, "repro_axis": name, "values": nested}, "log_base"}.
Custom sweeps always use the solver; Gaussian sweeps never do.

Schema violations raise ConfigError with the offending field path.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping, NoReturn

import numpy as np

from .errors import ConfigError
from .prob import Alphabet, BinarySourceSpec, DistortionMatrix, JointPMF, ProbabilityError
from .prob import check_int, check_real
from .gaussian import GaussianSpec
from .models import (
    Model,
    check_method,
    classification_model,
    correlated_model,
    custom_model,
    gaussian_model,
    independent_model,
    reaches_solver,
)
from .solver import RDProblem, SolverOptions
from . import sources

KINDS = ("binary_independent", "binary_correlated", "classification", "gaussian", "custom")


def _fail(path: str, msg: str) -> NoReturn:
    raise ConfigError(f"{path}: {msg}")


def _get(obj: Mapping, path: str, key: str, required: bool = True, default: Any = None) -> Any:
    if key not in obj:
        if required:
            _fail(f"{path}.{key}" if path else key, "missing required field")
        return default
    return obj[key]


def _checked(check, value: Any, path: str, *bounds) -> Any:
    """``check(value, path + ":", *bounds)``, raising a :class:`ConfigError`."""
    try:
        return check(value, f"{path}:", *bounds)
    except ProbabilityError as exc:
        raise ConfigError(str(exc)) from None


def _real(value: Any, path: str, lo: float | None = None, hi: float | None = None) -> float:
    return _checked(check_real, value, path, lo, hi)


def _grid_axis(value: Any, path: str) -> tuple[float, ...]:
    if isinstance(value, Mapping):
        spec = _get(value, path, "linspace")
        if not isinstance(spec, (list, tuple)) or len(spec) != 3:
            _fail(f"{path}.linspace", "must be [start, stop, num]")
        start = _real(spec[0], f"{path}.linspace[0]", lo=0.0)
        stop = _real(spec[1], f"{path}.linspace[1]", lo=0.0)
        num = _checked(check_int, spec[2], f"{path}.linspace[2]", 1)
        return tuple(float(v) for v in np.linspace(start, stop, num))
    if isinstance(value, (list, tuple)):
        if not value:
            _fail(path, "empty grid")
        return tuple(_real(v, f"{path}[{i}]", lo=0.0) for i, v in enumerate(value))
    _fail(path, f"must be a list of values or a linspace object, got {type(value).__name__}")


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    method: str
    grid: dict[str, tuple[float, ...]]
    solver_options: SolverOptions
    model: Model


def _parse_solver_options(obj: Any, path: str) -> SolverOptions:
    if obj is None:
        return SolverOptions()
    if not isinstance(obj, Mapping):
        _fail(path, "must be an object")
    allowed = {f.name for f in dataclasses.fields(SolverOptions)}
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}", f"unknown solver option; allowed: {sorted(allowed)}")
    try:
        return SolverOptions(**obj)
    except (ProbabilityError, TypeError) as exc:
        _fail(path, str(exc))


def _parse_alphabets(obj: Any, path: str) -> dict[str, Alphabet]:
    if not isinstance(obj, Mapping) or not obj:
        _fail(path, "must be a non-empty object mapping axis name to label list")
    out = {}
    for name, labels in obj.items():
        if not isinstance(labels, (list, tuple)) or not labels:
            _fail(f"{path}.{name}", "must be a non-empty list of labels")
        try:
            out[name] = Alphabet(name, len(labels), tuple(str(l) for l in labels))
        except ProbabilityError as exc:
            _fail(f"{path}.{name}", str(exc))
    return out


def _parse_table(
    obj: Any, path: str, alphabets: dict[str, Alphabet]
) -> DistortionMatrix:
    if not isinstance(obj, Mapping):
        _fail(path, "must be an object")
    src = _get(obj, path, "source_axis")
    rep = _get(obj, path, "repro_axis")
    for key, val in (("source_axis", src), ("repro_axis", rep)):
        if val not in alphabets:
            _fail(f"{path}.{key}", f"unknown alphabet {val!r}")
    values = _get(obj, path, "values")
    try:
        return DistortionMatrix(alphabets[src], alphabets[rep], np.asarray(values, dtype=float))
    except (ProbabilityError, ValueError) as exc:
        _fail(f"{path}.values", str(exc))


def _parse_custom(params: Any, path: str) -> RDProblem:
    if not isinstance(params, Mapping):
        _fail(path, "must be an object")
    alphabets = _parse_alphabets(_get(params, path, "alphabets"), f"{path}.alphabets")
    src_obj = _get(params, path, "source")
    if not isinstance(src_obj, Mapping):
        _fail(f"{path}.source", "must be an object")
    axes = _get(src_obj, f"{path}.source", "axes")
    if not isinstance(axes, (list, tuple)) or len(axes) != 3:
        _fail(f"{path}.source.axes", "must list exactly 3 axis names (x1, x2, y roles)")
    for i, name in enumerate(axes):
        if name not in alphabets:
            _fail(f"{path}.source.axes[{i}]", f"unknown alphabet {name!r}")
    try:
        source = JointPMF(
            tuple(alphabets[n] for n in axes),
            np.asarray(_get(src_obj, f"{path}.source", "probs"), dtype=float),
        )
    except (ProbabilityError, ValueError) as exc:
        _fail(f"{path}.source.probs", str(exc))
    d1 = _parse_table(_get(params, path, "d1"), f"{path}.d1", alphabets)
    d2 = _parse_table(_get(params, path, "d2"), f"{path}.d2", alphabets)
    ds_mod = _parse_table(_get(params, path, "ds_mod"), f"{path}.ds_mod", alphabets)
    log_base = _real(_get(params, path, "log_base", required=False, default=2.0),
                     f"{path}.log_base")
    try:
        return sources.custom_problem(source, d1, d2, ds_mod, log_base)
    except ProbabilityError as exc:
        _fail(path, str(exc))


def parse_config(doc: Any) -> SweepConfig:
    if not isinstance(doc, Mapping):
        _fail("", f"config root must be an object, got {type(doc).__name__}")
    fields = ("kind", "method", "params", "grid", "solver", "base")
    for key in doc:
        if key not in fields:
            _fail(key, f"unknown field; allowed: {list(fields)}")
    kind = _get(doc, "", "kind")
    if kind not in KINDS:
        _fail("kind", f"must be one of {KINDS}, got {kind!r}")
    method = _get(doc, "", "method", required=False, default="auto")
    grid_obj = _get(doc, "", "grid")
    if not isinstance(grid_obj, Mapping):
        _fail("grid", "must be an object with d1/d2/ds entries")
    extra = set(grid_obj) - {"d1", "d2", "ds"}
    if extra:
        _fail("grid", f"unknown axes {sorted(extra)}")
    grid = {}
    for key in ("d1", "d2", "ds"):
        if key not in grid_obj:
            _fail(f"grid.{key}", "missing required field")
        grid[key] = _grid_axis(grid_obj[key], f"grid.{key}")
    opts = _parse_solver_options(doc.get("solver"), "solver")
    base = _get(doc, "", "base", required=False, default="nats" if kind == "gaussian" else "bits")
    if base not in ("bits", "nats"):
        _fail("base", f"must be 'bits' or 'nats', got {base!r}")
    if base == "nats" and kind != "gaussian":
        _fail("base", "nats output is only supported for the gaussian kind")

    params = _get(doc, "", "params")
    if not isinstance(params, Mapping) and kind != "custom":
        _fail("params", "must be an object")
    model = _parse_model(kind, params, base)
    check_method(model, method)
    if "solver" in doc and not reaches_solver(model, method):
        _fail("solver", f"the {kind} kind under method {method!r} never runs the solver")
    return SweepConfig(method, grid, opts, model)


def _parse_model(kind: str, params: Any, base: str) -> Model:
    def crossovers(*names: str):
        return (_real(_get(params, "params", k), f"params.{k}", 0.0, 0.5) for k in names)

    if kind == "binary_independent":
        spec = BinarySourceSpec.conditionally_independent(*crossovers("p", "p2", "p3"))
        return independent_model(spec)
    if kind == "binary_correlated":
        return correlated_model(BinarySourceSpec.correlated(*crossovers("p", "p1", "p2")))
    if kind == "classification":
        p, p2 = crossovers("p", "p2")
        n = _checked(sources.check_parity_n, _get(params, "params", "n"), "params.n")
        return classification_model(p, p2, n)
    if kind == "gaussian":
        kwargs = {f: _real(_get(params, "params", f), f"params.{f}") for f in (
            "var_s", "var_x1", "var_x2", "var_y", "cov_sx1", "cov_x1y", "cov_x2y")}
        try:
            return gaussian_model(GaussianSpec(**kwargs), base)
        except ProbabilityError as exc:
            _fail("params", str(exc))
    return custom_model(_parse_custom(params, "params"))


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(doc)
