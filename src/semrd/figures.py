"""Figure-data presets: each emits CSV files plus a JSON manifest.

The presets cover the toolkit's standard study plots:

* ``fig4``  -- semantic-only vs direct rate curves for a crossover-0.1
  binary observation channel.
* ``fig5``  -- rate surface over (d1, ds) for the correlated binary model at
  background distortion 0.5 (outside the closed form's proven region, so
  every cell is solved numerically; a formula-extension column is included
  for comparison).
* ``fig6a``/``fig6b`` -- slices of fig5 at fixed d1 = 0.03 / 0.05.
* ``fig7``  -- rate surface for the integer-parity model (N = 8). At every
  resolution its grid (d1 up to 2(N-1)p2/N, background distortion 0.5) lies
  in the closed form's proven region, so the router serves every cell from
  the parity-split form, in which the semantic target bounds only the
  parity flips of the observation error.
* ``fig8``  -- rate surface for the Gaussian model (variances 2,
  covariances 1, background distortion 1), in both units.
* ``fig9``  -- fig8's surface plus the equal-rate locus separating the
  observation-pinned and semantic-pinned regimes.

Every fig5-fig9 cell is answered by :func:`models.route`; fig4's curves are
closed forms of a single-source problem that no model covers. Rates follow
the unit rule of :mod:`semrd`: fig4-fig7 write bits, and fig8/fig9 nats with
a bits column beside them. Figures are emitted as data only. CSVs carry 9
significant digits, enough to round-trip the stated tolerances.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import os
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .closed_form import (
    classification_region_bound,
    conditional_binary_rd,
    correlated_expression,
    semantic_binary_rd,
)
from .errors import ConfigError, ProbabilityError
from .gaussian import (
    GaussianSpec,
    equal_rate_semantic_target,
    gaussian_rate,
    mmse,
    nats_to_bits,
    r_x2_given_y,
    var_x1_given_y,
    var_x2_given_y,
)
from .models import Model, classification_model, correlated_model, route
from .prob import BinarySourceSpec, check_int
from .solver import (
    CERT_TOL, CONSTRAINT_TOL, DEFAULT_OPTIONS, LAMBDA_CAP, RATE_TOL, RDQuery,
)

FIGURE_IDS = ("fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9")
DEFAULT_SURFACE_GRID = 50
DEFAULT_CURVE_GRID = 200

BINARY_P = 0.25  # shared crossover of the binary/integer presets
GAUSS_SPEC = GaussianSpec(
    var_s=2.0, var_x1=2.0, var_x2=2.0, var_y=2.0, cov_sx1=1.0, cov_x1y=1.0, cov_x2y=1.0
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return format(float(value), ".9g")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write ``header`` and then ``rows`` to the CSV file ``path``, each value
    as ``_fmt`` renders it, and return the number of rows. The file is opened
    before the first row is drawn, so an unwritable path raises
    :class:`ConfigError` before any row is computed."""
    count = 0
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
            count += 1
    return count


def _axis_spec(values: np.ndarray) -> dict:
    return {"start": float(values[0]), "stop": float(values[-1]), "num": int(values.size)}


def _routed_surface(path, model, d1_values, ds_values, d2, unit, header, cells):
    """Route the (d1, ds) grid at ``d2`` through ``model`` (method auto) and
    write one CSV row per cell: d1, ds, d2, the rate under the column suffix
    ``unit`` (the model's unit), then ``cells(row)`` under ``header``. A
    flagged row has no rate and writes an empty cell for it.

    Returns the file entry, the stats (the counts of the methods that occur,
    the converged and failed cells, and the rate range) and the routed rows.
    """
    queries = [RDQuery(float(d1), d2, float(ds)) for d1 in d1_values for ds in ds_values]
    rows = route(model, queries, "auto")
    count = write_csv(
        path,
        ("d1", "ds", "d2", f"rate_{unit}", *header),
        ((r.query.d1, r.query.ds, d2, r.rate, *cells(r)) for r in rows),
    )
    methods: dict[str, int] = {}
    for r in rows:
        methods[r.method] = methods.get(r.method, 0) + 1
    served = [r.rate for r in rows if r.rate is not None]
    stats = {
        "method_counts": methods,
        "converged_cells": sum(r.converged for r in rows),
        "failed_cells": sum(r.error is not None for r in rows),
        f"min_rate_{unit}": min(served, default=None),
        f"max_rate_{unit}": max(served, default=None),
    }
    return {"name": os.path.basename(path), "rows": count}, stats, rows


def _build_fig4(out_dir, grid_n):
    p = 0.1
    n = grid_n or DEFAULT_CURVE_GRID
    d_values = np.linspace(0.0, 0.5, n)
    rows = []
    for d in d_values:
        direct = conditional_binary_rd(0.5, float(d))  # trivial side info: 1 - h(d)
        semantic = semantic_binary_rd(p, float(d)) if d >= p else None
        rows.append((d, direct, semantic, "closed_form"))
    path = os.path.join(out_dir, "fig4_rate_curves.csv")
    count = write_csv(path, ("d", "rate_source_bits", "rate_semantic_bits", "method"), rows)
    return {
        "base": "bits",
        "parameters": {"p": p},
        "grid": {"d": _axis_spec(d_values)},
        "files": [{"name": os.path.basename(path), "rows": count}],
        "stats": {
            "semantic_rate_defined_cells": int(np.sum(d_values >= p)),
            "method_counts": {"closed_form": count},
        },
        "notes": [
            "semantic rate column is empty below d = p: no code attains semantic "
            "distortion under the observation-channel crossover",
        ],
    }


def _fig5_like(out_dir, grid_shape, d1_values, ds_values, file_name):
    spec = BinarySourceSpec.correlated(BINARY_P, BINARY_P, BINARY_P)
    d2 = 0.5

    def extension(r):
        return correlated_expression(spec, r.query.d1, d2, r.query.ds)

    entry, stats, rows = _routed_surface(
        os.path.join(out_dir, file_name), correlated_model(spec), d1_values, ds_values, d2,
        "bits", ("method", "converged", "cs_residual", "formula_extension_bits", "error"),
        lambda r: (r.method, r.converged, r.cs_residual, extension(r), r.error),
    )
    stats["max_divergence_from_formula_extension_bits"] = max(
        (abs(r.rate - extension(r)) for r in rows if r.method == "ba" and not r.error),
        default=0.0,
    )
    return {
        "base": "bits",
        "parameters": {"p": BINARY_P, "p1": BINARY_P, "p2": BINARY_P, "d2": d2},
        "grid": grid_shape,
        "files": [entry],
        "stats": stats,
        "notes": [
            "background distortion 0.5 exceeds the correlated closed form's proven "
            "region bound (d2 <= p1), so out-of-region cells carry solver values; "
            "the formula_extension_bits column evaluates the expression literally "
            "for comparison only",
        ],
    }


def _build_fig5(out_dir, grid_n):
    n = grid_n or DEFAULT_SURFACE_GRID
    spec = BinarySourceSpec.correlated(BINARY_P, BINARY_P, BINARY_P)
    d1_values = np.linspace(0.0, spec.p1 * spec.p2, n)
    ds_values = np.linspace(BINARY_P, 0.5, n)
    return _fig5_like(
        out_dir,
        {"d1": _axis_spec(d1_values), "ds": _axis_spec(ds_values)},
        d1_values,
        ds_values,
        "fig5_surface.csv",
    )


def _build_fig6(which: str):
    fixed_d1 = {"fig6a": 0.03, "fig6b": 0.05}[which]

    def build(out_dir, grid_n):
        n = grid_n or DEFAULT_CURVE_GRID
        ds_values = np.linspace(BINARY_P, 0.5, n)
        return _fig5_like(
            out_dir,
            {"d1": {"fixed": fixed_d1}, "ds": _axis_spec(ds_values)},
            np.array([fixed_d1]),
            ds_values,
            f"{which}_curve.csv",
        )

    return build


def _build_fig7(out_dir, grid_n):
    p = BINARY_P
    p2 = BINARY_P
    n_alpha = 8
    d2 = 0.5
    n = grid_n or DEFAULT_SURFACE_GRID
    d1_values = np.linspace(0.0, classification_region_bound(p2, n_alpha), n)
    ds_values = np.linspace(p, 0.5, n)
    entry, stats, _ = _routed_surface(
        os.path.join(out_dir, "fig7_surface.csv"), classification_model(p, p2, n_alpha),
        d1_values, ds_values, d2, "bits", ("method", "converged"),
        lambda r: (r.method, r.converged),
    )
    return {
        "base": "bits",
        "parameters": {"p": p, "p2": p2, "n": n_alpha, "d2": d2},
        "grid": {"d1": _axis_spec(d1_values), "ds": _axis_spec(ds_values)},
        "files": [entry],
        "stats": stats,
    }


def _gaussian_surface(out_dir, grid_n, figure_id="fig8"):
    """fig8, and the Gaussian surface of fig9: its grid, its rows written to
    ``<figure_id>_surface.csv``, and the manifest over them."""
    n = grid_n or DEFAULT_SURFACE_GRID
    d2 = 1.0
    d1_values = np.linspace(0.1, 1.6, n)
    ds_values = np.linspace(1.52, 1.92, n)

    # gaussian_model(GAUSS_SPEC), its one evaluation per cell kept for the branch
    result = functools.lru_cache(maxsize=None)(functools.partial(gaussian_rate, GAUSS_SPEC))
    entry, stats, _ = _routed_surface(
        os.path.join(out_dir, f"{figure_id}_surface.csv"),
        Model(None, lambda *q: result(*q).rate_nats),
        d1_values, ds_values, d2, "nats", ("rate_bits", "term_x1_branch", "method"),
        lambda r: (None, None, r.method) if r.rate is None
        else (nats_to_bits(r.rate), result(*r.query.as_tuple()).term_x1_branch, r.method),
    )
    return {
        "base": "nats",
        "parameters": {
            **dataclasses.asdict(GAUSS_SPEC),
            "d2": d2,
            "mmse": mmse(GAUSS_SPEC),
            "var_x1_given_y": var_x1_given_y(GAUSS_SPEC),
            "var_x2_given_y": var_x2_given_y(GAUSS_SPEC),
            "background_rate_nats": r_x2_given_y(GAUSS_SPEC, d2),
        },
        "grid": {"d1": _axis_spec(d1_values), "ds": _axis_spec(ds_values)},
        "files": [entry],
        "stats": stats,
        "notes": [
            "rates are natural-log based; the bits column is a unit conversion",
        ],
    }


def _build_fig9(out_dir, grid_n):
    manifest = _gaussian_surface(out_dir, grid_n, "fig9")
    n = grid_n or DEFAULT_SURFACE_GRID
    locus_d1 = np.linspace(0.1, var_x1_given_y(GAUSS_SPEC), max(2, n))
    locus_rows = [(float(d1), equal_rate_semantic_target(GAUSS_SPEC, float(d1))) for d1 in locus_d1]
    locus_path = os.path.join(out_dir, "fig9_equal_rate_locus.csv")
    locus_count = write_csv(locus_path, ("d1", "ds"), locus_rows)
    manifest["files"].append({"name": os.path.basename(locus_path), "rows": locus_count})
    manifest["notes"].append(
        "the locus file traces ds = mmse + (cov_sx1/var_x1)^2 d1, where the "
        "observation and semantic constraints require equal rate"
    )
    return manifest


_BUILDERS: dict[str, Callable] = {
    "fig4": _build_fig4,
    "fig5": _build_fig5,
    "fig6a": _build_fig6("fig6a"),
    "fig6b": _build_fig6("fig6b"),
    "fig7": _build_fig7,
    "fig8": _gaussian_surface,
    "fig9": _build_fig9,
}


def generate_figure(figure_id: str, out_dir: str, grid_n: int | None = None) -> dict:
    """Emit one figure preset's data files and manifest into ``out_dir``. The
    cells the router sends to the solver run in this process, with the
    default solver options, which the manifest records.

    ``grid_n`` (an int >= 2) overrides the preset's resolution. Bad
    arguments, and an output directory that cannot be created, raise
    :class:`ConfigError` before any file is written.

    Returns the manifest dict (also written as ``<figure_id>_manifest.json``).
    """
    if figure_id not in _BUILDERS:
        raise ConfigError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")
    if grid_n is not None:
        try:
            grid_n = check_int(grid_n, "grid", 2)
        except ProbabilityError as exc:
            raise ConfigError(str(exc)) from None
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from exc
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out_dir!r} is not writable")
    manifest = _BUILDERS[figure_id](out_dir, grid_n)
    manifest = {
        "figure": figure_id,
        "package_version": __version__,
        "solver": {
            **dataclasses.asdict(DEFAULT_OPTIONS), "cert_tol": CERT_TOL,
            "constraint_tol": CONSTRAINT_TOL, "rate_tol": RATE_TOL, "lambda_cap": LAMBDA_CAP,
        },
        **manifest,
    }
    with open(os.path.join(out_dir, f"{figure_id}_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return manifest
