"""The benchmark's three workloads: seeded inputs, the timed query set, and
the reference checks.

Each workload is one caller in a closed loop: the next query is sent only
after the previous one returns, serially, in one process.

Seed 0 gives the pinned point sets. Other seeds move only what can move
without swamping the regression bounds. A point's cost is steep and
irregular in its targets, so the two grid workloads keep their pinned grids
for every seed. Moving grid values by up to 0.002 made one independent sweep
take 13.8 s to 21.6 s over five seeds, and one classification sweep take
85.0 s instead of 20.7 s. ``hard_correlated`` draws four of its six points
within ``JITTER`` of the pinned ones, where over twelve draws each point
stayed between 0.3 s and 2.3 s. The points that carry a reference value or a
named failure keep their coordinates, because the value or the failure is
only known there.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import semrd.sources
import semrd.solver
from semrd.closed_form import (
    in_region_correlated,
    rate_classification,
    rate_conditionally_independent,
    rate_correlated,
)
from semrd.errors import RegionError, SemrdError
from semrd.prob import BinarySourceSpec
from semrd.semantic import ds0
from semrd.test_channels import correlated_q_vector

BINARY_P = 0.25
JITTER = 0.002
# a channel meets a target when its achieved distortion is within this much of it
TARGET_SLACK = 1e-8


@dataclass
class Outcome:
    """One query's verdict. ``wrong`` marks a point the library reported as
    converged whose value misses its reference: a silent wrong answer."""

    label: str
    reason: str | None = None
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return self.reason is None


def _point_outcome(label: str, point, targets) -> Outcome | None:
    """The checks every solver point gets; None when it passes them."""
    if not point.converged:
        return Outcome(label, "converged=False")
    if any(a > t + TARGET_SLACK for a, t in zip(point.achieved, targets)):
        return Outcome(label, f"achieved {point.achieved} misses targets {targets}", wrong=True)
    return None


def _grid_query_count(grid: dict) -> int:
    return math.prod(len(v) for v in grid.values())


class SweepIndependent:
    name = "sweep_independent"
    spec = BinarySourceSpec.conditionally_independent(BINARY_P, BINARY_P, BINARY_P)
    tol = 2e-3
    # pinned cell whose multipliers the L0/L1 probes use
    reference_query = (
        float(np.linspace(0.02, 0.23, 5)[2]),
        float(np.linspace(0.02, 0.23, 5)[2]),
        float(np.linspace(0.26, 0.49, 4)[1]),
    )

    def generate(self, seed: int) -> dict:
        # pinned for every seed (see the module docstring); indicator-active:
        # d1, d2 below p2 = p3 and ds above p, on criterion 02's axes
        return {
            "d1": [float(v) for v in np.linspace(0.02, 0.23, 5)],
            "d2": [float(v) for v in np.linspace(0.02, 0.23, 5)],
            "ds": [float(v) for v in np.linspace(0.26, 0.49, 4)],
        }

    def prepare(self, inputs: dict, out_dir: Path) -> dict:
        return {"problem": semrd.sources.conditionally_independent_problem(self.spec),
                "grid": inputs}

    def execute(self, state: dict):
        return semrd.solver.sweep_surface(state["problem"], state["grid"])

    def attempted(self, state: dict) -> int:
        return _grid_query_count(state["grid"])

    def check(self, state: dict, surface) -> list[Outcome]:
        out = []
        for cell in surface.points:
            q = cell.query.as_tuple()
            label = "cell d1={:.6g} d2={:.6g} ds={:.6g}".format(*q)
            if cell.point is None:
                out.append(Outcome(label, f"error: {cell.error}"))
                continue
            bad = _point_outcome(label, cell.point, q)
            if bad is None:
                ref = rate_conditionally_independent(self.spec, *q)
                if abs(cell.point.rate - ref) > self.tol:
                    bad = Outcome(label, f"rate {cell.point.rate} vs closed form {ref}", wrong=True)
            out.append(bad or Outcome(label))
        if len(surface.points) != self.attempted(state):
            out.append(Outcome("surface", "cell count differs from the grid", wrong=True))
        return out

    def problem(self, state: dict):
        return state["problem"]

    def solved(self, state: dict, surface) -> dict:
        """Query -> RDPoint for every cell that returned a point."""
        return {c.query.as_tuple(): c.point for c in surface.points if c.point is not None}

    def fingerprint(self, state: dict, surface):
        return sorted((q, p.iterations, p.rate) for q, p in self.solved(state, surface).items())


class HardCorrelated:
    name = "hard_correlated"
    spec = BinarySourceSpec.correlated(BINARY_P, BINARY_P, BINARY_P)
    support_point = (0.05, 0.23, 0.45)
    support_rate = 0.5626384  # independent convex-program cross-check
    support_tol = 2e-5
    # returns converged=False; moved by up to 5e-4 it converged in four of six draws
    named_failure = (0.06, 0.22, 0.48)
    # the remaining points of verify.correlated_outside_construction_report:
    # documented region, negative q-vector, so the expression is a lower bound
    outside = ((0.0625, 0.25, 0.5), (0.05, 0.25, 0.45), (0.0625, 0.20, 0.40), (0.04, 0.24, 0.42))
    lower_bound_tol = 2e-3
    reference_query = support_point

    def _outside_construction(self, q) -> bool:
        d1, d2, ds = q
        if not in_region_correlated(self.spec, d1, d2, ds):
            return False
        try:
            correlated_q_vector(self.spec.p1, self.spec.p2, min(d1, ds0(ds, self.spec.p)), d2)
        except RegionError:
            return True
        return False

    def generate(self, seed: int) -> list[tuple[float, float, float]]:
        drawn = list(self.outside)
        if seed != 0:
            rng = np.random.default_rng(seed)
            caps = (self.spec.p1 * self.spec.p2, self.spec.p1, 0.5)  # the documented region
            for i, q in enumerate(self.outside):
                while True:
                    cand = tuple(min(max(v + rng.uniform(-JITTER, JITTER), 0.0), cap)
                                 for v, cap in zip(q, caps))
                    if self._outside_construction(cand):
                        break
                drawn[i] = cand
        return [self.support_point, *drawn, self.named_failure]

    def prepare(self, inputs: list, out_dir: Path) -> dict:
        return {"problem": semrd.sources.correlated_problem(self.spec), "points": inputs}

    def execute(self, state: dict) -> list:
        results = []
        for q in state["points"]:
            try:
                results.append(semrd.solver.solve_rd_point(state["problem"], semrd.solver.RDQuery(*q)))
            except SemrdError as exc:
                results.append(exc)
        return results

    def attempted(self, state: dict) -> int:
        return len(state["points"])

    def check(self, state: dict, results: list) -> list[Outcome]:
        out = []
        for q, point in zip(state["points"], results):
            label = "point d1={:.6g} d2={:.6g} ds={:.6g}".format(*q)
            if isinstance(point, Exception):
                out.append(Outcome(label, f"raised {type(point).__name__}: {point}"))
                continue
            bad = _point_outcome(label, point, q)
            if bad is None and q == self.support_point:
                if abs(point.rate - self.support_rate) > self.support_tol:
                    bad = Outcome(label, f"rate {point.rate} vs {self.support_rate}", wrong=True)
            elif bad is None:
                floor = rate_correlated(self.spec, *q) - self.lower_bound_tol
                if point.rate < floor:
                    bad = Outcome(label, f"rate {point.rate} below lower bound {floor}", wrong=True)
            out.append(bad or Outcome(label))
        return out

    def problem(self, state: dict):
        return state["problem"]

    def solved(self, state: dict, results: list) -> dict:
        return {q: p for q, p in zip(state["points"], results) if not isinstance(p, Exception)}

    def fingerprint(self, state: dict, results: list):
        return sorted((q, p.iterations, p.rate) for q, p in self.solved(state, results).items())


class CliClassification:
    name = "cli_classification"
    p, p2, n = BINARY_P, BINARY_P, 64
    tol = 5e-3
    # pinned cell, observation target binding, whose multipliers the L0/L1 probes use
    reference_query = (
        float(np.linspace(0.02, 0.40, 6)[2]),
        0.1,
        float(np.linspace(0.26, 0.49, 6)[2]),
    )
    csv_fields = ("d1", "d2", "ds", "rate", "method", "converged", "cs_residual", "error")

    def generate(self, seed: int) -> dict:
        # pinned for every seed (see the module docstring)
        return {
            "kind": "classification",
            "method": "ba",
            "params": {"p": self.p, "p2": self.p2, "n": self.n},
            "grid": {
                "d1": [float(v) for v in np.linspace(0.02, 0.40, 6)],
                "d2": [0.1, 0.35],
                "ds": [float(v) for v in np.linspace(0.26, 0.49, 6)],
            },
        }

    def prepare(self, inputs: dict, out_dir: Path) -> dict:
        import semrd.cli  # noqa: F401  -- the CLI's import is part of its set-up

        config = out_dir / f"{self.name}.json"
        config.write_text(json.dumps(inputs), encoding="utf-8")
        return {"config": config, "csv": out_dir / f"{self.name}.csv", "inputs": inputs}

    def execute(self, state: dict) -> int:
        import semrd.cli

        return semrd.cli.main(["sweep", "--config", str(state["config"]), "--out", str(state["csv"])])

    def attempted(self, state: dict) -> int:
        return _grid_query_count(state["inputs"]["grid"])

    def read_rows(self, state: dict) -> list[dict]:
        with open(state["csv"], newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != self.csv_fields:
                return []
            return list(reader)

    def check(self, state: dict, rc: int) -> list[Outcome]:
        if rc != 0:
            return [Outcome("cli", f"semrd sweep exited {rc}", wrong=True)]
        rows = self.read_rows(state)
        grid = state["inputs"]["grid"]
        expected = [(a, b, c) for a in grid["d1"] for b in grid["d2"] for c in grid["ds"]]
        if len(rows) != len(expected):
            return [Outcome("csv", f"{len(rows)} rows for {len(expected)} cells", wrong=True)]
        out = []
        for row, q in zip(rows, expected):
            label = "cell d1={:.6g} d2={:.6g} ds={:.6g}".format(*q)
            written = tuple(float(row[k]) for k in ("d1", "d2", "ds"))
            if any(abs(w - e) > 1e-8 for w, e in zip(written, q)):
                out.append(Outcome(label, f"row carries {written}", wrong=True))
            elif row["error"]:
                out.append(Outcome(label, f"error: {row['error']}"))
            elif row["converged"] != "true":
                out.append(Outcome(label, "converged=false"))
            elif ds0(q[2], self.p) >= q[0]:
                # the observation target binds: the closed form holds here
                ref = rate_classification(self.p, self.p2, self.n, *q)
                if abs(float(row["rate"]) - ref) > self.tol:
                    out.append(Outcome(label, f"rate {row['rate']} vs closed form {ref}", wrong=True))
                else:
                    out.append(Outcome(label))
            else:
                out.append(Outcome(label))
        return out

    def problem(self, state: dict):
        return semrd.sources.classification_problem(self.p, self.p2, self.n)

    def solved(self, state: dict, rc: int) -> dict:
        return {}  # the CSV carries no channel or multipliers

    def fingerprint(self, state: dict, rc: int):
        return rc, state["csv"].read_text(encoding="utf-8")


WORKLOADS = {w.name: w for w in (SweepIndependent(), HardCorrelated(), CliClassification())}
