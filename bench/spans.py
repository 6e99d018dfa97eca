"""In-memory span recorder and the wrappers that feed it.

Spans are taken from outside the ``semrd`` package: ``traced`` swaps a public
callable on its module or class for a wrapper that opens a span around the
original call, and puts the original back on exit. The package itself gains
no code path. Spans stay in memory; ``Tracer.dump`` writes them out once the
run is over.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for one serial run (one caller, one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, s: Span, child: str | None = None) -> float:
        """Span duration minus the time its direct child spans cover (only
        the children named ``child``, when given).

        Children of one serial caller never overlap, so their durations add.
        """
        return s.duration - sum(
            c.duration for c in self.spans if c.parent == s.id and child in (None, c.name)
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"id": s.id, "parent": s.parent, "name": s.name,
                       "start": s.start, "end": s.end, **s.attrs}
                fh.write(json.dumps(row) + "\n")


def _point_attrs(point) -> dict:
    return {"iterations": point.iterations, "converged": point.converged}


@contextlib.contextmanager
def traced(tracer: Tracer, targets):
    """Wrap each ``(owner, attribute, span name, result-to-attrs or None)``
    target for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, attrs_of in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, original, name, attrs_of))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrapper(tracer, original, name, attrs_of):
    def wrapped(*args, **kwargs):
        with tracer.span(name) as s:
            result = original(*args, **kwargs)
            if attrs_of is not None:
                s.attrs.update(attrs_of(result))
            return result

    wrapped.__wrapped__ = original
    return wrapped


def semrd_targets() -> list:
    """The entry points the benchmark times, one span name each.

    ``config.load`` is the step that turns a workload description into solver
    input: ``load_config`` behind the CLI, the problem builders for callers of
    the library.
    """
    import semrd.cli
    import semrd.prob
    import semrd.solver
    import semrd.sources

    return [
        (semrd.cli, "main", "cli.sweep", None),
        (semrd.cli, "load_config", "config.load", None),
        (semrd.sources, "conditionally_independent_problem", "config.load", None),
        (semrd.sources, "correlated_problem", "config.load", None),
        (semrd.solver, "sweep_surface", "solver.sweep", None),
        (semrd.solver, "solve_rd_point", "solver.point", _point_attrs),
        (semrd.prob.JointPMF, "conditional_mutual_information", "prob.cmi", None),
    ]
