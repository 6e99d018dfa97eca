"""semrd benchmark: three solver workloads, end-to-end metrics and per-layer
spans taken from outside the package.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_independent --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``sweep_independent``, ``hard_correlated``, ``cli_classification``.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of importing semrd and building
  the workload's problem or config (``setup_probe.py``);
* ``wall_s``: median time of one pass over the whole query set, passes
  repeated until ``--seconds`` have elapsed (at least one); reference checks
  are not timed;
* ``solved_share``: points that pass every check over points attempted; a
  point fails if it raises, returns ``converged=False``, has an ``error`` in
  its CSV row or misses its reference check. ``failed_share`` is one minus
  it, and the result's ``failed``/``attempted`` carry the same counts;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs one untraced pass, then one pass with spans recorded at
the public entry points (``spans.py``), then the L0/L1 probes, and reports
the per-layer metrics. Spans are written to ``.bench_out/`` at the end.

Every line but the last is a human-readable report; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 0 when the run completed (``correct``
says whether the outputs were right), 2 when the checkout has no ``semrd``
sources, 1 on any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
PROBE_REPEATS = 15
# ROADMAP baseline the first run of this benchmark is cross-checked against
BASELINE_SUPPORT_ITERS = 1_127_366
BASELINE_L0_BINARY_US = (20.0, 30.0)


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment(problem) -> dict:
    """Machine and library versions, plus the workload's working set computed
    from the problem's alphabet sizes (not measured)."""
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass

    def cache(level):
        try:
            size = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
        except (ValueError, OSError):
            size = 0
        if size:
            return size
        # containers often report 0 through sysconf; the kernel's cache list does not
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() == str(level):
                    text = (index / "size").read_text().strip()
                    return int(text[:-1]) * 1024 if text.endswith("K") else int(text)
            except (OSError, ValueError):
                continue
        return None

    x1, x2, y = problem.source.axes
    nx, ny = x1.size * x2.size, y.size
    nh = 1
    for a in problem.repro_alphabets:
        nh *= a.size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "l2_bytes": cache(2),
        "l3_bytes": cache(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ny_nx_nh": [ny, nx, nh],
        "working_set_bytes_computed": ny * nx * nh * 8,
        "cost_table_bytes_computed": nx * nh * 8,
    }


def measure_setup(name: str, seed: int, root: Path, out_dir: Path) -> float:
    """Median set-up time over SETUP_SAMPLES fresh interpreters."""
    setup_dir = out_dir / "setup"
    setup_dir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), str(setup_dir)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_passes(wl, state, seconds: float):
    """Repeat the whole query set until ``seconds`` have elapsed; return the
    last pass's output and every pass's wall time."""
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        raw = wl.execute(state)
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return raw, walls


def _verdict(wl, state, raw):
    outcomes = wl.check(state, raw)
    attempted = wl.attempted(state)
    failed = attempted - sum(o.ok for o in outcomes)
    correct = not any(o.wrong for o in outcomes)
    return outcomes, attempted, failed, correct


def reference_multipliers(wl, state, raw, problem):
    """Multipliers of the workload's pinned reference point: from this run's
    results when the point is among them, else from one extra solve."""
    import semrd.solver

    point = wl.solved(state, raw).get(wl.reference_query)
    if point is None:
        point = semrd.solver.solve_rd_point(problem, semrd.solver.RDQuery(*wl.reference_query))
    return point.multipliers


def fixed_multiplier_probes(problem, lam) -> dict:
    """L1: ``ba_fixed_multipliers`` at the reference multipliers with default
    options, run to the certificate. L0: the cost of one iteration inside
    that run, as its time minus the time of a one-iteration run of the same
    call (which builds the workspace and assembles the point alike), over the
    iterations in between. Each time is a median over PROBE_REPEATS calls."""
    import semrd.solver as solver

    def timed(opts):
        times, iters = [], None
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            iters = solver.ba_fixed_multipliers(problem, *lam, opts=opts).iterations
            times.append(time.perf_counter() - t0)
        return statistics.median(times), iters

    t_full, it_full = timed(solver.DEFAULT_OPTIONS)
    t_one, it_one = timed(solver.SolverOptions(max_iters=1))
    return {
        "solver.ba.us_per_iter": _metric((t_full - t_one) / max(it_full - it_one, 1) * 1e6, "us"),
        "solver.fixed.ms": _metric(t_full * 1e3, "ms"),
        "solver.fixed.iters": _metric(it_full, "count"),
    }


def layer_metrics(tracer, root_span) -> dict:
    """Per-layer figures from the traced pass. A layer's self time is its span
    minus the part its child spans cover.

    The L4 span is ``sweep_surface`` when the workload calls it; otherwise it
    is the code that issues the L3 solves: the caller's own loop
    (hard_correlated) or ``cli.main`` (cli_classification, whose sweep loop
    is inside the CLI). The front-end span (``cli.sweep.*``) is ``cli.main``
    when the CLI is used, else the caller's whole query set.
    """
    points = tracer.named("solver.point")
    by_id = {s.id: s for s in tracer.spans}

    def under_point(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "solver.point":
                return True
        return False

    ms = [p.duration * 1e3 for p in points]
    iters = [p.attrs["iterations"] for p in points]
    front = tracer.named("cli.sweep") or [root_span]
    l4 = tracer.named("solver.sweep") or front
    return {
        "solver.search.iters_total": _metric(sum(iters), "count"),
        "solver.search.iters_p50": _metric(statistics.median(iters), "count"),
        "solver.search.iters_max": _metric(max(iters), "count"),
        "solver.point.ms_p50": _metric(statistics.median(ms), "ms"),
        "solver.point.ms_p90": _metric(statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "solver.point.ms_max": _metric(max(ms), "ms"),
        "solver.point.us_per_iter": _metric(sum(ms) * 1e3 / max(sum(iters), 1), "us"),
        "solver.point.nonconverged": _metric(sum(not p.attrs["converged"] for p in points), "count"),
        "prob.cmi.ms_total": _metric(
            sum(s.duration for s in tracer.named("prob.cmi") if under_point(s)) * 1e3, "ms"
        ),
        "solver.sweep.s": _metric(sum(s.duration for s in l4), "s"),
        "solver.sweep.self_s": _metric(sum(tracer.self_time(s, "solver.point") for s in l4), "s"),
        "cli.sweep.s": _metric(sum(s.duration for s in front), "s"),
        "cli.sweep.self_s": _metric(sum(tracer.self_time(s) for s in front), "s"),
        "config.load_ms": _metric(sum(s.duration for s in tracer.named("config.load")) * 1e3, "ms"),
    }


def traced_pass(wl, inputs, out_dir):
    from spans import Tracer, semrd_targets, traced

    tracer = Tracer()
    with traced(tracer, semrd_targets()):
        state = wl.prepare(inputs, out_dir)
        with tracer.span("workload") as root:
            raw = wl.execute(state)
    return tracer, root, state, raw


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    if not (root / "src" / "semrd" / "__init__.py").is_file():
        print(f"error: no semrd sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    inputs = wl.generate(args.seed)
    setup_s = measure_setup(wl.name, args.seed, root, out_dir)
    state = wl.prepare(inputs, out_dir)
    raw, walls = run_passes(wl, state, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes, attempted, failed, correct = _verdict(wl, state, raw)
    problem = wl.problem(state)
    wall_s = statistics.median(walls)

    print("env " + json.dumps(environment(problem)))
    print(f"workload {wl.name} seed {args.seed}: {attempted} points, {len(walls)} pass(es), "
          "closed loop, one caller, serial")
    for o in outcomes:
        if not o.ok:
            print(f"failed {o.label}: {o.reason}" + (" [WRONG]" if o.wrong else ""))
    end_to_end = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(wall_s, "s"),
        "solved_share": _metric((attempted - failed) / attempted, "share"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    print(f"metric failed_share {failed / attempted!r} share ({failed}/{attempted})")
    support = wl.solved(state, raw).get(getattr(wl, "support_point", None))
    if support is not None:
        agree = "agrees" if support.iterations == BASELINE_SUPPORT_ITERS else "DISAGREES"
        print(f"cross-check support point iterations {support.iterations} vs ROADMAP "
              f"{BASELINE_SUPPORT_ITERS}: {agree}")

    metrics = end_to_end
    if args.trace:
        untraced = wl.fingerprint(state, raw)  # before the traced pass rewrites any output file
        tracer, root_span, state_t, raw_t = traced_pass(wl, inputs, out_dir)
        same = untraced == wl.fingerprint(state_t, raw_t)
        print("repeat: counters and results of the traced pass "
              + ("match the untraced pass exactly" if same else "DIFFER from the untraced pass"))
        per_layer = layer_metrics(tracer, root_span)
        per_layer.update(fixed_multiplier_probes(problem, reference_multipliers(wl, state, raw, problem)))
        per_layer["trace.overhead_share"] = _metric(root_span.duration / wall_s - 1.0, "share")
        if problem.source.axes[0].size == 2:
            lo, hi = BASELINE_L0_BINARY_US
            l0 = per_layer["solver.ba.us_per_iter"]["value"]
            agree = "agrees" if lo <= l0 <= hi else "DISAGREES"
            print(f"cross-check L0 {l0:.2f} us/iter vs ROADMAP {lo:g}-{hi:g} us (binary): {agree}")
        trace_path = out_dir / f"trace_{wl.name}_seed{args.seed}.jsonl"
        tracer.dump(str(trace_path))
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(root)}")
        metrics = per_layer
    for name, m in {**end_to_end, **metrics}.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
