"""Command-line front end.

    semrd figure <id> --out DIR [--grid N]
    semrd sweep --config FILE --out FILE
    semrd verify <suite> [--json]

Rates follow the unit rule of :mod:`semrd`: bits, nats for the Gaussian
model; no command takes a unit.

Exit codes: 0 success, 1 usage/configuration error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Iterator

from .config import SweepConfig, load_config
from .errors import ConfigError, SemrdError
from .figures import FIGURE_IDS, generate_figure, write_csv
from .models import route
from .solver import RDQuery
from .verify import SUITES, run_suite

USAGE_ERROR = 1
VERIFY_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"semrd: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semrd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="emit a figure preset's data files")
    fig.add_argument("figure_id", choices=FIGURE_IDS)
    fig.add_argument("--out", required=True, help="output directory")
    fig.add_argument("--grid", type=int, default=None, help="grid resolution override")

    sw = sub.add_parser("sweep", help="run a configured distortion-grid sweep")
    sw.add_argument("--config", required=True, help="JSON config path")
    sw.add_argument("--out", required=True, help="output CSV path")

    ver = sub.add_parser("verify", help="run a cross-module check suite")
    ver.add_argument("suite", choices=sorted(SUITES))
    ver.add_argument("--json", action="store_true", help="print a JSON report")
    return parser


def _sweep_rows(cfg: SweepConfig) -> Iterator[tuple]:
    """The CSV fields of each grid cell, ordered by grid index. Nothing is
    routed before the first row is drawn, so an unwritable output fails
    before any cell is solved."""
    grid = cfg.grid
    queries = [RDQuery(*q) for q in itertools.product(grid["d1"], grid["d2"], grid["ds"])]
    for row in route(cfg.model, queries, cfg.method):
        yield (*row.query.as_tuple(), row.rate, row.method, row.converged, row.cs_residual,
               row.error)


def cmd_sweep(config_path: str, out_path: str) -> int:
    cfg = load_config(config_path)
    header = ("d1", "d2", "ds", "rate", "method", "converged", "cs_residual", "error")
    write_csv(out_path, header, _sweep_rows(cfg))
    return 0


def cmd_figure(figure_id, out_dir, grid) -> int:
    manifest = generate_figure(figure_id, out_dir, grid_n=grid)
    files = ", ".join(f["name"] for f in manifest["files"])
    print(f"{figure_id}: wrote {files} + {figure_id}_manifest.json in {out_dir}")
    return 0


def cmd_verify(suite_name: str, as_json: bool) -> int:
    report = run_suite(suite_name)
    if as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else VERIFY_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "figure":
            return cmd_figure(args.figure_id, args.out, args.grid)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out)
        if args.command == "verify":
            return cmd_verify(args.suite, args.json)
        raise AssertionError(args.command)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SemrdError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
