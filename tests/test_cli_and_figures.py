"""CLI end-to-end tests and figure-data checks (small grids)."""

import csv
import functools
import json
import math

import numpy as np
import pytest

from semrd.cli import USAGE_ERROR, main
from semrd.closed_form import rate_classification, semantic_binary_rd
from semrd import figures, models
from semrd.figures import generate_figure
from semrd.gaussian import gaussian_rate
from semrd.prob import binary_entropy
from semrd.verify import SUITES


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFigureGeneration:
    def test_fig4_values(self, tmp_path):
        manifest = generate_figure("fig4", str(tmp_path), grid_n=51)
        rows = read_csv(tmp_path / "fig4_rate_curves.csv")
        assert len(rows) == 51
        by_d = {r["d"]: r for r in rows}
        assert float(by_d["0.1"]["rate_source_bits"]) == pytest.approx(
            1 - binary_entropy(0.1), abs=1e-8
        )
        assert float(by_d["0.2"]["rate_semantic_bits"]) == pytest.approx(
            semantic_binary_rd(0.1, 0.2), abs=1e-8
        )
        assert by_d["0.05"]["rate_semantic_bits"] == ""  # below the semantic floor
        assert manifest["figure"] == "fig4"

    def test_fig5_routing_and_convergence(self, tmp_path):
        manifest = generate_figure("fig5", str(tmp_path), grid_n=6)
        rows = read_csv(tmp_path / "fig5_surface.csv")
        assert len(rows) == 36
        assert all(r["method"] == "ba" for r in rows)  # background target out of region
        assert all(r["converged"] == "true" for r in rows)
        assert manifest["stats"]["failed_cells"] == 0
        # solver value separates from the naive formula extension
        assert manifest["stats"]["max_divergence_from_formula_extension_bits"] > 0.1

    def test_fig6_slice(self, tmp_path):
        generate_figure("fig6a", str(tmp_path), grid_n=7)
        rows = read_csv(tmp_path / "fig6a_curve.csv")
        assert len(rows) == 7
        assert all(float(r["d1"]) == 0.03 for r in rows)
        rates = [float(r["rate_bits"]) for r in rows]
        for lo, hi in zip(rates, rates[1:]):
            assert hi <= lo + 1e-6  # non-increasing in the semantic target

    def test_fig7_closed_form_cells(self, tmp_path):
        manifest = generate_figure("fig7", str(tmp_path), grid_n=6)
        assert manifest["stats"]["method_counts"] == {"closed_form": 36}
        rows = read_csv(tmp_path / "fig7_surface.csv")
        assert len(rows) == 36
        for r in rows:
            assert r["method"] == "closed_form"
            expect = rate_classification(
                0.25, 0.25, 8, float(r["d1"]), 0.5, float(r["ds"])
            )
            assert float(r["rate_bits"]) == pytest.approx(expect, abs=1e-8)

    def test_fig8_manifest_minimum(self, tmp_path):
        manifest = generate_figure("fig8", str(tmp_path), grid_n=8)
        assert manifest["stats"]["min_rate_nats"] == pytest.approx(0.2027, abs=0.005)
        rows = read_csv(tmp_path / "fig8_surface.csv")
        for r in rows[:5]:
            assert float(r["rate_bits"]) == pytest.approx(
                float(r["rate_nats"]) / math.log(2), abs=1e-8
            )

    @pytest.mark.parametrize("figure_id", ["fig8", "fig9"])
    def test_gaussian_rate_once_per_cell(self, tmp_path, monkeypatch, figure_id):
        # the term_x1_branch column comes from the evaluation that gives the rate
        calls = []

        def counting(*args):
            calls.append(args)
            return gaussian_rate(*args)

        for module in (figures, models):  # each module that imports it
            monkeypatch.setattr(module, "gaussian_rate", counting)
        generate_figure(figure_id, str(tmp_path), grid_n=10)
        assert len(calls) == 100 and len(set(calls)) == 100
        rows = read_csv(tmp_path / f"{figure_id}_surface.csv")
        for r, args in zip(rows, calls):
            assert r["term_x1_branch"] == gaussian_rate(*args).term_x1_branch

    def test_fig9_locus(self, tmp_path):
        generate_figure("fig9", str(tmp_path), grid_n=8)
        locus = read_csv(tmp_path / "fig9_equal_rate_locus.csv")
        for r in locus:
            assert float(r["ds"]) == pytest.approx(1.5 + 0.25 * float(r["d1"]), abs=1e-9)

    @pytest.mark.parametrize("figure_id,batches", [
        ("fig4", 0), ("fig5", 1), ("fig6a", 1), ("fig6b", 1), ("fig7", 1), ("fig8", 1), ("fig9", 1),
    ])
    def test_surfaces_route_one_batch(self, tmp_path, monkeypatch, figure_id, batches):
        import semrd.figures

        calls = []
        original = semrd.figures.route

        def counting(model, queries, method):
            calls.append(len(queries))
            return original(model, queries, method)

        monkeypatch.setattr(semrd.figures, "route", counting)
        generate_figure(figure_id, str(tmp_path), grid_n=3)
        assert len(calls) == batches

    def test_nats_stats_match_the_csv(self, tmp_path):
        manifest = generate_figure("fig5", str(tmp_path), grid_n=5, base="nats")
        rates = [float(r["rate_nats"]) for r in read_csv(tmp_path / "fig5_surface.csv")]
        stats = manifest["stats"]
        assert "min_rate_bits" not in stats
        assert stats["min_rate_nats"] == pytest.approx(min(rates), rel=1e-8)
        assert stats["max_rate_nats"] == pytest.approx(max(rates), rel=1e-8)

    @pytest.mark.parametrize("figure_id,kwargs", [
        ("fig8", {"base": "bits"}),
        ("fig9", {"base": "nats"}),
        ("fig4", {"grid_n": 2.5}),
        ("fig4", {"grid_n": True}),
        ("fig4", {"grid_n": 1}),
        ("fig4", {"grid_n": "11"}),
    ])
    def test_bad_arguments_write_nothing(self, tmp_path, figure_id, kwargs):
        from semrd.errors import ConfigError

        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="base|grid"):
            generate_figure(figure_id, str(out), **kwargs)
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_under_a_file_is_config_error(self, tmp_path, sub):
        from semrd.errors import ConfigError

        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        with pytest.raises(ConfigError, match="cannot create output directory"):
            generate_figure("fig4", str(blocker / sub), grid_n=11)
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
        assert blocker.read_text() == "keep"

    def test_unknown_figure(self, tmp_path):
        from semrd.errors import ConfigError

        with pytest.raises(ConfigError):
            generate_figure("fig99", str(tmp_path))

    @pytest.mark.parametrize("workers", [0, -2, True, 2.5, 2])
    def test_bad_workers_rejected(self, tmp_path, workers):
        # figures solve in this process; workers is not a keyword at all
        with pytest.raises(TypeError, match="workers"):
            generate_figure("fig4", str(tmp_path), grid_n=11, workers=workers)
        assert not (tmp_path / "fig4_manifest.json").exists()

    def test_base_nats_column(self, tmp_path):
        generate_figure("fig4", str(tmp_path), grid_n=11, base="nats")
        rows = read_csv(tmp_path / "fig4_rate_curves.csv")
        assert "rate_source_nats" in rows[0]
        by_d = {r["d"]: r for r in rows}
        assert float(by_d["0.2"]["rate_source_nats"]) == pytest.approx(
            (1 - binary_entropy(0.2)) * math.log(2), abs=1e-8
        )


class TestCli:
    def test_figure_command(self, tmp_path):
        rc = main(["figure", "fig4", "--out", str(tmp_path), "--grid", "11"])
        assert rc == 0
        assert (tmp_path / "fig4_manifest.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_figure_bad_workers_is_usage_error(self, tmp_path, workers, capsys):
        rc = main(["figure", "fig4", "--out", str(tmp_path), "--grid", "11", "--workers", workers])
        assert rc == USAGE_ERROR
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "fig4_manifest.json").exists()

    @pytest.mark.parametrize("args,out,message", [
        (["fig8", "--base", "bits"], "out", "base: fig8"),
        (["fig4", "--grid", "1"], "out", "grid must be an integer >= 2"),
        (["fig4", "--grid", "2.5"], "out", "invalid int value"),
        (["fig4"], "blocker", "cannot create output directory"),
        (["fig4"], "blocker/sub", "cannot create output directory"),
    ])
    def test_figure_bad_arguments_write_nothing(self, tmp_path, args, out, message, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        assert main(["figure", *args, "--out", str(tmp_path / out)]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
        assert blocker.read_text() == "keep"

    def test_sweep_closed_form(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "binary_correlated",
                    "params": {"p": 0.25, "p1": 0.25, "p2": 0.25},
                    "grid": {"d1": [0.05], "d2": [0.1], "ds": [0.3]},
                }
            )
        )
        out = tmp_path / "out.csv"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["method"] == "closed_form"
        assert float(rows[0]["rate"]) == pytest.approx(0.867163698, abs=1e-8)

    def test_sweep_auto_routes_out_of_region_to_solver(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "binary_correlated",
                    "params": {"p": 0.25, "p1": 0.25, "p2": 0.25},
                    "grid": {"d1": [0.03], "d2": [0.5], "ds": [0.4]},
                }
            )
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert row["method"] == "ba"
        assert row["converged"] == "true"
        expect = binary_entropy(0.25) - binary_entropy(0.03)
        assert float(row["rate"]) == pytest.approx(expect, abs=1e-3)

    def test_sweep_ba_flags_only_infeasible_rows(self, tmp_path):
        # the correlated source is solved jointly; the classification source
        # splits into an observation and a background batch
        docs = {
            "correlated": {
                "kind": "binary_correlated",
                "method": "ba",
                "params": {"p": 0.25, "p1": 0.25, "p2": 0.25},
                "grid": {"d1": [0.03, 0.05], "d2": [0.5], "ds": [0.1, 0.4]},
            },
            "classification": {
                "kind": "classification",
                "method": "ba",
                "params": {"p": 0.25, "p2": 0.25, "n": 8},
                "grid": {"d1": [0.05, 0.3], "d2": [0.1, 0.5], "ds": [0.1, 0.3]},
            },
        }
        errors = {
            "correlated": ["InfeasibleDistortionError", "", "InfeasibleDistortionError", ""],
            "classification": ["InfeasibleDistortionError", ""] * 4,
        }
        for kind, doc in docs.items():
            cfg = tmp_path / f"{kind}.json"
            cfg.write_text(json.dumps(doc))
            out = tmp_path / f"{kind}.csv"
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            rows = read_csv(out)
            assert [r["error"].split(":")[0] for r in rows] == errors[kind]
            assert all(r["converged"] == "true" for r in rows if not r["error"])

    def test_sweep_gaussian_infeasible_flagged(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "gaussian",
                    "params": {
                        "var_s": 2, "var_x1": 2, "var_x2": 2, "var_y": 2,
                        "cov_sx1": 1, "cov_x1y": 1, "cov_x2y": 1,
                    },
                    "grid": {"d1": [0.5], "d2": [1.0], "ds": [1.0, 1.7]},
                }
            )
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0]["error"].startswith("InfeasibleDistortionError: semantic target 1.0")
        assert rows[0]["rate"] == ""
        assert float(rows[1]["rate"]) == pytest.approx(0.752038698, abs=1e-8)

    def test_sweep_gaussian_degenerate_spec(self, tmp_path):
        # var(x1|y) = var(x2|y) = 0: both parts are known from y, the rate is 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "gaussian",
                    "params": {
                        "var_s": 2, "var_x1": 1, "var_x2": 1, "var_y": 1,
                        "cov_sx1": 1, "cov_x1y": 1, "cov_x2y": 1,
                    },
                    "grid": {"d1": [0.5], "d2": [1.0], "ds": [1.5]},
                }
            )
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert (rows[0]["rate"], rows[0]["converged"], rows[0]["error"]) == ("0", "true", "")

    def test_unwritable_output_fails_before_solving(self, tmp_path, monkeypatch, capsys):
        import semrd.solver

        def never(*args):
            raise AssertionError("a cell was solved before the output was opened")

        monkeypatch.setattr(semrd.solver, "solve_cells", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "binary_correlated",
                    "method": "ba",
                    "params": {"p": 0.25, "p1": 0.25, "p2": 0.25},
                    "grid": {"d1": [0.05], "d2": [0.1], "ds": [0.3]},
                }
            )
        )
        out = tmp_path / "missing" / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == USAGE_ERROR
        assert "cannot write output" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["figure", "nope", "--out", "x"]) == 1
        assert main(["sweep", "--config", "/does/not/exist.json", "--out", "/tmp/x.csv"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["figure", "fig4", "--out", "d", "--gird", "11"], "unrecognized arguments: --gird 11"),
        (["sweep", "--out", "x.csv"], "the following arguments are required: --config"),
    ])
    def test_usage_error_names_the_argument(self, argv, message, capsys):
        assert main(argv) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: semrd")
        assert f"semrd: error: {message}\n" in err

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "binary_correlated",
                    "params": {"p": 0.25, "p1": 0.25, "p2": 0.25},
                    "grid": {"d1": [], "d2": [0.1], "ds": [0.3]},
                }
            )
        )
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "grid.d1" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["auto", "closed_form", "ba"])
    def test_negative_grid_target_is_usage_error(self, tmp_path, method, capsys):
        # every method rejects the grid before any cell is routed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "binary_correlated",
                    "method": method,
                    "params": {"p": 0.25, "p1": 0.25, "p2": 0.25},
                    "grid": {"d1": [-0.05, 0.05], "d2": [0.1], "ds": [0.3]},
                }
            )
        )
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == USAGE_ERROR
        assert "grid.d1[0]: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_channels_json(self, capsys):
        rc = main(["verify", "channels", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "channels"
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "correlated_rate_match" in names
        assert "q_nonnegativity_scan" in names

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_verify_suite_json(self, suite, capsys, monkeypatch):
        import semrd.cli

        # both reports print one run of the suite
        monkeypatch.setattr(semrd.cli, "run_suite", functools.cache(semrd.cli.run_suite))
        assert main(["verify", suite, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["suite"], report["passed"]) == (suite, True)
        # the text report: every check passed, and there is no other status
        assert main(["verify", suite]) == 0
        *checks, last = capsys.readouterr().out.splitlines()
        assert len(checks) == len(report["checks"])
        assert all(line.startswith(f"[PASS] {suite}/") for line in checks)
        assert last == f"suite {suite}: PASS"

    def test_unknown_suite_is_config_error(self):
        from semrd.errors import ConfigError
        from semrd.verify import run_suite

        with pytest.raises(ConfigError, match="unknown suite 'nope'"):
            run_suite("nope")

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        import semrd.verify as verify_mod

        def failing_suite():
            return verify_mod.SuiteReport(
                "channels", [verify_mod.Check("forced", passed=False, residual=1.0, tolerance=0.0)]
            )

        monkeypatch.setitem(verify_mod.SUITES, "channels", failing_suite)
        assert main(["verify", "channels"]) == 2


class TestReproducibility:
    def test_csv_bit_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_figure("fig5", str(a), grid_n=5)
        generate_figure("fig5", str(b), grid_n=5)
        assert (a / "fig5_surface.csv").read_bytes() == (b / "fig5_surface.csv").read_bytes()
        assert (a / "fig5_manifest.json").read_bytes() == (b / "fig5_manifest.json").read_bytes()
