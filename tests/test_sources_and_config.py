"""Model-source builders and sweep-config validation."""

import numpy as np
import pytest

from semrd.config import load_config, parse_config
from semrd.closed_form import rate_correlated
from semrd.errors import ConfigError
from semrd.gaussian import GaussianSpec, gaussian_rate
from semrd.prob import BinarySourceSpec
from semrd.solver import background_side_problem, observation_side_problem
from semrd.sources import (
    classification_problem,
    classification_source,
    conditionally_independent_problem,
    conditionally_independent_source,
    correlated_problem,
    correlated_source,
    parity_bit,
    parity_semantic_joint,
)


def pair_flip_probability(joint, a, b):
    """P(axis a != axis b) for a two-axis binary marginal."""
    m = joint.marginalize((a, b)).probs
    return float(m[0, 1] + m[1, 0])


class TestSources:
    def test_conditionally_independent_pairwise_laws(self):
        src = conditionally_independent_source(0.2, 0.3)
        assert pair_flip_probability(src, "x1", "y") == pytest.approx(0.2, abs=1e-12)
        assert pair_flip_probability(src, "x2", "y") == pytest.approx(0.3, abs=1e-12)
        # induced observation/background crossover is the convolution
        assert pair_flip_probability(src, "x1", "x2") == pytest.approx(
            0.2 * 0.7 + 0.3 * 0.8, abs=1e-12
        )
        # conditional independence given side info
        assert src.conditional_mutual_information(("x1",), ("x2",), ("y",)) < 1e-12

    def test_correlated_pairwise_laws(self):
        src = correlated_source(0.25, 0.2)
        assert pair_flip_probability(src, "x1", "x2") == pytest.approx(0.25, abs=1e-12)
        assert pair_flip_probability(src, "x1", "y") == pytest.approx(0.2, abs=1e-12)
        assert pair_flip_probability(src, "x2", "y") == pytest.approx(
            0.25 * 0.8 + 0.2 * 0.75, abs=1e-12
        )
        # side info sees the background only through the observation
        assert src.conditional_mutual_information(("y",), ("x2",), ("x1",)) < 1e-12

    def test_classification_source_structure(self):
        src = classification_source(0.25, 8)
        m = src.marginalize(("x1",)).probs
        assert np.allclose(m, 1.0 / 8, atol=1e-15)
        pair = src.marginalize(("x1", "y")).probs
        for i in range(8):
            assert pair[i, parity_bit(i + 1)] == pytest.approx(0.75 / 8, abs=1e-15)
        # background is an independent fair bit
        assert src.conditional_mutual_information(("x2",), ("x1", "y")) < 1e-12

    def test_parity_semantic_joint_posterior(self):
        j = parity_semantic_joint(0.1, 8)
        m = j.marginalize(("x1",)).probs
        assert np.allclose(m, 1.0 / 8, atol=1e-15)
        cond = j.condition_on("x1", "3")  # odd value: latent leans to 1
        assert cond.probs[1] == pytest.approx(0.9, abs=1e-12)

    def test_problem_builders_validate(self):
        p2 = conditionally_independent_problem(
            BinarySourceSpec.conditionally_independent(0.25, 0.25, 0.25)
        )
        assert p2.source.axis_names == ("x1", "x2", "y")
        p3 = correlated_problem(BinarySourceSpec.correlated(0.25, 0.25, 0.25))
        assert np.allclose(p3.ds_mod.values, [[0.25, 0.75], [0.75, 0.25]], atol=1e-15)
        p4 = classification_problem(0.25, 0.25, 8)
        assert p4.d1.values.shape == (8, 8)
        assert p4.ds_mod.values.shape == (8, 2)

    def test_reduced_problems(self):
        full = correlated_problem(BinarySourceSpec.correlated(0.25, 0.25, 0.25))
        obs = observation_side_problem(full)
        assert obs.source.axes[1].size == 1
        assert obs.d1.values.shape == (2, 2)
        bg = background_side_problem(full)
        assert bg.source.axes[0].size == 1
        assert bg.d2.values.shape == (2, 2)
        # reduced sources agree with the marginals of the full one
        np.testing.assert_allclose(
            obs.source.marginalize(("x1", "y")).probs,
            full.source.marginalize(("x1", "y")).probs,
            atol=1e-15,
        )


VALID_BASE = {
    "kind": "binary_correlated",
    "params": {"p": 0.25, "p1": 0.25, "p2": 0.25},
    "grid": {"d1": [0.05], "d2": [0.1], "ds": [0.3]},
}
GAUSSIAN_DOC = {
    "kind": "gaussian",
    "params": {
        "var_s": 2, "var_x1": 2, "var_x2": 2, "var_y": 2, "cov_sx1": 1, "cov_x1y": 1, "cov_x2y": 1,
    },
    "grid": {"d1": [0.5], "d2": [1.0], "ds": [1.7]},
}


class TestConfigParsing:
    def test_valid_minimal(self):
        cfg = parse_config(VALID_BASE)
        spec = BinarySourceSpec.correlated(0.25, 0.25, 0.25)
        assert cfg.model.closed_form(0.05, 0.1, 0.3) == rate_correlated(spec, 0.05, 0.1, 0.3)
        assert cfg.method == "auto"
        assert cfg.grid["d1"] == (0.05,)

    def test_linspace_axis(self):
        doc = dict(VALID_BASE, grid={"d1": {"linspace": [0.0, 0.06, 4]}, "d2": [0.1], "ds": [0.3]})
        cfg = parse_config(doc)
        assert cfg.grid["d1"] == (0.0, 0.02, 0.04, 0.06)

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: d.pop("kind"), "kind"),
            (lambda d: d.update(kind="nope"), "kind"),
            (lambda d: d["params"].update(p=0.7), "params.p"),
            (lambda d: d["params"].pop("p1"), "params.p1"),
            (lambda d: d["grid"].update(d1=[]), "grid.d1"),
            (lambda d: d["grid"].pop("ds"), "grid.ds"),
            (lambda d: d["grid"].update(dz=[0.1]), "grid"),
            (lambda d: d.update(method="magic"), "method"),
            (lambda d: d.update(solver={"bogus": 1}), "solver.bogus"),
            # the Gauss-Seidel round cap no longer exists; setting it is an error
            (lambda d: d.update(solver={"max_rounds": 3}), "solver.max_rounds"),
            # options of the deleted fixed-multiplier loop
            (lambda d: d.update(solver={"tol": 1e-10}), "solver.tol"),
            (lambda d: d.update(solver={"stall_cert": 1e-8}), "solver.stall_cert"),
            (lambda d: d.update(solver={"stall_drift_tol": 1e-12}), "solver.stall_drift_tol"),
            # every run starts from the uniform marginal; no seed to set
            (lambda d: d.update(solver={"init_seed": 0}), "solver.init_seed"),
            (lambda d: d.update(solver={"max_iters": 0}), "solver: solver option max_iters"),
            # the tolerances are solver constants; setting one is an error
            (lambda d: d.update(solver={"cert_tol": 1e-10}), "solver.cert_tol"),
            (lambda d: d.update(solver={"constraint_tol": 1e-8}), "solver.constraint_tol"),
            (lambda d: d.update(solver={"rate_tol": 1e-3}), "solver.rate_tol"),
            (lambda d: d.update(solver={"lambda_cap": 5}), "solver.lambda_cap"),
            # batches are solved in this process; there is no process count
            (lambda d: d.update(workers=2), "workers: unknown field"),
            (lambda d: d.update(base="nats"), "base"),
            (lambda d: d.update(methd="ba"), "methd: unknown field"),
        ],
    )
    def test_field_path_errors(self, mutate, path):
        doc = {
            "kind": VALID_BASE["kind"],
            "params": dict(VALID_BASE["params"]),
            "grid": {k: list(v) for k, v in VALID_BASE["grid"].items()},
        }
        mutate(doc)
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            parse_config(doc)

    @pytest.mark.parametrize("end", [0, 1])
    def test_negative_linspace_end_rejected(self, end):
        spec = [0.0, 0.1, 3]
        spec[end] = -0.1
        doc = dict(VALID_BASE, grid={"d1": {"linspace": spec}, "d2": [0.1], "ds": [0.3]})
        with pytest.raises(ConfigError, match=rf"grid\.d1\.linspace\[{end}\]: must be >= 0"):
            parse_config(doc)

    def test_gaussian_kind(self):
        cfg = parse_config(GAUSSIAN_DOC)
        # routed: the closed form in nats at every target, no solver instance
        assert cfg.model.build is None and cfg.model.in_region is None
        spec = GaussianSpec(**GAUSSIAN_DOC["params"])
        assert cfg.model.closed_form(0.5, 1.0, 1.7) == gaussian_rate(spec, 0.5, 1.0, 1.7).rate_nats

    @pytest.mark.parametrize("doc", [
        GAUSSIAN_DOC,
        dict(VALID_BASE, method="closed_form"),
        dict(VALID_BASE, kind="binary_independent", params={"p": 0.25, "p2": 0.25, "p3": 0.25}),
    ], ids=["gaussian", "closed_form", "independent_auto"])
    def test_solver_fields_rejected_where_nothing_is_solved(self, doc):
        parse_config(doc)
        with pytest.raises(ConfigError, match=r"^solver: .* never runs the solver"):
            parse_config(dict(doc, solver={"max_iters": 3}))
        if doc["kind"] != "gaussian":  # under ba the same model is solved
            parse_config(dict(doc, method="ba", solver={"max_iters": 3}))

    def test_gaussian_rejects_ba(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config(dict(GAUSSIAN_DOC, method="ba"))

    def test_custom_kind(self):
        doc = {
            "kind": "custom",
            "params": {
                "alphabets": {
                    "x1": ["0", "1"], "x2": ["0", "1"], "y": ["0", "1"],
                    "x1_hat": ["0", "1"], "x2_hat": ["0", "1"], "s_hat": ["0", "1"],
                },
                "source": {
                    "axes": ["x1", "x2", "y"],
                    "probs": (np.full((2, 2, 2), 0.125)).tolist(),
                },
                "d1": {"source_axis": "x1", "repro_axis": "x1_hat",
                       "values": [[0, 1], [1, 0]]},
                "d2": {"source_axis": "x2", "repro_axis": "x2_hat",
                       "values": [[0, 1], [1, 0]]},
                "ds_mod": {"source_axis": "x1", "repro_axis": "s_hat",
                           "values": [[0.2, 0.8], [0.8, 0.2]]},
            },
            "grid": {"d1": [0.1], "d2": [0.1], "ds": [0.3]},
        }
        cfg = parse_config(doc)
        assert cfg.model.closed_form is None
        assert cfg.model.build().source.axis_names == ("x1", "x2", "y")

    def test_custom_bad_probs_path(self):
        doc = {
            "kind": "custom",
            "params": {
                "alphabets": {"x1": ["0", "1"], "x2": ["0"], "y": ["0"],
                              "x1_hat": ["0", "1"], "x2_hat": ["0"], "s_hat": ["0", "1"]},
                "source": {"axes": ["x1", "x2", "y"], "probs": [[[0.6]], [[0.5]]]},
                "d1": {"source_axis": "x1", "repro_axis": "x1_hat", "values": [[0, 1], [1, 0]]},
                "d2": {"source_axis": "x2", "repro_axis": "x2_hat", "values": [[0]]},
                "ds_mod": {"source_axis": "x1", "repro_axis": "s_hat",
                           "values": [[0.2, 0.8], [0.8, 0.2]]},
            },
            "grid": {"d1": [0.1], "d2": [0.1], "ds": [0.3]},
        }
        with pytest.raises(ConfigError, match=r"params\.source\.probs"):
            parse_config(doc)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(str(path))
