"""The number rule of ``semrd.prob``, at every numeric entry point: numpy
real scalars of every width and ``Fraction`` are accepted and come back as
Python numbers; bools, NaN, infinities, strings and None are rejected with
the package's typed errors."""

import math
from fractions import Fraction

import numpy as np
import pytest

from semrd import sources
from semrd.closed_form import (
    conditional_binary_rd,
    rate_classification,
    rate_conditionally_independent,
    rate_correlated,
    semantic_binary_rd,
)
from semrd.config import parse_config
from semrd.errors import ConfigError, ProbabilityError
from semrd.figures import generate_figure
from semrd.gaussian import GaussianSpec, gaussian_rate
from semrd.prob import Alphabet, BinarySourceSpec, binary_entropy, make_dsbs, star
from semrd.semantic import ds0
from semrd.solver import RDQuery, SolverOptions, ba_fixed_multipliers, sweep_surface

IND = BinarySourceSpec.conditionally_independent(0.25, 0.25, 0.25)
COR = BinarySourceSpec.correlated(0.25, 0.25, 0.25)
GAUSS = GaussianSpec(2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0)
PROBLEM = sources.conditionally_independent_problem(IND)


def _config(**params):
    return parse_config({
        "kind": "classification",
        "params": {"p": 0.25, "p2": 0.25, "n": 8, **params},
        "grid": {"d1": [0.1], "d2": [0.1], "ds": [0.4]},
    })


def _linspace_config(num):
    return parse_config({
        "kind": "binary_independent",
        "params": {"p": 0.25, "p2": 0.25, "p3": 0.25},
        "grid": {"d1": {"linspace": [0.0, 0.1, num]}, "d2": [0.1], "ds": [0.4]},
    }).grid["d1"]


# entry point -> (call with one numeric argument, a real and an integer the
# argument may take, whether the result is a Python float)
REALS = {
    "RDQuery": (lambda v: RDQuery(v, 0.1, 0.3).d1, 0.25, 0, True),
    "sweep_surface": (lambda v: sweep_surface(
        PROBLEM, {"d1": [v], "d2": [0.1], "ds": [0.4]}).points[0].query.d1, 0.25, 0, True),
    "ba_fixed_multipliers": (lambda v: ba_fixed_multipliers(PROBLEM, v, 0.0, 0.0).multipliers[0],
                             0.25, 0, True),
    "binary_entropy": (lambda v: binary_entropy(v), 0.25, 0, True),
    "star": (lambda v: star(v, 0.1), 0.25, 0, True),
    "make_dsbs": (lambda v: float(make_dsbs(v).probs.sum()), 0.25, 0, True),
    # through a constructor that needs the field: None marks an unused one
    "BinarySourceSpec": (lambda v: BinarySourceSpec.conditionally_independent(0.25, v, 0.25).p2,
                         0.25, 0, True),
    "conditional_binary_rd": (lambda v: conditional_binary_rd(0.3, v), 0.25, 0, True),
    "semantic_binary_rd": (lambda v: semantic_binary_rd(v, 0.4), 0.25, 0, True),
    "rate_conditionally_independent": (
        lambda v: rate_conditionally_independent(IND, v, 0.1, 0.4), 0.25, 0, True),
    "rate_correlated": (lambda v: rate_correlated(COR, 0.03, v, 0.45), 0.25, 0, True),
    "rate_classification": (lambda v: rate_classification(0.25, 0.25, 8, v, 0.1, 0.45),
                            0.25, 0, True),
    "ds0": (lambda v: ds0(0.4, v), 0.25, 0, True),
    "GaussianSpec": (lambda v: GaussianSpec(2.0, 2.0, 2.0, 2.0, v, 1.0, 1.0).cov_sx1,
                     0.25, 0, True),
    "gaussian_rate": (lambda v: gaussian_rate(GAUSS, v, 1.0, 1.7).rate_nats, 0.25, 1, True),
    "config": (lambda v: _config(p=v).model, 0.25, 0, False),
}

INTEGERS = {
    "SolverOptions.max_iters": lambda v: SolverOptions(max_iters=v).max_iters,
    "Alphabet.size": lambda v: Alphabet("a", v).size,
    "rate_classification N": lambda v: rate_classification(0.25, 0.25, v, 0.2, 0.1, 0.45),
    "classification_source": lambda v: sources.classification_source(0.25, v).axes[0].size,
    "config n": lambda v: _config(n=v).model,
    "config linspace count": _linspace_config,
}

BAD = [True, np.bool_(True), math.nan, math.inf, -math.inf, "0.1", None]


@pytest.mark.parametrize("entry", REALS)
def test_real_arguments_accept_numpy_scalars(entry):
    call, real, integer, returns_float = REALS[entry]
    for value, ref in ((np.float32(real), real), (np.float64(real), real),
                       (Fraction(real), real), (np.int64(integer), integer)):
        got = call(value)
        if returns_float:
            assert type(got) is float and got == call(float(ref))


@pytest.mark.parametrize("entry", INTEGERS)
def test_integer_arguments_accept_numpy_integers(entry):
    call = INTEGERS[entry]
    for value in (np.int64(8), np.int32(8), np.uint8(8)):
        got = call(value)
        if not entry.startswith("config n"):
            assert type(got) is type(call(8)) and got == call(8)
    with pytest.raises(ConfigError if entry.startswith("config") else ProbabilityError):
        call(8.0)  # a float is not an integer, even when whole


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("entry", [*REALS, *INTEGERS])
def test_non_numbers_rejected(entry, bad):
    call = REALS[entry][0] if entry in REALS else INTEGERS[entry]
    error = ConfigError if entry.startswith("config") else ProbabilityError
    with pytest.raises(error):
        call(bad)


# None is the preset's own grid
@pytest.mark.parametrize("bad", [True, np.bool_(True), 2.0, "3", np.int64(1)], ids=repr)
def test_figure_grid_follows_the_integer_rule(tmp_path, bad):
    with pytest.raises(ConfigError, match="grid must be an integer >= 2"):
        generate_figure("fig4", str(tmp_path), grid_n=bad)
    manifest = generate_figure("fig4", str(tmp_path), grid_n=np.int64(3))
    assert manifest["grid"]["d"]["num"] == 3


def test_rdquery_fields_are_python_floats():
    q = RDQuery(np.float32(0.25), np.int64(0), Fraction(1, 3))
    assert q.as_tuple() == (0.25, 0.0, 1 / 3)
    assert all(type(v) is float for v in q.as_tuple())
