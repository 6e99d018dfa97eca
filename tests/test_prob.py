"""Probability-core tests: construction contracts, frozen values, identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrd.errors import AlphabetMismatchError, ProbabilityError
from semrd.prob import (
    Alphabet,
    BinarySourceSpec,
    DistortionMatrix,
    JointPMF,
    binary_entropy,
    make_dsbs,
    star,
)

# high-precision references computed independently with mpmath (30 digits)
HB_025 = 0.811278124459133
HB_01 = 0.468995593589281
I_DSBS_025 = 0.188721875540867


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(HB_025, abs=1e-12)

    @pytest.mark.parametrize("q", [-0.01, 1.01, float("nan"), float("inf")])
    def test_domain(self, q):
        with pytest.raises(ProbabilityError):
            binary_entropy(q)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range_and_symmetry(self, q):
        h = binary_entropy(q)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - q), abs=1e-12)


class TestStar:
    def test_quarter(self):
        assert star(0.25, 0.25) == pytest.approx(0.375, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_identity_element(self, q):
        assert star(q, 0.0) == pytest.approx(q, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_absorbing_element(self, q):
        assert star(q, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ProbabilityError):
            star(-0.1, 0.2)
        with pytest.raises(ProbabilityError):
            star(0.2, 1.2)


class TestAlphabet:
    def test_default_labels(self):
        a = Alphabet("x", 3)
        assert a.symbol_labels == ("0", "1", "2")

    def test_distinct_labels_required(self):
        with pytest.raises(ProbabilityError):
            Alphabet("x", 2, ("a", "a"))

    def test_size_positive(self):
        for size in (0, True):  # a bool is not a size, though True == 1
            with pytest.raises(ProbabilityError):
                Alphabet("x", size)

    def test_integers(self):
        a = Alphabet.integers("n", 4)
        assert a.symbol_labels == ("1", "2", "3", "4")
        assert a.index_of("3") == 2

    def test_index_of_unknown(self):
        with pytest.raises(ProbabilityError):
            Alphabet.binary("x").index_of("2")


class TestMakeDsbs:
    def test_quarter_matrix(self):
        j = make_dsbs(0.25)
        assert np.allclose(j.probs, [[0.375, 0.125], [0.125, 0.375]], atol=1e-15)

    def test_perfectly_correlated(self):
        assert np.allclose(make_dsbs(0.0).probs, [[0.5, 0.0], [0.0, 0.5]])

    def test_independent_uniform(self):
        assert np.allclose(make_dsbs(0.5).probs, 0.25)

    @pytest.mark.parametrize("p0", [-0.1, 0.6, float("nan")])
    def test_domain(self, p0):
        with pytest.raises(ProbabilityError):
            make_dsbs(p0)


class TestJointPMFValidation:
    def test_rejects_bad_sum(self):
        with pytest.raises(ProbabilityError, match="sum"):
            JointPMF((Alphabet.binary("x"),), np.array([0.5, 0.5 + 1e-6]))

    def test_rejects_negative(self):
        with pytest.raises(ProbabilityError, match="negative"):
            JointPMF((Alphabet.binary("x"),), np.array([1.1, -0.1]))

    def test_clips_dust(self):
        j = JointPMF((Alphabet.binary("x"),), np.array([1.0 + 1e-16, -1e-16]))
        assert j.probs[1] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ProbabilityError, match="shape"):
            JointPMF((Alphabet.binary("x"),), np.ones((2, 2)) / 4)

    def test_duplicate_axis_names(self):
        with pytest.raises(ProbabilityError, match="duplicate"):
            JointPMF((Alphabet.binary("x"), Alphabet.binary("x")), np.ones((2, 2)) / 4)

    def test_probs_read_only(self):
        j = make_dsbs(0.25)
        with pytest.raises(ValueError):
            j.probs[0, 0] = 1.0


class TestMarginalize:
    def test_dsbs_marginals_uniform(self):
        j = make_dsbs(0.25, "x", "y")
        m = j.marginalize(("x",))
        assert np.allclose(m.probs, [0.5, 0.5], atol=1e-15)

    def test_semantic_pair_marginal(self):
        m = make_dsbs(0.1, "s", "x1").marginalize(("x1",))
        assert np.allclose(m.probs, [0.5, 0.5], atol=1e-15)

    def test_total_probability(self):
        j = make_dsbs(0.3)
        assert float(j.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_axis(self):
        with pytest.raises(ProbabilityError, match="unknown axis"):
            make_dsbs(0.3).marginalize(("zz",))

    def test_keeps_axis_order(self):
        axes = (Alphabet.binary("a"), Alphabet.binary("b"), Alphabet.binary("c"))
        j = JointPMF(axes, np.full((2, 2, 2), 0.125))
        m = j.marginalize(("c", "a"))  # request order must not matter
        assert m.axis_names == ("a", "c")

    def test_cannot_drop_all(self):
        with pytest.raises(ProbabilityError):
            make_dsbs(0.3).marginalize(())


class TestConditioning:
    def test_condition_on_dsbs(self):
        j = make_dsbs(0.25, "x", "y")
        c = j.condition_on("y", "0")
        assert np.allclose(c.probs, [0.75, 0.25], atol=1e-15)

    def test_zero_mass_event(self):
        j = JointPMF(
            (Alphabet.binary("x"), Alphabet.binary("y")),
            np.array([[0.5, 0.0], [0.5, 0.0]]),
        )
        with pytest.raises(ProbabilityError, match="zero probability"):
            j.condition_on("y", "1")


class TestInformationMeasures:
    def test_independent_gives_zero(self):
        j = JointPMF(
            (Alphabet.binary("a"), Alphabet.binary("b"), Alphabet.binary("c")),
            np.full((2, 2, 2), 0.125),
        )
        assert j.conditional_mutual_information(("a",), ("b",), ("c",)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_dsbs_mutual_information(self):
        j = make_dsbs(0.25, "x", "y")
        assert j.mutual_information(("x",), ("y",)) == pytest.approx(I_DSBS_025, abs=1e-12)

    def test_self_information_via_copy(self):
        # a uniform bit and its perfect copy share 1 bit
        j = JointPMF(
            (Alphabet.binary("a"), Alphabet.binary("a2")),
            np.array([[0.5, 0.0], [0.0, 0.5]]),
        )
        assert j.mutual_information(("a",), ("a2",)) == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_groups_rejected(self):
        j = make_dsbs(0.25, "x", "y")
        with pytest.raises(ProbabilityError, match="disjoint"):
            j.conditional_mutual_information(("x",), ("x",))

    def test_entropy_of_uniform(self):
        j = JointPMF((Alphabet("x", 4),), np.full(4, 0.25))
        assert j.entropy() == pytest.approx(2.0, abs=1e-12)

    def test_conditional_entropy(self):
        j = make_dsbs(0.25, "x", "y")
        assert j.conditional_entropy(("x",), ("y",)) == pytest.approx(HB_025, abs=1e-12)


@st.composite
def random_joint_3(draw):
    sizes = (draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    axes = tuple(Alphabet(n, s) for n, s in zip(("a", "b", "c"), sizes))
    return JointPMF(axes, probs / probs.sum())


class TestInformationIdentities:
    @given(random_joint_3())
    @settings(max_examples=60, deadline=None)
    def test_chain_rule(self, j):
        lhs = j.mutual_information(("a",), ("b", "c"))
        rhs = j.mutual_information(("a",), ("c",)) + j.conditional_mutual_information(
            ("a",), ("b",), ("c",)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(random_joint_3())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, j):
        ab = j.conditional_mutual_information(("a",), ("b",), ("c",))
        ba = j.conditional_mutual_information(("b",), ("a",), ("c",))
        assert ab == pytest.approx(ba, abs=1e-12)

    @given(random_joint_3())
    @settings(max_examples=60, deadline=None)
    def test_marginal_is_normalized(self, j):
        m = j.marginalize(("a", "c"))
        assert float(m.probs.sum()) == pytest.approx(1.0, abs=1e-12)
        assert float(m.probs.min()) >= 0.0


class TestExpectedDistortion:
    def _pair(self, p_equal):
        x, xh = Alphabet.binary("x"), Alphabet.binary("xh")
        probs = np.array([[p_equal / 2, (1 - p_equal) / 2], [(1 - p_equal) / 2, p_equal / 2]])
        return JointPMF((x, xh), probs), DistortionMatrix.hamming(x, xh)

    def test_perfect_reconstruction(self):
        j, d = self._pair(1.0)
        assert j.expected_distortion(d, "x", "xh") == 0.0

    def test_random_guessing(self):
        j, d = self._pair(0.5)
        assert j.expected_distortion(d, "x", "xh") == pytest.approx(0.5, abs=1e-15)

    def test_error_probability(self):
        j, d = self._pair(0.95)
        assert j.expected_distortion(d, "x", "xh") == pytest.approx(0.05, abs=1e-15)

    def test_zero_matrix_exact(self):
        j, _ = self._pair(0.7)
        z = DistortionMatrix.zero(j.axes[0], j.axes[1])
        assert j.expected_distortion(z, "x", "xh") == 0.0

    def test_axis_order_irrelevant(self):
        x, xh = Alphabet.binary("x"), Alphabet.binary("xh")
        probs = np.array([[0.4, 0.1], [0.2, 0.3]])
        j_fwd = JointPMF((x, xh), probs)
        j_rev = JointPMF((xh, x), probs.T)
        d = DistortionMatrix.hamming(x, xh)
        assert j_fwd.expected_distortion(d, "x", "xh") == pytest.approx(
            j_rev.expected_distortion(d, "x", "xh"), abs=1e-15
        )

    def test_alphabet_mismatch(self):
        j, _ = self._pair(0.9)
        other = DistortionMatrix.hamming(Alphabet.binary("zz"), Alphabet.binary("xh"))
        with pytest.raises(AlphabetMismatchError):
            j.expected_distortion(other, "x", "xh")


class TestDistortionMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ProbabilityError):
            DistortionMatrix(Alphabet.binary("x"), Alphabet.binary("y"), [[0.0, -1.0], [1.0, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(ProbabilityError):
            DistortionMatrix(
                Alphabet.binary("x"), Alphabet.binary("y"), [[0.0, math.inf], [1.0, 0.0]]
            )

    def test_hamming_needs_equal_sizes(self):
        with pytest.raises(AlphabetMismatchError):
            DistortionMatrix.hamming(Alphabet("x", 3), Alphabet.binary("y"))


class TestBinarySourceSpec:
    def test_range(self):
        with pytest.raises(ProbabilityError):
            BinarySourceSpec(p=0.7)

    def test_markov_consistency_holds(self):
        spec = BinarySourceSpec.conditionally_independent(0.1, 0.2, 0.3)
        spec.check_markov_x1_y_x2()
        assert spec.p1 == pytest.approx(star(0.2, 0.3), abs=1e-15)

    def test_markov_consistency_violated(self):
        spec = BinarySourceSpec(p=0.1, p1=0.3, p2=0.2, p3=0.3)
        with pytest.raises(ProbabilityError, match="inconsistent"):
            spec.check_markov_x1_y_x2()

    def test_missing_fields(self):
        with pytest.raises(ProbabilityError, match="missing"):
            BinarySourceSpec(p=0.1).require("p", "p2")

    def test_correlated_factory(self):
        spec = BinarySourceSpec.correlated(0.25, 0.25, 0.25)
        assert spec.p3 == pytest.approx(0.375, abs=1e-15)
