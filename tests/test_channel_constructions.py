"""Achievability test-channel tests: exact laws, distortions, and rates."""

import math

import numpy as np
import pytest

from semrd.closed_form import classification_region_bound, rate_classification, rate_correlated
from semrd.errors import ProbabilityError, RegionError
from semrd.prob import Alphabet, BinarySourceSpec, DistortionMatrix, JointPMF, binary_entropy
from semrd.semantic import modified_distortion
from semrd.sources import (
    S_HAT,
    X1,
    X1_HAT,
    X2,
    X2_HAT,
    Y,
    correlated_source,
    parity_bit,
    semantic_observation_joint,
)
from semrd.test_channels import (
    build_classification_channel,
    build_correlated_binary_channel,
    classification_source_marginal,
    correlated_noise_law,
    correlated_q_vector,
    verify_achievability,
)

P = 0.25
SPEC = BinarySourceSpec.correlated(P, 0.25, 0.25)
# frozen from exact arithmetic on the defining expressions
Q_EXAMPLE = (0.640625, 0.137152777777778, 0.015625, 0.206597222222222)


def hamming_tables():
    src = correlated_source(SPEC.p1, SPEC.p2)
    d1 = DistortionMatrix.hamming(src.axes[0], Alphabet.binary(X1_HAT))
    d2 = DistortionMatrix.hamming(src.axes[1], Alphabet.binary(X2_HAT))
    ds_mod = modified_distortion(
        semantic_observation_joint(P),
        DistortionMatrix.hamming(Alphabet.binary("s"), Alphabet.binary(S_HAT)),
    )
    return src, d1, d2, ds_mod


class TestQVector:
    def test_frozen_example(self):
        q = correlated_q_vector(0.25, 0.25, 0.05, 0.1)
        assert np.allclose(q, Q_EXAMPLE, atol=1e-12)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_distortion_gives_noise_law(self):
        q = correlated_q_vector(0.25, 0.25, 0.0, 0.0)
        assert np.allclose(q, correlated_noise_law(0.25, 0.25), atol=1e-15)

    def test_noise_law_composition(self):
        law = correlated_noise_law(0.25, 0.25)
        assert np.allclose(law, [0.5625, 0.1875, 0.0625, 0.1875], atol=1e-15)
        assert law.sum() == pytest.approx(1.0, abs=1e-15)

    def test_simplex_on_valid_draws(self):
        rng = np.random.default_rng(42)
        found = 0
        while found < 20:
            p1 = float(rng.uniform(0.1, 0.45))
            p2 = float(rng.uniform(0.1, 0.45))
            d1 = float(rng.uniform(0.0, p1 * p2))
            d2 = float(rng.uniform(0.0, p1 * 0.9))
            try:
                q = correlated_q_vector(p1, p2, d1, d2)
            except RegionError:
                continue
            assert q.min() >= 0.0
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            found += 1

    def test_negative_entries_rejected(self):
        # inside the documented region but outside the construction's validity
        with pytest.raises(RegionError, match="negative"):
            correlated_q_vector(0.25, 0.25, 0.05, 0.25)

    def test_degenerate_flip_rejected(self):
        with pytest.raises(ProbabilityError, match="degenerate"):
            correlated_q_vector(0.25, 0.25, 0.5, 0.1)


class TestCorrelatedChannel:
    def test_example_distortions_and_rate(self):
        src, d1, d2, ds_mod = hamming_tables()
        ch = build_correlated_binary_channel(P, 0.25, 0.25, 0.05, 0.1, 0.45)
        assert not ch.role_switched
        expected = rate_correlated(SPEC, 0.05, 0.1, 0.275)
        rep = verify_achievability(ch.joint, src, expected, d1=d1, d2=d2, ds_mod=ds_mod)
        assert rep.marginal_residual < 1e-12
        assert rep.achieved[0] == pytest.approx(0.05, abs=1e-12)
        assert rep.achieved[1] == pytest.approx(0.1, abs=1e-12)
        # semantic distortion lands exactly at (1-D1) p + D1 (1-p)
        assert rep.achieved[2] == pytest.approx(0.275, abs=1e-12)
        assert rep.rate_gap < 1e-9

    def test_semantic_copies_observation_repro(self):
        ch = build_correlated_binary_channel(P, 0.25, 0.25, 0.05, 0.1, 0.45)
        pair = ch.joint.marginalize((X1_HAT, S_HAT)).probs
        assert pair[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert pair[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_role_switch_binds_semantic(self):
        src, d1, d2, ds_mod = hamming_tables()
        # transformed semantic target 0.02 < observation target 0.2
        ch = build_correlated_binary_channel(P, 0.25, 0.25, 0.2, 0.1, 0.26)
        assert ch.role_switched
        assert ch.effective_d1 == pytest.approx(0.02, abs=1e-15)
        rep = verify_achievability(ch.joint, src, 0.0, d1=d1, d2=d2, ds_mod=ds_mod)
        assert rep.achieved[0] == pytest.approx(0.02, abs=1e-12)
        assert rep.achieved[2] == pytest.approx(0.26, abs=1e-12)

    def test_identity_channel_lossless(self):
        src, d1, d2, ds_mod = hamming_tables()
        ch = build_correlated_binary_channel(P, 0.25, 0.25, 0.0, 0.0, 0.25)
        expected = src.conditional_entropy((X1, X2), (Y,))
        rep = verify_achievability(ch.joint, src, expected, d1=d1, d2=d2, ds_mod=ds_mod)
        assert rep.achieved[0] == pytest.approx(0.0, abs=1e-15)
        assert rep.achieved[1] == pytest.approx(0.0, abs=1e-15)
        assert rep.rate_gap < 1e-9

    def test_xor_transform_round_trip(self):
        ch = build_correlated_binary_channel(P, 0.25, 0.25, 0.05, 0.1, 0.45)
        probs = ch.joint.probs
        z = np.zeros_like(probs)
        for idx in np.ndindex(probs.shape):
            x1, x2, y, h1, h2, hs = idx
            z[x1 ^ y, x2 ^ y, y, h1 ^ y, h2 ^ y, hs ^ y] = probs[idx]
        back = np.zeros_like(z)
        for idx in np.ndindex(z.shape):
            z1, z2, y, g1, g2, gs = idx
            back[z1 ^ y, z2 ^ y, y, g1 ^ y, g2 ^ y, gs ^ y] = z[idx]
        assert np.abs(back - probs).max() < 1e-14

    def test_side_info_markov_in_noise_coordinates(self):
        # y - (reproduction noise) - (source noise) must hold exactly
        ch = build_correlated_binary_channel(P, 0.25, 0.25, 0.05, 0.1, 0.45)
        probs = ch.joint.marginalize((X1, X2, Y, X1_HAT, X2_HAT)).probs
        z = np.zeros((2, 2, 2, 2, 2))
        for x1, x2, y, h1, h2 in np.ndindex(probs.shape):
            z[x1 ^ y, x2 ^ y, y, h1 ^ y, h2 ^ y] += probs[x1, x2, y, h1, h2]
        axes = tuple(
            Alphabet.binary(n) for n in ("z1", "z2", "yy", "zh1", "zh2")
        )
        zj = JointPMF(axes, z)
        leak = zj.conditional_mutual_information(("yy",), ("z1", "z2"), ("zh1", "zh2"))
        assert leak < 1e-12

    def test_outside_region_rejected(self):
        with pytest.raises(RegionError):
            build_correlated_binary_channel(P, 0.25, 0.25, 0.2, 0.1, 0.5)


class TestClassificationChannel:
    def test_side_info_table_frozen_value(self):
        ch = build_classification_channel(0.25, 8, 0.05)
        # odd reproduction value, side-info bit 0 (parity mismatch)
        assert ch.p_y_given_x1_hat[0, 0] == pytest.approx(0.234848484848485, abs=1e-12)

    def test_zero_distortion_reduces_to_crossover(self):
        ch = build_classification_channel(0.25, 8, 0.0)
        assert ch.p_y_given_x1_hat[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert ch.p_y_given_x1_hat[1, 0] == pytest.approx(0.75, abs=1e-15)

    def test_reproduction_marginal_uniform(self):
        ch = build_classification_channel(0.25, 8, 0.05)
        rep = ch.joint.marginalize((X1_HAT,)).probs
        assert np.allclose(rep, 1.0 / 8, atol=1e-12)

    def test_induced_side_info_structure(self):
        ch = build_classification_channel(0.25, 8, 0.05)
        pair = ch.joint.marginalize((X1, Y)).probs  # (8, 2)
        for i in range(8):
            par = parity_bit(i + 1)
            assert pair[i, par] == pytest.approx(0.75 / 8, abs=1e-12)
            assert pair[i, 1 - par] == pytest.approx(0.25 / 8, abs=1e-12)

    def test_markov_side_info_given_reproduction(self):
        ch = build_classification_channel(0.25, 8, 0.05)
        leak = ch.joint.conditional_mutual_information((Y,), (X1,), (X1_HAT,))
        assert leak < 1e-12

    def test_rate_matches_first_bracket(self):
        d1 = 0.05
        ch = build_classification_channel(0.25, 8, d1)
        declared = classification_source_marginal(0.25, 8)
        expected = (
            binary_entropy(0.25) + 2.0 - binary_entropy(d1) - d1 * math.log2(7)
        )
        d1_tab = DistortionMatrix.hamming(
            Alphabet.integers(X1, 8), Alphabet.integers(X1_HAT, 8)
        )
        rep = verify_achievability(ch.joint, declared, expected, d1=d1_tab)
        assert rep.marginal_residual < 1e-12
        assert rep.achieved[0] == pytest.approx(d1, abs=1e-12)
        assert rep.rate_gap < 1e-9

    def test_semantic_distortion_through_parity(self):
        # semantic reproduction is the parity of the reproduced integer
        p, d1 = 0.25, 0.05
        ch = build_classification_channel(0.25, 8, d1)
        from semrd.sources import parity_semantic_joint

        ds_mod = modified_distortion(
            parity_semantic_joint(p, 8),
            DistortionMatrix.hamming(Alphabet.binary("s"), Alphabet.binary(S_HAT)),
        )
        e_sem = ch.joint.expected_distortion(ds_mod, X1, S_HAT)
        t = 8 * d1 / (2 * 7)  # probability the reproduction flips parity
        assert e_sem == pytest.approx(p + t * (1 - 2 * p), abs=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 64])
    def test_parity_split_meets_the_targets_at_the_rate(self, n):
        # the semantic target bounds the parity flips: a = Ds0 below the
        # uniform channel's D1 n/(2(n-1)); the channel meets D1 and Ds exactly
        # and its information is the parity-split form's rate
        from semrd.sources import parity_semantic_joint

        p = 0.25
        d1 = 0.6 * classification_region_bound(0.25, n)
        a = 0.4 * d1 * n / (2 * (n - 1))
        ds = p + (1 - 2 * p) * a
        ch = build_classification_channel(0.25, n, d1, a)
        ds_mod = modified_distortion(
            parity_semantic_joint(p, n),
            DistortionMatrix.hamming(Alphabet.binary("s"), Alphabet.binary(S_HAT)),
        )
        d1_tab = DistortionMatrix.hamming(Alphabet.integers(X1, n), Alphabet.integers(X1_HAT, n))
        expected = rate_classification(p, 0.25, n, d1, 0.5, ds)
        rep = verify_achievability(
            ch.joint, classification_source_marginal(0.25, n), expected, d1=d1_tab, ds_mod=ds_mod
        )
        assert rep.marginal_residual < 1e-12
        assert rep.achieved[0] == pytest.approx(d1, abs=1e-12)
        assert rep.achieved[2] == pytest.approx(ds, abs=1e-12)
        assert rep.rate_gap < 1e-9
        # the binding semantic target costs rate over the slack one
        assert expected > rate_classification(p, 0.25, n, d1, 0.5, 0.5)

    def test_parity_flips_above_uniform_rejected(self):
        with pytest.raises(ProbabilityError, match="a must be"):
            build_classification_channel(0.25, 8, 0.05, 0.03)

    def test_bound_violation_rejected(self):
        with pytest.raises(RegionError):
            build_classification_channel(0.25, 8, 0.44)

    def test_bad_n(self):
        with pytest.raises(ProbabilityError):
            build_classification_channel(0.25, 7, 0.05)


class TestVerifyAchievability:
    def test_axis_mismatch(self):
        ch = build_classification_channel(0.25, 8, 0.05)
        wrong_source = correlated_source(0.25, 0.25)
        with pytest.raises(ProbabilityError):
            verify_achievability(ch.joint, wrong_source, 1.0)

    def test_non_finite_expected_rate(self):
        ch = build_classification_channel(0.25, 8, 0.05)
        declared = classification_source_marginal(0.25, 8)
        with pytest.raises(ProbabilityError):
            verify_achievability(ch.joint, declared, math.inf)
