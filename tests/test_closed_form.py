"""Closed-form evaluator tests.

Reference values were computed independently at 30-digit precision (mpmath)
from the defining entropy expressions and frozen here.
"""

import math

import numpy as np
import pytest

from semrd.closed_form import (
    classification_region_bound,
    conditional_binary_rd,
    correlated_expression,
    in_region_classification,
    in_region_correlated,
    rate_classification,
    rate_conditionally_independent,
    rate_correlated,
    semantic_binary_rd,
)
from semrd.errors import InfeasibleDistortionError, ProbabilityError, RegionError
from semrd.prob import BinarySourceSpec, binary_entropy, star
from semrd.semantic import ds0

HB_025 = 0.811278124459133
COND_RD_025_01 = 0.342282530869852  # h(0.25) - h(0.1)
SEM_RD_01_02 = 0.456435556800032  # 1 - h(0.125)
T2_EXAMPLE = 0.684565061739704  # 2 (h(0.25) - h(0.1))
T3_EXAMPLE = 0.867163698213028  # 2 h(0.25) - h(0.05) - h(0.1)
T4_EXAMPLE = 2.915517827651736  # h(0.25) + 2 - h(0.05) - 0.05 log2 7 + 1 - h(0.1)


class TestConditionalBinaryRd:
    def test_frozen_value(self):
        assert conditional_binary_rd(0.25, 0.1) == pytest.approx(COND_RD_025_01, abs=1e-12)

    def test_indicator_boundary(self):
        assert conditional_binary_rd(0.25, 0.25) == pytest.approx(0.0, abs=1e-15)

    def test_lossless_limit(self):
        assert conditional_binary_rd(0.3, 0.0) == pytest.approx(binary_entropy(0.3), abs=1e-15)

    def test_above_boundary_clamps(self):
        assert conditional_binary_rd(0.25, 0.3) == 0.0

    def test_negative_distortion(self):
        with pytest.raises(ProbabilityError):
            conditional_binary_rd(0.25, -0.01)

    def test_p0_domain(self):
        with pytest.raises(ProbabilityError):
            conditional_binary_rd(0.6, 0.1)

    def test_bool_rejected(self):
        # a flag is not a probability or a distortion, even though True == 1
        with pytest.raises(ProbabilityError, match="p0"):
            conditional_binary_rd(False, 0.1)
        with pytest.raises(ProbabilityError, match="D"):
            conditional_binary_rd(0.25, True)


class TestSemanticBinaryRd:
    def test_frozen_value(self):
        assert semantic_binary_rd(0.1, 0.2) == pytest.approx(SEM_RD_01_02, abs=1e-12)

    def test_floor_gives_one_bit(self):
        assert semantic_binary_rd(0.1, 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_upper_boundary(self):
        assert semantic_binary_rd(0.1, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert semantic_binary_rd(0.1, 0.7) == 0.0

    def test_below_floor_infeasible(self):
        with pytest.raises(InfeasibleDistortionError):
            semantic_binary_rd(0.1, 0.05)

    def test_strictly_above_direct_rate(self):
        # recovering the latent through the observation costs strictly more
        # than recovering a directly observed bit at the same distortion
        p = 0.1
        for d in np.linspace(p + 0.01, 0.49, 25):
            direct = 1.0 - binary_entropy(float(d))
            assert semantic_binary_rd(p, float(d)) > direct


class TestRateConditionallyIndependent:
    SPEC = BinarySourceSpec.conditionally_independent(0.25, 0.25, 0.25)

    def test_frozen_example(self):
        assert rate_conditionally_independent(self.SPEC, 0.1, 0.1, 0.5) == pytest.approx(
            T2_EXAMPLE, abs=1e-12
        )

    def test_lossless_corner(self):
        v = rate_conditionally_independent(self.SPEC, 0.0, 0.0, 0.25)
        assert v == pytest.approx(2 * HB_025, abs=1e-12)

    def test_both_indicators_off(self):
        assert rate_conditionally_independent(self.SPEC, 0.3, 0.3, 0.5) == 0.0

    def test_depends_on_pair_only_through_min(self):
        # swapping the roles of the two observation-level targets leaves the
        # rate unchanged when the smaller of the two is the same
        spec = self.SPEC
        a, b = 0.05, 0.15
        ds_for = lambda m: spec.p + m * (1 - 2 * spec.p)
        r1 = rate_conditionally_independent(spec, a, 0.1, ds_for(b))
        r2 = rate_conditionally_independent(spec, b, 0.1, ds_for(a))
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_missing_fields(self):
        with pytest.raises(ProbabilityError, match="missing"):
            rate_conditionally_independent(BinarySourceSpec(p=0.2), 0.1, 0.1, 0.3)

    def test_infeasible_semantic(self):
        with pytest.raises(InfeasibleDistortionError):
            rate_conditionally_independent(self.SPEC, 0.1, 0.1, 0.1)


class TestRegionCorrelated:
    SPEC = BinarySourceSpec.correlated(0.25, 0.25, 0.25)

    def test_example_inside(self):
        assert in_region_correlated(self.SPEC, 0.05, 0.1, 0.3)

    def test_d2_above_p1(self):
        spec = BinarySourceSpec.correlated(0.25, 0.25, 0.25)
        assert not in_region_correlated(spec, 0.05, 0.5, 0.3)

    def test_origin_corner(self):
        assert in_region_correlated(self.SPEC, 0.0, 0.0, 0.25)

    def test_min_cap(self):
        # both observation-level targets above p1 p2 leaves the region
        assert not in_region_correlated(self.SPEC, 0.1, 0.1, 0.4)


class TestRateCorrelated:
    SPEC = BinarySourceSpec.correlated(0.25, 0.25, 0.25)

    def test_frozen_example(self):
        assert rate_correlated(self.SPEC, 0.05, 0.1, 0.3) == pytest.approx(T3_EXAMPLE, abs=1e-12)

    def test_lossless_corner(self):
        assert rate_correlated(self.SPEC, 0.0, 0.0, 0.25) == pytest.approx(
            2 * HB_025, abs=1e-12
        )

    def test_semantic_target_selects_min(self):
        v = rate_correlated(self.SPEC, 0.2, 0.1, 0.26)
        expect = 2 * HB_025 - binary_entropy(0.02) - binary_entropy(0.1)
        assert v == pytest.approx(expect, abs=1e-12)
        assert ds0(0.26, 0.25) == pytest.approx(0.02, abs=1e-15)

    def test_region_error_routes_to_solver(self):
        with pytest.raises(RegionError, match="solver"):
            rate_correlated(self.SPEC, 0.05, 0.5, 0.3)

    def test_expression_has_no_region_check(self):
        # the rate on the region; the same expression, unchecked, outside it
        assert correlated_expression(self.SPEC, 0.05, 0.1, 0.3) == rate_correlated(
            self.SPEC, 0.05, 0.1, 0.3
        )
        assert correlated_expression(self.SPEC, 0.05, 0.5, 0.3) == pytest.approx(
            T3_EXAMPLE + binary_entropy(0.1) - 1.0, abs=1e-12
        )

    def test_separate_compression_never_cheaper(self):
        # separate encoding of the two parts (side info helping each alone)
        # costs at least the joint rate, with equality only at p1 = 0.5
        for p1 in (0.15, 0.25, 0.35, 0.5):
            for p2 in (0.1, 0.25, 0.4):
                spec = BinarySourceSpec.correlated(0.2, p1, p2)
                for d1, d2, ds in [(0.01, 0.05, 0.4), (0.02, 0.1, 0.3)]:
                    if not in_region_correlated(spec, d1, d2, ds):
                        continue
                    m = min(d1, ds0(ds, spec.p))
                    separate = (
                        binary_entropy(p2)
                        - binary_entropy(m)
                        + binary_entropy(star(p1, p2))
                        - binary_entropy(d2)
                    )
                    joint = rate_correlated(spec, d1, d2, ds)
                    if p1 == 0.5:
                        assert separate == pytest.approx(joint, abs=1e-12)
                    else:
                        assert separate > joint + 1e-12


class TestRegionClassification:
    def test_example_inside(self):
        assert in_region_classification(0.25, 0.25, 8, 0.05, 0.5, 0.3)
        assert classification_region_bound(0.25, 8) == pytest.approx(0.4375, abs=1e-15)

    def test_d2_above_half(self):
        assert not in_region_classification(0.25, 0.25, 8, 0.05, 0.6, 0.3)

    def test_min_above_bound(self):
        assert classification_region_bound(0.1, 4) == pytest.approx(0.15, abs=1e-15)
        assert not in_region_classification(0.25, 0.1, 4, 0.5, 0.3, 0.5)

    def test_bad_n(self):
        with pytest.raises(ProbabilityError):
            in_region_classification(0.25, 0.25, 7, 0.05, 0.1, 0.3)
        with pytest.raises(ProbabilityError):
            in_region_classification(0.25, 0.25, 2, 0.05, 0.1, 0.3)


class TestRateClassification:
    def test_frozen_example(self):
        assert rate_classification(0.25, 0.25, 8, 0.05, 0.1, 0.3) == pytest.approx(
            T4_EXAMPLE, abs=1e-12
        )

    def test_lossless_corner(self):
        v = rate_classification(0.25, 0.25, 8, 0.0, 0.0, 0.25)
        assert v == pytest.approx(HB_025 + 2.0 + 1.0, abs=1e-12)

    def test_background_bracket_vanishes_at_half(self):
        with_half = rate_classification(0.25, 0.25, 8, 0.05, 0.5, 0.3)
        alone = HB_025 + 2.0 - binary_entropy(0.05) - 0.05 * math.log2(7)
        assert with_half == pytest.approx(alone, abs=1e-12)

    def test_region_error(self):
        with pytest.raises(RegionError):
            rate_classification(0.25, 0.25, 8, 0.45, 0.1, 0.48)

    def test_nonnegative_on_observation_bound_subregion(self):
        # where the observation target is the smaller one, the expression is a
        # verified rate and must be nonnegative
        for d1 in np.linspace(0.0, 0.4375, 15):
            ds = 0.25 + 0.5 * float(d1) + 0.02
            if ds > 0.5:
                continue
            assert rate_classification(0.25, 0.25, 8, float(d1), 0.5, ds) >= 0.0
