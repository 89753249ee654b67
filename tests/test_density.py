"""Density constructions: nearest TRUE ray, suitable frames, FALSE rays,
with exact distance verification against the binary64 targets."""

import math
from fractions import Fraction

import pytest

from kscolor.coloring import TruthValue, classify_in_frame, classify_ray, truth_sum
from kscolor.density import (
    ApproxResult,
    false_ray_near,
    nearest_true_ray,
    suitable_frame_near,
)
from kscolor.errors import InvalidInputError
from kscolor.fields import GaussianRational, v3
from kscolor.linalg import Frame, GVector, inner_product, ray_dist2

E1 = [1.0, 0, 0, 0, 0, 0]
BASIS3 = [
    [1.0, 0, 0, 0, 0, 0],
    [0, 0, 1.0, 0, 0, 0],
    [0, 0, 0, 0, 1.0, 0],
]


C, S = math.cos(0.3), math.sin(0.3)
ROTATED3 = [
    [C, 0, S, 0, 0, 0],
    [-S, 0, C, 0, 0, 0],
    [0, 0, 0, 0, 1.0, 0],
]
EXTREME_TARGETS = [[1e308, 1e308, 1.0, 1.0], [1e-320, 0.0, 0.0, 0.0]]


def exact_target(floats):
    return GVector.from_reals([Fraction(x) for x in floats])


class TestNearestTrueRay:
    def test_uniform_target(self):
        s = 1 / math.sqrt(6)
        res = nearest_true_ray([s] * 6, Fraction(1, 100))
        assert classify_ray(res.object) is TruthValue.TRUE
        coords = res.object.real_coordinates()
        assert coords[0].denominator % 3 == 0
        assert all(c.denominator % 3 != 0 for c in coords[1:])
        assert res.achieved_dist2 <= Fraction(1, 100) ** 2

    def test_true_rational_target_returned_unchanged(self):
        target = [1 / 3, 0.5, 0.5, 0.5, 0.5, 0.5]
        res = nearest_true_ray(target, Fraction(1, 100))
        assert res.achieved_dist2 == 0
        assert list(res.object.real_coordinates()) == [
            Fraction(1, 3), Fraction(1, 2), Fraction(1, 2),
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
        ]

    def test_axis_target_exercises_zero_replacement(self):
        res = nearest_true_ray(E1, Fraction(1, 1000))
        assert classify_ray(res.object) is TruthValue.TRUE
        assert all(c != 0 for c in res.object.real_coordinates())
        assert res.achieved_dist2 <= Fraction(1, 1000) ** 2

    def test_distance_is_exact_against_rationalized_target(self):
        res = nearest_true_ray([0.7, 0.1, 0.5, 0.2, 0.3, 0.35], Fraction(1, 10**4))
        assert isinstance(res.achieved_dist2, Fraction)
        assert res.achieved_dist2 <= Fraction(1, 10**8)

    def test_monotone_refinement(self):
        target = [0.42, -0.17, 0.55, 0.31, -0.28, 0.49]
        eps = Fraction(1, 100)
        for _ in range(6):
            res = nearest_true_ray(target, eps)
            assert res.achieved_dist2 <= eps * eps
            eps = eps / 2

    def test_zero_target_rejected(self):
        with pytest.raises(InvalidInputError):
            nearest_true_ray([0.0] * 6, Fraction(1, 100))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(InvalidInputError):
            nearest_true_ray(E1, 0)

    def test_dimension_4_and_5(self):
        for n in (4, 5):
            target = [math.sin(k + 1) for k in range(2 * n)]
            res = nearest_true_ray(target, Fraction(1, 10**6))
            assert classify_ray(res.object) is TruthValue.TRUE
            assert res.achieved_dist2 <= Fraction(1, 10**12)


class TestSuitableFrameNear:
    def test_standard_basis(self):
        res = suitable_frame_near(BASIS3, Fraction(1, 100))
        frame = res.object
        values = res.certificate
        assert isinstance(frame, Frame)
        assert values[0] is TruthValue.TRUE
        assert values.count(TruthValue.TRUE) == 1
        assert truth_sum(frame) == 1
        assert res.achieved_dist2 <= Fraction(1, 100) ** 2

    def test_exact_orthogonality_of_output(self):
        res = suitable_frame_near(BASIS3, Fraction(1, 10**4))
        frame = res.object
        for i in range(3):
            for j in range(i + 1, 3):
                assert inner_product(frame[i], frame[j]) == GaussianRational(0)

    def test_distance_per_leg_verified_exactly(self):
        res = suitable_frame_near(BASIS3, Fraction(1, 10**4))
        eps2 = Fraction(1, 10**8)
        for leg, target in zip(res.object, BASIS3):
            assert ray_dist2(leg, exact_target(target)) <= eps2

    def test_reuses_own_output_as_target(self):
        # feeding a suitable frame's normalized legs back in succeeds and
        # still yields exactly one TRUE leg
        first = suitable_frame_near(BASIS3, Fraction(1, 100))
        legs = []
        for leg in first.object:
            n2 = sum(Fraction(c) ** 2 for c in leg.real_coordinates())
            scale = math.sqrt(float(n2))
            legs.append([float(c) / scale for c in leg.real_coordinates()])
        second = suitable_frame_near(legs, Fraction(1, 100))
        assert second.certificate.count(TruthValue.TRUE) == 1
        assert truth_sum(second.object) == 1

    def test_rejects_non_orthonormal_targets(self):
        bad = [
            [1.0, 0, 0, 0, 0, 0],
            [0.9, 0, 0.1, 0, 0, 0],
            [0, 0, 0, 0, 1.0, 0],
        ]
        with pytest.raises(InvalidInputError):
            suitable_frame_near(bad, Fraction(1, 100))

    def test_dimension_4(self):
        basis4 = [[0.0] * 8 for _ in range(4)]
        for k in range(4):
            basis4[k][2 * k] = 1.0
        res = suitable_frame_near(basis4, Fraction(1, 10**4))
        assert truth_sum(res.object) == 1
        assert res.achieved_dist2 <= Fraction(1, 10**8)


class TestFalseRayNear:
    def test_true_target_gets_false_neighbor(self):
        # near any TRUE vector there are FALSE rays: the construction
        # re-orthogonalizes the target against a fresh TRUE leg
        target = [1 / 3, 0.5, 0.5, 0.5, 0.5, 0.5]
        res = false_ray_near(target, Fraction(1, 1000))
        assert res.certificate is TruthValue.FALSE
        assert classify_ray(res.object) is not TruthValue.TRUE
        assert res.achieved_dist2 <= Fraction(1, 1000) ** 2

    def test_axis_target(self):
        res = false_ray_near(E1, Fraction(1, 100))
        assert res.certificate is TruthValue.FALSE
        assert res.achieved_dist2 <= Fraction(1, 100) ** 2

    def test_witness_frame_is_suitable_and_contains_ray(self):
        res = false_ray_near(E1, Fraction(1, 100))
        witness = res.witness
        assert isinstance(witness, Frame)
        assert truth_sum(witness) == 1
        values = classify_in_frame(witness)
        assert values.count(TruthValue.TRUE) == 1
        assert any(leg == res.object for leg in witness)

    def test_witness_orthogonality_exact(self):
        res = false_ray_near([0.1, 0.4, -0.2, 0.6, 0.3, 0.2], Fraction(1, 1000))
        w = res.witness
        for i in range(3):
            for j in range(i + 1, 3):
                assert inner_product(w[i], w[j]) == GaussianRational(0)

    def test_epsilon_sweep(self):
        target = [0.3, -0.44, 0.12, 0.61, -0.25, 0.37]
        for eps in (Fraction(1, 100), Fraction(1, 10**4), Fraction(1, 10**6)):
            res = false_ray_near(target, eps)
            assert res.certificate is TruthValue.FALSE
            assert res.achieved_dist2 <= eps * eps


class TestExactCertificates:
    def test_certificate_is_distance_to_binary64_input(self):
        target = [0.42, -0.17, 0.55, 0.31, -0.28, 0.49]
        eps = Fraction(1, 10**4)
        for construct in (nearest_true_ray, false_ray_near):
            res = construct(target, eps)
            assert res.achieved_dist2 == ray_dist2(res.object, exact_target(target))
        res = suitable_frame_near(ROTATED3, eps)
        assert res.achieved_dist2 == max(
            ray_dist2(leg, exact_target(t)) for leg, t in zip(res.object, ROTATED3)
        )

    @pytest.mark.parametrize("target", EXTREME_TARGETS)
    def test_extreme_target_true_ray(self, target):
        eps = Fraction(1, 10**6)
        res = nearest_true_ray(target, eps)
        assert classify_ray(res.object) is TruthValue.TRUE
        assert ray_dist2(res.object, exact_target(target)) <= eps * eps

    @pytest.mark.parametrize("target", EXTREME_TARGETS)
    def test_extreme_target_false_ray(self, target):
        eps = Fraction(1, 10**6)
        res = false_ray_near(target, eps)
        assert res.certificate is TruthValue.FALSE
        assert classify_ray(res.object) is not TruthValue.TRUE
        assert truth_sum(res.witness) == 1
        assert ray_dist2(res.object, exact_target(target)) <= eps * eps
