"""Density constructions: nearest TRUE ray, suitable frames, FALSE rays,
with exact distance verification against the binary64 targets."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kscolor import density
from kscolor.cli import _interleave, _rng_orthonormal, _rng_unit_vector
from kscolor.coloring import TruthValue, classify_in_frame, classify_ray, truth_sum
from kscolor.density import (
    ApproxResult,
    _gaussian_point,
    _true_point,
    false_ray_near,
    nearest_true_ray,
    suitable_frame_near,
)
from kscolor.errors import DegenerateInputError, InvalidInputError
from kscolor.fields import GaussianRational, _coerce_eps, v3
from kscolor.linalg import (
    Frame,
    GVector,
    _cleared,
    _project_out,
    _ray_dist2,
    _round_div,
    gram_schmidt,
    inner_product,
    ray_dist2,
)

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


def reference_false_ray_near(target, eps) -> ApproxResult:
    """The route false_ray_near took before its closed forms: y completed by
    standard vectors through one Gram-Schmidt, and the witness as a second
    Gram-Schmidt of the TRUE point x, y and the rest of the completion."""
    coords = density._validate_real_target(target)
    eps = _coerce_eps(eps)
    n = len(coords) // 2
    scale = density._scale(eps, len(coords), 2)
    a = _cleared(coords)[0]
    y = _gaussian_point(a, scale)
    yx = y.cleared[0]
    skip = max(range(n), key=lambda j: yx[2 * j] ** 2 + yx[2 * j + 1] ** 2)
    fillers = [GVector([int(k == j) for k in range(n)]) for j in range(n) if j != skip]
    completion = gram_schmidt([y] + fillers)
    x = _true_point(completion[1].cleared[0], scale)
    frame = gram_schmidt([x, y] + list(completion[2:]))
    values = density._true_leg_first(frame)
    d2 = density._within(_ray_dist2(frame[1].cleared[0], a), eps, "FALSE ray")
    return ApproxResult(frame[1], d2, values[1], witness=frame)


def _false_ray_targets(rng, n):
    """Axis-aligned targets (each axis, times 1, -1, i or -i), the same
    targets moved by up to 1e-9 and by up to 1e-3, and two generic ones."""
    targets = []
    for j in range(n):
        axis = [0.0] * (2 * n)
        axis[2 * j : 2 * j + 2] = rng.choice(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))
        targets.append(axis)
        for tilt in (1e-9, 1e-3):
            targets.append([c + rng.uniform(-tilt, tilt) for c in axis])
    targets += [[rng.uniform(-1, 1) for _ in range(2 * n)] for _ in range(2)]
    return targets


class TestFalseRayClosedForm:
    """false_ray_near builds the completion and the witness in closed form;
    they equal the two Gram-Schmidt runs they replaced."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_two_gram_schmidt_route(self, n):
        rng = random.Random(f"false-ray-{n}")
        for target in _false_ray_targets(rng, n):
            # 10**6 takes the lattice scale down to M = 1
            for eps in (Fraction(1, 2), Fraction(1, 100), Fraction(1, 10**6), Fraction(1, 10**12),
                        Fraction(10**6)):
                want = reference_false_ray_near(target, eps)
                got = false_ray_near(target, eps)
                assert got.object == want.object
                assert got.witness == want.witness
                assert got.certificate is want.certificate
                assert got == want and repr(got) == repr(want)

    def test_makes_no_gram_schmidt_call(self, monkeypatch):
        def refuse(vectors):
            raise AssertionError("false_ray_near called gram_schmidt")

        targets = (E1, [0.3, -0.44, 0.12, 0.61, -0.25, 0.37])
        want = [false_ray_near(t, Fraction(1, 10**6)) for t in targets]
        monkeypatch.setattr(density, "gram_schmidt", refuse)
        assert [false_ray_near(t, Fraction(1, 10**6)) for t in targets] == want
        with pytest.raises(AssertionError, match="called gram_schmidt"):
            suitable_frame_near(BASIS3, Fraction(1, 100))

    def test_zero_leg_refused_as_gram_schmidt_refuses_it(self):
        with pytest.raises(DegenerateInputError, match="linearly dependent"):
            _project_out([1, 2, 0, -1], [-2, 1, 1, 0])  # i times the first
        assert _project_out([1, 0, 0, 0], [1, 0, 1, 0]) == ([0, 0, 1, 0], 1)


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


# Test-only references: the Fraction lattice rounding that _gaussian_point and
# _true_point replaced.


def reference_scaled(coords, scale):
    span = max(abs(c) for c in coords)
    return [c * scale / span for c in coords]


def reference_gaussian_point(coords, scale):
    return GVector.from_reals([round(u) for u in reference_scaled(coords, scale)])


def reference_true_point(coords, scale):
    first, *rest = reference_scaled(coords, scale)
    x1 = round(first)
    if x1 % 3 == 0:
        x1 += 1 if first >= x1 else -1
    xs = [x1]
    for u in rest:
        xi = 3 * round(u / 3)
        xs.append(xi if xi else (3 if u >= 0 else -3))
    return GVector.from_reals([Fraction(xi, 3 * scale) for xi in xs])


def reference_scale(eps, m, factor):
    scale = math.isqrt(math.ceil(18 * m * factor * factor / (eps * eps)) - 1) + 1
    return scale + (scale % 3 == 0)


def _doubled_coordinate(rng, scale):
    """2u for one scaled coordinate u = c*M/max|c|, drawn to hit the
    rounding's edge cases."""
    kind = rng.randrange(7)
    k = rng.randint(-(scale // 3) - 1, scale // 3 + 1)
    if kind == 0:
        t = 2 * rng.randint(-scale, scale) + 1  # u = j + 1/2
    elif kind == 1:
        t = 6 * k + 3  # u/3 = k + 1/2, a tie of the TRUE coordinates
    elif kind == 2:
        t = 0  # a zero coordinate: the +3 filler
    elif kind == 3:
        t = rng.choice([-2, -1, 1, 2])  # rounds to 0: the filler's sign
    elif kind == 4:
        t = 6 * k + rng.choice([-1, 0, 1])  # u at or beside a multiple of 3
    elif kind == 5:
        # just off a tie of either rounding
        off = Fraction(rng.choice([-1, 1]), rng.randint(2, 10**9))
        t = rng.choice([6 * k + 3, 2 * k + 1]) + off
    else:
        t = rng.randint(-2 * scale, 2 * scale)
    return max(-2 * scale, min(2 * scale, t))


def _rounding_case(rng):
    """Exact coordinates, times a random positive factor, and a scale M under
    which the coordinates become the drawn u_i = t_i / 2."""
    m = 2 * rng.randint(2, 5)
    dyadic = rng.random() < 0.4
    scale = 2 ** rng.randint(0, 30) if dyadic else rng.choice(
        [rng.randint(1, 60), rng.randint(1, 10**6)])
    ts = [_doubled_coordinate(rng, scale) for _ in range(m)]
    ts[rng.randrange(m)] = rng.choice([-2, 2]) * scale  # the largest |u| is M
    den = 2 ** rng.randint(0, 60) if dyadic else rng.choice([1, 3, rng.randint(1, 10**9)])
    factor = Fraction(rng.choice([1, rng.randint(1, 10**6)]), den)
    return [factor * Fraction(t) / (2 * scale) for t in ts], scale


class TestIntegerRounding:
    """_gaussian_point and _true_point round on cleared integers; they must
    give the Fraction references' points, ties to even included."""

    def test_round_div_is_round_of_fraction(self):
        for q in range(1, 13):
            for p in range(-40, 41):
                assert _round_div(p, q) == round(Fraction(p, q)), (p, q)

    @seed(20261021)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, s):
        rng = random.Random(s)
        coords, scale = _rounding_case(rng)
        floats = [float(c) for c in coords]
        if any(Fraction(f) != c for f, c in zip(floats, coords)):
            # generic binary64 coordinates, with zeros and both signs
            floats = [rng.choice([0.0, rng.uniform(-1, 1) * 10.0 ** rng.randint(-9, 9)])
                      for _ in coords]
            floats[0] = floats[0] or 0.5
        # binary64 input is read exactly
        for exact, given_coords in ((coords, coords), ([Fraction(f) for f in floats], floats)):
            a = _cleared(given_coords)[0]
            assert _gaussian_point(a, scale) == reference_gaussian_point(exact, scale)
            assert _true_point(a, scale) == reference_true_point(exact, scale)

    @pytest.mark.parametrize("first", [Fraction(5, 2), Fraction(-5, 2), Fraction(7, 2),
                                       Fraction(-7, 2), Fraction(3), Fraction(-3)])
    def test_ties_and_bump_of_first_coordinate(self, first):
        # M = 4 and max|c| = 4, so u = c: ties at +-3/2 (u/3 = +-1/2) and at
        # first = +-5/2, +-7/2, fillers of both signs, and -4 (u/3 = -4/3)
        coords = [first, Fraction(7, 2), Fraction(-3, 2), Fraction(0),
                  Fraction(3, 2), Fraction(-1, 2), Fraction(-4), Fraction(1, 2)]
        a = _cleared(coords)[0]
        assert _true_point(a, 4) == reference_true_point(coords, 4)
        assert _gaussian_point(a, 4) == reference_gaussian_point(coords, 4)


    @seed(20261022)
    @given(
        st.fractions(min_value=Fraction(1, 10**12), max_value=2, max_denominator=10**12)
        .filter(lambda e: e > 0),
        st.integers(min_value=4, max_value=128),
        st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_matches_reference(self, eps, m, factor):
        assert density._scale(eps, m, factor) == reference_scale(eps, m, factor)

    def test_small_integer_targets_exhaustively(self):
        # every nonzero target in {-3..3}^4 at small scales: the integers
        # themselves are tiny, so no slack hides an off-by-one
        for scale in (1, 2, 4, 5):
            for coords in itertools.product(range(-3, 4), repeat=4):
                if any(coords):
                    exact = [Fraction(c) for c in coords]
                    a = list(coords)
                    assert _gaussian_point(a, scale) == reference_gaussian_point(exact, scale)
                    assert _true_point(a, scale) == reference_true_point(exact, scale)


class TestPassThroughEarlyExit:
    def test_generic_target_rationalizes_one_coordinate(self, monkeypatch):
        calls = []

        def counting(x, max_den):
            calls.append(x)
            return rationalize(x, max_den)

        rationalize = density.rationalize
        monkeypatch.setattr(density, "rationalize", counting)
        # a short decimal such as 0.42 = 21/50 in binary64 would round-trip
        res = nearest_true_ray([math.sin(k + 1) for k in range(6)], Fraction(1, 100))
        assert len(calls) == 1 and res.achieved_dist2 > 0
        calls.clear()
        res = nearest_true_ray([1 / 3, 0.5, 0.5, 0.5, 0.5, 0.5], Fraction(1, 100))
        assert len(calls) == 6 and res.achieved_dist2 == 0

    def test_late_mismatch_is_not_passed_through(self):
        # the binary64 image of a TRUE vector but for its last coordinate
        target = [1 / 3, 0.5, 0.5, 0.5, 0.5, 0.1234567891234567]
        res = nearest_true_ray(target, Fraction(1, 100))
        assert res.achieved_dist2 > 0
        assert classify_ray(res.object) is TruthValue.TRUE
        assert all(c.denominator % 3 != 0 for c in res.object.real_coordinates()[1:])


# Seeded targets in dimensions 16 and 32, drawn as `gen-frame --seed n` and
# `gen-ray --seed 1000+n` draw them.  The sha256 of repr(result) was recorded
# before the lattice rounding moved to integers and Gram-Schmidt gained its
# content removal.  Each time bound is at least 3x the time measured on a
# 2-vCPU VM with CPython 3.11.7: frames 0.02-0.035 s (n = 16) and
# 0.37-0.55 s (n = 32), FALSE rays 0.012-0.022 s and 0.08-0.15 s.  Without
# the content removal the n = 32 frame takes 2.0-3.3 s there, past its bound.
# The n = 64 digests were recorded before Gram-Schmidt divided exactly by
# the Gram determinants and false_ray_near built its frames in closed form,
# when the frame took 15-16.3 s and the FALSE ray 1.06-1.15 s; after, on the
# same VM, they take 5.3-10.2 s and 0.10-0.13 s.
HIGH_DIM_EPS = Fraction(1, 10**4)
HIGH_DIM = {
    16: {
        "frame": ("1751ce6f9da455d4e064af959466208ebd2fefa3b78719dce89243b65455db87", 0.5),
        "false": ("408a4353ae02118eca91b9b4b70c1ab2e3b1164acc305dab91f620c22230ba70", 0.5),
    },
    32: {
        "frame": ("851294b6ef2d5e7423da591921a046b8d3f43436cc3d41286dd0784fbf01d7a2", 1.5),
        "false": ("eb0be2576abc8dd1e0c1d8f410e94e674cd883f9ec69fd24fb58a3d47b83d08a", 0.75),
    },
    64: {
        "frame": ("c04c76d1cfad819ef7654002e39f5be3488680f794c931adb11aaa2b4e476f1a", 30.0),
        "false": ("ab2f8386720c6420da3b6ff293fe1b43f043d08c019fc811457b22008ecde00e", 0.5),
    },
}


def _timed(fn, *args):
    start = time.perf_counter()
    res = fn(*args)
    return res, time.perf_counter() - start


def assert_exactly_orthogonal(frame):
    # GaussianRational inner products take seconds at n = 32, so each leg is
    # scaled to Gaussian integers (re, im) here, independently of the
    # library's clearing, and sum(conj(a) * b) is taken on them
    legs = []
    for leg in frame:
        lcm = math.lcm(*(x.denominator for x in leg.real_coordinates()))
        legs.append([(int(e.re * lcm), int(e.im * lcm)) for e in leg])
    for i, a in enumerate(legs):
        for b in legs[i + 1:]:
            re = sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(a, b))
            im = sum(ar * bi - ai * br for (ar, ai), (br, bi) in zip(a, b))
            assert (re, im) == (0, 0)


class TestHighDimension:
    @pytest.mark.parametrize("n", sorted(HIGH_DIM))
    def test_suitable_frame(self, n):
        digest, bound = HIGH_DIM[n]["frame"]
        targets = [_interleave(v) for v in _rng_orthonormal(random.Random(n), n)]
        res, elapsed = _timed(suitable_frame_near, targets, HIGH_DIM_EPS)
        assert hashlib.sha256(repr(res).encode()).hexdigest() == digest
        assert_exactly_orthogonal(res.object)
        assert classify_ray(res.object[0]) is TruthValue.TRUE
        assert res.certificate[0] is TruthValue.TRUE
        assert res.certificate.count(TruthValue.TRUE) == 1
        for leg, t in zip(res.object, targets):
            assert ray_dist2(leg, exact_target(t)) <= res.achieved_dist2 <= HIGH_DIM_EPS ** 2
        assert elapsed < bound

    @pytest.mark.parametrize("n", sorted(HIGH_DIM))
    def test_false_ray(self, n):
        digest, bound = HIGH_DIM[n]["false"]
        target = _rng_unit_vector(random.Random(1000 + n), n)
        res, elapsed = _timed(false_ray_near, target, HIGH_DIM_EPS)
        assert hashlib.sha256(repr(res).encode()).hexdigest() == digest
        witness = res.witness
        assert_exactly_orthogonal(witness)
        assert classify_ray(witness[0]) is TruthValue.TRUE
        assert witness[1] == res.object
        assert res.certificate is not TruthValue.TRUE
        assert classify_ray(res.object) is not TruthValue.TRUE
        assert res.achieved_dist2 == ray_dist2(res.object, exact_target(target))
        assert res.achieved_dist2 <= HIGH_DIM_EPS ** 2
        assert elapsed < bound
