"""Exact-value serialization: compact tokens, JSON object shapes, shorthand
acceptance, and strictness about unknown keys."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kscolor.coloring import ProjectionRep, TruthValue
from kscolor.errors import InvalidInputError, ResourceLimitError
from kscolor.fields import GaussianRational, QuadComplex, QuadRational
from kscolor.linalg import Frame, GMatrix, GVector, QuadHermitian
from kscolor.povm import PovmDecomposition, PovmElement
from kscolor.serialize import (
    format_fraction,
    format_quad_token,
    frame_from_obj,
    frame_to_obj,
    gaussian_from_obj,
    gaussian_to_obj,
    gmatrix_from_obj,
    gmatrix_to_obj,
    parse_fraction,
    parse_quad_token,
    povm_from_obj,
    povm_to_obj,
    projection_rep_from_obj,
    projection_rep_to_obj,
    qcomplex_from_obj,
    qcomplex_to_obj,
    quad_from_obj,
    quad_to_obj,
    quadherm_from_obj,
    quadherm_to_obj,
    truth_to_str,
    truths_to_obj,
    vector_from_obj,
    vector_from_reals_obj,
    vector_to_obj,
)

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
)


class TestFractionText:
    def test_roundtrip_examples(self):
        for s in ("0", "1", "-1", "1/3", "-22/7", "1393/985"):
            assert format_fraction(parse_fraction(s)) == s

    def test_accepts_int(self):
        assert parse_fraction(7) == Fraction(7)

    def test_rejects_bool_and_junk(self):
        for bad in (True, False, "x", "1/0", None, 1.5):
            with pytest.raises(InvalidInputError):
                parse_fraction(bad)

    def test_decimal_exponent_is_bounded(self):
        assert parse_fraction("1e-100000") == Fraction(1, 10**100000)
        assert parse_fraction("1e+0000000000000002") == 100
        for bad in ("1e-100001", "1E100001", "2.5e-1_000_000", "1e" + "9" * 5000):
            with pytest.raises(InvalidInputError, match="exponent"):
                parse_fraction(bad)

    def test_too_many_digits_is_a_resource_limit(self):
        # CPython refuses int-to-str conversions of more than 4300 digits
        tiny = Fraction(1, 10**5000)
        with pytest.raises(ResourceLimitError):
            format_fraction(tiny)
        with pytest.raises(ResourceLimitError):
            quad_to_obj(QuadRational(0, tiny))


class TestQuadTokens:
    CASES = {
        "3": QuadRational(3),
        "-1/2": QuadRational(Fraction(-1, 2)),
        "s2": QuadRational(0, 1),
        "-s2": QuadRational(0, -1),
        "3/4s2": QuadRational(0, Fraction(3, 4)),
        "1+s2": QuadRational(1, 1),
        "1/2-1/3s2": QuadRational(Fraction(1, 2), Fraction(-1, 3)),
    }

    def test_parse_examples(self):
        for token, value in self.CASES.items():
            assert parse_quad_token(token) == value

    def test_format_examples(self):
        for token, value in self.CASES.items():
            assert format_quad_token(value) == token

    def test_whitespace_tolerated(self):
        assert parse_quad_token(" 1/2-1/3s2 ") == self.CASES["1/2-1/3s2"]

    def test_rejects_junk(self):
        for bad in ("", "s3", "1.5", "s2s2", "1+", "++s2", "1 + s2"):
            with pytest.raises(InvalidInputError):
                parse_quad_token(bad)

    @given(fractions_st, fractions_st)
    def test_roundtrip_property(self, a, b):
        q = QuadRational(a, b)
        assert parse_quad_token(format_quad_token(q)) == q

    @given(fractions_st, st.sampled_from([0, 1, -1, 2, Fraction(-1, 3)]))
    def test_str_is_the_token(self, a, b):
        for q in (QuadRational(a, b), QuadRational(0, b)):
            assert str(q) == format_quad_token(q)
            assert parse_quad_token(str(q)) == q


class TestScalarObjects:
    def test_quad_roundtrip(self):
        q = QuadRational(Fraction(1, 2), Fraction(-1, 3))
        obj = quad_to_obj(q)
        assert obj == {"rat": "1/2", "sqrt2": "-1/3"}
        assert quad_from_obj(obj) == q

    def test_quad_shorthand(self):
        assert quad_from_obj("1/2-1/3s2") == QuadRational(
            Fraction(1, 2), Fraction(-1, 3)
        )
        assert quad_from_obj("2/5") == QuadRational(Fraction(2, 5))
        assert quad_from_obj(4) == QuadRational(4)
        assert quad_from_obj({"rat": "1/2"}) == QuadRational(Fraction(1, 2))
        assert quad_from_obj({"sqrt2": 1}) == QuadRational(0, 1)

    def test_quad_rejects_unknown_keys_and_bool(self):
        with pytest.raises(InvalidInputError):
            quad_from_obj({"rat": "1", "bogus": "2"})
        with pytest.raises(InvalidInputError):
            quad_from_obj(True)

    def test_gaussian_roundtrip(self):
        z = GaussianRational(Fraction(1, 3), Fraction(-2, 5))
        obj = gaussian_to_obj(z)
        assert obj == {"re": "1/3", "im": "-2/5"}
        assert gaussian_from_obj(obj) == z

    def test_gaussian_shorthand(self):
        assert gaussian_from_obj("3/7") == GaussianRational(Fraction(3, 7))
        assert gaussian_from_obj(2) == GaussianRational(2)
        assert gaussian_from_obj({"im": "1/2"}) == GaussianRational(
            0, Fraction(1, 2)
        )

    def test_gaussian_rejects_unknown_keys(self):
        with pytest.raises(InvalidInputError):
            gaussian_from_obj({"re": "1", "rat": "1"})

    def test_qcomplex_roundtrip(self):
        z = QuadComplex(
            QuadRational(Fraction(1, 2), Fraction(1, 3)),
            QuadRational(0, Fraction(-1, 4)),
        )
        obj = qcomplex_to_obj(z)
        assert obj == {
            "re": {"rat": "1/2", "sqrt2": "1/3"},
            "im": {"rat": "0", "sqrt2": "-1/4"},
        }
        assert qcomplex_from_obj(obj) == z

    def test_qcomplex_shorthand(self):
        assert qcomplex_from_obj("1/2-1/3s2") == QuadComplex(
            QuadRational(Fraction(1, 2), Fraction(-1, 3))
        )
        assert qcomplex_from_obj({"re": "s2"}) == QuadComplex(QuadRational(0, 1))

    def test_qcomplex_rejects_unknown_keys(self):
        with pytest.raises(InvalidInputError):
            qcomplex_from_obj({"re": "1", "imag": "0"})


def gvec(*reals):
    return GVector.from_reals([Fraction(x) for x in reals])


class TestCompositeObjects:
    def test_vector_roundtrip(self):
        v = gvec("1/3", "1/2", "1/2", "1/2", "1/2", "1/2")
        assert vector_from_obj(vector_to_obj(v)) == v

    def test_vector_from_reals(self):
        v = vector_from_reals_obj(["1/3", "1/2", "1/2", "1/2", "1/2", "1/2"])
        assert v == gvec("1/3", "1/2", "1/2", "1/2", "1/2", "1/2")
        with pytest.raises(InvalidInputError):
            vector_from_reals_obj(["1", "2", "3"])  # odd length
        with pytest.raises(InvalidInputError):
            vector_from_reals_obj("not-a-list")

    def test_frame_roundtrip(self):
        f = Frame([gvec(1, 0, 0, 0, 0, 0), gvec(0, 0, 1, 0, 0, 0),
                   gvec(0, 0, 0, 0, 1, 0)])
        obj = frame_to_obj(f)
        assert obj["kind"] == "frame"
        assert obj["dimension"] == 3
        assert frame_from_obj(obj) == f

    def test_frame_requires_kind(self):
        with pytest.raises(InvalidInputError):
            frame_from_obj({"legs": []})

    @pytest.mark.parametrize("dimension", [2, 4, "2", "03", "three", 3.0, True, None])
    def test_frame_dimension_must_match(self, dimension):
        f = Frame([gvec(1, 0, 0, 0, 0, 0), gvec(0, 0, 1, 0, 0, 0),
                   gvec(0, 0, 0, 0, 1, 0)])
        assert frame_from_obj(dict(frame_to_obj(f), dimension="3")) == f
        with pytest.raises(InvalidInputError, match="'dimension'"):
            frame_from_obj(dict(frame_to_obj(f), dimension=dimension))

    def test_frame_dimension_is_checked_against_legs(self):
        obj = {"kind": "frame", "dimension": 3,
               "legs": [vector_to_obj(gvec(1, 0, 0, 0)), vector_to_obj(gvec(0, 0, 1, 0))]}
        with pytest.raises(InvalidInputError, match="'dimension'"):
            frame_from_obj(obj)
        del obj["dimension"]
        assert frame_from_obj(obj).dimension == 2

    def test_gmatrix_roundtrip(self):
        m = GMatrix(
            [
                [GaussianRational(1), GaussianRational(0, Fraction(1, 2))],
                [GaussianRational(0, Fraction(-1, 2)), GaussianRational(Fraction(1, 3))],
            ]
        )
        assert gmatrix_from_obj(gmatrix_to_obj(m)) == m

    def test_quadherm_roundtrip(self):
        half_s2 = QuadComplex(QuadRational(0, Fraction(1, 2)))
        zero = QuadComplex(QuadRational(0))
        m = QuadHermitian(
            [[half_s2, zero, zero], [zero, zero, zero], [zero, zero, zero]]
        )
        assert quadherm_from_obj(quadherm_to_obj(m)) == m

    def test_povm_roundtrip(self):
        half_s2 = QuadComplex(QuadRational(0, Fraction(1, 2)))
        zero = QuadComplex(QuadRational(0))
        one = QuadComplex(QuadRational(1))
        slice_ = QuadHermitian(
            [[half_s2, zero, zero], [zero, zero, zero], [zero, zero, zero]]
        )
        rest = QuadHermitian(
            [
                [one - half_s2, zero, zero],
                [zero, one, zero],
                [zero, zero, one],
            ]
        )
        d = PovmDecomposition([PovmElement(slice_), PovmElement(rest)])
        obj = povm_to_obj(d)
        assert obj["kind"] == "povm"
        assert obj["dimension"] == 3
        assert len(obj["elements"]) == 2
        assert povm_from_obj(obj) == d

    @pytest.mark.parametrize("dimension", [2, "two", "2", 1.0, True, None])
    def test_povm_dimension_must_match(self, dimension):
        half_s2 = QuadComplex(QuadRational(0, Fraction(1, 2)))
        rest = QuadComplex(QuadRational(1, Fraction(-1, 2)))
        d = PovmDecomposition([PovmElement(QuadHermitian([[half_s2]])),
                               PovmElement(QuadHermitian([[rest]]))])
        obj = povm_to_obj(d)
        assert obj["dimension"] == 1
        assert povm_from_obj(obj) == d
        assert povm_from_obj(dict(obj, dimension="1")) == d
        with pytest.raises(InvalidInputError, match="'dimension'"):
            povm_from_obj(dict(obj, dimension=dimension))
        del obj["dimension"]
        assert povm_from_obj(obj) == d

    def test_povm_requires_kind_and_elements(self):
        with pytest.raises(InvalidInputError):
            povm_from_obj({"elements": []})
        with pytest.raises(InvalidInputError):
            povm_from_obj({"kind": "povm", "elements": "nope"})

    def test_projection_roundtrip(self):
        v = gvec("1/3", "1/2", "2/5", "1/5", "1/4", "2/7")
        rep = ProjectionRep(
            GMatrix(
                [
                    [v[i] * v[j].conjugate() for j in range(3)]
                    for i in range(3)
                ]
            )
        )
        obj = projection_rep_to_obj(rep)
        assert obj["kind"] == "projection"
        assert projection_rep_from_obj(obj) == rep
        # bare matrix form also accepted
        assert projection_rep_from_obj(obj["matrix"]) == rep

    def test_projection_rejects_wrong_kind(self):
        with pytest.raises(InvalidInputError):
            projection_rep_from_obj({"kind": "frame", "matrix": []})


class TestTruthText:
    def test_values(self):
        assert truth_to_str(TruthValue.TRUE) == "TRUE"
        assert truth_to_str(TruthValue.FALSE) == "FALSE"
        assert truths_to_obj([TruthValue.TRUE, TruthValue.FALSE]) == [
            "TRUE",
            "FALSE",
        ]
