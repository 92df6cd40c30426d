"""Unit and property tests for polynomials, interpolation, and BW decoding."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.field.poly as poly_module
from repro.errors import DecodingError, FieldError
from repro.field import (
    GF,
    SMALL_PRIME,
    Polynomial,
    berlekamp_welch,
    lagrange_coefficients_at_zero,
    lagrange_interpolate,
    robust_interpolate,
)

F = GF(SMALL_PRIME)

coeff_lists = st.lists(
    st.integers(min_value=0, max_value=SMALL_PRIME - 1), min_size=0, max_size=6
)


def poly_from(coeffs):
    return Polynomial.from_ints(F, coeffs)


class TestPolynomialBasics:
    def test_zero_polynomial_degree(self):
        assert Polynomial.zero(F).degree == -1
        assert Polynomial.zero(F).is_zero()

    def test_normalization_strips_trailing_zeros(self):
        p = Polynomial.from_ints(F, [1, 2, 0, 0])
        assert p.degree == 1

    def test_evaluation_horner(self):
        p = poly_from([1, 2, 3])  # 1 + 2x + 3x^2
        assert p(0) == F(1)
        assert p(1) == F(6)
        assert p(2) == F(1 + 4 + 12)

    def test_evaluate_many(self):
        p = poly_from([5])
        assert p.evaluate_many([1, 2, 3]) == [F(5)] * 3

    def test_random_constant_pins_secret(self):
        rng = random.Random(3)
        p = Polynomial.random(F, 3, rng, constant=F(42))
        assert p(0) == F(42)

    def test_mixed_field_rejected(self):
        other = Polynomial.from_ints(GF(7), [1])
        with pytest.raises(FieldError):
            poly_from([1]) + other

    def test_divmod_roundtrip(self):
        a = poly_from([1, 2, 3, 4])
        b = poly_from([2, 1])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_division_by_zero_rejected(self):
        with pytest.raises(FieldError):
            poly_from([1]).divmod(Polynomial.zero(F))


class TestPolynomialAlgebra:
    @given(coeff_lists, coeff_lists)
    def test_addition_commutative(self, a, b):
        assert poly_from(a) + poly_from(b) == poly_from(b) + poly_from(a)

    @given(coeff_lists, coeff_lists)
    def test_multiplication_commutative(self, a, b):
        assert poly_from(a) * poly_from(b) == poly_from(b) * poly_from(a)

    @given(coeff_lists, coeff_lists, st.integers(0, SMALL_PRIME - 1))
    def test_mul_evaluation_homomorphism(self, a, b, x):
        pa, pb = poly_from(a), poly_from(b)
        assert (pa * pb)(x) == pa(x) * pb(x)

    @given(coeff_lists, coeff_lists, st.integers(0, SMALL_PRIME - 1))
    def test_add_evaluation_homomorphism(self, a, b, x):
        pa, pb = poly_from(a), poly_from(b)
        assert (pa + pb)(x) == pa(x) + pb(x)

    @given(coeff_lists)
    def test_sub_self_is_zero(self, a):
        assert (poly_from(a) - poly_from(a)).is_zero()

    @given(coeff_lists, st.integers(0, SMALL_PRIME - 1))
    def test_scalar_multiplication(self, a, s):
        pa = poly_from(a)
        assert (pa * s)(1) == pa(1) * F(s)


class TestInterpolation:
    def test_exact_roundtrip(self):
        p = poly_from([3, 1, 4, 1])
        points = [(x, p(x)) for x in range(1, 5)]
        assert lagrange_interpolate(F, points) == p

    def test_duplicate_x_rejected(self):
        with pytest.raises(FieldError):
            lagrange_interpolate(F, [(1, 1), (1, 2)])

    @given(st.lists(st.integers(0, SMALL_PRIME - 1), min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_roundtrip_random(self, coeffs):
        p = poly_from(coeffs)
        deg = max(p.degree, 0)
        points = [(x, p(x)) for x in range(1, deg + 2)]
        assert lagrange_interpolate(F, points) == p

    @given(
        st.lists(st.integers(0, SMALL_PRIME - 1), min_size=1, max_size=7,
                 unique=True),
        st.lists(st.integers(0, SMALL_PRIME - 1), min_size=7, max_size=7),
    )
    @settings(max_examples=60)
    def test_passes_through_arbitrary_points(self, xs, ys):
        points = [(F(x), y) for x, y in zip(xs, ys)]
        p = lagrange_interpolate(F, points)
        assert p.degree < len(points)
        assert all(p(x) == F(y) for x, y in points)

    def test_coefficients_at_zero(self):
        p = poly_from([7, 3, 2])
        xs = [1, 2, 3]
        lambdas = lagrange_coefficients_at_zero(F, xs)
        total = F(0)
        for lam, x in zip(lambdas, xs):
            total = total + lam * p(x)
        assert total == p(0)


class TestBerlekampWelch:
    def _noisy_points(self, p, n_points, corrupt_at, rng):
        points = []
        for x in range(1, n_points + 1):
            y = p(x)
            if x in corrupt_at:
                y = y + F(rng.randrange(1, SMALL_PRIME))
            points.append((x, y))
        return points

    def test_no_errors_fast_path(self):
        p = poly_from([1, 2, 3])
        points = [(x, p(x)) for x in range(1, 8)]
        assert berlekamp_welch(F, points, degree=2, max_errors=2) == p

    def test_corrects_single_error(self):
        rng = random.Random(0)
        p = poly_from([9, 8, 7])
        points = self._noisy_points(p, 7, {3}, rng)
        assert berlekamp_welch(F, points, degree=2, max_errors=2) == p

    def test_corrects_max_errors(self):
        rng = random.Random(1)
        p = poly_from([5, 4, 3])  # degree 2, e=2 -> need 7 points
        points = self._noisy_points(p, 7, {2, 5}, rng)
        assert berlekamp_welch(F, points, degree=2, max_errors=2) == p

    def test_insufficient_points_rejected(self):
        p = poly_from([1, 1, 1])
        points = [(x, p(x)) for x in range(1, 6)]
        with pytest.raises(DecodingError):
            berlekamp_welch(F, points, degree=2, max_errors=2)

    def test_too_many_errors_detected(self):
        rng = random.Random(2)
        p = poly_from([1, 2])
        # degree 1, 5 points supports 2 errors; corrupt 3 in a structured way
        points = []
        bad_poly = poly_from([7, 9])
        for x in range(1, 6):
            src = bad_poly if x <= 3 else p
            points.append((x, src(x)))
        result_ok = True
        try:
            decoded = berlekamp_welch(F, points, degree=1, max_errors=2)
            # If decoding "succeeds", it must have found the majority poly.
            result_ok = decoded in (p, bad_poly)
        except DecodingError:
            pass
        assert result_ok

    @given(
        st.lists(st.integers(0, SMALL_PRIME - 1), min_size=3, max_size=3),
        st.sets(st.integers(1, 9), max_size=2),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40)
    def test_property_decode_with_errors(self, coeffs, corrupt, seed):
        rng = random.Random(seed)
        p = poly_from(coeffs)
        points = self._noisy_points(p, 9, corrupt, rng)
        assert berlekamp_welch(F, points, degree=2, max_errors=2) == p


class TestRobustInterpolate:
    def test_waits_for_enough_points(self, monkeypatch):
        p = poly_from([2, 3])
        pts = [(1, p(1)), (2, p(2))]

        def decoder(*args):
            raise AssertionError("decoded with too few points")

        # Below deg+t+1 points no candidate can pass the agreement check,
        # so the decoder must not even run.
        monkeypatch.setattr(poly_module, "_decode", decoder)
        # degree 1, t=1: need agreement on deg+t+1 = 3 points minimum
        assert robust_interpolate(F, pts, 1, total_parties=5, max_faulty=1) is None

    def test_decodes_clean(self):
        p = poly_from([2, 3])
        pts = [(x, p(x)) for x in range(1, 4)]
        got = robust_interpolate(F, pts, 1, total_parties=5, max_faulty=1)
        assert got == p

    def test_rejects_ambiguous_then_accepts(self):
        p = poly_from([2, 3])
        # One corrupted point among 3 is ambiguous for degree 1, t=1
        pts = [(1, p(1)), (2, p(2)), (3, p(3) + F(1))]
        assert robust_interpolate(F, pts, 1, total_parties=5, max_faulty=1) is None
        pts.append((4, p(4)))
        pts.append((5, p(5)))
        got = robust_interpolate(F, pts, 1, total_parties=5, max_faulty=1)
        assert got == p

    def test_never_returns_wrong_polynomial(self):
        rng = random.Random(9)
        for trial in range(25):
            coeffs = [rng.randrange(SMALL_PRIME) for _ in range(3)]
            p = poly_from(coeffs)
            n, t = 9, 2
            xs = list(range(1, n + 1))
            rng.shuffle(xs)
            bad = set(xs[:t])
            pts = []
            for x in xs:
                y = p(x) if x not in bad else F(rng.randrange(SMALL_PRIME))
                pts.append((x, y))
                got = robust_interpolate(F, pts, 2, total_parties=n, max_faulty=t)
                if got is not None:
                    assert got == p
