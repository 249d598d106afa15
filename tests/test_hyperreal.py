import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from prudens.hyperreal import (DegreeOverflow, Hyperreal, NegativeInput,
                               ZeroDenominator, infinitely_greater,
                               parse_hyperreal, ratio_st_is_zero, scaled)

D = 8


def H(*coeffs):
    return Hyperreal(coeffs, D)


E = Hyperreal.epsilon(D)
ONE = Hyperreal.one(D)
ZERO = Hyperreal.zero(D)


class TestArithmetic:
    def test_cancellation(self):
        assert (ONE - E) + E == ONE

    def test_identity(self):
        assert ZERO + H(0, 0, Fraction(3, 2)) == H(0, 0, Fraction(3, 2))

    def test_coefficientwise_sum(self):
        half_plus_e = H(Fraction(1, 2), 1)
        assert half_plus_e + half_plus_e == H(1, 2)

    def test_products(self):
        assert E * E == H(0, 0, 1)
        assert (ONE - E) * (ONE + E) == H(1, 0, -1)
        assert 2 * H(Fraction(1, 2), 1) == H(1, 2)

    def test_degree_overflow_on_product(self):
        e = Hyperreal.epsilon(2)
        with pytest.raises(DegreeOverflow):
            (e * e) * e
        assert (e * e) * Hyperreal.one(2) == Hyperreal.epsilon(2, power=2)

    def test_degree_overflow_on_construction(self):
        with pytest.raises(DegreeOverflow):
            Hyperreal((0, 0, 1), degree_bound=1)

    def test_mixed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Hyperreal.one(3) + Hyperreal.one(4)


class TestOrder:
    def test_epsilon_below_positive_rationals(self):
        assert H(Fraction(1, 2)) - E < H(Fraction(1, 2))

    def test_epsilon_squared_below_epsilon(self):
        assert E > E * E

    def test_coefficient_comparison_at_equal_degree(self):
        assert 2 * E > E

    def test_equality_is_canonical_identity(self):
        assert H(1, 0) == ONE
        assert H(1, 1) != H(1)


class TestStandardPart:
    def test_by_representation(self):
        assert (H(Fraction(1, 2)) + 3 * E).standard_part() == Fraction(1, 2)

    def test_infinitesimal(self):
        assert E.standard_part() == 0

    def test_real_fixed_point(self):
        assert H(Fraction(7, 3)).standard_part() == Fraction(7, 3)


class TestLeadingDegree:
    def test_examples(self):
        assert (E * E + E * E * E).leading_degree() == 2
        assert (ONE - E).leading_degree() == 0
        assert ZERO.leading_degree() is None


class TestInfinitelyGreater:
    def test_examples(self):
        assert infinitely_greater(E, E * E)
        assert not infinitely_greater(2 * E, E)
        assert not infinitely_greater(ZERO, ZERO)

    def test_negative_input(self):
        with pytest.raises(NegativeInput):
            infinitely_greater(-E, E)
        with pytest.raises(NegativeInput):
            infinitely_greater(E, ZERO - ONE)


class TestRatioStZero:
    def test_examples(self):
        assert ratio_st_is_zero(E * E, E)
        assert not ratio_st_is_zero(E, E)
        assert ratio_st_is_zero(ZERO, ONE - E)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            ratio_st_is_zero(E, ZERO)


class TestText:
    @pytest.mark.parametrize("value", [
        ZERO, ONE, E, -E, H(Fraction(1, 2), Fraction(-3, 4), 2),
        H(0, 0, Fraction(5, 7)), H(-2, 1), H(1, -1, 0, Fraction(2, 3)),
    ])
    def test_roundtrip(self, value):
        assert parse_hyperreal(value.render(), D) == value

    def test_report_syntax(self):
        assert (H(Fraction(1, 2)) + 3 * E + H(0, 0, 2)).render() \
            == "1/2 + 3*e + 2*e^2"
        assert ZERO.render() == "0"

    def test_parse_rejects_garbage(self):
        for bad in ["", "x", "1..2", "e^", "1/0", "1/0*e"]:
            with pytest.raises(ValueError):
                parse_hyperreal(bad, D)
        for bad in ["1/0", "1 + 1/0*e"]:
            with pytest.raises(ValueError, match=r"term '\+?1/0"):
                parse_hyperreal(bad, D)


# -- property suites -----------------------------------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.lists(rationals, min_size=0, max_size=3).map(
    lambda cs: Hyperreal(cs, D))


def nonneg(value):
    k = value.leading_degree()
    if k is None or value.coeffs[k] > 0:
        return value
    return -value


@given(polys, polys, polys)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO


@given(polys, polys, polys)
def test_order_compatibility(a, b, c):
    if a < b:
        assert a + c < b + c
        if c > ZERO:
            assert a * c < b * c


@given(polys, polys)
def test_standard_part_homomorphism(a, b):
    assert (a + b).standard_part() == a.standard_part() + b.standard_part()
    assert (a * b).standard_part() == a.standard_part() * b.standard_part()
    if a <= b:
        assert a.standard_part() <= b.standard_part()


@given(polys, polys)
def test_infinitely_greater_matches_ratio_test(a, b):
    x, y = nonneg(a), nonneg(b)
    if x > ZERO:
        assert infinitely_greater(x, y) == ratio_st_is_zero(y, x)


@given(polys, polys)
def test_nonnegative_sum_starts_at_least_leading_degree(a, b):
    x, y = nonneg(a), nonneg(b)
    degrees = [d for d in (x.leading_degree(), y.leading_degree())
               if d is not None]
    assert (x + y).leading_degree() == min(degrees, default=None)


def test_scaled_empty_list():
    assert scaled([]) == ([], 1)


@given(st.lists(st.fractions(max_denominator=60) | st.integers()))
def test_scaled_is_exact_over_least_common_denominator(values):
    ints, den = scaled(values)
    assert all(type(n) is int for n in ints) and den >= 1
    assert [Fraction(n, den) for n in ints] == values
    # den is the least common denominator: it makes every value integral,
    # and no den / p does, for any p > 1 dividing it (every prime factor
    # of den divides some denominator, so p <= 60 covers them)
    assert all(den % Fraction(v).denominator == 0 for v in values)
    for p in range(2, 61):
        if den % p == 0:
            assert not all((den // p) % Fraction(v).denominator == 0
                           for v in values)


@given(polys, polys)
def test_equality_iff_identical_coefficients(a, b):
    assert (a == b) == (a.coeffs == b.coeffs)
    assert (a.compare(b) == 0) == (a.coeffs == b.coeffs)


@given(polys)
def test_render_parse_identity(a):
    assert parse_hyperreal(a.render(), D) == a


def forms(value):
    """value as Hyperreals of two degree bounds and, when it is rational,
    as a Fraction and (if whole) an int."""
    out = [value, Hyperreal(value.coeffs, D + 1)]
    if value.degree() in (None, 0):
        q = value.standard_part()
        out.append(q)
        if q.denominator == 1:
            out.append(int(q))
    return out


@given(polys.flatmap(lambda v: st.tuples(st.sampled_from(forms(v)),
                                         st.sampled_from(forms(v)))))
def test_equal_values_hash_equally(pair):
    a, b = pair
    assert a == b
    assert hash(a) == hash(b)
    assert {a: "x"}.get(b) == "x"
