import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from blockhh.rational import (
    Polynomial,
    RationalFunction,
    descend,
    divmod_poly,
    expand,
    gcd_poly,
    rational_fit,
)
from blockhh.series import Series, partition_gf, series_inv, series_mul, shift

import oracles


def rf(num, den):
    return RationalFunction(Polynomial(num), Polynomial(den))


GEOMETRIC = rf([1], [1, -1])


def test_polynomial_trims_and_degree():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0]).degree == -1
    assert Polynomial([Fraction(4, 2)]).coeffs == (2,)


def test_polynomial_value_is_exact():
    value = Polynomial([1, 2])(Fraction(1, 2))
    assert value == 2 and type(value) is int
    with pytest.raises(TypeError, match="exact coefficient"):
        Polynomial([1, 2])(0.5)


poly_coeffs = st.lists(
    st.integers(-9, 9) | st.fractions(max_denominator=6) | st.just(0), max_size=8
)


@given(poly_coeffs, poly_coeffs)
@example([], [3, 1])
@example([0, Fraction(1, 2), 4], [])
def test_polynomial_product_matches_reference_loop(a, b):
    a, b = Polynomial(a), Polynomial(b)
    n = len(a.coeffs) + len(b.coeffs)
    padded = [Series(c + (0,) * (n - len(c))) for c in (a.coeffs, b.coeffs)]
    assert a * b == Polynomial(oracles.series_mul_reference(*padded).coeffs)


def test_polynomial_str():
    assert str(Polynomial([1, -1])) == "1 - t"
    assert str(Polynomial([0, 2, 0, -3])) == "2*t - 3*t^3"
    assert str(Polynomial()) == "0"


def test_value_protocols():
    assert Polynomial([1]) != 1 and not Polynomial([1]) == 1
    assert GEOMETRIC != 1 and not GEOMETRIC == 1
    assert repr(Polynomial([1, -1])) == "Polynomial([1, -1])"
    assert repr(GEOMETRIC) == "RationalFunction(Polynomial([1]), Polynomial([1, -1]))"
    assert str(rf([1, 2], [3])) == "1/3 + 2/3*t"  # a denominator 1 is not printed
    assert str(GEOMETRIC) == "1/(1 - t)"


def test_polynomial_shift_substitute_and_section():
    a = Polynomial([1, 0, 2])
    assert a.shift(2) == Polynomial([0, 0, 1, 0, 2])
    assert a.substitute_power(3) == Polynomial([1, 0, 0, 0, 0, 0, 2])
    assert a.section(2, 0) == Polynomial([1, 2]) and a.section(2, 1).is_zero
    zero = Polynomial()
    assert zero.shift(3) == zero.substitute_power(3) == zero.section(2, 1) == zero
    with pytest.raises(ValueError, match="shift exponent must be nonnegative"):
        a.shift(-1)
    with pytest.raises(ValueError, match="substitution power must be >= 1"):
        a.substitute_power(0)
    with pytest.raises(ValueError, match="section residue 2 out of range 0..1"):
        a.section(2, 2)


def test_gcd_poly():
    a = Polynomial([1, 1]) * Polynomial([2, 2, 2])
    b = Polynomial([1, 1]) * Polynomial([0, 5])
    assert gcd_poly(a, b) == Polynomial([1, 1])
    assert gcd_poly(Polynomial(), Polynomial()) == Polynomial()


def test_canonical_form_reduces():
    # 2t(1+t) / 2(1+t)^2(1-t) reduces to t / (1 - t^2)
    assert rf([0, 2, 2], [2, 2, -2, -2]) == rf([0, 1], [1, 0, -1])
    # 2t(1+t) / 2(1+t)(1-t) reduces to t / (1 - t)
    assert rf([0, 2, 2], [2, 0, -2]) == rf([0, 1], [1, -1])


def test_canonicalization_idempotent():
    f = rf([0, 3, 3], [3, 0, -3])
    again = RationalFunction(f.num, f.den)
    assert again == f


def test_expand_geometric():
    assert expand(GEOMETRIC, 4) == Series([1, 1, 1, 1])


def test_expand_two_t_over_one_minus_t():
    assert expand(rf([0, 2], [1, -1]), 4) == Series([0, 2, 2, 2])


def test_expand_t_cubed_over_one_minus_t_cubed():
    assert expand(rf([0, 0, 0, 1], [1, 0, 0, -1]), 7) == Series([0, 0, 0, 1, 0, 0, 1])


def test_expand_rejects_pole_at_zero():
    with pytest.raises(ValueError):
        expand(rf([1], [0, 1]), 5)


def test_fit_geometric():
    assert rational_fit(Series([1] * 10), 2, 2) == GEOMETRIC


def test_fit_fibonacci():
    s = Series([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144])
    fitted = rational_fit(s, 1, 2)
    assert fitted == rf([1], [1, -1, -1])
    assert expand(fitted, 12) == s


def test_fit_numerator_at_its_degree_bound():
    f = rf([1, 2, 3], [1, -1])
    assert rational_fit(expand(f, 10), 2, 1) == f


def test_fit_block_ratio_series():
    from blockhh.hochschild import Z_series, hh1_block_series

    z = Z_series(2, 21)
    ratio = series_mul(shift(hh1_block_series(2, z), -1), series_inv(z))
    assert rational_fit(ratio, 4, 4) == rf([2], [1, -1])


def test_fit_insufficient_order_is_an_error_not_a_failed_fit():
    with pytest.raises(ValueError, match="order"):
        rational_fit(Series([1, 1, 1]), 2, 2)
    for bounds in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="degree bounds must be nonnegative"):
            rational_fit(partition_gf(12), *bounds)


def test_fit_returns_none_when_nothing_matches():
    assert rational_fit(partition_gf(12), 2, 2) is None


def test_fit_zero_series():
    fitted = rational_fit(Series([0] * 8), 1, 1)
    assert fitted == rf([], [1])


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), max_size=2),
)
def test_fit_inverts_expand(num, den_tail):
    f = rf(num, [1] + den_tail)
    margin = 3
    order = f.num.degree + f.den.degree + 2 + margin + 4
    fitted = rational_fit(expand(f, order), f.num.degree + 1, f.den.degree + 1)
    assert fitted is not None
    assert expand(fitted, order) == expand(f, order)
    assert fitted == f


def assert_fits_agree(s, max_num_deg, max_den_deg):
    square = rational_fit(s, max_num_deg, max_den_deg)
    assert square == oracles.rational_fit_reference(s, max_num_deg, max_den_deg)
    return square


@given(
    st.lists(st.integers(-3, 3) | st.fractions(max_denominator=3), min_size=2, max_size=14),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_square_fit_matches_full_system_fit(coeffs, max_num_deg, max_den_deg):
    needed = max_num_deg + max_den_deg + 2
    s = Series(coeffs + [coeffs[-1]] * max(0, needed - len(coeffs)))
    assert_fits_agree(s, max_num_deg, max_den_deg)


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.tuples(st.sampled_from([1, -1, 2]), st.lists(st.integers(-4, 4), max_size=3)),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_square_fit_with_loose_bounds(num, den, extra_num, extra_den):
    f = rf(num, [den[0], *den[1]])
    bounds = (max(f.num.degree, 0) + extra_num, f.den.degree + extra_den)
    s = expand(f, sum(bounds) + 2 + extra_num)
    assert assert_fits_agree(s, *bounds) == f


def test_square_fit_zero_numerator():
    for bounds in [(0, 0), (1, 1), (3, 2)]:
        zero = Series([0] * (sum(bounds) + 3))
        assert assert_fits_agree(zero, *bounds) == rf([], [1])


def test_square_fit_rejects_partition_series():
    assert assert_fits_agree(partition_gf(12), 2, 2) is None
    assert assert_fits_agree(partition_gf(30), 4, 4) is None


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_square_fit_of_phi_series(p):
    from blockhh.hochschild import Z_series, hh1_block_series, phi_r1

    order = 2 * p + 7
    z = Z_series(p, order)
    ratio = series_mul(shift(hh1_block_series(p, z), -1), series_inv(z))
    assert assert_fits_agree(ratio, p + 2, p + 2) == phi_r1(p)


def test_descend_basic():
    assert descend(rf([1], [1, 0, -1]), 2) == GEOMETRIC


def test_descend_identity_modulus():
    f = rf([3, 1], [1, 0, 2])
    assert descend(f, 1) == f
    with pytest.raises(ValueError, match="descent modulus must be >= 1, got 0"):
        descend(f, 0)


def test_descend_recovers_block_factor():
    group_factor = rf([0, 0, 2], [1, 0, -1])  # 2t^2/(1-t^2)
    assert descend(group_factor, 2) == rf([0, 2], [1, -1])


def test_descend_rejects_skew_support():
    with pytest.raises(ValueError, match="not divisible"):
        descend(GEOMETRIC, 2)
    with pytest.raises(ValueError, match="exponent 3"):
        descend(rf([1, 0, 0, 1], [1]), 2)


def test_descend_rejects_pole_at_zero():
    with pytest.raises(ValueError, match="expansion"):
        descend(rf([1], [0, 0, 1]), 2)


def test_descend_zero_function():
    assert descend(rf([], [1, 0, -1]), 2) == rf([], [1])


@pytest.mark.parametrize("m", [2, 3, 5])
def test_descend_roundtrip_randomized(m):
    from blockhh.series import substitute_power

    rng = random.Random(20240000 + m)
    for _ in range(25):
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        den = [rng.choice([1, 2, -1])] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        g = rf(num, den)
        lifted = g.substitute_power(m)
        back = descend(lifted, m)
        assert back == g
        assert expand(back, 30) == expand(g, 30)
        assert substitute_power(expand(back, 10), m) == expand(lifted, 10 * m)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_descend_well_defined_across_representations(m):
    # any polynomial-pair representation u*(a, b)(t^m) of the same g(t^m),
    # unreduced before the constructor sees it, descends to the same g
    rng = random.Random(9000 + m)
    for _ in range(20):
        g = rf(
            [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))],
            [rng.choice([1, 2])] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))],
        )
        num = g.num.substitute_power(m)
        den = g.den.substitute_power(m)
        u = Polynomial([rng.choice([1, -1, 2])] + [rng.randint(-2, 2) for _ in range(3)])
        if u.is_zero:
            u = Polynomial([1])
        assert descend(RationalFunction(u * num, u * den), m) == g


@given(
    st.lists(st.integers(-3, 3), max_size=5),
    st.tuples(st.sampled_from([1, -1, 2]), st.lists(st.integers(-3, 3), max_size=4)),
    st.integers(1, 4),
    st.none() | st.lists(st.integers(-2, 2), min_size=1, max_size=3),
)
@example([1], (1, [-1]), 2, None)  # 1/(1 - t) does not descend
def test_descend_succeeds_exactly_when_the_expansion_is_in_t_to_the_m(num, den, m, u):
    # with u given, f is the pair lifted to t^m times u, unreduced until the
    # constructor sees it; otherwise f is the drawn pair itself
    from blockhh.series import substitute_power

    num, den = Polynomial(num), Polynomial([den[0], *den[1]])
    if u is not None and any(u):
        u = Polynomial(u)
        num, den = u * num.substitute_power(m), u * den.substitute_power(m)
    f = RationalFunction(num, den)
    skew = [n for n, c in enumerate(expand(f, 60).coeffs) if n % m and c]
    try:
        g = descend(f, m)
    except ValueError as exc:
        assert skew and "exponent %d," % skew[0] in str(exc)
    else:
        assert skew == []
        for k in (1, 7, 60 // m):
            assert substitute_power(expand(g, k), m) == expand(f, k * m)


def test_equality_agrees_with_cross_multiplication():
    rng = random.Random(7)
    for _ in range(40):
        num = Polynomial([rng.randint(-3, 3) for _ in range(3)])
        den = Polynomial([rng.choice([1, 2])] + [rng.randint(-2, 2) for _ in range(2)])
        scale = Polynomial([rng.choice([1, -2, 3]), rng.randint(-2, 2)])
        f = RationalFunction(num, den)
        g = RationalFunction(num * scale, den * scale)
        assert f == g
        assert (f.num * g.den) == (g.num * f.den)
    f = rf([1], [1, -1])
    g = rf([1], [1, -2])
    assert f != g
    assert (f.num * g.den) != (g.num * f.den)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        rf([1], [])
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        divmod_poly(Polynomial([1, 1]), Polynomial())
