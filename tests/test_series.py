from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from blockhh.rational import Polynomial, RationalFunction, expand
from blockhh.series import (
    PRIME_LIMIT,
    Series,
    _check_prime,
    _pentagonal,
    euler_power,
    one,
    partition_gf,
    pcore_count_gf,
    section,
    series_add,
    series_inv,
    series_mul,
    series_mul_ratio,
    shift,
    substitute_power,
    truncate,
)

import oracles

small_series = st.lists(
    st.integers(-9, 9) | st.fractions(max_denominator=6), min_size=1, max_size=10
).map(Series)

unit_series = st.tuples(
    st.sampled_from([1, -1, 2, 3, Fraction(1, 2)]),
    st.lists(st.integers(-5, 5), max_size=8),
).map(lambda t: Series([t[0], *t[1]]))


def test_add_cancellation():
    assert series_add(Series([1, 1]), Series([1, -1])) == Series([2, 0])


def test_add_zero_identity():
    a = Series([3, Fraction(1, 2), -4])
    assert series_add(a, Series([0, 0, 0])) == a


def test_add_truncates_to_min_order():
    a = Series([1, 0, 2])
    b = Series([0, 1, 0, 0, 0])
    assert series_add(a, b) == Series([1, 1, 2])


def test_mul_difference_of_squares():
    assert series_mul(Series([1, 1, 0]), Series([1, -1, 0])) == Series([1, 0, -1])


def test_mul_one_identity():
    a = Series([2, -3, Fraction(5, 7), 0])
    assert series_mul(a, one(4)) == a


def test_mul_partition_gf_by_one_minus_t():
    # coefficients are p(n) - p(n-1); frozen from enumerating partitions of n <= 5
    got = series_mul(partition_gf(6), Series([1, -1, 0, 0, 0, 0]))
    assert got == Series([1, 0, 1, 1, 2, 2])
    diffs = [
        oracles.partition_count(n) - (oracles.partition_count(n - 1) if n else 0)
        for n in range(6)
    ]
    assert list(got.coeffs) == diffs


def test_inv_geometric():
    assert series_inv(Series([1, -1, 0, 0])) == Series([1, 1, 1, 1])


def test_inv_of_one():
    assert series_inv(one(5)) == one(5)


def test_inv_partition_gf_pentagonal():
    inv = series_inv(partition_gf(5))
    assert inv == Series([1, -1, -1, 0, 0])
    assert series_mul(partition_gf(5), inv) == one(5)


def test_inv_rejects_non_unit():
    with pytest.raises(ValueError):
        series_inv(Series([0, 1, 2]))
    with pytest.raises(ValueError):
        series_inv(Series([]))


@given(unit_series)
def test_inv_is_right_inverse(a):
    assert series_mul(a, series_inv(a)) == one(a.order)


def test_shift_up():
    assert shift(Series([1, 1]), 2) == Series([0, 0, 1, 1])


def test_shift_down():
    assert shift(Series([0, 1, 0, 1]), -1) == Series([1, 0, 1])


def test_shift_down_rejects_nondivisible():
    with pytest.raises(ValueError, match="not divisible"):
        shift(Series([0, 1, 1]), -2)


def test_block_hh1_series_divisible_by_t_only_once():
    from blockhh.hochschild import Z_series, hh1_block_series

    y = hh1_block_series(3, Z_series(3, 10))
    assert shift(y, -1)[0] == 1
    with pytest.raises(ValueError):
        shift(y, -2)


def test_substitute_power_basic():
    assert substitute_power(Series([1, 1]), 2) == Series([1, 0, 1, 0])


def test_substitute_power_identity():
    a = Series([4, -1, Fraction(2, 3)])
    assert substitute_power(a, 1) == a


@given(small_series, st.integers(2, 5))
def test_substitute_power_support(a, m):
    b = substitute_power(a, m)
    assert b.order == m * a.order
    assert all(c == 0 for n, c in enumerate(b.coeffs) if n % m != 0)


def test_section_basic():
    assert section(Series([1, 1, 1, 1]), 2, 0) == Series([1, 1])


def test_section_of_partition_gf_odd_part():
    # p(1), p(3), p(5) = 1, 3, 7 by direct enumeration
    assert [oracles.partition_count(k) for k in (1, 3, 5)] == [1, 3, 7]
    got = truncate(section(partition_gf(11), 2, 1), 3)
    assert got == Series([1, 3, 7])


@given(small_series, st.integers(1, 5))
def test_section_inverts_substitute_power(a, m):
    assert section(substitute_power(a, m), m, 0) == a
    for s in range(1, m):
        assert all(c == 0 for c in section(substitute_power(a, m), m, s).coeffs)


@given(small_series, st.integers(1, 5))
def test_section_reassembly(a, m):
    total = Series([0] * a.order)
    for s in range(m):
        piece = truncate(shift(substitute_power(section(a, m, s), m), s), a.order)
        total = series_add(total, piece)
    assert total == a


def test_partition_gf_small_values():
    gf = partition_gf(8)
    assert gf[0] == 1
    assert gf[5] == 7


def test_partition_gf_matches_enumeration():
    gf = partition_gf(31)
    for n in range(31):
        assert gf[n] == oracles.partition_count(n)


def test_pcore_count_gf_constant_term():
    for p in (2, 3, 5, 7):
        assert pcore_count_gf(p, 4)[0] == 1


def test_pcore_count_gf_triangular_for_p2():
    gf = pcore_count_gf(2, 16)
    triangular = {k * (k + 1) // 2 for k in range(6)}
    for n in range(16):
        assert gf[n] == (1 if n in triangular else 0)


def test_pcore_count_gf_p3_at_4():
    assert pcore_count_gf(3, 5)[4] == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pcore_count_gf_matches_strip_enumeration(p):
    gf = pcore_count_gf(p, 26)
    for n in range(26):
        assert gf[n] == oracles.core_count(n, p)


@pytest.mark.parametrize("alpha", [-1, -2, -3, -5, -31, 1, 2, 3, 7])
def test_euler_power_matches_stride_reference(alpha):
    assert list(euler_power(alpha, 300).coeffs) == oracles.euler_product(alpha, 300)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_pcore_count_gf_matches_stride_reference(p):
    assert list(pcore_count_gf(p, 301).coeffs) == oracles.core_count_series(p, 301)


@given(st.integers(-40, 40), st.integers(1, 400))
@example(-1, 3000)
def test_euler_power_matches_millers_recurrence(alpha, order):
    # the sign-split sums, and Euler's recurrence at alpha = -1, against the
    # recurrence term by term
    assert euler_power(alpha, order) == oracles.euler_power_miller(alpha, order)


def test_euler_power_edges():
    assert euler_power(0, 5) == one(5)
    assert euler_power(-4, 1) == one(1)
    with pytest.raises(ValueError):
        euler_power(-1, 0)
    # Miller's recurrence divides exactly only for an integer exponent
    with pytest.raises(RuntimeError, match="inexact division at t\\^1 .* power 1/2"):
        euler_power(Fraction(1, 2), 3)


@pytest.mark.parametrize("order", [1, 2, 3, 100, 1501])
def test_pentagonal_table_is_the_euler_product(order):
    e = [1] + [0] * (order - 1)
    for k, c in _pentagonal(order):
        e[k] = c
    assert e == oracles.euler_product(1, order)
    assert tuple(e) == euler_power(1, order).coeffs


def test_pcore_count_gf_matches_count_pcores():
    for p in (2, 3, 5, 7):
        gf = pcore_count_gf(p, 21)
        for n in range(21):
            assert gf[n] == oracles.count_pcores(n, p)


def _assert_normalized(r):
    checked = Series(list(r.coeffs))
    assert type(r.coeffs) is tuple and r == checked
    assert [type(c) for c in r.coeffs] == [type(c) for c in checked.coeffs]


@pytest.mark.parametrize(
    "coeffs",
    [[3, -1, 0, 7, 2, 5], [Fraction(1, 2), 3, Fraction(-5, 3), 0, 1, Fraction(7, 4)]],
)
def test_unchecked_helpers_equal_the_validating_constructor(coeffs):
    a = Series(coeffs)
    f = RationalFunction(Polynomial(coeffs[:3]), Polynomial([1] + coeffs[3:]))
    results = [
        truncate(a, 4),
        section(a, 2, 1),
        section(a, 3, 0),
        shift(a, 2),
        shift(shift(a, 2), -2),
        substitute_power(a, 3),
        series_inv(a),
        expand(f, 12),
        series_mul_ratio(a, coeffs[:3], [1] + coeffs[3:]),
        series_mul_ratio(a, coeffs[:2], coeffs[1:]),
    ] + [euler_power(alpha, 40) for alpha in (-3, -1, 0, 2)]
    for r in results:
        _assert_normalized(r)


def _ratio_reference(a, num, den):
    f = RationalFunction(Polynomial(num), Polynomial(den))
    return oracles.series_mul_reference(oracles.expand_reference(f, a.order), a)


coefficient = st.integers(-9, 9) | st.fractions(max_denominator=6)
leading = st.sampled_from([1, -1, 2, Fraction(1, 3)])


@given(
    st.lists(coefficient, min_size=1, max_size=12).map(Series),
    st.lists(coefficient, max_size=6),
    st.tuples(leading, st.lists(coefficient, max_size=6)).map(lambda t: [t[0], *t[1]]),
)
def test_mul_ratio_is_product_by_the_expansion(a, num, den):
    got = series_mul_ratio(a, num, den)
    assert got == _ratio_reference(a, num, den)
    _assert_normalized(got)


OPERANDS = {
    "sparse-int": lambda n: partition_gf(n),
    "dense-fraction": lambda n: Series(Fraction(k + 1, k + 2) - k for k in range(n)),
}
RATIOS = {
    "sparse": ((0, 0, 0, 2), (0, 0, 0, 0, -1)),
    "dense": ((1, 2, -3, Fraction(1, 2)), (1, -1, 2, 3)),
}


@pytest.mark.parametrize("order", [1, 2, 300])
@pytest.mark.parametrize("d0", [1, -1, 2, Fraction(1, 3)])
@pytest.mark.parametrize("operand", list(OPERANDS))
@pytest.mark.parametrize("ratio", list(RATIOS))
def test_mul_ratio_matches_dense_product(order, d0, operand, ratio):
    a = OPERANDS[operand](order)
    num, den_tail = RATIOS[ratio]
    den = (d0,) + den_tail[1:]
    got = series_mul_ratio(a, num, den)
    assert got.order == order
    assert got == _ratio_reference(a, num, den)
    _assert_normalized(got)


product_operand = st.lists(
    st.integers(-9, 9) | st.fractions(max_denominator=6) | st.just(0), max_size=12
).map(Series)


@given(product_operand, product_operand)
@example(Series([]), Series([1, 2]))
@example(Series([3]), Series([]))
@example(Series([0]), Series([Fraction(1, 2)]))
@example(Series([Fraction(2, 3)]), Series([Fraction(3, 2), 1]))
@example(Series([0, 0, 5]), Series([1, 0, 0, 0]))
@example(Series([1, 2, 3, 4]), Series([0, 0, 0, Fraction(1, 4)]))
def test_mul_matches_reference_loop(a, b):
    got = series_mul(a, b)
    assert got.order == min(a.order, b.order)
    assert got == oracles.series_mul_reference(a, b)
    _assert_normalized(got)


def test_mul_ratio_rejects_vanishing_denominator():
    for den in [(0, 1), (), (Fraction(0), 2)]:
        with pytest.raises(ValueError, match="vanishes at 0"):
            series_mul_ratio(one(5), (1,), den)


@given(
    st.lists(coefficient, max_size=5),
    st.tuples(leading, st.lists(coefficient, max_size=5)).map(lambda t: [t[0], *t[1]]),
    st.integers(1, 15),
)
def test_expand_matches_reference_loop(num, den, order):
    f = RationalFunction(Polynomial(num), Polynomial(den))
    assert expand(f, order) == oracles.expand_reference(f, order)


@given(unit_series)
def test_inv_matches_reference_loop(a):
    got = series_inv(a)
    assert got == oracles.series_inv_reference(a)
    _assert_normalized(got)


@pytest.mark.parametrize("p", [2, 3, 31])
def test_inv_of_count_series_matches_reference_loop(p):
    z = euler_power(-p, 150)
    assert series_inv(z) == oracles.series_inv_reference(z) == euler_power(p, 150)


def test_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Series([1.0, 2.0])


def test_order_is_coefficient_count():
    a = Series([5, 0, 0])
    assert a.order == 3
    assert truncate(a, 2).order == 2


def test_value_object_protocol():
    a = Series([1, 2])
    with pytest.raises(IndexError, match="negative exponent -1"):
        a[-1]
    assert a != 5 and not a == 5
    assert hash(a) == hash(Series([1, Fraction(4, 2)]))
    assert str(a) == repr(a) == "Series([1, 2])"  # no __str__ of its own


def test_power_guards():
    assert Series([1, 1, 0]) ** 2 == Series([1, 2, 1])
    assert Series([]) ** 3 == Series([])
    with pytest.raises(ValueError, match="negative power"):
        Series([1, 1]) ** -1


@pytest.mark.parametrize("a", [
    Series([1, 1, 0, 0, 0, 0, 0, 0]),
    Series([2, -1, 3, 0, 5]),
    Series([Fraction(1, 2), 0, Fraction(-3, 4), 1]),
    Series([0, 1, 1]),
    Series([7]),
    partition_gf(12),
])
def test_power_matches_repeated_products(a):
    for k in range(41):
        assert a ** k == oracles.series_pow_reference(a, k), k


def test_power_squares_and_multiplies(monkeypatch):
    import blockhh.series

    calls = []

    def counting(a, b):
        calls.append(None)
        return series_mul(a, b)

    monkeypatch.setattr(blockhh.series, "series_mul", counting)
    a = partition_gf(12)
    for k in (0, 1, 2, 3, 7, 8, 31, 1000003):
        calls.clear()
        a ** k
        assert len(calls) <= 2 * k.bit_length(), k


@pytest.mark.parametrize(
    "operation, args, message",
    [
        (shift, (Series([0, 0]), -3), "cannot divide by t\\^3: only 2 coefficients known"),
        (substitute_power, (Series([1]), 0), "substitution power must be >= 1, got 0"),
        (section, (Series([1, 2]), 0, 0), "section modulus must be >= 1, got 0"),
        (section, (Series([1, 2]), 2, 2), "section residue 2 out of range 0..1"),
        (section, (Series([1, 2]), 2, -1), "section residue -1 out of range 0..1"),
        (truncate, (Series([1, 2]), -1), "order must be nonnegative"),
        (truncate, (Series([1, 2]), 3), "cannot extend a series known only to order 2"),
    ],
    ids=["shift", "substitute_power", "section-modulus", "section-residue-high",
         "section-residue-low", "truncate-negative", "truncate-extends"],
)
def test_every_operation_guard_raises(operation, args, message):
    with pytest.raises(ValueError, match=message):
        operation(*args)


def _accepted(n: int) -> bool:
    try:
        _check_prime(n)
    except ValueError:
        return False
    return True


def test_prime_check_agrees_with_trial_division_below_10_5():
    for n in range(-5, 10**5):
        assert _accepted(n) == oracles.is_prime_reference(n), n


@pytest.mark.parametrize("n", [
    2047, 3277, 4033, 4681, 8321,  # strong pseudoprimes to base 2
    1373653,  # to bases 2 and 3
    25326001,  # to bases 2, 3 and 5
    3215031751,  # to bases 2, 3, 5 and 7
    561, 1105, 1729, 2465,  # Carmichael numbers
    65521 ** 2,  # the square of the largest prime below 2^16
    4294967279, 4294967291, 4294967295,  # near the limit
])
def test_prime_check_on_hard_cases(n):
    assert _accepted(n) == oracles.is_prime_reference(n)


@given(st.integers(-5, PRIME_LIMIT - 1))
def test_prime_check_agrees_with_trial_division_below_the_limit(n):
    assert _accepted(n) == oracles.is_prime_reference(n)
