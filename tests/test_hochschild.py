import logging
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from blockhh.hochschild import (
    SeriesContext,
    Z_series,
    fit_phi,
    hh1_block_series,
    hh1_group_series,
    phi_r1,
    theorem3_min_order,
    verify_block_decomposition,
    verify_theorem2,
    verify_theorem3,
    y1_formula,
)
from blockhh.oracle import hh1_group_oracle
from blockhh.partitions import EMPTY, rho
from blockhh.rational import Polynomial, RationalFunction, descend, rational_fit
from blockhh.series import (
    Series,
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


def test_z_series_values():
    for p in (2, 3, 5):
        assert Z_series(p, 1)[0] == 1
    assert Z_series(2, 4).coeffs == (1, 2, 5, 10)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_z_series_is_partition_power(p):
    assert Z_series(p, 30) == partition_gf(30) ** p


def test_y1_formula_values():
    assert y1_formula(2, 1) == 2
    assert y1_formula(3, 1) == 1
    assert y1_formula(3, 3) == 2  # 3 = -1 mod 4
    assert y1_formula(5, 8) == 2  # 8 = 0 mod 8
    assert y1_formula(5, 5) == 1


def test_y1_formula_sweep_matches_congruence():
    for p in (2, 3, 5, 7):
        for r in range(1, 21):
            expected = 2 if (r % (2 * p - 2)) in (0, 2 * p - 3) else 1
            assert y1_formula(p, r) == expected


def test_y1_rejects_degree_zero():
    with pytest.raises(ValueError):
        y1_formula(3, 0)


def test_phi_closed_forms():
    assert phi_r1(2) == RationalFunction(Polynomial([2]), Polynomial([1, -1]))
    assert phi_r1(3) == RationalFunction(Polynomial([1]), Polynomial([1, -1]))
    for p in (2, 3, 5, 7):
        assert phi_r1(p).num(0) == y1_formula(p, 1)


def block_series(p, order):
    return hh1_block_series(p, Z_series(p, order))


def group_series(p, order):
    return hh1_group_series(p, partition_gf(order))


def test_block_series_low_coefficients():
    for p in (2, 3, 5, 7):
        y = block_series(p, 5)
        assert y[0] == 0
        assert y[1] == y1_formula(p, 1)
    assert block_series(2, 3)[2] == 6
    assert block_series(3, 1) == Series([0])  # Y is built to Z's order


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_series_matches_partial_sums(p):
    y = block_series(p, 12)
    factor = 2 if p == 2 else 1
    for w in range(12):
        assert y[w] == factor * sum(rho(p * j, EMPTY, p) for j in range(w))


def test_group_series_low_coefficients():
    for p in (2, 3, 5, 7):
        g = group_series(p, p + 2)
        assert g.order == p + 2
        assert all(g[n] == 0 for n in range(p))
    assert group_series(2, 4)[2] == 2
    assert group_series(3, 5)[3] == 1
    assert group_series(5, 1) == Series([0])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_group_series_matches_oracle(p):
    assert group_series(p, 16).coeffs == hh1_group_oracle(p, 15)


def test_group_series_divisibility_pattern():
    y = block_series(3, 10)
    assert y[0] == 0 and y[1] != 0
    assert shift(y, -1)[0] == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_residue_reassembly(p):
    # summing the residue pieces t^s Z(t^p) C_s(t^p) rebuilds the partition series
    order = 36
    q = order // p + 2
    z_p = substitute_power(Z_series(p, q), p)
    total = Series([0] * order)
    for s in range(p):
        cs = section(pcore_count_gf(p, p * q + s), p, s)
        piece = truncate(shift(series_mul(z_p, substitute_power(cs, p)), s), order)
        total = series_add(total, piece)
    assert total == partition_gf(order)


@pytest.mark.parametrize("p,s", [(2, 0), (2, 1), (3, 2), (5, 3), (7, 6)])
def test_block_decomposition_holds(p, s):
    report = verify_block_decomposition(SeriesContext(p, 40), s)
    assert report.holds
    assert report.first_discrepancy is None


def test_block_decomposition_detects_fault():
    report = verify_block_decomposition(SeriesContext(2, 30), 0, inject_fault=True)
    assert not report.holds
    exponent, lhs, rhs = report.first_discrepancy
    assert lhs != rhs and 0 <= exponent < 30


def test_block_decomposition_fault_reported_at_its_exponent():
    # the fault bumps C_s[1], section index 1, which is t^(p + s) in the group series
    P = partition_gf(100)
    for p in (2, 3, 5, 7, 11):
        for order in list(range(1, 40)) + [100]:
            ctx = SeriesContext(p, order)
            for s in range(p):
                report = verify_block_decomposition(ctx, s, inject_fault=True)
                if p + s < order:
                    assert report.first_discrepancy == (p + s, P[p + s], P[p + s] + 1)
                else:
                    assert report.holds


@pytest.mark.parametrize("p,s", [(2, 1), (3, 2), (5, 0)])
def test_block_decomposition_debug_log_lists_exponents(caplog, p, s):
    with caplog.at_level(logging.DEBUG, logger="blockhh.hochschild"):
        report = verify_block_decomposition(SeriesContext(p, 40), s, inject_fault=True)
    exponents = [
        int(m.group(1))
        for m in (re.match(r"coefficient mismatch at t\^(\d+):", r.getMessage())
                  for r in caplog.records)
        if m
    ]
    assert exponents and exponents[0] == p + s == report.first_discrepancy[0]
    assert all(e % p == s and e < 40 for e in exponents)
    assert exponents == sorted(set(exponents))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_theorem3_holds(p):
    report = verify_theorem3(SeriesContext(p, 60))
    assert report.holds


def test_theorem3_fitted_phi():
    for p, c in ((3, 1), (2, 2)):
        ctx = SeriesContext(p, 40)
        assert fit_phi(p, ctx.Y, ctx.Z) == RationalFunction(Polynomial([c]), Polynomial([1, -1]))
    y = Series((1,) + ctx.Y.coeffs[1:])  # a constant term: Y/t is no power series
    assert fit_phi(2, y, ctx.Z) is None


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(0, 40),
    st.integers(-3, 3).filter(bool),
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    st.lists(st.integers(-3, 3), max_size=6),
)
@example(p=3, k=10, delta=1, num=[1], den=[-1])  # a bump past the first rung's terms
@example(p=13, k=0, delta=1, num=[2, -1, 3], den=[1, 0, -2])  # phi of degrees (2, 3)
@settings(deadline=None)
def test_phi_two_rungs_match_the_full_fit(p, k, delta, num, den):
    # Y from the data; bumped at t^k, inside the fitted prefix or in the three
    # terms past it; and t phi Z for a drawn phi = num / (1 + den t + ...)
    order = theorem3_min_order(p) + 3
    ctx = SeriesContext(p, order)
    bumped = Series(c + delta * (n == k % order) for n, c in enumerate(ctx.Y.coeffs))
    drawn = shift(series_mul_ratio(truncate(ctx.Z, order - 1), num, [1] + den), 1)
    for y in (ctx.Y, bumped, drawn):
        assert fit_phi(p, y, ctx.Z) == oracles.fit_phi_reference(p, y, ctx.Z)
    if max(len(num) - 1, len(den)) <= p + 2:  # a drawn phi within the bounds is found
        assert fit_phi(p, drawn, ctx.Z) is not None


def test_theorem3_detects_fault():
    report = verify_theorem3(SeriesContext(2, 30), inject_fault=True)
    assert not report.holds
    assert report.first_discrepancy is not None


def test_theorem3_order_too_small():
    with pytest.raises(ValueError):
        verify_theorem3(SeriesContext(2, 12))
    with pytest.raises(ValueError):
        verify_theorem3(SeriesContext(7, 20))  # needs 2p+7 = 21 here


@pytest.mark.parametrize("p", [2, 3])
def test_theorem2_holds(p):
    report = verify_theorem2(SeriesContext(p, 40))
    assert report.holds
    assert report.order == 20


def test_theorem2_positive_values_at_p7():
    report = verify_theorem2(SeriesContext(7, 21))
    assert report.holds
    y = block_series(7, 11)
    assert all(y[w] >= 1 for w in range(1, 11))


def test_theorem2_detects_fault():
    report = verify_theorem2(SeriesContext(2, 21), inject_fault=True)
    assert not report.holds


def test_group_factor_is_lifted_block_factor():
    # fit the group-level ratio directly, then descend: both routes must
    # produce the same rational data as the block-level phi
    for p in (2, 3, 5):
        ctx = SeriesContext(p, 60)
        phi_hat = fit_phi(p, ctx.Y, ctx.Z)
        t_phi = RationalFunction(phi_hat.num.shift(1), phi_hat.den)
        ratio = series_mul(ctx.group, series_inv(ctx.P))
        group_factor = rational_fit(ratio, 2 * p + 2, 2 * p + 2)
        assert group_factor is not None
        assert group_factor == t_phi.substitute_power(p)
        assert descend(group_factor, p) == t_phi


def test_descend_well_defined_on_group_data():
    # expansions supported on multiples of p with equal coefficients there
    # must descend to equal canonical forms
    f1 = RationalFunction(Polynomial([0, 0, 2]), Polynomial([1, 0, -1]))
    f2 = RationalFunction(
        Polynomial([0, 0, 2, 0, -2]), Polynomial([1, 0, -2, 0, 1])
    )  # same function, scaled by (1-t^2)/(1-t^2)
    assert descend(f1, 2) == descend(f2, 2)


def test_report_str_rendering():
    ctx = SeriesContext(2, 24)
    ok = verify_block_decomposition(ctx, 0)
    assert "holds" in str(ok)
    bad = verify_block_decomposition(ctx, 0, inject_fault=True)
    assert "FAILS at t^" in str(bad)


def test_context_series_match_standalone_builders():
    ctx = SeriesContext(3, 30)
    assert ctx.order == 30
    assert ctx.P == partition_gf(30)
    assert ctx.Z == Z_series(3, 30)
    assert ctx.Y == block_series(3, 30)
    assert ctx.group == group_series(3, 30)
    assert ctx.phi == fit_phi(3, block_series(3, 30), Z_series(3, 30))
    cores = pcore_count_gf(3, 30)
    assert ctx.core_sections == tuple(section(cores, 3, s) for s in range(3))
    assert ctx.Z is ctx.Z  # built once
    # thm2 at order 1 checks weight 1, so the series reach order 2; the
    # reports keep the order asked for
    small = SeriesContext(2, 1)
    assert small.order == 1
    assert (small.P.order, small.Z.order, small.Y.order, small.group.order) == (2, 2, 2, 2)
    assert [c.order for c in small.core_sections] == [1, 1]
    assert verify_block_decomposition(small, 1).order == 1


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_core_sections_build_the_partition_series_once(monkeypatch, p):
    from blockhh import hochschild, series

    cores, group = pcore_count_gf(p, 70), group_series(p, 70)
    built = []

    def counted(order):
        built.append(order)
        return partition_gf(order)

    monkeypatch.setattr(series, "partition_gf", counted)
    monkeypatch.setattr(hochschild, "partition_gf", counted)
    ctx = SeriesContext(p, 70)
    # the core counts divide by the sparse E(t) and never read P
    assert ctx.core_sections == tuple(section(cores, p, s) for s in range(p))
    assert built == []
    # so the context's P, shared by eq12, the group series and thm3, is the one build
    assert ctx.group == group
    assert built == [70]


def test_context_must_cover_the_request():
    with pytest.raises(ValueError):
        SeriesContext(4, 30)
    with pytest.raises(ValueError, match="order must be positive"):
        SeriesContext(3, 0)


def test_every_verifier_refuses_its_bad_arguments():
    with pytest.raises(ValueError, match="need >= 20"):
        fit_phi(3, block_series(3, 12), Z_series(3, 12))
    with pytest.raises(ValueError, match="order 19 too small .* need >= 20"):
        fit_phi(2, block_series(2, 19), Z_series(2, 40))  # a short Y
    with pytest.raises(ValueError, match="order 19 too small .* need >= 20"):
        fit_phi(2, block_series(2, 40), Z_series(2, 19))
    with pytest.raises(ValueError, match="residue 3 out of range 0..2"):
        verify_block_decomposition(SeriesContext(3, 10), 3)
    with pytest.raises(ValueError, match="residue -1 out of range"):
        verify_block_decomposition(SeriesContext(3, 10), -1)
    # a builder checks p itself, since no context does it for it
    z, P = Z_series(2, 30), partition_gf(30)
    for build in (lambda: hh1_block_series(4, z), lambda: hh1_group_series(4, P),
                  lambda: fit_phi(4, block_series(2, 30), z)):
        with pytest.raises(ValueError, match="p must be prime, got 4"):
            build()
