import pytest
from hypothesis import given, strategies as st

from blockhh.blocks import blocks_of, dim_hh1
from blockhh.oracle import hh1_group_oracle
from blockhh.partitions import Partition, partitions_of
from blockhh.series import partition_gf

import oracles
from oracles import CycleType, hom_to_Fp_dim


def ct(*parts):
    return CycleType.from_partition(Partition(parts))


def test_cycle_type_conversions():
    c = ct(3, 2, 2, 1)
    assert c.multiplicities == ((1, 1), (2, 2), (3, 1))


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType(((2, 0),))
    with pytest.raises(ValueError):
        CycleType(((3, 1), (2, 1)))


def test_hom_dim_identity_class():
    # Hom(S_n, F_2) is one-dimensional via the sign character for n >= 2
    for n in range(2, 7):
        assert hom_to_Fp_dim(2, ct(*([1] * n))) == 1
    assert hom_to_Fp_dim(2, ct(1)) == 0


def test_hom_dim_single_p_cycle():
    for p in (2, 3, 5, 7):
        assert hom_to_Fp_dim(p, ct(p)) == 1


def test_hom_dim_three_cycle_mod_two():
    assert hom_to_Fp_dim(2, ct(3)) == 0


def test_group_oracle_trivial_groups():
    for p in (2, 3, 5):
        assert hh1_group_oracle(p, 0) == (0,)
        assert hh1_group_oracle(p, 1) == (0, 0)


def test_group_oracle_small_values():
    assert hh1_group_oracle(2, 2) == (0, 0, 2)
    assert hh1_group_oracle(3, 3) == (0, 0, 0, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_group_oracle_vanishing_threshold(p):
    first_nonzero = 2 if p == 2 else p
    rows = hh1_group_oracle(p, first_nonzero)
    assert rows[:first_nonzero] == (0,) * first_nonzero
    assert rows[first_nonzero] > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_group_oracle_equals_per_class_definition(p):
    expected = tuple(
        sum(hom_to_Fp_dim(p, CycleType.from_partition(lam)) for lam in partitions_of(n))
        for n in range(23)
    )
    assert hh1_group_oracle(p, 22) == expected


@given(st.integers(0, 22), st.sampled_from([2, 3, 5, 7, 11, 13, 23, 4294967291]))
def test_group_oracle_matches_former_loop_and_per_class_definition(n, p):
    rows = hh1_group_oracle(p, n)
    assert rows == tuple(oracles.hh1_group_oracle_reference(p, m) for m in range(n + 1))
    for m, got in enumerate(rows):
        assert got == sum(
            hom_to_Fp_dim(p, CycleType.from_partition(lam)) for lam in partitions_of(m)
        )


def test_group_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        hh1_group_oracle(4, 3)
    with pytest.raises(ValueError):
        hh1_group_oracle(2, -1)


def test_dim_center_oracle():
    assert oracles.dim_center_oracle(0) == 1
    assert oracles.dim_center_oracle(5) == 7
    gf = partition_gf(31)
    for n in range(31):
        assert oracles.dim_center_oracle(n) == gf[n]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_oracle_equals_series_formula(p):
    from blockhh.hochschild import hh1_group_series

    formula = hh1_group_series(p, partition_gf(19))
    assert hh1_group_oracle(p, 18) == formula.coeffs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_sum_equals_group_oracle(p):
    totals = tuple(sum(dim_hh1(b) for b in blocks_of(p, n)) for n in range(16))
    assert totals == hh1_group_oracle(p, 15)


def test_oracle_agrees_with_explicit_centralizers_spot():
    # a couple of raw group-theory spot checks (full sweep in acceptance)
    import permgroup

    for parts in [(), (1,), (2,), (3,), (1, 1, 1), (2, 2), (3, 2)]:
        for p in (2, 3):
            assert hom_to_Fp_dim(p, ct(*parts)) == permgroup.hom_dim(p, parts)
