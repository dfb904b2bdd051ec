import pytest

from blockhh.blocks import (
    BlockDescriptor,
    blocks_of,
    dim_center,
    dim_hh1,
    principal_block,
    sylow_exponent,
)
from blockhh.partitions import (
    EMPTY,
    Partition,
    _check_prime,
    is_p_core,
    p_core,
    p_quotient,
    partitions_of,
    rho,
)
from blockhh.series import euler_power, pcore_count_gf

import oracles


def test_sylow_exponent_values():
    assert sylow_exponent(2, 0) == 0
    assert sylow_exponent(2, 4) == 3  # 4! = 24 = 2^3 * 3
    assert sylow_exponent(3, 9) == 4  # 9! has 3-valuation 3 + 1
    assert sylow_exponent(5, 4) == 0
    with pytest.raises(ValueError, match="m must be nonnegative"):
        sylow_exponent(2, -1)


def test_descriptor_invariants_enforced():
    with pytest.raises(ValueError):
        BlockDescriptor(2, Partition((2,)), 1)  # (2) is not a 2-core
    with pytest.raises(ValueError):
        BlockDescriptor(2, EMPTY, -1)
    b = BlockDescriptor(2, EMPTY, 2)
    assert (b.n, b.defect_order_exp) == (4, sylow_exponent(2, 4))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_derived_block_data(p):
    for n in range(21):
        for b in blocks_of(p, n):
            assert b.n == n == b.core.size + p * b.weight
            assert b.defect_order_exp == sylow_exponent(p, p * b.weight)
        for lam in partitions_of(n):
            assert p_quotient(lam, p).p == p


def test_one_prime_check_per_block(monkeypatch):
    import blockhh.blocks

    calls = []

    def counting(p):
        calls.append(p)
        return _check_prime(p)

    monkeypatch.setattr(blockhh.blocks, "_check_prime", counting)
    for p, n in ((2, 10), (3, 12), (5, 7)):
        calls.clear()
        result = blocks_of(p, n)
        assert len(calls) == 1 + len(result)
        calls.clear()
        principal_block(p, 3)
        assert len(calls) == 1


def test_blocks_of_s0():
    for p in (2, 3, 5):
        (b,) = blocks_of(p, 0)
        assert (b.weight, b.core) == (0, EMPTY)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        blocks_of(2, -1)


def test_blocks_of_s2_at_p2():
    (b,) = blocks_of(2, 2)
    assert b.weight == 1 and b.core == EMPTY
    assert dim_center(b) == 2 and dim_hh1(b) == 2


def test_weight_block_counts_match_core_counts():
    # the core-count series is read; count_pcores and blocks_of enumerate
    for p in (2, 3, 5):
        cores = pcore_count_gf(p, 26)
        for n in range(26):
            by_weight = {}
            for b in blocks_of(p, n):
                by_weight[b.weight] = by_weight.get(b.weight, 0) + 1
            for w in range(n // p + 1):
                expected = oracles.count_pcores(n - p * w, p)
                assert by_weight.get(w, 0) == expected == cores[n - p * w]


def _check_blocks_partition_the_partitions(p, n_max):
    for n in range(n_max):
        assert sum(rho(n, b.core, p) for b in blocks_of(p, n)) == oracles.partition_count(n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_blocks_partition_the_partitions(p):
    _check_blocks_partition_the_partitions(p, 16)


def test_core_check_that_accepts_a_non_core_is_caught(monkeypatch):
    from blockhh import partitions

    non_core = Partition((2,))
    assert not is_p_core(non_core, 2)
    no_p_hook = partitions._no_p_hook

    def faulty(lam, p):
        return lam == non_core or no_p_hook(lam, p)

    # blocks_of's candidate filter and the descriptor's core check share one
    # unchecked predicate, which blocks reads from partitions at the call; a
    # fault in it reaches both
    monkeypatch.setattr(partitions, "_no_p_hook", faulty)
    # the descriptor now takes the non-core, blocks_of lists it at n = 2, and
    # rho's own p_core check refuses it
    assert BlockDescriptor(2, non_core, 0).core == non_core
    assert non_core in [b.core for b in blocks_of(2, 2)]
    with pytest.raises(ValueError, match="core"):
        _check_blocks_partition_the_partitions(2, 16)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_partition_maps_to_a_listed_block(p):
    for n in range(13):
        listed = blocks_of(p, n)
        assert len(set(listed)) == len(listed)
        hit = {oracles.block_of_partition(lam, p) for lam in partitions_of(n)}
        assert hit == set(listed)


def test_block_of_partition_examples():
    for p in (2, 3, 5):
        b = oracles.block_of_partition(EMPTY, p)
        assert (b.n, b.weight) == (0, 0)
    b = oracles.block_of_partition(Partition((2, 1)), 3)
    assert (b.n, b.weight, b.core) == (3, 1, EMPTY)


@pytest.mark.parametrize("p", [2, 3])
def test_same_block_iff_same_core(p):
    for n in range(13):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                block = oracles.block_of_partition
                same = block(lam, p) == block(mu, p)
                assert same == (p_core(lam, p) == p_core(mu, p))


def test_dim_center_values():
    assert dim_center(principal_block(2, 0)) == 1
    assert dim_center(BlockDescriptor(3, Partition((1,)), 0)) == 1
    assert dim_center(principal_block(2, 1)) == 2
    # partitions of 6 with empty 3-core, by strip removal
    brute = oracles.partitions_with_core(6, (), 3)
    assert brute == 9
    assert dim_center(principal_block(3, 2)) == 9


def test_dim_center_depends_only_on_weight():
    for p in (2, 3, 5):
        gfp_coeff = {}
        for n in range(21):
            for b in blocks_of(p, n):
                gfp_coeff.setdefault(b.weight, set()).add(dim_center(b))
        for values in gfp_coeff.values():
            assert len(values) == 1


def test_dim_hh1_values():
    assert dim_hh1(principal_block(5, 0)) == 0
    assert dim_hh1(principal_block(2, 1)) == 2
    assert dim_hh1(principal_block(3, 1)) == 1
    # 2 * (rho(0) + rho(2)) with both summands enumerated
    assert oracles.partitions_with_core(2, (), 2) == 2
    assert dim_hh1(principal_block(2, 2)) == 2 * (1 + 2) == 6


def test_dim_hh1_depends_only_on_weight():
    for p in (2, 3, 5):
        seen = {}
        for n in range(21):
            for b in blocks_of(p, n):
                seen.setdefault(b.weight, set()).add(dim_hh1(b))
        for values in seen.values():
            assert len(values) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_positive_weight_blocks_have_positive_hh1(p):
    # every block of every S_n with n <= 30 is some (core, weight) with
    # |core| + p*weight <= 30; enumerate those directly
    cores = [
        lam for size in range(31) for lam in partitions_of(size) if is_p_core(lam, p)
    ]
    for core in cores:
        for w in range(1, (30 - core.size) // p + 1):
            assert dim_hh1(BlockDescriptor(p, core, w)) >= 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dim_hh1_strictly_increasing_in_weight(p):
    values = [dim_hh1(principal_block(p, w)) for w in range(12)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_count_series_given_or_built_gives_the_tuple_counts(p):
    Z = euler_power(-p, 31)
    factor = 2 if p == 2 else 1
    core = next(lam for n in (4, 3) for lam in partitions_of(n) if is_p_core(lam, p))
    for w in range(31):
        b = principal_block(p, w)
        expected = oracles.tuple_count(w, p)
        assert rho(p * w, EMPTY, p) == rho(p * w, EMPTY, p, Z) == expected
        assert rho(core.size + p * w, core, p, Z) == expected
        assert dim_center(b) == dim_center(b, Z) == expected
        hh1 = factor * sum(oracles.tuple_count(j, p) for j in range(w))
        assert dim_hh1(b) == dim_hh1(b, Z) == hh1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_count_series_too_short_or_for_another_prime_is_refused(p):
    b = principal_block(p, 5)
    other = 3 if p == 2 else 2
    for bad in (euler_power(-p, 5), euler_power(-other, 20)):
        for read in (dim_center, dim_hh1, lambda b, Z: rho(b.n, EMPTY, p, Z)):
            with pytest.raises(ValueError, match="count series"):
                read(b, bad)
    # a series of order one is the same for every prime and serves weight 0
    assert dim_center(principal_block(p, 0), euler_power(-other, 1)) == 1
