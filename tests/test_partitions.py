from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from blockhh.partitions import (
    EMPTY,
    CoreQuotient,
    Partition,
    _no_p_hook,
    beta_set,
    from_core_quotient,
    is_p_core,
    p_core,
    p_quotient,
    partition_from_beta,
    partitions_of,
    rho,
)
from blockhh.series import partition_gf

import oracles

partition_strategy = st.lists(st.integers(1, 9), max_size=7).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition(()).size == 0
    assert Partition((3, 1)).size == 4
    assert Partition((3, 1)) != 5 and not Partition(()) == 5
    assert bool(Partition(()))  # no __len__: every partition is truthy


def test_partitions_of_zero():
    assert list(partitions_of(0)) == [EMPTY]
    with pytest.raises(ValueError, match="n must be nonnegative"):
        partitions_of(-1)  # at the call, before any iteration


def test_partitions_of_is_a_reiterable_sized_view():
    for n in range(26):
        view = partitions_of(n)
        first = [lam.parts for lam in view]
        assert [lam.parts for lam in view] == first
        assert len(view) == len(first) == oracles.partition_count(n)


def test_partitions_of_len_counts_by_iterating(monkeypatch):
    # never by formula: oracles.dim_center_oracle is this len, checked against P
    view = partitions_of(12)
    real, iterations = type(view).__iter__, []

    def counted(self):
        iterations.append(self)
        return real(self)

    monkeypatch.setattr(type(view), "__iter__", counted)
    assert len(view) == 77 and iterations == [view]


class _Spy:
    """A ``partitions_of`` view that counts its iterations and its ``len`` calls."""

    def __init__(self, view):
        self.view, self.iterations, self.lens = view, 0, 0

    def __iter__(self):
        self.iterations += 1
        return iter(self.view)

    def __len__(self):
        self.lens += 1
        return len(self.view)


def test_library_callers_iterate_each_view_once(monkeypatch):
    """blocks_of and the oracle each iterate every view they ask for once and
    never call len on it, which would run the enumeration a second time."""
    from blockhh import blocks, oracle, partitions

    expected = (blocks.blocks_of(3, 20), oracle.hh1_group_oracle(3, 20))
    real, spies = partitions.partitions_of, []

    def spied(n):
        spies.append(_Spy(real(n)))
        return spies[-1]

    monkeypatch.setattr(partitions, "partitions_of", spied)
    monkeypatch.setattr(oracle, "partitions_of", spied)
    assert blocks.blocks_of(3, 20) == expected[0]
    assert len(spies) == 20 // 3 + 1
    assert oracle.hh1_group_oracle(3, 20) == expected[1]
    assert len(spies) == 20 // 3 + 2
    assert all((spy.iterations, spy.lens) == (1, 0) for spy in spies)


def test_enumeration_holds_one_partition_at_a_time():
    """Iterating the p(45) = 89,134 partitions of 45 allocates under 512 KiB,
    counted by tracemalloc.  CPython 3.11 keeps freed 20-part tuples on its
    tuple free list, at most 2000 of them (400,000 bytes), and tracemalloc
    counts them."""
    import tracemalloc

    tracemalloc.start()
    try:
        for _ in partitions_of(45):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_partitions_of_four():
    got = [lam.parts for lam in partitions_of(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_reverse_lex_order():
    # the ascending-composition enumerator is the independent route
    for n in range(26):
        parts = [lam.parts for lam in partitions_of(n)]
        assert parts == sorted(oracles.asc_partitions(n), reverse=True)


def _rechecked(*lams):
    """Each partition equals its rebuild through the validating constructor."""
    for lam in lams:
        checked = Partition(lam.parts)
        assert lam == checked and lam.size == checked.size
    return lams[0]


def test_enumerated_partitions_pass_the_public_check():
    for n in range(26):
        for lam in partitions_of(n):
            assert _rechecked(lam).size == n


def test_a_partition_stores_only_its_parts():
    assert Partition.__slots__ == ("parts",)
    with pytest.raises(AttributeError):
        Partition((3, 1)).size = 5
    for n in range(21):
        for lam in partitions_of(n):
            assert lam.size == sum(lam.parts) == n


def test_partitions_count_matches_gf_and_enumeration():
    gf = partition_gf(31)
    for n in range(14):
        lams = partitions_of(n)
        assert len(lams) == len(set(lams)) == oracles.partition_count(n)
    for n in range(31):
        assert gf[n] == oracles.partition_count(n)


def test_beta_set_empty():
    assert beta_set(EMPTY, 3) == [2, 1, 0]


def test_beta_set_hand_example():
    assert beta_set(Partition((2, 1)), 2) == [3, 1]


def test_beta_set_rejects_short_length():
    with pytest.raises(ValueError):
        beta_set(Partition((1, 1, 1)), 2)


def test_beta_roundtrip():
    for n in range(11):
        for lam in partitions_of(n):
            for extra in range(4):
                length = len(lam.parts) + extra
                assert _rechecked(partition_from_beta(beta_set(lam, length))) == lam


def test_partition_from_beta_rejects_bad_input():
    with pytest.raises(ValueError):
        partition_from_beta([2, 2])
    with pytest.raises(ValueError):
        partition_from_beta([-1, 0])
    with pytest.raises(ValueError, match="positive integers"):
        partition_from_beta([3.0, 1])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_is_p_core_matches_p_core_and_strip_removal(p):
    for n in range(23):
        for lam in partitions_of(n):
            fixed = p_core(lam, p) == lam
            assert is_p_core(lam, p) == fixed
            if n <= 14:
                assert fixed == (not oracles.strip_removals(lam.parts, p))


# parts from a wide and a narrow range, so runs of equal parts are common;
# kept while the running size is at most 80
sized_partitions = st.lists(st.integers(1, 80) | st.integers(1, 4), max_size=80).map(
    lambda xs: Partition(sorted((x for x, s in zip(xs, accumulate(xs)) if s <= 80), reverse=True))
)
HOOK_PRIMES = [2, 3, 5, 7, 11, 13, 83, 4294967291]  # 83 is past every size drawn


@given(sized_partitions, st.sampled_from(HOOK_PRIMES))
def test_bitmask_core_test_matches_set_test_and_p_core(lam, p):
    for mu in (lam, p_core(lam, p)):
        assert _no_p_hook(mu, p) == oracles.no_p_hook_reference(mu, p) == (p_core(mu, p) == mu)


def test_is_p_core_rejects_non_prime():
    with pytest.raises(ValueError):
        is_p_core(EMPTY, 4)
    for p in (0, 1, 9):
        with pytest.raises(ValueError, match="prime"):
            is_p_core(Partition((3, 1)), p)


def test_p_core_fixed_points():
    for p in (2, 3, 5):
        assert p_core(EMPTY, p) == EMPTY
    assert p_core(Partition((2, 1)), 3) == EMPTY
    assert p_core(Partition((2,)), 2) == EMPTY
    assert p_core(Partition((1, 1)), 2) == EMPTY


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_core_matches_strip_removal_both_orders(p):
    for n in range(11):
        for lam in partitions_of(n):
            first = oracles.strip_core(lam.parts, p)
            last = oracles.strip_core(lam.parts, p, pick_last=True)
            assert first == last
            assert p_core(lam, p).parts == first


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_weight_counts_strip_removals(p):
    for n in range(10):
        for lam in partitions_of(n):
            assert p_quotient(lam, p).weight == oracles.strip_weight(lam.parts, p)


def test_p_quotient_of_empty():
    for p in (2, 3, 5):
        cq = p_quotient(EMPTY, p)
        assert cq.core == EMPTY
        assert cq.quotient == (EMPTY,) * p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_size_bookkeeping(p):
    for n in range(13):
        for lam in partitions_of(n):
            cq = p_quotient(lam, p)
            assert n == cq.core.size + p * cq.weight


def test_two_partitions_of_two_have_distinct_quotients():
    tuples = {p_quotient(lam, 2).quotient for lam in partitions_of(2)}
    assert len(tuples) == 2
    assert all(sum(q.size for q in t) == 1 for t in tuples)


def test_from_core_quotient_of_trivial():
    for p in (2, 3, 5):
        cq = CoreQuotient(core=EMPTY, quotient=(EMPTY,) * p)
        assert from_core_quotient(cq) == EMPTY


@pytest.mark.parametrize("p", [2, 3, 5])
def test_roundtrip_partition_to_core_quotient(p):
    for n in range(13):
        for lam in partitions_of(n):
            cq = p_quotient(lam, p)
            _rechecked(cq.core, *cq.quotient)
            assert _rechecked(from_core_quotient(cq)) == lam


@pytest.mark.parametrize("p", [2, 3])
def test_roundtrip_core_quotient_to_partition(p):
    cores = [
        lam for size in range(5) for lam in partitions_of(size) if is_p_core(lam, p)
    ]
    quotients = [
        tuple(qs)
        for total in range(4)
        for qs in _tuples_of_partitions(total, p)
    ]
    for core in cores:
        for quotient in quotients:
            cq = CoreQuotient(core=core, quotient=quotient)
            back = p_quotient(_rechecked(from_core_quotient(cq)), p)
            _rechecked(back.core, *back.quotient)
            assert back == cq


def _tuples_of_partitions(total, p):
    if p == 0:
        if total == 0:
            yield ()
        return
    for k in range(total + 1):
        for head in partitions_of(k):
            for tail in _tuples_of_partitions(total - k, p - 1):
                yield (head,) + tail


@given(partition_strategy, st.sampled_from([2, 3, 5]))
def test_roundtrip_property(lam, p):
    cq = p_quotient(lam, p)
    _rechecked(cq.core, *cq.quotient)
    assert _rechecked(from_core_quotient(cq)) == lam
    assert lam.size == cq.core.size + p * cq.weight


def test_core_quotient_rejects_non_core():
    with pytest.raises(ValueError, match="core"):
        CoreQuotient(core=Partition((2,)), quotient=(EMPTY, EMPTY))


def test_rho_trivial_and_small():
    for p in (2, 3, 5):
        assert rho(0, EMPTY, p) == 1
        assert rho(p, EMPTY, p) == p
    assert rho(1, EMPTY, 2) == 0
    staircase = Partition((2, 1))
    assert is_p_core(staircase, 2)
    assert rho(4, staircase, 2) == 0  # wrong residue mod 2
    assert rho(2, staircase, 2) == 0  # smaller than the core


def test_rho_rejects_non_core():
    with pytest.raises(ValueError):
        rho(4, Partition((2,)), 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rho_matches_filter_enumeration(p):
    for n in range(11):
        for size in range(n + 1):
            for core in partitions_of(size):
                if not is_p_core(core, p):
                    continue
                assert rho(n, core, p) == oracles.partitions_with_core(
                    n, core.parts, p
                )


def test_rho_of_empty_core_is_multipartition_count():
    for p in (2, 3, 5):
        gfp = partition_gf(11) ** p
        for w in range(11):
            assert rho(p * w, EMPTY, p) == gfp[w] == oracles.tuple_count(w, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_partition_in_exactly_one_block(p):
    for n in range(21):
        total = sum(
            rho(n, core, p)
            for w in range(n // p + 1)
            for core in partitions_of(n - p * w)
            if is_p_core(core, p)
        )
        assert total == oracles.partition_count(n)


def test_count_pcores_values():
    for p in (2, 3, 5):
        assert oracles.count_pcores(0, p) == 1
    assert oracles.count_pcores(4, 2) == 0
    for p in (2, 3, 5, 7):
        for n in range(12):
            assert oracles.count_pcores(n, p) == oracles.core_count(n, p)
