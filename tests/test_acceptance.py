"""Acceptance suite: every exit criterion, exact equality, zero tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in the
captured output of a failing run).  Run the whole thing with

    pytest tests/test_acceptance.py -v
"""

import random
import time

from blockhh.blocks import blocks_of, dim_hh1, principal_block
from blockhh.hochschild import (
    SeriesContext,
    Z_series,
    fit_phi,
    hh1_block_series,
    phi_r1,
    verify_block_decomposition,
    verify_theorem3,
    y1_formula,
)
from blockhh.oracle import hh1_group_oracle
from blockhh.partitions import (
    EMPTY,
    from_core_quotient,
    p_quotient,
    partitions_of,
    rho,
)
from blockhh.rational import Polynomial, RationalFunction, descend, expand, rational_fit
from blockhh.series import partition_gf, series_inv, series_mul

import oracles
from oracles import CycleType, hom_to_Fp_dim
import permgroup

PRIMES = (2, 3, 5, 7)


def report(num, label, failures, t0):
    status = "PASS" if not failures else "FAIL"
    print("ACCEPTANCE %d %-34s %s  (%.2fs)" % (num, label, status, time.time() - t0))
    assert not failures, failures[:5]


def closed_form_group_series(p, order):
    lead = 2 if p == 2 else 1
    factor = RationalFunction(
        Polynomial([0] * p + [lead]), Polynomial([1] + [0] * (p - 1) + [-1])
    )
    return series_mul(expand(factor, order), partition_gf(order))


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    failures = []
    for p in PRIMES:
        closed = closed_form_group_series(p, 19)
        for n, got in enumerate(hh1_group_oracle(p, 18)):
            if got != closed[n]:
                failures.append((p, n, got, closed[n]))
    report(1, "group oracle == closed form", failures, t0)


def test_criterion_2_weight_formula():
    t0 = time.time()
    failures = []
    for p in PRIMES:
        factor = 2 if p == 2 else 1
        y = hh1_block_series(p, Z_series(p, 21))
        partial = 0
        for w in range(21):
            block_value = dim_hh1(principal_block(p, w))
            if block_value != factor * partial or block_value != y[w]:
                failures.append((p, w, block_value, factor * partial, y[w]))
            partial += rho(p * w, EMPTY, p)
        for n, group in enumerate(hh1_group_oracle(p, 18)):
            block_sum = sum(dim_hh1(b) for b in blocks_of(p, n))
            if block_sum != group:
                failures.append((p, n, block_sum, group))
    report(2, "weight partial-sum formula", failures, t0)


def test_criterion_3_nonvanishing():
    t0 = time.time()
    failures = []
    for p in PRIMES:
        y = hh1_block_series(p, Z_series(p, 201))
        for w in range(1, 201):
            if not y[w] > 0:
                failures.append((p, w, y[w]))
    report(3, "positive defect => nonzero HH1", failures, t0)


def test_criterion_4_rational_factorization():
    t0 = time.time()
    failures = []
    for p in PRIMES:
        ctx = SeriesContext(p, 60)
        rep = verify_theorem3(ctx)
        if not rep.holds:
            failures.append((p, rep.first_discrepancy))
        fitted = fit_phi(p, ctx.Y, ctx.Z)
        if fitted != phi_r1(p) or fitted.num(0) != y1_formula(p, 1):
            failures.append((p, str(fitted)))
    report(4, "fitted phi and both identities", failures, t0)


def test_criterion_5_residue_decomposition():
    t0 = time.time()
    failures = []
    for p in PRIMES:
        ctx = SeriesContext(p, 40)
        for s in range(p):
            rep = verify_block_decomposition(ctx, s)
            if not rep.holds:
                failures.append((p, s, rep.first_discrepancy))
    # coefficient-level restatement: p(pn+s) = sum_w z_pw * c(p(n-w)+s),
    # with p(.) enumerated from scratch and c(.) from the product formula
    from blockhh.series import pcore_count_gf

    for p in (2, 3):
        core_counts = pcore_count_gf(p, p * 12 + p)
        for n in range(13):
            for s in range(p):
                lhs = oracles.partition_count(p * n + s)
                rhs = sum(
                    rho(p * w, EMPTY, p) * core_counts[p * (n - w) + s]
                    for w in range(n + 1)
                )
                if lhs != rhs:
                    failures.append((p, n, s, lhs, rhs))
    report(5, "residue-class factorizations", failures, t0)


def test_criterion_6_descent():
    t0 = time.time()
    failures = []
    rng = random.Random(1729)
    trials = 0
    while trials < 50:
        m = rng.choice((2, 3, 5))
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        den = [rng.choice([1, -1, 2])] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
        g = RationalFunction(Polynomial(num), Polynomial(den))
        lifted = g.substitute_power(m)
        back = descend(lifted, m)
        if expand(back, 30) != expand(g, 30):
            failures.append((m, str(g)))
        trials += 1
    for p in PRIMES:
        ctx = SeriesContext(p, 60)
        phi_hat = fit_phi(p, ctx.Y, ctx.Z)
        t_phi = RationalFunction(phi_hat.num.shift(1), phi_hat.den)
        ratio = series_mul(ctx.group, series_inv(ctx.P))
        group_factor = rational_fit(ratio, 2 * p + 2, 2 * p + 2)
        if group_factor is None or descend(group_factor, p) != t_phi:
            failures.append((p, "group factor does not descend to block factor"))
    report(6, "constructive descent", failures, t0)


def test_criterion_7_bijections():
    t0 = time.time()
    failures = []
    for p in (2, 3, 5):
        for n in range(13):
            for lam in partitions_of(n):
                cq = p_quotient(lam, p)
                if from_core_quotient(cq) != lam:
                    failures.append((p, lam.parts))
                if lam.size != cq.core.size + p * cq.weight:
                    failures.append((p, lam.parts, "size"))
        gfp = partition_gf(11) ** p
        for w in range(11):
            if rho(p * w, EMPTY, p) != gfp[w]:
                failures.append((p, w, "rho vs partition power"))
        if Z_series(p, 30) != partition_gf(30) ** p:
            failures.append((p, "Z != P^p"))
    report(7, "core/quotient bijection suite", failures, t0)


def test_criterion_8_weight_one_table():
    t0 = time.time()
    failures = []
    for p in PRIMES:
        for r in range(1, 21):
            congruent = r % (2 * (p - 1)) in (0, 2 * (p - 1) - 1)
            expected = 2 if congruent else 1
            if y1_formula(p, r) != expected:
                failures.append((p, r))
        if hh1_block_series(p, Z_series(p, 2))[1] != y1_formula(p, 1):
            failures.append((p, "series coefficient 1"))
    report(8, "weight-one dimension table", failures, t0)


def test_criterion_9_explicit_group_oracle():
    t0 = time.time()
    failures = []
    for n in range(7):
        for lam in partitions_of(n):
            factors = permgroup.centralizer_invariant_factors(lam.parts)
            for p in (2, 3):
                raw = sum(1 for d in factors if d % p == 0)
                formula = hom_to_Fp_dim(p, CycleType.from_partition(lam))
                if raw != formula:
                    failures.append((p, lam.parts, raw, formula))
    report(9, "explicit centralizer abelianizations", failures, t0)
