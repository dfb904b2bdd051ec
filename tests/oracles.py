"""Independent brute-force ground truth for the test suite.

Everything here recomputes quantities from definitions, by routes deliberately
different from the package's: partitions are enumerated by the
ascending-composition algorithm (the package runs ZS1 on descending parts),
and p-cores are found by literally peeling border strips off Young diagrams
(the package pushes abacus beads).  Slow on purpose; sizes stay small.

Three functions after those are enumeration routes that used to be public in
the package and had no caller there but the tests.  They keep the package's
own enumeration (ZS1, abacus cores) and are tested against the routes above.
``CycleType`` and ``hom_to_Fp_dim``, also formerly public, are the per-class
definition that the package's oracle is tested against.

Four more are the package's former kernels, unchanged: the prime check by
trial division (``is_prime_reference``, ground truth for the Miller-Rabin
``_check_prime``), the no-p-hook test on the beta-set as a Python set
(``no_p_hook_reference``, ground truth for the bitmask ``_no_p_hook``), the
oracle's single run-length loop at every p (``hh1_group_oracle_reference``,
the per-n ground truth of the one-enumeration oracle, which reads every row
m <= n off the classes of S_n and scores odd p by a set intersection), and
the one (p+2, p+2) fit of the whole prefix (``fit_phi_reference``, for the
two rungs of ``fit_phi``).

The next six are the package's former loops for the Cauchy product, the
power, expansion, inversion, the full-system rational fit and J. C. P.
Miller's power recurrence for the Euler product, kept unchanged as ground
truth for the sparse recurrence ``series_mul_ratio``, square and multiply,
the square Pade solve and the sign-split ``euler_power``.

The last, ``render_reference``, is the CLI's former renderer, which built
the whole document in memory before writing it; the streaming
``tables.emit`` is tested against it.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional

from blockhh.blocks import BlockDescriptor
from blockhh.hochschild import theorem3_min_order
from blockhh.partitions import Partition, _check_prime, is_p_core, p_core, partitions_of
from blockhh.rational import Polynomial, RationalFunction, _solve_exact, rational_fit
from blockhh.record import Record
from blockhh.series import (
    Coeff,
    Series,
    _coeff,
    _pentagonal,
    one,
    series_inv,
    series_mul,
    shift,
    truncate,
)
from blockhh.tables import canonical_json


def asc_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as descending tuples, via ascending compositions."""
    if n == 0:
        return [()]
    out = []
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        out.append(tuple(sorted(a[: k + 1], reverse=True)))
    return out


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    return len(asc_partitions(n))


def cells(parts: tuple[int, ...]) -> set[tuple[int, int]]:
    return {(i, j) for i, row in enumerate(parts) for j in range(row)}


def is_border_strip(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Whether outer/inner is a connected skew shape containing no 2x2 square."""
    skew = cells(outer) - cells(inner)
    if not skew or not cells(inner) <= cells(outer):
        return False
    if any((i + 1, j) in skew and (i, j + 1) in skew and (i + 1, j + 1) in skew
           for (i, j) in skew):
        return False
    seen = set()
    stack = [next(iter(skew))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        stack.extend(
            nb for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)) if nb in skew
        )
    return seen == skew


def sub_diagrams(parts: tuple[int, ...], k: int):
    """Yield every partition whose diagram lies inside that of parts, with k
    fewer cells."""
    tail = [sum(parts[i:]) for i in range(len(parts) + 1)]

    def rec(i: int, prev: int, left: int, mu: tuple[int, ...]):
        if left == 0:
            if i == len(parts) or parts[i] <= prev:
                yield tuple(x for x in mu + parts[i:] if x)
            return
        if left > tail[i]:
            return
        for removed in range(max(0, parts[i] - prev), min(left, parts[i]) + 1):
            yield from rec(i + 1, parts[i] - removed, left - removed, mu + (parts[i] - removed,))

    yield from rec(0, parts[0] if parts else 0, k, ())


def strip_removals(parts: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """All partitions obtained from parts by removing one border strip of p cells.

    Candidates are the sub-diagrams with p fewer cells; is_border_strip keeps
    those whose difference is a connected skew shape with no 2x2 square.
    """
    return [mu for mu in sub_diagrams(parts, p) if is_border_strip(parts, mu)]


def strip_core(parts: tuple[int, ...], p: int, pick_last: bool = False) -> tuple[int, ...]:
    """Peel border p-strips until none remain; pick_last varies the removal order."""
    while True:
        removals = strip_removals(parts, p)
        if not removals:
            return parts
        parts = removals[-1] if pick_last else removals[0]


def strip_weight(parts: tuple[int, ...], p: int) -> int:
    """Number of border p-strips removed on the way to the core."""
    count = 0
    while True:
        removals = strip_removals(parts, p)
        if not removals:
            return count
        parts = removals[0]
        count += 1


def core_count(n: int, p: int) -> int:
    """Number of partitions of n with no removable border p-strip."""
    return sum(
        1
        for lam in asc_partitions(n)
        if not any(is_border_strip(lam, mu) for mu in sub_diagrams(lam, p))
    )


def partitions_with_core(n: int, core: tuple[int, ...], p: int) -> int:
    """Filter-and-count route to the block size rho(n, core, p)."""
    return sum(1 for lam in asc_partitions(n) if strip_core(lam, p) == core)


@lru_cache(maxsize=None)
def tuple_count(w: int, p: int) -> int:
    """Number of p-tuples of partitions of total size w, by direct recursion."""
    if p == 0:
        return 1 if w == 0 else 0
    return sum(partition_count(k) * tuple_count(w - k, p - 1) for k in range(w + 1))


def euler_product(alpha: int, order: int) -> list[int]:
    """prod_{n>=1} (1 - t^n)^alpha to the given order, one factor at a time.

    Each (1 - t^n)^(-1) is an in-place prefix sum with stride n and each
    (1 - t^n) a stride-n difference: O(|alpha| * order^2) additions, no
    pentagonal numbers and no division.
    """
    c = [1] + [0] * (order - 1)
    for n in range(1, order):
        for _ in range(abs(alpha)):
            if alpha < 0:
                for k in range(n, order):
                    c[k] += c[k - n]
            else:
                for k in range(order - 1, n - 1, -1):
                    c[k] -= c[k - n]
    return c


def core_count_series(p: int, order: int) -> list[int]:
    """The p-core counts prod_{n>=1} (1 - t^(pn))^p / (1 - t^n), by stride sums."""
    c = euler_product(-1, order)
    for n in range(1, (order - 1) // p + 1):
        step = p * n
        for _ in range(p):
            for k in range(order - 1, step - 1, -1):
                c[k] -= c[k - step]
    return c


def count_pcores(n: int, p: int) -> int:
    """Number of partitions of n equal to their own p-core, by enumeration."""
    _check_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(1 for lam in partitions_of(n) if is_p_core(lam, p))


def dim_center_oracle(n: int) -> int:
    """dim Z(kS_n): the number of conjugacy classes, i.e. partitions of n.

    ``len`` of the ``partitions_of`` view counts the classes by enumerating
    them, and it must: this is the ground truth the partition series P is
    checked against, and a count by formula would check P against itself.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return len(partitions_of(n))


def block_of_partition(lam: Partition, p: int) -> BlockDescriptor:
    """The block of kS_(|lam|) containing the character labeled by lam."""
    core = p_core(lam, p)
    return BlockDescriptor(p, core, (lam.size - core.size) // p)


class CycleType(Record):
    """Multiset of cycle lengths, stored as sorted (length, multiplicity) pairs."""

    __slots__ = ("multiplicities",)

    def __post_init__(self):
        for a, m in self.multiplicities:
            if a < 1 or m < 1:
                raise ValueError("cycle lengths and multiplicities must be positive")
        lengths = [a for a, _ in self.multiplicities]
        if lengths != sorted(set(lengths)):
            raise ValueError("multiplicities must be sorted by distinct cycle length")

    @classmethod
    def from_partition(cls, lam: Partition) -> "CycleType":
        mult: dict[int, int] = {}
        for a in lam.parts:
            mult[a] = mult.get(a, 0) + 1
        return cls(tuple(sorted(mult.items())))


def hom_to_Fp_dim(p: int, cycle_type: CycleType) -> int:
    """dim Hom(C(g), F_p) for g of the given cycle type, via the wreath formula."""
    _check_prime(p)
    return sum(
        (1 if a % p == 0 else 0) + (1 if p == 2 and m >= 2 else 0)
        for a, m in cycle_type.multiplicities
    )


def is_prime_reference(p: int) -> bool:
    """Whether p is prime, by trial division up to its square root."""
    return not (p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)))


def no_p_hook_reference(lam: Partition, p: int) -> bool:
    """Whether lam has no p-hook, for a prime p: the beta-set of length
    len(parts) as a set, each bead b >= p tested for a free b - p.

    The lowest beads are tested first, without the beta-set: a last part of
    at least p is a horizontal p-hook in the last row, and p equal last parts
    are a vertical one in the last p rows.
    """
    parts = lam.parts
    L = len(parts)
    if L and (parts[-1] >= p or (L >= p and parts[-p] == parts[-1])):
        return False
    beta = {x + L - i for i, x in enumerate(parts, 1)}
    for b in beta:
        if b >= p and b - p not in beta:
            return False
    return True


def hh1_group_oracle_reference(p: int, n: int) -> int:
    """dim HH^1(kS_n), each class scored in one pass over its runs of equal
    parts: 1 if p divides the part, 1 more if p = 2 and it repeats."""
    _check_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    for lam in partitions_of(n):
        prev = prev2 = 0  # the two parts before a; parts are positive
        for a in lam.parts:
            if a != prev:
                total += a % p == 0
            elif p == 2 and a != prev2:
                total += 1
            prev2, prev = prev, a
    return total


def fit_phi_reference(p: int, Y: Series, Z: Series) -> Optional[RationalFunction]:
    """phi as the one (p+2, p+2) fit of (Y(t)/t) * Z(t)^(-1) on the whole
    theorem3_min_order(p) prefix, or None."""
    need, order = theorem3_min_order(p), min(Y.order, Z.order)
    if order < need:
        raise ValueError(
            "order %d too small to overdetermine the (p+2, p+2) fit; need >= %d" % (order, need)
        )
    y, z = truncate(Y, need), truncate(Z, need)
    if y[0] != 0:
        return None
    return rational_fit(series_mul(shift(y, -1), series_inv(z)), p + 2, p + 2)


def series_mul_reference(a: Series, b: Series) -> Series:
    """Cauchy product, truncated to the smaller operand order."""
    n = min(a.order, b.order)
    out = [0] * n
    ac, bc = a.coeffs, b.coeffs
    for i in range(n):
        ai = ac[i]
        if ai == 0:
            continue
        for j in range(n - i):
            out[i + j] += ai * bc[j]
    return Series(out)


def series_pow_reference(a: Series, k: int) -> Series:
    """a ** k for k >= 0 by k successive products, to ``a.order``."""
    if a.order == 0:
        return Series([])
    out = one(a.order)
    for _ in range(k):
        out = series_mul(out, a)
    return out


def expand_reference(f: RationalFunction, order: int) -> Series:
    """Power-series expansion of f at 0, to the given order.

    Requires the (canonical) denominator to be nonzero at 0; the coefficients
    satisfy the exact recurrence num_n = sum_k den_k * s_(n-k).
    """
    if order < 1:
        raise ValueError("order must be positive")
    d = f.den.coeffs
    if not d or d[0] == 0:
        raise ValueError("denominator vanishes at 0: no power-series expansion")
    n_coeffs = f.num.coeffs
    inv0 = Fraction(1) / d[0]
    out: list[Coeff] = []
    for n in range(order):
        acc = n_coeffs[n] if n < len(n_coeffs) else 0
        for k in range(1, min(n, len(d) - 1) + 1):
            acc -= d[k] * out[n - k]
        out.append(_coeff(Fraction(acc) * inv0 if acc else 0))
    return Series._trusted(tuple(out))


def series_inv_reference(a: Series) -> Series:
    """Multiplicative inverse of a unit series, to ``a.order``.

    Requires a nonzero constant coefficient; the usual triangular recurrence
    b_n = -(sum_{k=1}^{n} a_k b_{n-k}) / a_0 is exact over the rationals.
    """
    if a.order == 0:
        raise ValueError("cannot invert a series with no known coefficients")
    a0 = a.coeffs[0]
    if a0 == 0:
        raise ValueError("series is not a unit: constant coefficient is zero")
    inv0 = Fraction(1, 1) / a0
    out: list[Coeff] = [_coeff(inv0)]
    for n in range(1, a.order):
        acc = 0
        for k in range(1, n + 1):
            ak = a.coeffs[k]
            if ak != 0:
                acc += ak * out[n - k]
        out.append(_coeff(Fraction(-acc) / a0 if acc else 0))
    return Series._trusted(tuple(out))


def rational_fit_reference(
    s: Series, max_num_deg: int, max_den_deg: int
) -> Optional[RationalFunction]:
    """The full-system fit: every equation num = den * s at t^(L+1..order-1).

    Solved exactly over the rationals with den(0) = 1; the solution is
    accepted only if its re-expansion reproduces every supplied coefficient.
    """
    if max_num_deg < 0 or max_den_deg < 0:
        raise ValueError("degree bounds must be nonnegative")
    needed = max_num_deg + max_den_deg + 2
    if s.order < needed:
        raise ValueError(
            "series order %d too small for a (%d, %d) fit: need at least %d"
            % (s.order, max_num_deg, max_den_deg, needed)
        )
    c = s.coeffs
    rows = []
    rhs = []
    for k in range(max_num_deg + 1, s.order):
        rows.append(
            [Fraction(c[k - j]) if k - j >= 0 else Fraction(0) for j in range(1, max_den_deg + 1)]
        )
        rhs.append(Fraction(-c[k]))
    q = _solve_exact(rows, rhs, max_den_deg)
    if q is None:
        return None
    qfull = [Fraction(1)] + q
    num = [
        sum((qfull[j] * c[k - j] for j in range(min(k, max_den_deg) + 1)), Fraction(0))
        for k in range(max_num_deg + 1)
    ]
    f = RationalFunction(Polynomial(num), Polynomial(qfull))
    if expand_reference(f, s.order) != s:
        return None
    return f


def euler_power_miller(alpha: int, order: int) -> Series:
    """E(t)^alpha by Miller's recurrence term by term:
    n g_n = sum_k ((alpha + 1) k - n) e_k g_{n-k}, each division by n exact."""
    if order < 1:
        raise ValueError("order must be positive")
    pentagonal = _pentagonal(order)
    g = [1] + [0] * (order - 1)
    for n in range(1, order):
        acc = 0
        for k, e in pentagonal:
            if k > n:
                break
            acc += ((alpha + 1) * k - n) * e * g[n - k]
        g[n], remainder = divmod(acc, n)
        if remainder:
            raise RuntimeError(
                "inexact division at t^%d of the Euler product to the power %s" % (n, alpha)
            )
    return Series._trusted(tuple(g))


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_reference(command: str, params: dict, headers: list[str], rows: list[dict],
                     fmt: str) -> str:
    """One table as the CLI used to render it: the whole document, then one write."""
    out = io.StringIO()
    if fmt == "json":
        out.write(canonical_json({"command": command, "params": params, "rows": rows}))
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_cell(row[h]) for h in headers])
    else:
        grid = [headers] + [[_cell(row[h]) for h in headers] for row in rows]
        widths = [max(len(r[i]) for r in grid) for i in range(len(headers))]
        for r in grid:
            out.write("  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    return out.getvalue()
