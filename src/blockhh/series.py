"""Truncated formal power series with exact rational coefficients.

A :class:`Series` stores the first ``order`` coefficients of a power series
and nothing else; every operation states precisely to which order its result
is known (binary operations truncate to the smaller operand order).  All
arithmetic is exact: coefficients are Python ints or ``fractions.Fraction``,
never floats, so identity checks performed with these series are meaningful.
Every product of two coefficient sequences, every inverse and every expansion
is the one sparse recurrence series_mul_ratio.  The module imports nothing
from the package, so the one prime check lives here, and so do the count
series the commands read: P, the p-core counts and Z = E(t)^(-p), each
from the one Euler-product kernel.  ``series --name P``, ``Z`` and ``Cs`` run
no other library module.

``fractions`` loads only when a rational coefficient can arise: ``_coeff``
imports it for a coefficient that is not an int, and ``_inverse`` for the
exact division behind every ``Fraction`` the package builds, unless it
inverts 1 or -1.  Integer-only work (partition counts, core counts, the count
series) never loads it.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Sequence, Union

Coeff = Union[int, "Fraction"]


# Miller-Rabin to the bases 2, 7 and 61 is exact below 4,759,123,141
# (Jaeschke, Math. Comp. 61, 1993), so this limit must stay below that bound;
# no p this large has any use here.
PRIME_LIMIT = 1 << 32


def _check_prime(p: int) -> None:
    if p >= PRIME_LIMIT:
        raise ValueError("p must be below 2^32, got %d" % p)
    if p < 2 or p % 2 == 0 and p != 2:
        raise ValueError("p must be prime, got %d" % p)
    d, s = p - 1, 0  # p - 1 = d * 2^s with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):  # a strong probable-prime test to each base
        x = pow(a, d, p)
        if x == 0 or x == 1 or x == p - 1:  # x == 0: p is 2, 7 or 61, and divides a
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError("p must be prime, got %d" % p)


def _coeff(x) -> Coeff:
    """Validate and normalize a coefficient (Fraction with denominator 1 -> int);
    an int returns at once, before fractions is loaded (bool is not an int here)."""
    if type(x) is int:
        return x
    from fractions import Fraction

    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError("exact coefficient required, got %s" % type(x).__name__)
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _inverse(c: Coeff) -> Coeff:
    """1/c for a nonzero exact coefficient, normalized as ``_coeff`` does;
    an int 1 or -1 is its own inverse, returned before fractions is loaded."""
    if type(c) is int and (c == 1 or c == -1):
        return c
    from fractions import Fraction

    return _coeff(Fraction(1, c))


class Series:
    """A power series known modulo t^order.

    ``coeffs[n]`` is the coefficient of t^n; ``order`` equals the number of
    stored coefficients.  Instances are immutable value objects and safe to
    share between threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff]):
        self.coeffs: tuple[Coeff, ...] = tuple(_coeff(c) for c in coeffs)

    @classmethod
    def _trusted(cls, coeffs: tuple) -> "Series":
        """A series from a tuple of coefficients already normalized: no checks."""
        a = object.__new__(cls)
        a.coeffs = coeffs
        return a

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Coeff:
        """Coefficient of t^n (raises IndexError beyond the known order)."""
        if n < 0:
            raise IndexError("negative exponent %d" % n)
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Series") -> "Series":
        return series_add(self, other)

    def __pow__(self, k: int) -> "Series":
        if k < 0:
            raise ValueError("negative power; invert explicitly with series_inv")
        if self.order == 0:
            return Series([])
        out, square = one(self.order), self
        while k:  # square and multiply: at most 2 * k.bit_length() products
            if k & 1:
                out = series_mul(out, square)
            k >>= 1
            if k:
                square = series_mul(square, square)
        return out

    def __repr__(self) -> str:
        return "Series(%r)" % (list(self.coeffs),)


def series_add(a: Series, b: Series) -> Series:
    """Coefficientwise sum, truncated to the smaller operand order."""
    return Series(x + y for x, y in zip(a.coeffs, b.coeffs))


def series_mul(a: Series, b: Series) -> Series:
    """Cauchy product, truncated to the smaller operand order; it costs the
    order times the nonzero terms of b, so pass the sparser operand second."""
    n = min(a.order, b.order)
    return series_mul_ratio(truncate(a, n), b.coeffs[:n], (1,))


def series_mul_ratio(a: Series, num: Sequence[Coeff], den: Sequence[Coeff]) -> Series:
    """a * num / den to ``a.order``, for coefficient sequences with den[0] != 0.

    den_0 out_n = sum_k num_k a_(n-k) - sum_(k>=1) den_k out_(n-k), over the
    nonzero terms of num and den only: O(order * (nnz num + nnz den)), in ints
    when den_0 = 1 and the inputs are ints, normalized as ``Series(...)`` does.
    """
    if not den or den[0] == 0:
        raise ValueError("denominator vanishes at 0: no power-series expansion")
    order, ac, d0 = a.order, a.coeffs, den[0]
    inv0 = _inverse(d0)
    num_terms = [(k, c) for k, c in enumerate(num[:order]) if c]
    den_terms = [(k, c) for k, c in enumerate(den[:order]) if c and k]
    out: list[Coeff] = []
    for n in range(order):
        acc = 0
        for k, c in num_terms:
            if k > n:
                break
            acc += c * ac[n - k]
        for k, c in den_terms:
            if k > n:
                break
            acc -= c * out[n - k]
        if d0 != 1:
            acc *= inv0
        out.append(acc if type(acc) is int else _coeff(acc))
    return Series._trusted(tuple(out))


def series_inv(a: Series) -> Series:
    """Multiplicative inverse of a unit series (nonzero constant term), to
    ``a.order``: series_mul_ratio with numerator 1."""
    return series_mul_ratio(one(a.order), (1,), a.coeffs)


def shift(a: Series, k: int) -> Series:
    """Multiply by t^k (k >= 0) or divide by t^(-k) (k < 0).

    Multiplication raises the order by k.  Division lowers exponents and the
    order, and requires the low coefficients to vanish: dividing a series that
    is not divisible by t^(-k) raises ValueError.
    """
    if k >= 0:
        return Series._trusted((0,) * k + a.coeffs)
    k = -k
    if k > a.order:
        raise ValueError("cannot divide by t^%d: only %d coefficients known" % (k, a.order))
    for i in range(k):
        if a.coeffs[i] != 0:
            raise ValueError(
                "series is not divisible by t^%d: coefficient of t^%d is %s"
                % (k, i, a.coeffs[i])
            )
    return Series._trusted(a.coeffs[k:])


def substitute_power(a: Series, m: int) -> Series:
    """The substitution t -> t^m; knowing a mod t^N gives the result mod t^(mN)."""
    if m < 1:
        raise ValueError("substitution power must be >= 1, got %d" % m)
    out = [0] * (m * a.order)
    out[::m] = a.coeffs
    return Series._trusted(tuple(out))


def section(a: Series, m: int, s: int) -> Series:
    """The s-th m-section: coefficient n of the result is coefficient mn+s of a.

    Sections realize the decomposition a(t) = sum_{s=0}^{m-1} a_s(t^m) t^s.
    The result is known to order ceil((a.order - s) / m).
    """
    if m < 1:
        raise ValueError("section modulus must be >= 1, got %d" % m)
    if not 0 <= s < m:
        raise ValueError("section residue %d out of range 0..%d" % (s, m - 1))
    return Series._trusted(a.coeffs[s::m])


def truncate(a: Series, order: int) -> Series:
    """Forget coefficients at and beyond t^order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > a.order:
        raise ValueError("cannot extend a series known only to order %d" % a.order)
    return Series._trusted(a.coeffs[:order])


def one(order: int) -> Series:
    """The constant series 1, known to the given order."""
    if order < 1:
        raise ValueError("order must be positive")
    return Series([1] + [0] * (order - 1))


def _pentagonal(order: int) -> list[tuple[int, int]]:
    """(k, e_k) for the nonzero coefficients e_k of E(t) with 0 < k < order, ascending."""
    return [
        (k, (-1) ** j)
        for j in range(1, isqrt(order) + 1)
        for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2)
        if k < order
    ]


def euler_power(alpha: int, order: int) -> Series:
    """The Euler product E(t)^alpha = prod_{n>=1} (1 - t^n)^alpha, any integer alpha.

    By Euler's pentagonal theorem E has O(sqrt(order)) nonzero coefficients,
    (-1)^j at j(3j -+ 1)/2, so J. C. P. Miller's power recurrence (Knuth,
    TAOCP Vol. 2, 4.7), n g_n = sum_k ((alpha + 1) k - n) e_k g_{n-k}, costs
    O(order^1.5).  It runs as n g_n = (alpha + 1) S1 - n S0, S1 = sum_k k e_k g_{n-k}, with
    S0 = sum_k e_k g_{n-k} summed by the sign of e_k, additions only; at alpha = -1 it is
    Euler's partition recurrence g_n = -S0.  Each division by n is exact, else RuntimeError.
    """
    if order < 1:
        raise ValueError("order must be positive")
    pentagonal = _pentagonal(order)
    plus, minus = ([k for k, e in pentagonal if e == sign] for sign in (1, -1))
    weights = [(k, k * e) for k, e in pentagonal]
    g = [1] + [0] * (order - 1)
    for n in range(1, order):
        s0 = s1 = 0
        for k in plus:
            if k > n:
                break
            s0 += g[n - k]
        for k in minus:
            if k > n:
                break
            s0 -= g[n - k]
        if alpha + 1:
            for k, w in weights:
                if k > n:
                    break
                s1 += w * g[n - k]
            quotient, remainder = divmod((alpha + 1) * s1, n)
            if remainder:
                raise RuntimeError("inexact division at t^%d of the Euler product to the "
                                   "power %s" % (n, alpha))
            s0 -= quotient
        g[n] = -s0
    return Series._trusted(tuple(g))


def partition_gf(order: int) -> Series:
    """The partition-counting series prod_{n>=1} (1 - t^n)^(-1) = E(t)^(-1).

    Coefficient n is the number of partitions of n.
    """
    return euler_power(-1, order)


def Z_series(p: int, order: int) -> Series:
    """Center dimensions of principal blocks by weight: coefficient w is z_w.

    z_w = rho(pw, empty) counts p-tuples of partitions of total size w, so
    Z = P^p = E(t)^(-p), from the Euler-product kernel.  thm2 compares its
    own count series with P ** p, by squaring, on a short prefix.
    """
    _check_prime(p)
    return euler_power(-p, order)


def pcore_count_gf(p: int, order: int) -> Series:
    """Counting series for p-core partitions: coefficient n is c(n).

    Uses the classical product E(t^p)^p / E(t): the lifted power divided by
    E(t), written down from its pentagonal terms, O(order^1.5) in all; the
    test suite enumerates the combinatorial definition against it.
    """
    _check_prime(p)
    lifted = [0] * order  # E(t^p)^p below t^order, never p entries for order < p
    lifted[::p] = euler_power(p, -(-order // p)).coeffs
    e = [1] + [0] * (order - 1)
    for k, c in _pentagonal(order):
        e[k] = c
    return series_mul_ratio(Series._trusted(tuple(lifted)), (1,), e)
