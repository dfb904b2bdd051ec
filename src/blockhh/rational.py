"""Rational functions as exact polynomial pairs.

Provides power-series expansion at 0, reconstruction of a rational function
from a series prefix (an exact Pade-style fit, solved over the rationals with
no tolerances), and the descent g(t) from f(t) = g(t^m): f's canonical pair
is unique, so it is a pair in t^m exactly when f is a series in t^m, and its
0-th m-sections are g.

Every division goes through ``series._inverse``, so ``fractions`` loads with
the first one by something other than 1 or -1: coefficients stay ints until a
quotient needs a ``Fraction``.  The gcd stops at a constant remainder and the
Pade solve divides each integer pivot row by its content, so the closed
forms 2/(1-t) and 1/(1-t), and their fits, are built in ints.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional

from . import series
from .series import Coeff, Series, _coeff, _inverse, one, series_mul_ratio


class Polynomial:
    """Dense polynomial with exact rational coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        c = [_coeff(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs: tuple[Coeff, ...] = tuple(c)

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Coeff) -> Coeff:
        acc: Coeff = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _coeff(acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        # padded to the product's length; a zero factor leaves only zeros to trim
        padded = Series._trusted(self.coeffs + (0,) * other.degree)
        return Polynomial(series_mul_ratio(padded, other.coeffs, (1,)).coeffs)

    def scale(self, c: Coeff) -> "Polynomial":
        return Polynomial(x * c for x in self.coeffs)

    def shift(self, k: int) -> "Polynomial":
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        return Polynomial(series.shift(Series._trusted(self.coeffs), k).coeffs)

    def substitute_power(self, m: int) -> "Polynomial":
        """The substitution t -> t^m."""
        return Polynomial(series.substitute_power(Series._trusted(self.coeffs), m).coeffs)

    def section(self, m: int, s: int) -> "Polynomial":
        """The s-th m-section: coefficient n of the result is coefficient mn+s."""
        return Polynomial(series.section(Series._trusted(self.coeffs), m, s).coeffs)

    def __repr__(self) -> str:
        return "Polynomial(%r)" % (list(self.coeffs),)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            else:
                t = "t" if n == 1 else "t^%d" % n
                if c == 1:
                    terms.append(t)
                elif c == -1:
                    terms.append("-" + t)
                else:
                    terms.append("%s*%s" % (c, t))
        out = terms[0]
        for term in terms[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


def divmod_poly(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Exact polynomial division with remainder over the rationals."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, a.degree - b.degree + 1)
    r = list(a.coeffs)
    inv = _inverse(b.coeffs[-1])
    for k in range(a.degree - b.degree, -1, -1):
        c = r[k + b.degree] * inv
        if c != 0:
            q[k] = c
            for j, bj in enumerate(b.coeffs):
                r[k + j] -= c * bj
    return Polynomial(q), Polynomial(r[: b.degree] if b.degree > 0 else [])


def gcd_poly(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero:
        if b.degree == 0:  # a nonzero constant divides everything
            return Polynomial([1])
        a, b = b, divmod_poly(a, b)[1]
    if a.is_zero:
        return a
    return a.scale(_inverse(a.coeffs[-1]))


class RationalFunction:
    """A quotient of polynomials, kept in a canonical reduced form.

    Canonicalization divides out the polynomial gcd and then scales so the
    denominator has constant term 1 when it is nonzero at 0 (the expandable
    case), and leading coefficient 1 otherwise.  Equality of canonical forms
    therefore decides equality of the functions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num = Polynomial()
            self.den = Polynomial([1])
            return
        g = gcd_poly(num, den)
        num, _ = divmod_poly(num, g)
        den, _ = divmod_poly(den, g)
        inv = _inverse(den.coeffs[0] or den.coeffs[-1])
        self.num = num.scale(inv)
        self.den = den.scale(inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def substitute_power(self, m: int) -> "RationalFunction":
        """The substitution t -> t^m on the whole function."""
        return RationalFunction(
            self.num.substitute_power(m), self.den.substitute_power(m)
        )

    def __repr__(self) -> str:
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def __str__(self) -> str:
        num = str(self.num)
        if self.den == Polynomial([1]):
            return num
        if self.num.degree > 0 or "/" in num:
            num = "(%s)" % num
        return "%s/(%s)" % (num, self.den)


def expand(f: RationalFunction, order: int) -> Series:
    """Power-series expansion of f at 0, to the given order: series_mul_ratio
    applied to 1.  Requires the denominator to be nonzero at 0."""
    return series_mul_ratio(one(order), f.num.coeffs, f.den.coeffs)


def rational_fit(
    s: Series, max_num_deg: int, max_den_deg: int
) -> Optional[RationalFunction]:
    """Reconstruct a rational function from a series prefix, or None.

    Solves the Pade system num = den * s (mod t^(L+M+1)), L and M the degree
    bounds, with den(0) = 1, exactly over the rationals, and accepts the
    solution only if its re-expansion reproduces every supplied coefficient.  Returns None
    when no function within the degree bounds matches.  The series must carry
    at least max_num_deg + max_den_deg + 2 coefficients, so the system is
    overdetermined; a shorter series is a usage error, not a failed fit.
    """
    if max_num_deg < 0 or max_den_deg < 0:
        raise ValueError("degree bounds must be nonnegative")
    needed = max_num_deg + max_den_deg + 2
    if s.order < needed:
        raise ValueError(
            "series order %d too small for a (%d, %d) fit: need at least %d"
            % (s.order, max_num_deg, max_den_deg, needed)
        )
    # Square Pade system: the M = max_den_deg equations at t^(L+1..L+M) only.
    # If s is rational within the bounds, every solution of these L+M+1
    # congruences num = den * s is that function (Baker & Graves-Morris, Pade
    # Approximants, Thm 1.1); re-expanding against all of s stays overdetermined.
    c = s.coeffs
    eqs = range(max_num_deg + 1, max_num_deg + max_den_deg + 1)
    rows = [[c[k - j] if k >= j else 0 for j in range(1, max_den_deg + 1)] for k in eqs]
    rhs = [-c[k] for k in eqs]
    q = _solve_exact(rows, rhs, max_den_deg)
    if q is None:
        return None
    qfull = [1] + q
    num = series_mul_ratio(Series._trusted(c[: max_num_deg + 1]), qfull, (1,))
    f = RationalFunction(Polynomial(num.coeffs), Polynomial(qfull))
    if expand(f, s.order) != s:
        return None
    return f


def _solve_exact(
    rows: list[list[Coeff]], rhs: list[Coeff], ncols: int
) -> Optional[list[Coeff]]:
    """One exact solution of rows*x = rhs (free variables set to 0), or None."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    nrows = len(m)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if all(type(x) is int for x in m[r]):  # a pivot equal to the content becomes 1
            g = gcd(*m[r])
            m[r] = [x // g for x in m[r]]
        inv = _inverse(m[r][col])
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            return None
    x = [0] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][ncols]
    return x


def descend(f: RationalFunction, m: int) -> RationalFunction:
    """Given f whose expansion is a series in t^m, return g with g(t^m) = f(t).

    f is a series in t^m exactly when f(zt) = f(t) for every m-th root of
    unity z.  The pair (num(zt), den(zt)) is reduced with constant term 1 in
    the denominator, like f's own canonical pair, so by uniqueness that holds
    exactly when num and den have nonzero coefficients only at multiples of
    m; g is then the quotient of their 0-th m-sections.  Otherwise the first
    exponent of the expansion off the multiples of m is reported.
    """
    if m < 1:
        raise ValueError("descent modulus must be >= 1, got %d" % m)
    if f.den.coeffs[0] == 0:
        raise ValueError("denominator vanishes at 0: no power-series expansion")
    if any(c for poly in (f.num, f.den) for n, c in enumerate(poly.coeffs) if n % m):
        # A nonzero m-section of f shows a nonzero coefficient no later than
        # deg(num) + (m-1)*deg(den): the section's numerator over the common
        # denominator prod over m-th roots of unity has at most that degree.
        bound = max(f.num.degree, 0) + (m - 1) * f.den.degree + 1
        e = next(n for n, c in enumerate(expand(f, bound).coeffs) if n % m and c)
        raise ValueError(
            "expansion has nonzero coefficient at exponent %d, not divisible by %d"
            % (e, m)
        )
    return RationalFunction(f.num.section(m, 0), f.den.section(m, 0))
