"""Differential tests of the rational-function layer against sympy.

sympy is not a dependency of the package; machines without it skip this file.
Polynomials are coefficient lists in ascending powers of t.
"""

from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")

from blockhh.rational import Polynomial, RationalFunction, expand, gcd_poly, rational_fit

t = sympy.Symbol("t")

RATIONAL_FUNCTIONS = [
    ([1], [1, -1]),
    ([2], [1, -1]),
    ([0, 0, 1], [1, 0, -1]),
    ([1, 1], [1, -1, -1]),
    ([1, 0, -1], [1, -1]),  # reducible: 1 + t
    ([3, F(-1, 2)], [1, 2, 0, F(1, 3)]),
    ([0, 1], [1, -1, 0, -1, 1]),  # t / ((1 - t)(1 - t^3))
    ([1, 0, 0, 1], [1, 1]),  # reducible: 1 - t + t^2
    ([0, 2, -5], [1, -3, 2]),
    ([7], [1]),
    ([F(1, 5), 0, 4], [2, 0, 0, -3]),
]

POLYNOMIAL_PAIRS = [
    ([1, -1], [1, 0, -1]),
    ([2, 3, 1], [1, 2, 1]),  # common factor 1 + t
    ([1, 1], [1, -1]),  # coprime
    ([0, 0, 1], [0, 1]),
    ([F(1, 2), F(-1, 2)], [3, 0, -3]),
    ([1, 0, 0, -1], [1, 0, -1]),
    ([6, -5, 1], [3, -4, 1]),  # common factor t - 3
    ([5], [0, 1]),
    ([0], [1, 2, 1]),
]


def to_sympy(coeffs):
    return sum(sympy.Rational(F(c).numerator, F(c).denominator) * t**k for k, c in enumerate(coeffs))


def coeff_list(expr):
    """Ascending exact coefficients of a sympy polynomial in t, zeros trimmed."""
    poly = sympy.Poly(expr, t, domain=sympy.QQ)
    out = [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("num,den", RATIONAL_FUNCTIONS)
def test_expand_matches_sympy_series(num, den):
    order = 25
    ours = expand(RationalFunction(Polynomial(num), Polynomial(den)), order)
    truncated = sympy.series(to_sympy(num) / to_sympy(den), t, 0, order).removeO()
    theirs = coeff_list(truncated) if truncated != 0 else []
    assert list(ours.coeffs) == theirs + [0] * (order - len(theirs))


@pytest.mark.parametrize("a,b", POLYNOMIAL_PAIRS)
def test_gcd_poly_matches_sympy(a, b):
    ours = gcd_poly(Polynomial(a), Polynomial(b))
    theirs = sympy.gcd(sympy.Poly(to_sympy(a), t, domain=sympy.QQ),
                       sympy.Poly(to_sympy(b), t, domain=sympy.QQ))
    theirs = theirs.monic() if not theirs.is_zero else theirs
    assert list(ours.coeffs) == coeff_list(theirs.as_expr())


@pytest.mark.parametrize("a,b", POLYNOMIAL_PAIRS)
def test_polynomial_product_matches_sympy(a, b):
    for x, y in ((a, b), (b, a)):
        ours = Polynomial(x) * Polynomial(y)
        theirs = sympy.expand(to_sympy(x) * to_sympy(y))
        assert list(ours.coeffs) == (coeff_list(theirs) if theirs != 0 else [])


@pytest.mark.parametrize("num,den", RATIONAL_FUNCTIONS)
def test_rational_fit_matches_sympy_reduced_form(num, den):
    # sympy's cancelled form, scaled so the denominator is 1 at t = 0, is the
    # canonical form the fit must return within generous degree bounds
    snum, sden = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
    snum, sden = coeff_list(snum), coeff_list(sden)
    snum, sden = [c / sden[0] for c in snum], [c / sden[0] for c in sden]
    bound = max(len(num), len(den)) + 1
    series = expand(RationalFunction(Polynomial(num), Polynomial(den)), 2 * bound + 4)
    fitted = rational_fit(series, bound, bound)
    assert fitted is not None
    assert (list(fitted.num.coeffs), list(fitted.den.coeffs)) == (snum, sden)
    # below sympy's reduced degrees no function within the bounds can match
    deg_num, deg_den = len(snum) - 1, len(sden) - 1
    if deg_num > 0:
        assert rational_fit(series, deg_num - 1, bound) is None
    if deg_den > 0:
        assert rational_fit(series, bound, deg_den - 1) is None
