"""Generating functions for block dimension data, and machine identity checks.

Fix a prime p and write z_w and y_w for the center dimension and the first
Hochschild cohomology dimension of a weight-w block.  The series handled here
are

    Z(t) = sum z_w t^w,   Y(t) = sum y_w t^w,

the group-level series sum_n dim HH^1(kS_n) t^n, and for each residue s the
p-core counting sections C_s(t) = sum_n c(np + s) t^n.  The structural facts
being verified, each as an exact coefficientwise identity:

* grouping the symmetric groups by n mod p factors center and HH^1 data
  through the blocks:  sum_n dim Z(kS_{pn+s}) t^{pn+s} = t^s Z(t^p) C_s(t^p),
  and the same shape with Y for HH^1; on p-sections this reads
  section(P, p, s) = Z C_s and section(group, p, s) = Y C_s;
* Y(t) = t * phi(t) * Z(t) for a rational phi with phi(0) != 0, and the
  group-level series equals t^p phi(t^p) P(t) where P counts partitions;
* y_w is the partial-sum formula over smaller principal-block centers,
  doubled when p = 2.

phi is never assumed: fit_phi reconstructs it by exact rational fitting of a
series prefix, and thm3 alone compares it, to the full order, with the data
and the closed form (2/(1-t) for p = 2, 1/(1-t) for p >= 3), so a
transcription error in either route fails, and so does a failed fit (None).
Each identity is compared in one place, the verifier that reports it, and
every verifier ends in _verdict; the builders return one route each, from
the series given them, and a SeriesContext builds each series once for them.
Every product is the one sparse recurrence series_mul_ratio: directly for a
closed form or a fitted phi (phi, the group factor, t^p phi(t^p), the check
of the first rung of the phi fit), through series_mul for eq12
and the phi fit, which pass C_s and Z^(-1), the sparser operands, second.
Z is built by series.Z_series, which the context reads through its name here.
``blocks``, ``partitions`` and ``rational`` are bound as modules and read at
the call, so the group series runs none of them.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Iterable, Optional

from . import blocks, partitions, rational
from .record import Record
from .series import (
    Coeff,
    Series,
    Z_series,
    _check_prime,
    euler_power,
    partition_gf,
    pcore_count_gf,
    section,
    series_inv,
    series_mul,
    series_mul_ratio,
    shift,
    truncate,
)

Discrepancy = tuple[int, Coeff, Coeff]


class VerificationReport(Record):
    """Outcome of one identity check: all-or-nothing, first mismatch recorded."""

    __slots__ = ("identity_name", "p", "order", "first_discrepancy")

    @property
    def holds(self) -> bool:
        return self.first_discrepancy is None

    def __str__(self) -> str:
        head = "%s (p=%d, order=%d): " % (self.identity_name, self.p, self.order)
        if self.holds:
            return head + "holds"
        e, lhs, rhs = self.first_discrepancy
        return head + "FAILS at t^%d (lhs=%s, rhs=%s)" % (e, lhs, rhs)


def y1_formula(p: int, r: int) -> int:
    """Dimension of degree-r cohomology of a weight-1 block.

    2 when r is congruent to 0 or -1 modulo 2(p-1) (always, when p = 2),
    and 1 otherwise.
    """
    _check_prime(p)
    if r < 1:
        raise ValueError("degree r must be >= 1")
    modulus = 2 * (p - 1)
    return 2 if r % modulus in (0, modulus - 1) else 1


def phi_r1(p: int) -> rational.RationalFunction:
    """The closed-form degree-one ratio: 2/(1-t) for p = 2, 1/(1-t) for p >= 3."""
    _check_prime(p)
    one_minus_t = rational.Polynomial([1, -1])
    return rational.RationalFunction(rational.Polynomial([2 if p == 2 else 1]), one_minus_t)


class SeriesContext:
    """p, the order the verifiers report, and the series they read, each built
    once, on first use.  P, Z and the core-count sections reach max(order, 2):
    eq12 reads Z, Y and C_s only to its section length, at most the order, and
    thm2 reads Y to weight max(1, order // 2), so at order 1 to weight 1.  Y,
    the group series and phi are built from them; phi is fitted on fit_phi's
    prefix, and is None when no fit exists."""

    def __init__(self, p: int, order: int):
        _check_prime(p)
        if order < 1:
            raise ValueError("order must be positive")
        self.p, self.order = p, order
        self._built_to = max(order, 2)

    @cached_property
    def P(self) -> Series:
        return partition_gf(self._built_to)

    @cached_property
    def Z(self) -> Series:
        return Z_series(self.p, self._built_to)

    @cached_property
    def Y(self) -> Series:
        return hh1_block_series(self.p, self.Z)

    @cached_property
    def group(self) -> Series:
        return hh1_group_series(self.p, self.P)

    @cached_property
    def core_sections(self) -> tuple[Series, ...]:
        """C_s for s = 0..p-1, the p-sections of the core counts to the order."""
        cores = pcore_count_gf(self.p, self._built_to)
        return tuple(section(cores, self.p, s) for s in range(self.p))

    @cached_property
    def phi(self) -> Optional[rational.RationalFunction]:
        return fit_phi(self.p, self.Y, self.Z)


def hh1_block_series(p: int, Z: Series) -> Series:
    """Y(t) to Z's order: coefficient w is the HH^1 dimension of any weight-w block.

    The block formula, y_w = (2 if p = 2 else 1) * (z_0 + ... + z_(w-1)): the
    HH^1 of a block is a sum of smaller centers.  fit_phi discovers phi from
    it, and thm3 compares it with t phi Z.
    """
    _check_prime(p)
    factor = blocks._hh1_factor(p)
    return Series(factor * partial for partial in accumulate(Z.coeffs[:-1], initial=0))


def hh1_group_series(p: int, P: Series) -> Series:
    """sum_n dim HH^1(kS_n) t^n to P's order: the closed-form factor 2t^2/(1-t^2)
    (p = 2) or t^p/(1-t^p) (p >= 3) applied to the partition series P.

    thm3 compares it with the substitution route t^p phi(t^p) P(t), and the
    oracle with the class enumeration.
    """
    _check_prime(p)
    lead = 2 if p == 2 else 1
    k = min(p, P.order)  # t^p is 0 to the order when p >= order
    return series_mul_ratio(P, (0,) * k + (lead,), (1,) + (0,) * (k - 1) + (-1,))


def theorem3_min_order(p: int) -> int:
    """Least order thm3 accepts: max(20, 2p + 7) overdetermines the phi fit."""
    return max(20, 2 * p + 7)


def fit_phi(p: int, Y: Series, Z: Series) -> Optional[rational.RationalFunction]:
    """Reconstruct phi from series data alone: fit (Y(t)/t) * Z(t)^(-1), or None.

    Reads Y and Z only to theorem3_min_order(p), which overdetermines degree
    bounds (p+2, p+2); within them a fit of the prefix is the function (Pade
    uniqueness), and thm3 checks it to the full order.  Two rungs: bounds
    (1, 1) fit 4 terms, kept only if Y = t phi Z on the whole prefix, then
    (p+2, p+2) fit the whole prefix.  Every Y built here is a constant times
    the partial sums of Z, so the first rung holds on the data.  None when Y
    has a constant term or nothing matches.
    """
    _check_prime(p)
    need, order = theorem3_min_order(p), min(Y.order, Z.order)
    if order < need:
        raise ValueError(
            "order %d too small to overdetermine the (p+2, p+2) fit; need >= %d" % (order, need)
        )
    y, z = truncate(Y, need), truncate(Z, need)
    if y[0] != 0:
        return None
    y_t, z_t = shift(y, -1), truncate(z, need - 1)
    f = rational.rational_fit(series_mul(truncate(y_t, 4), series_inv(truncate(z, 4))), 1, 1)
    if f is not None and series_mul_ratio(z_t, f.num.coeffs, f.den.coeffs) == y_t:
        return f
    return rational.rational_fit(series_mul(y_t, series_inv(z)), p + 2, p + 2)


def verify_block_decomposition(ctx: SeriesContext, s: int,
                               inject_fault: bool = False) -> VerificationReport:
    """Check the residue-s factorizations of the group center and HH^1 series.

    Left sides are computed without block theory (partition counts; the
    closed-form group HH^1 series); right sides are t^s Z(t^p) C_s(t^p) and
    t^s Y(t^p) C_s(t^p).  Both are compared on s-th p-sections, section(P, p, s)
    against Z C_s, to m = ceil((order - s) / p) terms; a mismatch at section
    index k is reported at t^(pk + s).  ``inject_fault`` bumps C_s[1], a
    self-test that the comparison actually bites.
    """
    p, order = ctx.p, ctx.order
    if not 0 <= s < p:
        raise ValueError("residue %d out of range 0..%d" % (s, p - 1))
    lhs = section(truncate(ctx.P, order), p, s)
    cs = truncate(ctx.core_sections[s], lhs.order)
    if inject_fault:
        cs = _bump(cs, 1)

    def comparisons():  # series_mul truncates Z and Y to the order of C_s
        yield lhs, series_mul(ctx.Z, cs), p, s
        yield section(truncate(ctx.group, order), p, s), series_mul(ctx.Y, cs), p, s

    return _verdict("eq12:s=%d" % s, p, order, comparisons())


def verify_theorem3(ctx: SeriesContext, inject_fault: bool = False) -> VerificationReport:
    """Check Y(t) = t phi(t) Z(t) and the group series = t^p phi(t^p) P(t),
    with phi reconstructed by rational fitting rather than assumed.  Once the
    fit equals the closed form, the group check is the one comparison of the
    group series' closed-form and substitution routes.

    Also checks y_0 = 0, y_1 against the weight-1 dimension and the fitted
    phi against the closed form; with Y = t phi Z and z_0 = 1, phi(0) = y_1.
    Requires a context order >= theorem3_min_order(p).  phi is the context's
    prefix fit; when there is none, Y is compared with t phi_r1 Z, which
    locates the first coefficient where Y leaves that form.  ``inject_fault``
    corrupts one Y coefficient after fitting.
    """
    p, order = ctx.p, ctx.order
    if order < theorem3_min_order(p):
        raise ValueError("order %d too small; need >= %d" % (order, theorem3_min_order(p)))
    y = truncate(ctx.Y, order)
    phi_hat = ctx.phi or phi_r1(p)
    if inject_fault:
        y = _bump(y, order // 2)

    def comparisons():
        yield truncate(y, 2), Series([0, y1_formula(p, 1)])
        # agreement to this order pins the function within the degree bounds
        yield rational.expand(phi_hat, order), rational.expand(phi_r1(p), order)
        z = truncate(ctx.Z, order - 1)
        yield y, shift(series_mul_ratio(z, phi_hat.num.coeffs, phi_hat.den.coeffs), 1)
        yield truncate(ctx.group, order), _lift(phi_hat, p, truncate(ctx.P, order))

    return _verdict("thm3", p, order, comparisons())


def verify_theorem2(ctx: SeriesContext, inject_fault: bool = False) -> VerificationReport:
    """Check the weight-partial-sum formula for HH^1 dimensions, three ways.

    For every weight w <= max(1, order // 2) of the context the block value
    must equal the partial sums over rho(pj, empty) and over principal-block
    center dimensions (doubled when p = 2), and the coefficient of the
    context's Y.  The report's order field records that weight bound.

    The block side reads a count series E(t)^(-p) built here, not ctx.Z, and
    compares up to 12 leading terms with P^p before it builds the block routes.
    Y is built from ctx.Z, thm3 sees only their ratio, and eq12 reads ctx.Z
    only to order/p: past that, a fault in Z_series shows here alone.
    """
    p, max_weight = ctx.p, max(1, ctx.order // 2)
    y = truncate(ctx.Y, max_weight + 1)
    counts = euler_power(-p, max_weight + 1)
    guard = min(max_weight + 1, 12)
    if inject_fault:
        y = _bump(y, max(1, max_weight // 2))
    factor = blocks._hh1_factor(p)

    def comparisons():
        yield truncate(counts, guard), partition_gf(guard) ** p
        principal = [blocks.principal_block(p, w) for w in range(max_weight + 1)]
        value = Series(blocks.dim_hh1(b, counts) for b in principal)
        rhos = (partitions.rho(p * w, partitions.EMPTY, p, counts) for w in range(max_weight))
        yield value, Series(factor * r for r in accumulate(rhos, initial=0))
        centers = (blocks.dim_center(b, counts) for b in principal[:-1])
        yield value, Series(factor * c for c in accumulate(centers, initial=0))
        yield value, y

    return _verdict("thm2", p, max_weight, comparisons())


def _lift(phi: rational.RationalFunction, p: int, gf: Series) -> Series:
    """t^p phi(t^p) gf to gf's order, substituting t -> t^p on phi's polynomials."""
    num, den = phi.num.substitute_power(p).shift(p), phi.den.substitute_power(p)
    return series_mul_ratio(gf, num.coeffs, den.coeffs)


def _bump(a: Series, k: int) -> Series:
    return Series(c + 1 if n == k else c for n, c in enumerate(a.coeffs))


def _first_diff(lhs: Series, rhs: Series, p: int = 1, s: int = 0) -> Optional[Discrepancy]:
    # reports carry only the first mismatch; the full diff shows at DEBUG.
    # Sections pass p and s, so index n is reported as exponent pn + s.
    diffs = [(p * n + s, a, b) for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if a != b]
    if diffs:
        import logging  # loaded only once a mismatch is found

        log = logging.getLogger(__name__)
        for n, a, b in diffs:
            log.debug("coefficient mismatch at t^%d: lhs=%s rhs=%s", n, a, b)
    return diffs[0] if diffs else None


def _verdict(name: str, p: int, order: int, comparisons: Iterable[tuple]) -> VerificationReport:
    """Report the first comparison, in the listed order, that finds a discrepancy.
    Each is a tuple of _first_diff's arguments, drawn only once those before agree."""
    diff = next(filter(None, (_first_diff(*c) for c in comparisons)), None)
    return VerificationReport(name, p, order, diff)
