"""Blocks of symmetric group algebras over a field of characteristic p.

Blocks of kS_n are labeled by p-cores: two irreducible characters lie in the
same block exactly when their partitions have the same p-core, so a block is
the pair (core, weight) with |core| + p*weight = n.  The defect groups of a
weight-w block are Sylow p-subgroups of S_{pw}, which gives the defect order
exponent via the p-adic valuation of (pw)!.

Dimension counts here depend only on (p, weight), because same-weight blocks
of (possibly different) symmetric groups are derived equivalent.  The center
dimension of a block is taken to be the number of partitions of n with the
block's p-core, i.e. rho(n, core, p), for *all* blocks: for principal blocks
this is the character count directly, and the general case is forced from it
by weight-only dependence.  The first Hochschild cohomology dimension is the
weight-partial-sum formula: (2 if p == 2 else 1) * sum_{j<w} rho(pj, empty).
Both read the count series Z = E(t)^(-p) (series.Z_series), whose t^w coefficient
is z_w = rho(pw, empty); a caller listing many blocks passes Z in, built once.

``blocks_of`` checks p once, then filters candidates with ``_no_p_hook``;
each ``BlockDescriptor`` checks p, its weight and its core once more, and
``defect_order_exp`` checks p through ``sylow_exponent``.
"""

from __future__ import annotations

from typing import Optional

from . import partitions  # read at the call: the Y series runs none of it
from .record import Record
from .series import Series, _check_prime


def sylow_exponent(p: int, m: int) -> int:
    """The p-adic valuation of m! (Legendre: sum of floor(m / p^i))."""
    _check_prime(p)
    if m < 0:
        raise ValueError("m must be nonnegative")
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


class BlockDescriptor(Record):
    """A block of kS_n: its prime, p-core and weight.

    Everything else follows from these: n = |core| + p*weight, and the defect
    groups are Sylow p-subgroups of S_(p*weight).  The constructor checks that
    p is prime, the weight nonnegative and the core a p-core.
    """

    __slots__ = ("p", "core", "weight")

    def __post_init__(self):
        _check_prime(self.p)
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")
        if not partitions._no_p_hook(self.core, self.p):  # is_p_core, p checked above
            raise ValueError("core %r is not its own %d-core" % (self.core, self.p))

    @property
    def n(self) -> int:
        return self.core.size + self.p * self.weight

    @property
    def defect_order_exp(self) -> int:
        """The defect group order exponent: the p-adic valuation of (p*weight)!."""
        return sylow_exponent(self.p, self.p * self.weight)


def principal_block(p: int, weight: int) -> BlockDescriptor:
    """The principal block of kS_{p*weight}: empty core, the given weight."""
    return BlockDescriptor(p, partitions.EMPTY, weight)


def blocks_of(p: int, n: int) -> list[BlockDescriptor]:
    """All blocks of kS_n: one per p-core of size n - pw, any weight w >= 0.

    Ordered by decreasing weight, then by the enumeration order of cores.
    Every partition of n lands in exactly one listed block via its p-core.
    Each weight's candidates are iterated once from ``partitions_of``, one
    at a time, so the list of blocks is all this holds.
    """
    _check_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    partitions_of, no_p_hook = partitions.partitions_of, partitions._no_p_hook
    for w in range(n // p, -1, -1):
        for lam in partitions_of(n - p * w):
            if no_p_hook(lam, p):  # is_p_core, with p checked once above
                out.append(BlockDescriptor(p, lam, w))
    return out


def dim_center(b: BlockDescriptor, Z: Optional[Series] = None) -> int:
    """Dimension of the block's center: rho(n, core, p), the p-tuples of
    partitions of total size weight, the coefficient z_w of the count series
    Z (the descriptor validated the core)."""
    return partitions._tuple_counts(b.p, b.weight, Z)[b.weight]


def _hh1_factor(p: int) -> int:
    """The factor of the weight-partial-sum formula: 2 when p = 2, else 1.

    dim_hh1, the Y series and thm2's partial sums all read it here, so a
    fault in it leaves them agreeing: only the closed forms that thm3 and
    eq12 compare with can see it.
    """
    return 2 if p == 2 else 1


def dim_hh1(b: BlockDescriptor, Z: Optional[Series] = None) -> int:
    """Dimension of the block's first Hochschild cohomology.

    The weight-partial-sum formula: twice the sum of the principal-block
    center dimensions z_0 + ... + z_(w-1) of the count series Z when p = 2,
    and the plain sum for p >= 3.  Zero exactly at weight 0, strictly
    positive for every positive-weight (equivalently, positive-defect) block.
    """
    return _hh1_factor(b.p) * sum(partitions._tuple_counts(b.p, b.weight, Z)[: b.weight])

