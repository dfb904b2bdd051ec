"""Integer partitions and the mod-p abacus: cores, quotients, block-label counts.

The abacus encoding drives everything here.  A partition with at most L parts
is stored as its beta-set {lambda_i + L - i : i = 1..L} (first-column hook
lengths), the beta numbers are laid out on p runners by residue mod p, and
then:

* pushing every bead as far up its runner as it will go and decoding gives
  the p-core;
* reading each runner's bead rows as a beta-set of its own gives the p-tuple
  of quotient partitions.

Runner convention (fixed so round trips are exact): a quotient's beta-set
length is normalized to a multiple of p, runners are indexed by residue, and
the bead at abacus row r of runner i carries beta value r*p + i.  Other
labeling conventions permute the quotient tuple; all yield the same counts.
The core does not depend on the beta-set length, so ``p_core`` reads the one
of length len(parts).

``partitions_of`` is the iterative ZS1 generator (Zoghbi and Stojmenovic,
1998) behind a view in the manner of ``range``: the view holds n, each
iteration yields one partition at a time, and ``len`` counts by iterating,
so no caller holds all p(n) partitions unless it makes a list.
``is_p_core`` is the no-p-hook test (James and Kerber, 2.7): no bead b of
the beta-set has b - p >= 0 free.  With the beta-set as an int bitmask
that is one test, ``not beads >> p & ~beads``.  ``p_core`` is its ground
truth.  A ``Partition`` stores its parts alone.  ``Partition(...)`` validates
them, and every partition is built through it but those of the ZS1 loop,
which builds valid parts and skips the checks.  ``is_p_core`` checks p, then
runs ``_no_p_hook``, which callers that have checked p call directly.

``rho`` reads one coefficient of the count series Z = E(t)^(-p), p-tuples of
partitions by total size.  A caller that needs many passes Z in, built once;
otherwise each call builds Z to the weight it needs with series.Z_series.
Nothing is cached.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .record import Record
from .series import Series, Z_series, _check_prime


class Partition:
    """A weakly decreasing tuple of positive integers; the empty tuple is the
    unique partition of 0.  ``size`` is the sum of the parts, not stored."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for i, x in enumerate(parts):
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValueError("parts must be positive integers, got %r" % (x,))
            if i and parts[i - 1] < x:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        self.parts = parts

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return "Partition(%r)" % (self.parts,)


EMPTY = Partition(())


class CoreQuotient(Record):
    """A p-core and the ordered tuple of its p runner partitions, p = len(quotient).

    The partition it came from has size |core| + p * (total quotient size).
    """

    __slots__ = ("core", "quotient")

    def __post_init__(self):
        if p_core(self.core, self.p) != self.core:
            raise ValueError("core %r is not its own %d-core" % (self.core, self.p))

    @property
    def p(self) -> int:
        return len(self.quotient)

    @property
    def weight(self) -> int:
        return sum(q.size for q in self.quotient)


def partitions_of(n: int) -> _Partitions:
    """The partitions of n, in reverse-lexicographic order: (n) first, (1^n)
    last, as a view in the manner of ``range`` that holds n alone.

    Each iteration enumerates from the start, one partition at a time, in
    O(n) memory.  ``len`` counts by iterating, never by formula: the tests
    check the partition series against it.  ``list`` asks ``len`` for a size
    hint, so ``list(partitions_of(n))`` enumerates twice.  A negative n is
    refused here, at the call.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _Partitions(n)


class _Partitions:
    """What ``partitions_of`` returns: the partitions of n, enumerated anew
    by each iteration."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __iter__(self) -> Iterator[Partition]:
        """ZS1: x is the current partition padded with 1s, m its number of
        parts and h the index of its last part above 1.  Each step lowers
        x[h] by one and refills the tail greedily with parts no larger than
        the new x[h]."""
        n = self.n
        if n == 0:
            yield EMPTY
            return
        new = object.__new__  # each step's parts are valid: no checks, no call
        x = [1] * n
        x[0] = n
        m, h = 1, 0
        yield Partition((n,))
        while x[0] != 1:
            if x[h] == 2:
                m, x[h] = m + 1, 1
                h -= 1
            else:
                r, t = x[h] - 1, m - h
                x[h] = r
                while t >= r:
                    h += 1
                    x[h] = r
                    t -= r
                m = h + 2 if t else h + 1
                if t > 1:
                    h += 1
                    x[h] = t
            lam = new(Partition)
            lam.parts = tuple(x[:m])
            yield lam


def beta_set(lam: Partition, length: int) -> list[int]:
    """First-column hook lengths {lambda_i + length - i}, strictly decreasing.

    ``length`` must be at least the number of parts; parts beyond the last
    are taken as zero, so the tail of the beta-set is length-i for the
    padding rows.
    """
    if length < len(lam.parts):
        raise ValueError(
            "beta-set length %d shorter than partition with %d parts"
            % (length, len(lam.parts))
        )
    parts = lam.parts + (0,) * (length - len(lam.parts))
    return [parts[i] + (length - 1 - i) for i in range(length)]


def partition_from_beta(beta: Sequence[int]) -> Partition:
    """Decode a set of distinct nonnegative integers back into a partition."""
    b = sorted(beta, reverse=True)
    L = len(b)
    if any(x < 0 for x in b):
        raise ValueError("beta numbers must be nonnegative")
    if len(set(b)) != L:
        raise ValueError("beta numbers must be distinct")
    return Partition(b[i] - (L - 1 - i) for i in range(L) if b[i] > L - 1 - i)


def _runner_counts(beta: Sequence[int], p: int) -> dict[int, int]:
    """Beads per runner, over the residues that occur."""
    counts: dict[int, int] = {}
    for b in beta:
        counts[b % p] = counts.get(b % p, 0) + 1
    return counts


def p_core(lam: Partition, p: int) -> Partition:
    """The p-core: push every abacus bead up its runner and decode.

    Equivalent to removing rim p-hooks until none remain; the abacus makes
    the independence of removal order obvious, since only the number of beads
    per runner survives.  The beta-set has length len(parts) and only the
    runners that hold a bead are visited, so the cost follows the partition,
    not p.
    """
    _check_prime(p)
    counts = _runner_counts(beta_set(lam, len(lam.parts)), p)
    return partition_from_beta([r * p + i for i, c in counts.items() for r in range(c)])


def p_quotient(lam: Partition, p: int) -> CoreQuotient:
    """Split a partition into its p-core and the p-tuple of runner partitions."""
    _check_prime(p)
    beta = beta_set(lam, _normalized_length(len(lam.parts), p))
    quotient = tuple(
        partition_from_beta([(b - i) // p for b in beta if b % p == i]) for i in range(p)
    )
    return CoreQuotient(core=p_core(lam, p), quotient=quotient)


def from_core_quotient(cq: CoreQuotient) -> Partition:
    """The unique partition with the given p-core and p-quotient."""
    p = cq.p
    max_rows = max((len(q.parts) for q in cq.quotient), default=0)
    L = _normalized_length(len(cq.core.parts), p) + p * max_rows
    counts = _runner_counts(beta_set(cq.core, L), p)
    beta = []
    for i in range(p):
        rows = beta_set(cq.quotient[i], counts.get(i, 0))
        beta.extend(r * p + i for r in rows)
    return partition_from_beta(beta)


def is_p_core(lam: Partition, p: int) -> bool:
    """Whether the partition equals its own p-core: no bead of its beta-set
    has a free position p below it, i.e. the diagram has no p-hook."""
    _check_prime(p)
    return _no_p_hook(lam, p)


def _no_p_hook(lam: Partition, p: int) -> bool:
    """``is_p_core`` for a p already checked prime, on the beta-set of length
    len(parts) held as an int bitmask: bit b is set when b is a bead.

    The lowest beads are tested first, without the beta-set: a last part of
    at least p is a horizontal p-hook in the last row, and p equal last parts
    are a vertical one in the last p rows.  Then ``beads >> p & ~beads`` is
    nonzero exactly when some bead b + p has b free, which is a p-hook.
    """
    parts = lam.parts
    L = len(parts)
    if L and (parts[-1] >= p or (L >= p and parts[-p] == parts[-1])):
        return False
    beads = 0
    for x in parts:
        L -= 1
        beads |= 1 << (x + L)
    return not beads >> p & ~beads


def rho(n: int, core: Partition, p: int, Z: Optional[Series] = None) -> int:
    """Number of partitions of n whose p-core is the given core.

    Zero unless n >= |core| and n == |core| (mod p); otherwise it equals the
    number of p-tuples of partitions of total size (n - |core|) / p, by the
    core/quotient bijection: a coefficient of the count series Z = E(t)^(-p),
    read from ``Z`` when given (see ``_tuple_counts``).
    """
    _check_prime(p)
    if p_core(core, p) != core:
        raise ValueError("core %r is not its own %d-core" % (core, p))
    w, r = divmod(n - core.size, p)
    if w < 0 or r:
        return 0
    return _tuple_counts(p, w, Z)[w]


def _tuple_counts(p: int, w: int, Z: Optional[Series]) -> tuple[int, ...]:
    """Coefficients of Z = E(t)^(-p) through t^w at least: built here unless
    given, and a given Z must be known past t^w and start 1 + p t."""
    if Z is None:
        return Z_series(p, w + 1).coeffs
    if Z.order <= w:
        raise ValueError("count series known to order %d, weight %d needs more" % (Z.order, w))
    if Z.coeffs[:2] != (1, p)[: Z.order]:
        raise ValueError("count series starting %r is not E(t)^(-%d)" % (Z.coeffs[:2], p))
    return Z.coeffs


def _normalized_length(nparts: int, p: int) -> int:
    """Smallest positive multiple of p that can hold nparts beta numbers."""
    return p * max(1, -(-nparts // p))
