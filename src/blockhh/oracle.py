"""Ground-truth dimensions for symmetric group algebras, from first principles.

The Hochschild cohomology of a group algebra decomposes over conjugacy
classes: in degree one the summand for the class of an element g is
H^1(C(g), k) = Hom(C(g), F_p), where C(g) is the centralizer.  For a
permutation of cycle type (a^{m_a}), the centralizer is the direct product
over distinct cycle lengths a of wreath products C_a wr S_{m_a}.

A wreath product (C_a)^m : S_m abelianizes to C_a x S_m^{ab}: inside the base
(C_a)^m, coordinates are permuted by conjugation, so differences of
coordinates are commutators and only the diagonal C_a survives, while S_m
contributes its abelianization (C_2 for m >= 2, trivial otherwise).  Hence

    dim Hom(C_a wr S_m, F_p) = [p divides a] + [p = 2 and m >= 2],

and the degree-one dimension for kS_n is the sum of these over the cycle
types of all partitions of n.  None of this touches generating functions,
which is the point: it is the independent side of every end-to-end check.

``hh1_group_oracle`` visits and scores every class of S_n once, and reads
the rows for every smaller S_m off the same classes by deleting fixed
points.  Take a class lambda of S_n with k parts equal to 1.  Deleting
j <= k of those fixed points gives a class of S_(n-j), and every class mu of
S_(n-j) arises exactly once, from lambda = mu + 1^j.  Only the fixed-point
factor C_1 wr S_k of the centralizer changes: it becomes C_1 wr S_(k-j),
which contributes [p = 2 and k - j >= 2].  The factors for cycle lengths
>= 2 do not change.  So lambda is scored once from its parts >= 2, that
score goes into rows n-k .. n, and at p = 2 the rows n-k+2 .. n, where at
least two fixed points remain, get 1 more each.

For p odd the score is the number of distinct parts that p divides, the size
of the intersection of the parts with the set of multiples of p up to n.  At
p = 2 it is one pass over the runs of equal parts >= 2: 1 if 2 divides the
part, 1 more if it repeats.
"""

from __future__ import annotations

from itertools import accumulate

from .partitions import partitions_of, _check_prime


def hh1_group_oracle(p: int, n: int) -> tuple[int, ...]:
    """(dim HH^1(kS_m) for m = 0..n), each the sum of centralizer
    Hom-dimensions over the classes of S_m, from one enumeration of S_n.

    Row m is read off the classes of S_n with at least n - m fixed points,
    with n - m of them deleted (module docstring).  jumps[m] is row m less
    row m - 1: a class with k fixed points adds its score to jumps[n - k], so
    the prefix sums count it in every row from n - k up.  The classes are
    iterated once from ``partitions_of``, one at a time, so a run holds O(n)
    integers however many classes S_n has.
    """
    _check_prime(p)
    jumps = [0] * (n + 1)  # partitions_of refuses a negative n
    if p != 2:
        multiples = set(range(p, n + 1, p))
        for lam in partitions_of(n):
            parts = lam.parts
            score = len(multiples.intersection(parts))
            if score:
                jumps[n - parts.count(1)] += score
        return tuple(accumulate(jumps))
    for lam in partitions_of(n):
        parts = lam.parts
        score = 0
        prev = prev2 = 0  # the two parts before a; parts are positive
        for a in parts:
            if a == 1:
                break
            if a != prev:
                score += a % 2 == 0
            elif a != prev2:
                score += 1
            prev2, prev = prev, a
        k = parts.count(1)
        jumps[n - k] += score
        if k >= 2:  # C_1 wr S_(k-j) has the sign character while k - j >= 2
            jumps[n - k + 2] += 1
    return tuple(accumulate(jumps))
