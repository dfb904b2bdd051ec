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

``hh1_group_oracle`` visits and scores every class.  For p odd the score is
the number of distinct parts that p divides, the size of the intersection of
the parts with the set of multiples of p up to n.  At p = 2 it is one pass
over the runs of equal parts: 1 if 2 divides the part, 1 more if it repeats.
"""

from __future__ import annotations

from .partitions import partitions_of, _check_prime


def hh1_group_oracle(p: int, n: int) -> int:
    """dim HH^1(kS_n) as the sum of centralizer Hom-dimensions over classes."""
    _check_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    if p != 2:
        multiples = set(range(p, n + 1, p))
        for lam in partitions_of(n):
            total += len(multiples.intersection(lam.parts))
        return total
    for lam in partitions_of(n):
        prev = prev2 = 0  # the two parts before a; parts are positive
        for a in lam.parts:
            if a != prev:
                total += a % 2 == 0
            elif a != prev2:
                total += 1
            prev2, prev = prev, a
    return total
