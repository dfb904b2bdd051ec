"""The end-to-end cross-check: generating functions vs raw group theory.

One route to dim HH^1(kS_n) goes through block theory and power series.
The other sums dim Hom(C(g), F_p) over conjugacy classes, straight from the
structure of centralizers.  The two columns below are computed by code that
shares nothing but the partition type.
"""

from blockhh import (
    SeriesContext,
    hh1_group_oracle,
    hh1_group_series,
    partition_gf,
    verify_block_decomposition,
)

for p in (2, 3, 5):
    n_max = 14
    formula = hh1_group_series(p, partition_gf(n_max + 1))
    print("p = %d" % p)
    print("  %3s %10s %10s" % ("n", "series", "oracle"))
    for n, o in enumerate(hh1_group_oracle(p, n_max)):
        f = formula[n]
        marker = "" if f == o else "   <-- MISMATCH"
        print("  %3d %10d %10d%s" % (n, f, o, marker))
        assert f == o
    print()

print("And the residue-class factorizations, verified to order 40:")
for p in (2, 3):
    ctx = SeriesContext(p, 40)
    for s in range(p):
        print(" ", verify_block_decomposition(ctx, s))
