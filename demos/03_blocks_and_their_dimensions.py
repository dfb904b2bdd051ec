"""Blocks of kS_n: labels, weights, defects, and the two dimension counts.

A block is labeled by a p-core; its weight w says how far it is from being
simple (trivial defect), and its defect group is a Sylow p-subgroup of S_{pw}.
The center dimension counts partitions with the block's core; the first
Hochschild cohomology dimension is a partial sum over smaller principal-block
centers, and is positive exactly when the defect is nontrivial.
"""

from blockhh import Z_series, blocks_of, dim_center, dim_hh1, hh1_block_series

p, n = 3, 10
print("Blocks of kS_%d at p = %d:" % (n, p))
print("%-12s %6s %7s %10s %8s" % ("core", "weight", "defect", "dim Z(B)", "dim HH1"))
for b in blocks_of(p, n):
    print(
        "%-12s %6d %7s %10d %8d"
        % (
            ",".join(map(str, b.core.parts)) or "-",
            b.weight,
            "p^%d" % b.defect_order_exp,
            dim_center(b),
            dim_hh1(b),
        )
    )

print("\ndim HH1 depends only on (p, weight); by weight it grows like so:")
for p in (2, 3, 5):
    y = hh1_block_series(p, Z_series(p, 9))
    print("  p=%d: %s" % (p, list(y.coeffs)))
print("(weight 0 blocks are simple: the 0 column; every other entry is positive)")
