"""The rational factor linking block-level and group-level series.

The block-level series Y(t) factors as t * phi(t) * Z(t) for a rational phi,
and the group-level series is then t^p * phi(t^p) * P(t).  Here phi is not
assumed: it is reconstructed from raw series coefficients by exact rational
fitting, and the group-level factor is pulled back down with the descent
g(t^m) -> g(t).
"""

from blockhh import (
    SeriesContext,
    descend,
    fit_phi,
    rational_fit,
    series_inv,
    series_mul,
    shift,
)
from blockhh.rational import RationalFunction

for p in (2, 3, 5):
    ctx = SeriesContext(p, 60)  # P, Z, Y and the group series, each built once
    ratio = series_mul(shift(ctx.Y, -1), series_inv(ctx.Z))
    print("p = %d" % p)
    print("  first coefficients of Y/t * Z^(-1):", list(ratio.coeffs[:8]))

    phi = fit_phi(p, ctx.Y, ctx.Z)
    print("  fitted phi =", phi)

    group_ratio = series_mul(ctx.group, series_inv(ctx.P))
    lifted = rational_fit(group_ratio, 2 * p + 2, 2 * p + 2)
    print("  fitted group-level factor =", lifted)

    recovered = descend(lifted, p)
    expected = RationalFunction(phi.num.shift(1), phi.den)
    print("  descending by p recovers t*phi(t):", recovered, "==", expected)
    assert recovered == expected
    print()
