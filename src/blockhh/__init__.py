"""Exact dimension data of symmetric-group blocks in characteristic p.

Everything is computed twice where it matters: generating-function routes
against combinatorial or group-theoretic routes, with all arithmetic exact.
"""

import types as _types

from .blocks import (
    BlockDescriptor,
    blocks_of,
    dim_center,
    dim_hh1,
    principal_block,
    sylow_exponent,
)
from .hochschild import (
    VerificationReport,
    Z_series,
    fit_phi,
    hh1_block_series,
    hh1_group_series,
    phi_r1,
    verify_block_decomposition,
    verify_theorem2,
    verify_theorem3,
    y1_formula,
)
from .oracle import hh1_group_oracle
from .partitions import (
    EMPTY,
    CoreQuotient,
    Partition,
    beta_set,
    from_core_quotient,
    is_p_core,
    p_core,
    p_quotient,
    partition_from_beta,
    partitions_of,
    rho,
)
from .rational import (
    Polynomial,
    RationalFunction,
    descend,
    expand,
    rational_fit,
)
from .series import (
    Series,
    partition_gf,
    pcore_count_gf,
    section,
    series_add,
    series_inv,
    series_mul,
    shift,
    substitute_power,
    truncate,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
