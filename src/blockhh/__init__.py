"""Exact dimension data of symmetric-group blocks in characteristic p.

Everything is computed twice where it matters: generating-function routes
against combinatorial or group-theoretic routes, with all arithmetic exact.

Importing the package compiles none of its modules.  Each one in ``_EXPORTS``
is placed in ``sys.modules`` and on the package by ``importlib.util.LazyLoader``
and runs when one of its attributes is first read, so a command compiles only
the modules it uses.  The public names resolve through ``__getattr__``.
"""

import importlib.util as _util
import sys as _sys

# Each lazily registered module with the public names it owns, each name once.
_EXPORTS = (
    ("series", ("Series", "Z_series", "partition_gf", "pcore_count_gf", "section", "series_add",
                "series_inv", "series_mul", "shift", "substitute_power", "truncate")),
    ("record", ()),
    ("partitions", ("EMPTY", "CoreQuotient", "Partition", "beta_set", "from_core_quotient",
                    "is_p_core", "p_core", "p_quotient", "partition_from_beta",
                    "partitions_of", "rho")),
    ("rational", ("Polynomial", "RationalFunction", "descend", "expand", "rational_fit")),
    ("blocks", ("BlockDescriptor", "blocks_of", "dim_center", "dim_hh1", "principal_block",
                "sylow_exponent")),
    ("hochschild", ("SeriesContext", "VerificationReport", "fit_phi", "hh1_block_series",
                    "hh1_group_series", "phi_r1", "verify_block_decomposition",
                    "verify_theorem2", "verify_theorem3", "y1_formula")),
    ("oracle", ("hh1_group_oracle",)),
    ("tables", ()),
)

for _name, _ in _EXPORTS:
    _spec = _util.find_spec(__name__ + "." + _name)
    _spec.loader = _util.LazyLoader(_spec.loader)
    _sys.modules[_spec.name] = globals()[_name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])  # marks the module lazy; runs nothing
del _name, _, _spec

__version__ = "0.1.0"

__all__ = tuple(sorted(name for _, names in _EXPORTS for name in names))


def __getattr__(name):
    for module, names in _EXPORTS:
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
