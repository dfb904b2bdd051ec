"""Command-line surface: block tables, series dumps, and the verify harness.

The grammar is one table, ``GRAMMAR``: each subcommand with its handler,
help line and options.  ``cmdline.parse_exact`` reads a command line in its
exact forms: the subcommand first, then ``--opt VALUE``, ``--opt=VALUE`` or
the bare ``--inject-fault``, every option name in full.  Anything else
(``-h``, an abbreviated or unknown option, a bad or missing value, a missing
required option, a stray token) and the cross-field errors of ``series`` go
to argparse, imported and built from the same table only then, so help,
usage lines, error messages and exit code 2 are argparse's.  The library
modules are bound as the package registers them, lazily, and read at the
call, so a command runs only the modules it uses: ``series --name P``, ``Z``
and ``Cs`` run ``series`` and ``tables`` alone; ``verify`` never runs ``tables``.

Output schemas are fixed per subcommand and integer-exact at any size (full
decimal, no floats).  ``tables.emit`` writes each table row by row as it is
rendered, in batches of about 64 KiB, so a dump's memory does not grow with
its length; every value is checked before the first byte is written.  Exit
codes: 0 success or all identities verified, 1 a verification/comparison
failure (or stdout closed by its reader, which ends the run without a
traceback), 2 usage error or a request too large for the memory available.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Iterable

from . import blocks as blocks_mod
from . import hochschild as hh
from . import oracle, tables
from .cmdline import build_parser, parse_exact
from .series import (PRIME_LIMIT, Series, Z_series, _check_prime, partition_gf,
                     pcore_count_gf, section)

if TYPE_CHECKING:
    from .partitions import Partition

FALLBACK_ORDER = 40
ORDER_ENV_VAR = "BLOCKHH_ORDER_DEFAULT"

SERIES_NAMES = ("P", "Z", "Y", "HH1group", "Cs")
FORMATS = ("table", "json", "csv")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("%r is not an integer" % text) from None


def _prime(text: str) -> int:
    v = _integer(text)
    try:
        _check_prime(v)
    except ValueError as exc:  # the library's words only for the size limit
        raise ValueError(str(exc) if v >= PRIME_LIMIT else "%d is not prime" % v) from None
    return v


def _nonneg(text: str) -> int:
    v = _integer(text)
    if v < 0:
        raise ValueError("%d is negative" % v)
    return v


def _positive(text: str) -> int:
    v = _integer(text)
    if v < 1:
        raise ValueError("%d is not positive" % v)
    return v


def default_order() -> int:
    """ORDER_ENV_VAR if set, else FALLBACK_ORDER; a bad value is a usage error."""
    raw = os.environ.get(ORDER_ENV_VAR)
    if raw is None:
        return FALLBACK_ORDER
    try:
        v = int(raw)
    except ValueError:
        problem = "be an integer, got %r" % raw
    else:
        problem = "be positive, got %d" % v if v < 1 else None
    if problem:
        raise ValueError("%s must %s" % (ORDER_ENV_VAR, problem))
    return v


def _core_str(core: Partition) -> str:
    return ",".join(str(x) for x in core.parts)


def _int_coeff(c) -> int:
    as_int = int(c)
    if as_int != c:
        raise RuntimeError("non-integer coefficient %s in an integer series" % (c,))
    return as_int


class _Enumerated:
    """The rows (n, values[n]), each made as it is read: a series table, which
    the table format reads twice, holds no more than its coefficients."""

    def __init__(self, values: list):
        self.values = values

    def __iter__(self):
        return enumerate(self.values)


def cmd_blocks(args, out) -> int:
    counts = Z_series(args.p, args.n // args.p + 1)  # past every weight listed
    rows = [(b.p, b.n, _core_str(b.core), b.weight, b.defect_order_exp,
             blocks_mod.dim_center(b, counts), blocks_mod.dim_hh1(b, counts))
            for b in blocks_mod.blocks_of(args.p, args.n)]
    headers = ["p", "n", "core", "weight", "defect_order_exp", "dim_center", "dim_hh1"]
    tables.emit("blocks", {"p": args.p, "n": args.n}, headers, rows, args.format, out)
    return 0


def _series_for(name: str, p, order: int, s) -> Series:
    if name == "P":
        return partition_gf(order)
    if name == "Z":
        return Z_series(p, order)
    if name == "Y":
        return hh.hh1_block_series(p, Z_series(p, order))
    if name == "HH1group":
        return hh.hh1_group_series(p, partition_gf(order))
    return section(pcore_count_gf(p, p * (order - 1) + s + 1), p, s)  # to t^(p(order-1)+s)


def cmd_series(args, out) -> int:
    order = args.order if args.order is not None else default_order()
    if args.name == "P" and args.p is not None:
        usage_error("argument --p: not meaningful for series 'P'")
    if args.name != "P" and args.p is None:
        usage_error("argument --p: required for series %r" % args.name)
    if args.name == "Cs":
        if args.s is None:
            usage_error("argument --s: required for series 'Cs'")
        if not 0 <= args.s < args.p:
            usage_error("argument --s: %d out of range 0..%d" % (args.s, args.p - 1))
    elif args.s is not None:
        usage_error("argument --s: only meaningful for series 'Cs'")
    # every coefficient is checked, once, before anything is written
    coeffs = [_int_coeff(c) for c in _series_for(args.name, args.p, order, args.s).coeffs]
    params = {"name": args.name, "order": order}
    if args.p is not None:
        params["p"] = args.p
    if args.s is not None:
        params["s"] = args.s
    tables.emit("series", params, ["exponent", "coefficient"], _Enumerated(coeffs), args.format,
                out)
    return 0


def cmd_verify(args, out) -> int:
    p, fault = args.p, args.inject_fault
    need = hh.theorem3_min_order(p)
    order = args.order if args.order is not None else max(default_order(), need)
    if args.which in ("thm3", "all") and order < need:
        raise ValueError("order %d too small for thm3; need >= %d" % (order, need))
    ctx = hh.SeriesContext(p, order)
    reports = []

    def run(report):
        reports.append(report)
        out.write("%s\n" % report)

    if args.which in ("thm2", "all"):
        run(hh.verify_theorem2(ctx, inject_fault=fault))
    if args.which in ("thm3", "all"):
        run(hh.verify_theorem3(ctx, inject_fault=fault))
        out.write("fitted phi = %s\n" % ctx.phi)
    if args.which in ("eq12", "all"):
        for s in range(p):
            run(hh.verify_block_decomposition(ctx, s, inject_fault=fault))
    return 0 if all(r.holds for r in reports) else 1


def cmd_oracle(args, out) -> int:
    formula = hh.hh1_group_series(args.p, partition_gf(args.n_max + 1))
    rows = []
    for n, o in enumerate(oracle.hh1_group_oracle(args.p, args.n_max)):
        f = _int_coeff(formula[n])
        rows.append((n, o, f, o == f))
    headers = ["n", "oracle", "formula", "match"]
    params = {"p": args.p, "n_max": args.n_max}
    tables.emit("oracle", params, headers, rows, args.format, out)
    return 0 if all(match for *_, match in rows) else 1


# The grammar (cmdline's format): subcommand, handler, help, options; an
# option is (flag, converter, required, choices, default).
GRAMMAR = (
    ("blocks", cmd_blocks, "one row per block of kS_n", (
        ("--p", _prime, True, None, None),
        ("--n", _nonneg, True, None, None),
        ("--format", str, False, FORMATS, "table"),
    )),
    ("series", cmd_series, "coefficient table of a named series", (
        ("--name", str, True, SERIES_NAMES, None),
        ("--p", _prime, False, None, None),
        ("--order", _positive, False, None, None),
        ("--s", _nonneg, False, None, None),
        ("--format", str, False, FORMATS, "table"),
    )),
    ("verify", cmd_verify, "run the identity checks", (
        ("--which", str, True, ("thm2", "thm3", "eq12", "all"), None),
        ("--p", _prime, True, None, None),
        ("--order", _positive, False, None, None),
        ("--inject-fault", None, False, None, False),  # a bare switch
    )),
    ("oracle", cmd_oracle, "centralizer oracle vs series formula", (
        ("--p", _prime, True, None, None),
        ("--n-max", _nonneg, True, None, None),
        ("--format", str, False, FORMATS, "table"),
    )),
)


def usage_error(message: str):
    """Exit 2 with argparse's top-level usage line and ``message``."""
    build_parser(GRAMMAR).error(message)


def main(argv: Iterable[str] | None = None, out=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_exact(GRAMMAR, argv) or build_parser(GRAMMAR).parse_args(argv)
    run = next(handler for command, handler, *_ in GRAMMAR if command == args.command)
    # Exact integers at any size: CPython 3.10.7+ converts an int of at most 4300
    # digits to str by default, so lift that limit for the run, then restore it.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return run(args, out if out is not None else sys.stdout)
    except MemoryError:  # a request too large to hold is refused like a bad argument
        print("blockhh: error: the request needs more memory than is available", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        # ValueError is a usage error; RuntimeError an arithmetic or output invariant that failed
        print("blockhh: error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # cannot raise again, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
