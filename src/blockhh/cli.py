"""Command-line surface: block tables, series dumps, and the verify harness.

Output schemas are fixed per subcommand and integer-exact everywhere (full
decimal, no floats).  ``tables.emit`` writes each table row by row as it is
rendered, in batches of about 64 KiB, so a dump's memory does not grow with
its length; every value is checked before the first byte is written.  Exit
codes: 0 success or all identities verified, 1 a verification/comparison
failure (or stdout closed by its reader, which ends the run without a
traceback), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable

from . import blocks as blocks_mod
from . import hochschild as hh
from .partitions import Partition, _check_prime
from .series import Series, euler_power, partition_gf, pcore_count_gf, section
from .tables import emit

FALLBACK_ORDER = 40
ORDER_ENV_VAR = "BLOCKHH_ORDER_DEFAULT"

SERIES_NAMES = ("P", "Z", "Y", "HH1group", "Cs")


def _prime(text: str) -> int:
    v = int(text)
    try:
        _check_prime(v)
    except ValueError:
        raise argparse.ArgumentTypeError("%d is not prime" % v) from None
    return v


def _nonneg(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("%d is negative" % v)
    return v


def _positive(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("%d is not positive" % v)
    return v


def default_order() -> int:
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
        print("blockhh: error: %s must %s" % (ORDER_ENV_VAR, problem), file=sys.stderr)
        raise SystemExit(2)
    return v


def _core_str(core: Partition) -> str:
    return ",".join(str(x) for x in core.parts)


def _int_coeff(c) -> int:
    as_int = int(c)
    if as_int != c:
        raise RuntimeError("non-integer coefficient %s in an integer series" % (c,))
    return as_int


def cmd_blocks(args, out) -> int:
    counts = euler_power(-args.p, args.n // args.p + 1)  # Z past every weight listed
    rows = []
    for b in blocks_mod.blocks_of(args.p, args.n):
        rows.append(
            {
                "p": b.p,
                "n": b.n,
                "core": _core_str(b.core),
                "weight": b.weight,
                "defect_order_exp": b.defect_order_exp,
                "dim_center": blocks_mod.dim_center(b, counts),
                "dim_hh1": blocks_mod.dim_hh1(b, counts),
            }
        )
    headers = ["p", "n", "core", "weight", "defect_order_exp", "dim_center", "dim_hh1"]
    emit("blocks", {"p": args.p, "n": args.n}, headers, lambda: rows, args.format, out)
    return 0


def _series_for(name: str, p, order: int, s) -> Series:
    if name == "P":
        return partition_gf(order)
    if name == "Z":
        return hh.Z_series(p, order)
    if name == "Y":
        return hh.hh1_block_series(p, order)
    if name == "HH1group":
        return hh.hh1_group_series(p, order)
    return section(pcore_count_gf(p, p * order + s), p, s)


def cmd_series(args, parser, out) -> int:
    if args.name == "P" and args.p is not None:
        parser.error("argument --p: not meaningful for series 'P'")
    if args.name != "P" and args.p is None:
        parser.error("argument --p: required for series %r" % args.name)
    if args.name == "Cs":
        if args.s is None:
            parser.error("argument --s: required for series 'Cs'")
        if not 0 <= args.s < args.p:
            parser.error("argument --s: %d out of range 0..%d" % (args.s, args.p - 1))
    elif args.s is not None:
        parser.error("argument --s: only meaningful for series 'Cs'")
    coeffs = _series_for(args.name, args.p, args.order, args.s).coeffs
    for c in coeffs:  # every coefficient is checked before anything is written
        _int_coeff(c)

    def rows():
        for n, c in enumerate(coeffs):
            yield {"exponent": n, "coefficient": int(c)}

    params = {"name": args.name, "order": args.order}
    if args.p is not None:
        params["p"] = args.p
    if args.s is not None:
        params["s"] = args.s
    emit("series", params, ["exponent", "coefficient"], rows, args.format, out)
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
        run(hh.verify_theorem2(p, max(1, order // 2), inject_fault=fault, ctx=ctx))
    if args.which in ("thm3", "all"):
        run(hh.verify_theorem3(p, order, inject_fault=fault, ctx=ctx))
        out.write("fitted phi = %s\n" % ctx.phi)
    if args.which in ("eq12", "all"):
        for s in range(p):
            run(hh.verify_block_decomposition(p, s, order, inject_fault=fault, ctx=ctx))
    return 0 if all(r.holds for r in reports) else 1


def cmd_oracle(args, out) -> int:
    from .oracle import hh1_group_oracle

    formula = hh.hh1_group_series(args.p, args.n_max + 1)
    rows = []
    for n in range(args.n_max + 1):
        o = hh1_group_oracle(args.p, n)
        f = _int_coeff(formula[n])
        rows.append({"n": n, "oracle": o, "formula": f, "match": o == f})
    headers = ["n", "oracle", "formula", "match"]
    emit("oracle", {"p": args.p, "n_max": args.n_max}, headers, lambda: rows, args.format, out)
    return 0 if all(r["match"] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockhh",
        description="Exact dimension data of symmetric-group blocks in "
        "characteristic p, with machine-verified series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = dict(choices=("table", "json", "csv"), default="table")

    p_blocks = sub.add_parser("blocks", help="one row per block of kS_n")
    p_blocks.add_argument("--p", type=_prime, required=True)
    p_blocks.add_argument("--n", type=_nonneg, required=True)
    p_blocks.add_argument("--format", **fmt)

    p_series = sub.add_parser("series", help="coefficient table of a named series")
    p_series.add_argument("--name", choices=SERIES_NAMES, required=True)
    p_series.add_argument("--p", type=_prime)
    p_series.add_argument("--order", type=_positive, default=None)
    p_series.add_argument("--s", type=_nonneg, default=None)
    p_series.add_argument("--format", **fmt)

    p_verify = sub.add_parser("verify", help="run the identity checks")
    p_verify.add_argument("--which", choices=("thm2", "thm3", "eq12", "all"), required=True)
    p_verify.add_argument("--p", type=_prime, required=True)
    p_verify.add_argument("--order", type=_positive, default=None)
    p_verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    p_oracle = sub.add_parser("oracle", help="centralizer oracle vs series formula")
    p_oracle.add_argument("--p", type=_prime, required=True)
    p_oracle.add_argument("--n-max", type=_nonneg, required=True)
    p_oracle.add_argument("--format", **fmt)

    return parser


def main(argv: Iterable[str] | None = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    out = out if out is not None else sys.stdout
    if args.command == "series" and args.order is None:
        args.order = default_order()
    try:
        if args.command == "blocks":
            return cmd_blocks(args, out)
        if args.command == "series":
            return cmd_series(args, parser, out)
        if args.command == "verify":
            return cmd_verify(args, out)
        return cmd_oracle(args, out)
    except (ValueError, RuntimeError) as exc:
        # ValueError is a usage error; RuntimeError an arithmetic or output invariant that failed
        print("blockhh: error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


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
