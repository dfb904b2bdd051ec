"""Run one blockhh CLI invocation with spans recorded around each layer's calls.

    python3 perfbench/trace_child.py SPANS_JSON INVOCATION_ID -- CLI_ARGS...

Each traced public function is wrapped at every module binding, because
``from .x import y`` rebinds names in ``cli``, ``hochschild``, ``blocks`` and
``oracle``.  Spans stay in memory as (name, start, end, parent, invocation id,
items) and are written to SPANS_JSON when the invocation ends.  ``parent`` is
the index of the enclosing span, -1 at the top; ``items`` is the length of the
returned list for functions that enumerate, else null.  The CLI's stdout and
exit code pass through unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

# (module, function) -> span name; the three identity checks share one name.
TRACED = {
    ("cli", "main"): "cli.main",
    ("hochschild", "Z_series"): "hochschild.Z_series",
    ("hochschild", "hh1_block_series"): "hochschild.hh1_block_series",
    ("hochschild", "hh1_group_series"): "hochschild.hh1_group_series",
    ("hochschild", "fit_phi"): "hochschild.fit_phi",
    ("hochschild", "verify_theorem2"): "hochschild.verify",
    ("hochschild", "verify_theorem3"): "hochschild.verify",
    ("hochschild", "verify_block_decomposition"): "hochschild.verify",
    ("partitions", "rho"): "partitions.rho",
    ("partitions", "partitions_of"): "partitions.partitions_of",
    ("partitions", "p_core"): "partitions.p_core",
    ("series", "partition_gf"): "series.partition_gf",
    ("series", "pcore_count_gf"): "series.pcore_count_gf",
    ("series", "series_mul"): "series.series_mul",
    ("series", "series_inv"): "series.series_inv",
    ("rational", "rational_fit"): "rational.rational_fit",
    ("rational", "expand"): "rational.expand",
    ("blocks", "blocks_of"): "blocks.blocks_of",
    ("blocks", "dim_hh1"): "blocks.dim_hh1",
    ("oracle", "hh1_group_oracle"): "oracle.hh1_group_oracle",
}
# Functions whose results are counted as items.
ITEMS = {"partitions.partitions_of", "blocks.blocks_of"}
# Functions whose distinct argument tuples are counted, per invocation.
DISTINCT = {
    "hochschild.Z_series",
    "hochschild.hh1_group_series",
    "partitions.rho",
    "series.partition_gf",
}


class Tracer:
    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list = []
        self.stack = [-1]
        self.arguments: dict[str, set] = {name: set() for name in DISTINCT}

    def wrap(self, name: str, fn):
        spans, stack, invocation = self.spans, self.stack, self.invocation
        arguments = self.arguments.get(name)
        count_items = name in ITEMS

        def traced(*args, **kwargs):
            if arguments is not None:
                arguments.add((args, tuple(sorted(kwargs.items()))))
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                items = len(result) if count_items and result is not None else None
                spans[index] = (name, start, end, parent, invocation, items)

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in the blockhh modules."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "blockhh" or name.startswith("blockhh.")
        }
        for (module_name, function), span_name in TRACED.items():
            # a function a later version removed is simply not traced
            original = getattr(modules.get("blockhh." + module_name), function, None)
            if original is None:
                continue
            traced = self.wrap(span_name, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def dump(self, path: Path) -> None:
        doc = {
            "invocation": self.invocation,
            "distinct": {name: len(keys) for name, keys in self.arguments.items()},
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def main() -> int:
    spans_path, invocation, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON INVOCATION_ID -- CLI_ARGS...")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import blockhh  # noqa: F401  (loads every module the CLI can reach)
    import blockhh.cli

    tracer = Tracer(int(invocation))
    tracer.install()
    try:
        return blockhh.cli.main(cli_args)
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stdout.flush()
        tracer.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main())
