"""Tables written as they are rendered: aligned text, JSON or CSV.

A table is a command name, its parameters, the column headers and the rows,
each its values in header order.  ``emit`` writes one row at a time and hands
the text to the output stream in batches of about BATCH_CHARS, so nothing but
the current batch is held.  The JSON is byte-identical to
``canonical_json`` of the whole document, the one definition of the format.
``json`` loads only for text that needs escaping, ``csv`` only for CSV.
"""

from __future__ import annotations

from typing import Iterable

BATCH_CHARS = 1 << 16  # text handed to the output stream per write


def canonical_json(obj) -> str:
    """The one JSON rendering: sorted keys, two-space indent, exact ints."""
    import json  # json and csv load only for the format that uses them

    return json.dumps(obj, sort_keys=True, indent=2)


class _Batched:
    """Collects text and passes it on to ``out`` in pieces of about BATCH_CHARS.

    Each write to an unbuffered stdout is a system call; one per row would
    cost more than rendering the row.
    """

    __slots__ = ("out", "parts", "size")

    def __init__(self, out):
        self.out = out
        self.parts: list[str] = []
        self.size = 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= BATCH_CHARS:
            self.flush()

    def flush(self) -> None:
        if self.parts:
            self.out.write("".join(self.parts))
            self.parts = []
            self.size = 0


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_value(value) -> str:
    """One value as ``canonical_json`` renders it; ints, bools and plain strings inline."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if (isinstance(value, str) and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value):  # nothing for json to escape
        return '"%s"' % value
    return canonical_json(value)


def _write_json(command: str, params: dict, headers: list[str], rows, out) -> None:
    """``canonical_json`` of the whole document plus a newline, one row at a time.

    The document is ``{"command", "params", "rows"}``, keys sorted, so it is a
    fixed head, each row from one template in sorted-header order, and a
    fixed tail.
    """
    cols = sorted(range(len(headers)), key=headers.__getitem__)
    items = [(_json_value(k), _json_value(v)) for k, v in sorted(params.items())]
    head = "{%s\n  }" % ",".join("\n    %s: %s" % kv for kv in items) if items else "{}"
    out.write('{\n  "command": %s,\n  "params": %s,\n  "rows": [' % (_json_value(command), head))
    fields = ",".join('\n      %s: %%s' % _json_value(headers[i]).replace("%", "%%") for i in cols)
    template = "\n    {%s\n    }" % fields if cols else "\n    {}"
    sep = ""  # "," once a row is written
    for row in rows:
        out.write(sep + template % tuple(_json_value(row[i]) for i in cols))
        sep = ","
    out.write("\n  ]\n}\n" if sep else "]\n}\n")


def emit(command: str, params: dict, headers: list[str], rows: Iterable[tuple], fmt: str,
         out) -> None:
    """Write one table, each row its values in header order.  ``params`` maps
    str keys to int or str values.

    The table format reads ``rows`` twice, once for the column widths and once
    to render, so it is a list or another iterable that is not an iterator.
    Everything is written through one batching writer.
    """
    out = _Batched(out)
    if fmt == "json":
        _write_json(command, params, headers, rows, out)
    elif fmt == "csv":
        import csv

        writer = csv.writer(out)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    else:
        widths = [len(h) for h in headers]
        for row in rows:
            widths = [max(w, len(_cell(v))) for w, v in zip(widths, row)]

        def line(cells):
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths)).rstrip() + "\n"

        out.write(line(headers))
        for row in rows:
            out.write(line([_cell(v) for v in row]))
    out.flush()
