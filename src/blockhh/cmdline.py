"""The command line's two parsers, both read from one grammar table.

A grammar is a tuple of subcommands, each (name, handler, help, options), and
an option is (flag, converter, required, choices, default), listed in the
order argparse shows them; an option whose default is False is a bare switch
that stores True, and is left out of help.  A converter takes the option's
text and returns its value, or raises ValueError with a message that names
the text.

``parse_exact`` reads a command line only in the exact forms and returns None
for anything else; ``build_parser`` builds argparse's parser of the same
table, the reference grammar, which prints help and usage errors.  argparse
is imported only when that parser is built.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

PROG = "blockhh"
DESCRIPTION = (
    "Exact dimension data of symmetric-group blocks in characteristic p, "
    "with machine-verified series identities."
)


def parse_exact(grammar, argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would return for ``argv``, or None.

    Only these forms are read: the subcommand first, then ``--opt VALUE``,
    ``--opt=VALUE`` or a bare switch, every option name in full.  Converters,
    choices and required options are checked, and a repeated option keeps
    its last value, as argparse does.  A value after a space may not start
    with "-", since argparse may read it as an option.  None leaves the
    command line to argparse: help, an abbreviation, an unknown option, a
    missing or bad value, a missing required option or a stray token.
    """
    options = next((listed for name, _, _, listed in grammar if argv[:1] == [name]), None)
    if options is None:
        return None
    spec = {option[0]: option for option in options}
    given = {}
    words = iter(argv[1:])
    for word in words:
        flag, eq, text = word.partition("=")
        if flag not in spec:
            return None
        _, convert, _, choices, default = spec[flag]
        if default is False:
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            text = next(words, "-")
            if text.startswith("-"):
                return None
        try:
            value = convert(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        given[flag] = value
    if any(required and flag not in given for flag, _, required, *_ in options):
        return None
    names = {flag[2:].replace("-", "_"): given.get(flag, default)
             for flag, _, _, _, default in options}
    return SimpleNamespace(command=argv[0], **names)


def build_parser(grammar):
    """argparse's parser of ``grammar``: a subparser per subcommand, its options
    in the table's order, each converter's ValueError shown as its message."""
    import argparse

    def checked(convert):
        def convert_or_explain(text):
            try:
                return convert(text)
            except ValueError as exc:  # argparse prints only this type's message
                raise argparse.ArgumentTypeError(str(exc)) from None

        return convert_or_explain

    parser = argparse.ArgumentParser(prog=PROG, description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, _, help_text, options in grammar:
        add = sub.add_parser(name, help=help_text).add_argument
        for flag, convert, required, choices, default in options:
            if default is False:
                add(flag, action="store_true", help=argparse.SUPPRESS)
            else:
                add(flag, type=checked(convert), required=required, choices=choices,
                    default=default)
    return parser
