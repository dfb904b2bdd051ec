"""The strict command-line reader against argparse's parser of the same grammar."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from blockhh import cli
from blockhh.cmdline import build_parser, parse_exact

# Texts for each converter, valid ones and ones both parsers must refuse.  A
# value after a space that starts with "-" is left to argparse.  argparse
# takes "-0" there as 0, so it is not drawn; it refuses "-0_0" as an option,
# though int() reads it as 0, and only after "=" takes it.
TEXTS = {
    cli._prime: ("2", "3", "5", "31", "101", "4", "9", "1", "0", "-3", "abc", "3.0", ""),
    cli._nonneg: ("0", "1", "7", "40", "-1", "-0_0", "1.5", "x", ""),
    cli._positive: ("1", "2", "40", "450", "0", "-2", "five"),
}


def argparse_vars(argv):
    """vars() of argparse's namespace for ``argv``, or None where it exits 2."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser(cli.GRAMMAR).parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2
        return None


@st.composite
def command_lines(draw):
    """A subcommand, then each of its options 0 to 2 times in any order, in the
    ``--opt VALUE`` or ``--opt=VALUE`` form, with values valid or not; a switch
    is given bare or, wrongly, with a value."""
    name, _, _, options = draw(st.sampled_from(cli.GRAMMAR))
    given_options = []
    for flag, convert, _, choices, default in options:
        for _ in range(draw(st.integers(0, 2))):
            if default is False:  # a bare switch, which takes no value
                given_options.append(draw(st.sampled_from([[flag], [flag + "=1"]])))
                continue
            text = draw(st.sampled_from(TEXTS.get(convert) or choices + ("nope",)))
            given_options.append([flag + "=" + text] if draw(st.booleans()) else [flag, text])
    return [name] + [word for words in draw(st.permutations(given_options)) for word in words]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_exact_reader_agrees_with_argparse(argv):
    args = parse_exact(cli.GRAMMAR, argv)
    assert (None if args is None else vars(args)) == argparse_vars(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["blocks", "-h"],
        ["blocks", "--p", "3", "--n", "3", "--form", "json"],  # abbreviations
        ["oracle", "--p", "3", "--n", "3"],
        ["blocks", "--p", "3", "--n", "-0"],  # argparse reads -0 as a number
        ["blocks", "--p", "3", "--n", "3", "extra"],
        ["blocks", "--p", "3", "--n", "3", "--", "--format", "json"],
        ["verify", "--which", "thm2", "--p", "2", "--inject-fault=1"],
        ["blocks", "--p", "3", "--n"],
    ],
)
def test_other_forms_are_left_to_argparse(argv):
    assert parse_exact(cli.GRAMMAR, argv) is None


def test_a_form_left_to_argparse_still_runs(capsys):
    full = ["blocks", "--p", "3", "--n", "4", "--format", "json"]
    abbreviated = ["blocks", "--p", "3", "--n", "4", "--form", "json"]
    outputs = []
    for argv in (full, abbreviated):
        out = io.StringIO()
        assert cli.main(argv, out=out) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1] and outputs[0].startswith("{")
    assert capsys.readouterr().err == ""


def test_repeated_option_keeps_its_last_value():
    argv = ["series", "--name", "Z", "--p=3", "--order", "5", "--p", "7", "--name=Cs", "--s", "1"]
    args = parse_exact(cli.GRAMMAR, argv)
    assert vars(args) == argparse_vars(argv)
    assert (args.name, args.p, args.order, args.s, args.format) == ("Cs", 7, 5, 1, "table")
