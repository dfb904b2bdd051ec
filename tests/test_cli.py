import contextlib
import io
import json
import sys

import pytest
from hypothesis import example, given, strategies as st

from blockhh import cli, tables
from blockhh.series import Series, euler_power

import oracles


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv + ["--format", "json"])
    return code, json.loads(text)


def test_blocks_s2():
    code, doc = run_json(["blocks", "--p", "2", "--n", "2"])
    assert code == 0
    assert doc["command"] == "blocks"
    assert doc["params"] == {"p": 2, "n": 2}
    (row,) = doc["rows"]
    assert row["weight"] == 1
    assert row["dim_hh1"] == 2
    assert row["core"] == ""


def test_blocks_s3_row_count_from_core_counts():
    code, doc = run_json(["blocks", "--p", "3", "--n", "3"])
    assert code == 0
    expected = sum(oracles.count_pcores(3 - 3 * w, 3) for w in range(2))
    assert len(doc["rows"]) == expected
    assert all(r["weight"] == 1 for r in doc["rows"])


def test_blocks_s0():
    code, doc = run_json(["blocks", "--p", "5", "--n", "0"])
    assert code == 0
    (row,) = doc["rows"]
    assert (row["dim_center"], row["dim_hh1"]) == (1, 0)
    assert row["defect_order_exp"] == 0


def test_series_partition_counts():
    code, doc = run_json(["series", "--name", "P", "--order", "6"])
    assert code == 0
    assert [r["coefficient"] for r in doc["rows"]] == [1, 1, 2, 3, 5, 7]
    assert [r["exponent"] for r in doc["rows"]] == list(range(6))


def test_series_block_hh1():
    code, doc = run_json(["series", "--name", "Y", "--p", "2", "--order", "4"])
    assert code == 0
    assert [r["coefficient"] for r in doc["rows"]] == [0, 2, 6, 16]


def test_series_group_hh1():
    code, doc = run_json(["series", "--name", "HH1group", "--p", "3", "--order", "4"])
    assert code == 0
    assert [r["coefficient"] for r in doc["rows"]] == [0, 0, 0, 1]


def test_series_core_counts_section():
    code, doc = run_json(["series", "--name", "Cs", "--p", "3", "--s", "1", "--order", "5"])
    assert code == 0
    from blockhh.series import pcore_count_gf

    gf = pcore_count_gf(3, 16)
    assert [r["coefficient"] for r in doc["rows"]] == [gf[3 * n + 1] for n in range(5)]


def test_series_requires_p_when_needed():
    with pytest.raises(SystemExit) as exc:
        run(["series", "--name", "Z", "--order", "5"])
    assert exc.value.code == 2


def test_series_s_only_for_cs():
    with pytest.raises(SystemExit) as exc:
        run(["series", "--name", "P", "--order", "5", "--s", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["series", "--name", "Cs", "--p", "3", "--order", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["series", "--name", "Cs", "--p", "3", "--s", "7", "--order", "5"])
    assert exc.value.code == 2


def test_series_p_not_meaningful_for_partition_counts(capsys):
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--name", "P", "--p", "3", "--order", "5"], out=out)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert out.getvalue() == captured.out == ""
    assert "argument --p: not meaningful for series 'P'" in captured.err


def test_series_unknown_name_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["series", "--name", "Q", "--order", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--which", "thm2", "--p", "2", "--order", "0"], "--order: 0 is not positive"),
        (["series", "--name", "P", "--order", "0"], "--order: 0 is not positive"),
        (["blocks", "--p", "2", "--n", "-1"], "--n: -1 is negative"),
        (["blocks", "--p", "abc", "--n", "3"], "argument --p: 'abc' is not an integer"),
        (["blocks", "--p", "3", "--n", "1.5"], "argument --n: '1.5' is not an integer"),
    ],
)
def test_out_of_range_numbers_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_non_integer_coefficient_exits_one(monkeypatch, capsys):
    from fractions import Fraction

    monkeypatch.setattr(cli, "partition_gf", lambda order: Series([1, Fraction(1, 2)]))
    code, text = run(["series", "--name", "P", "--order", "2"])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err == "blockhh: error: non-integer coefficient 1/2 in an integer series\n"


def test_nonprime_p_rejected_with_diagnostic(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["blocks", "--p", "9", "--n", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--p" in err and "9 is not prime" in err


def launch(argv, **options):
    """A fresh ``python -m blockhh.cli`` process on ``argv``, given at most 60 s."""
    import os
    import subprocess

    import blockhh

    src = os.path.dirname(os.path.dirname(blockhh.__file__))
    return subprocess.run([sys.executable, "-m", "blockhh.cli"] + argv, capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
                          **options)


def test_huge_p_is_refused_before_any_trial_division():
    # 2^61 - 1 is prime: trial division to its square root would run for hours
    proc = launch(["blocks", "--p", "2305843009213693951", "--n", "3"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(
        "error: argument --p: p must be below 2^32, got 2305843009213693951\n")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,column,length", [
    (["oracle", "--p", "4294967291", "--n-max", "12"], "formula", 13),
    (["series", "--name", "HH1group", "--p", "4294967291", "--order", "5"], "coefficient", 5),
])
def test_group_series_at_the_largest_prime_is_zero_to_the_order(argv, column, length):
    # t^p/(1 - t^p) vanishes below t^p: no coefficient tuple of length p is built
    proc = launch(argv + ["--format", "json"])
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = json.loads(proc.stdout)["rows"]
    assert len(rows) == length
    assert all(row[column] == 0 and row.get("match", True) for row in rows)


@pytest.mark.parametrize("argv,stdout", [
    # below t^p every partition is a p-core: c(5) counts the 7 partitions of 5
    (["series", "--name", "Cs", "--p", "4294967291", "--s", "5", "--order", "1"],
     "exponent  coefficient\n       0            7\n"),
    # rho checks the empty core with p_core, whose cost follows the partition
    (["verify", "--which", "thm2", "--p", "4294967291", "--order", "2"],
     "thm2 (p=4294967291, order=1): holds\n"),
])
def test_largest_prime_builds_only_what_is_printed(argv, stdout):
    proc = launch(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")


MEMORY_ERROR = "blockhh: error: the request needs more memory than is available\n"


def test_memory_error_exits_two_with_one_line(monkeypatch, capsys):
    from blockhh import hochschild as hh

    def too_large(p, P):
        raise MemoryError

    monkeypatch.setattr(hh, "hh1_group_series", too_large)
    assert run(["oracle", "--p", "3", "--n-max", "5"]) == (2, "")
    assert capsys.readouterr().err == MEMORY_ERROR


@pytest.mark.parametrize("argv", [
    # the core counts to t^(p(order - 1) + s) and the partition series to
    # t^(n_max + 1) are lists far larger than the address space allowed
    ["series", "--name", "Cs", "--p", "4294967291", "--s", "3"],
    ["oracle", "--p", "65521", "--n-max", "4294967296"],
    ["oracle", "--p", "31", "--n-max", "4294967296"],
])
def test_request_past_the_address_space_exits_two_without_traceback(argv):
    import resource

    def limit():  # runs in the child alone
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = launch(argv, preexec_fn=limit)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", MEMORY_ERROR)


def test_largest_prime_below_the_limit_is_accepted():
    from blockhh.series import PRIME_LIMIT, _check_prime

    _check_prime(4294967291)  # the largest prime below 2^32
    with pytest.raises(ValueError, match="below 2\\^32"):
        _check_prime(PRIME_LIMIT + 15)  # 2^32 + 15 is prime too
    code, doc = run_json(["blocks", "--p", "4294967291", "--n", "3"])
    assert code == 0
    assert [(r["core"], r["weight"]) for r in doc["rows"]] == [("3", 0), ("2,1", 0), ("1,1,1", 0)]


@contextlib.contextmanager
def digit_limit(digits):
    """CPython's limit on int-string conversion set to ``digits`` (0: none), then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="this Python converts ints of any size")


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_integers_past_the_default_digit_limit_are_written_exactly(capsys, fmt):
    # coefficient 599 of Z at the largest prime has 4365 digits, past the default 4300
    argv = ["series", "--name", "Z", "--p", "4294967291", "--order", "600", "--format", fmt]
    with digit_limit(4300):
        code, text = run(argv)
    assert (code, capsys.readouterr().err) == (0, "")
    with digit_limit(0):
        if fmt == "json":
            last = json.loads(text)["rows"][-1]["coefficient"]
        else:  # the last row ends "599  DIGITS" or "599,DIGITS"
            last = int(text.split()[-1].rpartition(",")[2])
        assert last == euler_power(-4294967291, 600)[599]
        assert len(str(last)) == 4365


@needs_digit_limit
def test_verify_discrepancy_past_the_digit_limit_exits_one(monkeypatch, capsys):
    from blockhh import hochschild as hh

    lhs = 10**5000

    def failing(ctx, inject_fault=False):
        return hh.VerificationReport("thm2", ctx.p, 1, (3, lhs, lhs + 1))

    monkeypatch.setattr(hh, "verify_theorem2", failing)
    with digit_limit(4300):
        code, text = run(["verify", "--which", "thm2", "--p", "3", "--order", "2"])
    assert (code, capsys.readouterr().err) == (1, "")
    with digit_limit(0):
        assert text == "thm2 (p=3, order=1): FAILS at t^3 (lhs=%d, rhs=%d)\n" % (lhs, lhs + 1)


@needs_digit_limit
def test_main_restores_the_callers_digit_limit():
    with digit_limit(5000):
        assert run(["series", "--name", "P", "--order", "3"])[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run(["verify", "--which", "thm3", "--p", "3", "--order", "5"])[0] == 2
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit) as exited:  # a usage error found by the handler
            run(["series", "--name", "P", "--p", "3"])
        assert exited.value.code == 2
        assert sys.get_int_max_str_digits() == 5000


def test_verify_all_exit_zero():
    code, text = run(["verify", "--which", "all", "--p", "2", "--order", "50"])
    assert code == 0
    assert text.count("holds") == 4  # thm2, thm3, eq12 at s=0 and s=1
    assert "fitted phi = 2/(1 - t)" in text


def test_verify_thm3_p7():
    code, text = run(["verify", "--which", "thm3", "--p", "7", "--order", "60"])
    assert code == 0
    assert "fitted phi = 1/(1 - t)" in text


def test_verify_fault_injection_exits_one():
    code, text = run(["verify", "--which", "eq12", "--p", "2", "--order", "30", "--inject-fault"])
    assert code == 1
    assert "FAILS at t^" in text


def test_verify_order_too_small_is_usage_error(capsys):
    code, text = run(["verify", "--which", "thm3", "--p", "7", "--order", "20"])
    assert code == 2
    assert text == ""
    # checked before any identity runs, so thm2 prints nothing either
    code, text = run(["verify", "--which", "all", "--p", "17", "--order", "40"])
    assert (code, text) == (2, "")
    assert "need >= 41" in capsys.readouterr().err


def test_verify_default_order_fits_every_prime(monkeypatch):
    monkeypatch.delenv(cli.ORDER_ENV_VAR, raising=False)
    code, text = run(["verify", "--which", "all", "--p", "17"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 2 + 1 + 17  # thm2, thm3, fitted phi, eq12 per residue
    assert lines[1] == "thm3 (p=17, order=41): holds"
    assert text.count("holds") == 19


def corrupt_kernel_at(monkeypatch, k, alpha=None):
    """Bump t^k of hochschild's Euler-product kernel, for every power or only ``alpha``."""
    from blockhh import hochschild, series

    def corrupted(a, order):
        good = series.euler_power(a, order).coeffs
        if alpha is not None and a != alpha:
            return Series(good)
        return Series(good[:k] + (good[k] + 1,) + good[k + 1:])

    monkeypatch.setattr(hochschild, "euler_power", corrupted)


def test_cross_check_failure_exits_one_without_traceback(monkeypatch, capsys):
    # thm2 compares its count series with P^p first and stops there, before
    # the block routes, which refuse a series that does not start 1 + p t
    corrupt_kernel_at(monkeypatch, 1)
    code, text = run(["verify", "--which", "all", "--p", "3", "--order", "30"])
    assert code == 1
    assert text.splitlines()[0] == "thm2 (p=3, order=15): FAILS at t^1 (lhs=4, rhs=3)"
    assert capsys.readouterr().err == ""


def test_count_series_fault_fails_thm2_at_its_exponent(monkeypatch):
    corrupt_kernel_at(monkeypatch, 5, alpha=-3)
    code, text = run(["verify", "--which", "thm2", "--p", "3", "--order", "30"])
    assert (code, text) == (1, "thm2 (p=3, order=15): FAILS at t^5 (lhs=109, rhs=108)\n")


def bump_block_route(monkeypatch, name, weight):
    """Add 1 to thm2's ``rho`` at n = p * weight, or to its ``dim_center`` at that weight."""
    from blockhh import blocks, partitions

    owner = partitions if name == "rho" else blocks  # thm2 looks both up at the call
    real = getattr(owner, name)
    if name == "rho":

        def bumped(n, core, p, Z=None):
            return real(n, core, p, Z) + (n == p * weight)

    else:

        def bumped(b, Z=None):
            return real(b, Z) + (b.weight == weight)

    monkeypatch.setattr(owner, name, bumped)


@pytest.mark.parametrize(
    "name, weight, line",
    [
        ("rho", 7, "thm2 (p=3, order=15): FAILS at t^8 (lhs=844, rhs=845)"),
        ("dim_center", 3, "thm2 (p=3, order=15): FAILS at t^4 (lhs=35, rhs=36)"),
    ],
)
def test_block_route_fault_fails_thm2(monkeypatch, name, weight, line):
    # a partial sum over weights j < w first differs at t^(weight + 1)
    bump_block_route(monkeypatch, name, weight)
    code, text = run(["verify", "--which", "thm2", "--p", "3", "--order", "30"])
    assert (code, text) == (1, line + "\n")


def test_thm2_reports_the_first_listed_route_that_fails(monkeypatch):
    # the rho route is listed before the center route, so its t^8 is
    # reported although the center route already differs at t^4
    bump_block_route(monkeypatch, "rho", 7)
    bump_block_route(monkeypatch, "dim_center", 3)
    code, text = run(["verify", "--which", "thm2", "--p", "3", "--order", "30"])
    assert (code, text) == (1, "thm2 (p=3, order=15): FAILS at t^8 (lhs=844, rhs=845)\n")


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_verify_shared_context_matches_fresh_verifiers(monkeypatch, p, fault):
    from blockhh import hochschild as hh

    calls = []
    for name in ("verify_theorem2", "verify_theorem3", "verify_block_decomposition"):

        def recording(*args, _verifier=getattr(hh, name), **kwargs):
            report = _verifier(*args, **kwargs)
            calls.append((_verifier, args, kwargs, report))
            return report

        monkeypatch.setattr(hh, name, recording)
    # thm2 and eq12 alone also run at orders 1-3, where the context is smallest
    runs = [("all", 45)] + [(which, o) for which in ("thm2", "eq12") for o in (1, 2, 3)]
    for which, order in runs:
        calls.clear()
        argv = ["verify", "--which", which, "--p", str(p), "--order", str(order)]
        code, _ = run(argv + (["--inject-fault"] if fault else []))
        assert len(calls) == {"all": p + 2, "thm2": 1, "eq12": p}[which]
        assert code == (0 if all(report.holds for *_, report in calls) else 1)
        if which == "all" or not fault:
            assert code == (1 if fault else 0)
        assert len({id(ctx) for _, (ctx, *_), _, _ in calls}) == 1
        for verifier, (ctx, *args), kwargs, report in calls:
            assert (ctx.p, ctx.order) == (p, order)
            assert verifier(hh.SeriesContext(p, order), *args, **kwargs) == report


def test_one_verify_run_builds_each_shared_series_once(monkeypatch):
    import importlib

    from blockhh import hochschild

    # partition_gf: the context's P and thm2's 12-term guard; euler_power: Z,
    # thm2's count series, the core counts and the two partition series
    expected = {"Z_series": 1, "hh1_block_series": 1, "hh1_group_series": 1, "fit_phi": 1,
                "pcore_count_gf": 1, "partition_gf": 2, "euler_power": 5}
    calls = dict.fromkeys(expected, 0)
    modules = [importlib.import_module("blockhh." + name)
               for name in ("series", "partitions", "rational", "blocks", "hochschild", "cli")]
    for name in expected:
        original = getattr(hochschild, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:  # every binding, so calls within a module count too
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert run(["verify", "--which", "all", "--p", "3", "--order", "30"])[0] == 0
    assert calls == expected


@pytest.mark.parametrize("which", ["thm3", "eq12", "all"])
def test_group_series_fault_fails_where_it_is_compared(monkeypatch, which):
    from blockhh import hochschild as hh

    def bumped(p, P, _built=hh.hh1_group_series):
        good = _built(p, P).coeffs
        return Series(good[:7] + (good[7] + 1,) + good[8:])

    monkeypatch.setattr(hh, "hh1_group_series", bumped)
    code, text = run(["verify", "--which", which, "--p", "3", "--order", "30"])
    assert code == 1
    lines = text.splitlines()
    thm3 = "thm3 (p=3, order=30): FAILS at t^7 (lhs=7, rhs=6)"
    eq12 = "eq12:s=1 (p=3, order=30): FAILS at t^7 (lhs=7, rhs=6)"
    assert (thm3 in lines) == (which != "eq12")
    assert (eq12 in lines) == (which != "thm3")
    assert sum("FAILS" in line for line in lines) == (2 if which == "all" else 1)


def test_z_fault_past_the_sections_fails_in_thm2(monkeypatch):
    from blockhh import hochschild as hh

    def bumped(p, order, _built=hh.Z_series):
        good = _built(p, order).coeffs
        return Series(good[:20] + (good[20] + 1,) + good[21:])

    # eq12 reads Z only to order/p = 20 and thm3 only sees Y/Z, built from the
    # same Z; thm2's block side reads its own count series, so it alone fails
    monkeypatch.setattr(hh, "Z_series", bumped)
    code, text = run(["verify", "--which", "thm2", "--p", "3", "--order", "60"])
    assert code == 1
    assert text.startswith("thm2 (p=3, order=30): FAILS at t^21 ")
    code, text = run(["verify", "--which", "all", "--p", "3", "--order", "60"])
    lines = text.splitlines()
    assert code == 1
    assert [line for line in lines if "FAILS" in line] == lines[:1]


def bump_block_series_at(monkeypatch, k):
    from blockhh import hochschild as hh

    def bumped(p, Z, _built=hh.hh1_block_series):
        good = _built(p, Z).coeffs
        return Series(good[:k] + (good[k] + 1,) + good[k + 1:])

    monkeypatch.setattr(hh, "hh1_block_series", bumped)


@pytest.mark.parametrize(
    "k, phi, lhs",
    [
        (0, "None", 1),
        (5, "None", 87),
        (19, "None", 379747),  # the last coefficient of the fit's prefix
        (20, "1/(1 - t)", 601657),
        (29, "1/(1 - t)", 25336142),
    ],
)
@pytest.mark.parametrize("which", ["thm3", "all"])
def test_y_fault_that_defeats_the_phi_fit_exits_one(monkeypatch, capsys, which, k, phi, lhs):
    # a fault in the fit's prefix (Y to t^19 at p = 3) leaves no fit, and thm3
    # compares Y with the closed form; past the prefix, the fit finds phi and
    # thm3's full-order comparison finds the fault.  thm2 reads Y to t^15 only
    bump_block_series_at(monkeypatch, k)
    code, text = run(["verify", "--which", which, "--p", "3", "--order", "30"])
    assert code == 1
    assert capsys.readouterr().err == ""
    lines = text.splitlines()
    thm3 = ["thm3 (p=3, order=30): FAILS at t^%d (lhs=%d, rhs=%d)" % (k, lhs, lhs - 1),
            "fitted phi = %s" % phi]
    if which == "thm3":
        assert lines == thm3
        return
    thm2 = "thm2 (p=3, order=15): " + (
        "FAILS at t^%d (lhs=%d, rhs=%d)" % (k, lhs - 1, lhs) if k <= 15 else "holds")
    assert lines[:3] == [thm2] + thm3
    assert [line.split(" ")[0] for line in lines[3:]] == ["eq12:s=0", "eq12:s=1", "eq12:s=2"]


def test_weight_one_check_of_thm3_fires(monkeypatch):
    from blockhh import blocks, hochschild as hh
    from blockhh.rational import Polynomial, RationalFunction

    # Y is built with factor 1, the fit finds 1/(1 - t) and the patched closed
    # form agrees, so only the weight-1 check sees y_1 = 1 where it gives 2
    geometric = RationalFunction(Polynomial([1]), Polynomial([1, -1]))
    monkeypatch.setattr(blocks, "_hh1_factor", lambda p: 1)
    monkeypatch.setattr(hh, "phi_r1", lambda p: geometric)
    code, text = run(["verify", "--which", "thm3", "--p", "2", "--order", "30"])
    assert code == 1
    assert text == "thm3 (p=2, order=30): FAILS at t^1 (lhs=1, rhs=2)\nfitted phi = 1/(1 - t)\n"


@pytest.mark.parametrize("p, lhs, rhs, phi", [(2, 3, 2, "3/(1 - t)"), (3, 2, 1, "2/(1 - t)")])
def test_block_formula_factor_fault_fails_thm3_alone(monkeypatch, p, lhs, rhs, phi):
    from blockhh import blocks

    # dim_hh1, Y and thm2's partial sums share the factor, so they still agree
    # and thm2 holds; thm3's weight-1 check and closed form see the fault
    def wrong(p):
        return (2 if p == 2 else 1) + 1

    monkeypatch.setattr(blocks, "_hh1_factor", wrong)
    code, text = run(["verify", "--which", "thm2", "--p", str(p), "--order", "30"])
    assert (code, text) == (0, "thm2 (p=%d, order=15): holds\n" % p)
    code, text = run(["verify", "--which", "thm3", "--p", str(p), "--order", "30"])
    assert code == 1
    assert text == "thm3 (p=%d, order=30): FAILS at t^1 (lhs=%d, rhs=%d)\nfitted phi = %s\n" % (
        p, lhs, rhs, phi)


def bump_kernel_in(monkeypatch, module, caller):
    """Bump t^7 of series_mul_ratio's output, only when ``caller`` calls it."""
    real = module.series_mul_ratio

    def bumped(a, num, den):
        out = real(a, num, den)
        if sys._getframe(1).f_code.co_name != caller:
            return out
        return Series(out.coeffs[:7] + (out.coeffs[7] + 1,) + out.coeffs[8:])

    monkeypatch.setattr(module, "series_mul_ratio", bumped)


def test_kernel_fault_in_the_group_series_fails_oracle_and_eq12(monkeypatch):
    from blockhh import hochschild

    bump_kernel_in(monkeypatch, hochschild, "hh1_group_series")
    code, doc = run_json(["oracle", "--p", "3", "--n-max", "12"])
    assert code == 1
    assert [r["n"] for r in doc["rows"] if not r["match"]] == [7]
    code, text = run(["verify", "--which", "eq12", "--p", "3", "--order", "30"])
    assert code == 1
    assert [line for line in text.splitlines() if "FAILS" in line] == [
        "eq12:s=1 (p=3, order=30): FAILS at t^7 (lhs=7, rhs=6)"
    ]


def test_kernel_fault_in_the_core_counts_fails_eq12(monkeypatch):
    from blockhh import series

    bump_kernel_in(monkeypatch, series, "pcore_count_gf")
    code, text = run(["verify", "--which", "all", "--p", "3", "--order", "30"])
    assert code == 1
    # c(7) is C_1[2]: section index 2 of residue 1, exponent 3 * 2 + 1
    assert [line for line in text.splitlines() if "FAILS" in line] == [
        "eq12:s=1 (p=3, order=30): FAILS at t^7 (lhs=15, rhs=16)"
    ]


def test_oracle_matches():
    for p in ("2", "3"):
        code, doc = run_json(["oracle", "--p", p, "--n-max", "10"])
        assert code == 0
        assert all(r["match"] for r in doc["rows"])
        assert all(r["oracle"] == r["formula"] for r in doc["rows"])


def test_oracle_zero_rows_below_p():
    code, doc = run_json(["oracle", "--p", "5", "--n-max", "6"])
    assert code == 0
    for r in doc["rows"][:5]:
        assert r["oracle"] == 0 and r["formula"] == 0


def test_oracle_run_enumerates_once(monkeypatch):
    # every row comes from the classes of S_n_max, fixed points deleted
    from blockhh import oracle

    real, calls = oracle.partitions_of, []

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(oracle, "partitions_of", counted)
    code, _ = run(["oracle", "--p", "3", "--n-max", "12"])
    assert code == 0
    assert calls == [12]


def test_json_roundtrip_is_byte_identical():
    _, text = run(["blocks", "--p", "2", "--n", "6", "--format", "json"])
    reparsed = tables.canonical_json(json.loads(text)) + "\n"
    assert reparsed == text
    _, text = run(["series", "--name", "P", "--order", "8", "--format", "json"])
    assert tables.canonical_json(json.loads(text)) + "\n" == text


def test_csv_output_has_header():
    code, text = run(["series", "--name", "P", "--order", "3", "--format", "csv"])
    assert code == 0
    lines = [l for l in text.splitlines() if l]
    assert lines[0] == "exponent,coefficient"
    assert lines[1:] == ["0,1", "1,1", "2,2"]


def test_csv_booleans_lowercase():
    code, text = run(["oracle", "--p", "2", "--n-max", "3", "--format", "csv"])
    lines = text.splitlines()
    assert lines[0] == "n,oracle,formula,match"
    assert all(line.endswith("true") for line in lines[1:] if line)


def test_table_output_aligned():
    code, text = run(["blocks", "--p", "2", "--n", "4"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0].split() == [
        "p", "n", "core", "weight", "defect_order_exp", "dim_center", "dim_hh1"
    ]
    from blockhh.blocks import blocks_of

    assert len(lines) - 1 == len(blocks_of(2, 4))


class _Writes:
    """An output stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _former_rendering(monkeypatch, argv):
    """Exit code and output of the former renderer, fed the rows argv emits."""
    rendered = []

    def render(command, params, headers, rows, fmt, out):
        dicts = [dict(zip(headers, row)) for row in rows]
        rendered.append(oracles.render_reference(command, params, headers, dicts, fmt))

    with monkeypatch.context() as m:
        m.setattr(tables, "emit", render)
        code = cli.main(argv, out=io.StringIO())
    return code, rendered[0]


STREAMED = [
    ["blocks", "--p", "2", "--n", "0"],
    ["blocks", "--p", "3", "--n", "24"],
    ["series", "--name", "P", "--order", "1"],
    ["series", "--name", "P", "--order", "4000"],
    ["series", "--name", "Z", "--p", "3", "--order", "1500"],
    ["series", "--name", "Y", "--p", "2", "--order", "1500"],
    ["series", "--name", "HH1group", "--p", "5", "--order", "1500"],
    ["series", "--name", "Cs", "--p", "3", "--s", "2", "--order", "1500"],
    ["oracle", "--p", "2", "--n-max", "0"],
    ["oracle", "--p", "3", "--n-max", "14"],
]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("argv", STREAMED, ids=" ".join)
def test_streamed_output_matches_the_former_renderer(monkeypatch, argv, fmt):
    argv = argv + ["--format", fmt]
    sink = _Writes()
    code = cli.main(argv, out=sink)
    assert (code, "".join(sink.writes)) == _former_rendering(monkeypatch, argv)
    # every write but the last is one full batch; no row is near 1 KiB
    *full, last = sink.writes
    assert all(tables.BATCH_CHARS <= len(w) < tables.BATCH_CHARS + 1024 for w in full)
    assert 0 < len(last) < tables.BATCH_CHARS + 1024
    if argv[:5] == ["series", "--name", "P", "--order", "4000"]:
        assert len(sink.writes) >= 4


_texts = st.text(max_size=5) | st.sampled_from(
    ['"', ",", "a,b", 'say "hi"', "caf\u00e9", "\u2603,\"x\"", "%s", "%", "\\", "\n"]
)
_values = (
    st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | _texts
)


@st.composite
def _tables(draw):
    headers = draw(st.lists(_texts, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({h: _values for h in headers}), max_size=4))
    params = draw(st.dictionaries(_texts, st.integers() | _texts, max_size=3))
    return draw(_texts), params, headers, rows


@given(_tables(), st.sampled_from(["table", "json", "csv"]))
@example(("series", {"name": "P", "order": 1}, ["exponent", "coefficient"], []), "json")
@example(("series", {"name": "P", "order": 1}, ["exponent", "coefficient"], []), "table")
@example(("oracle", {}, ["n", "match"], [{"n": -(2**70), "match": False}]), "json")
@example(("%s", {"%": "%d"}, ["%", "%s", 'q"'], [{"%": 1, "%s": "%", 'q"': True}]), "json")
@example(("series", {"name": "caf\u00e9", "order": 2}, ["n"], [{"n": 1}]), "json")
@example(("series", {'q"': "x", "a\\b": 1}, ["n"], [{"n": 1}]), "json")
@example(("blocks", {}, ["core"], [{"core": "3,1,1"}, {"core": ""}]), "json")
def test_emit_matches_the_former_renderer(table, fmt):
    command, params, headers, rows = table
    out = io.StringIO()
    tuples = [tuple(row[h] for h in headers) for row in rows]
    tables.emit(command, params, headers, tuples, fmt, out)
    assert out.getvalue() == oracles.render_reference(command, params, headers, rows, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_nothing_is_written_before_a_late_non_integer_coefficient(monkeypatch, capsys, fmt):
    from fractions import Fraction

    coeffs = [10**20] * 4999 + [Fraction(1, 2)]  # json and csv fill several batches first
    monkeypatch.setattr(cli, "partition_gf", lambda order: Series(coeffs))
    sink = _Writes()
    code = cli.main(["series", "--name", "P", "--order", "5000", "--format", fmt], out=sink)
    assert (code, sink.writes) == (1, [])
    err = capsys.readouterr().err
    assert err == "blockhh: error: non-integer coefficient 1/2 in an integer series\n"


class _Null:
    """An output stream that keeps nothing."""

    def write(self, text):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_output_memory_does_not_grow_with_the_document(monkeypatch, fmt):
    """Everything a dump of 8000 coefficients allocates besides the series is
    under 512 KiB, counted by tracemalloc, so the bound holds on any host."""
    import tracemalloc

    from blockhh.series import partition_gf

    series = partition_gf(8000)
    monkeypatch.setattr(cli, "partition_gf", lambda order: series)
    argv = ["series", "--name", "P", "--order", "8000", "--format", fmt]
    cli.main(argv, out=_Null())  # json and csv are imported before the count starts
    tracemalloc.start()
    try:
        assert cli.main(argv, out=_Null()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_closed_pipe_exits_one_without_traceback(fmt, unbuffered):
    import os
    import subprocess

    import blockhh

    src = os.path.dirname(os.path.dirname(blockhh.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["series", "--name", "P", "--order", "5000", "--format", fmt]
    proc = subprocess.Popen([sys.executable, "-m", "blockhh.cli"] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()  # far more than a pipe holds is still to come
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert first.strip()
    assert b"Traceback" not in err
    assert err == b""


def test_env_var_overrides_default_order(monkeypatch):
    monkeypatch.setenv(cli.ORDER_ENV_VAR, "7")
    code, doc = run_json(["series", "--name", "P"])
    assert code == 0
    assert len(doc["rows"]) == 7
    monkeypatch.setenv(cli.ORDER_ENV_VAR, "zero")
    assert run(["series", "--name", "P"]) == (2, "")


@pytest.mark.parametrize(
    "raw, message",
    [
        ("zero", "must be an integer, got 'zero'"),
        ("0", "must be positive, got 0"),
        ("-3", "must be positive, got -3"),
    ],
)
def test_env_var_errors_name_the_problem(monkeypatch, capsys, raw, message):
    monkeypatch.setenv(cli.ORDER_ENV_VAR, raw)
    assert run(["verify", "--which", "thm2", "--p", "2"]) == (2, "")
    err = capsys.readouterr().err
    assert err == "blockhh: error: %s %s\n" % (cli.ORDER_ENV_VAR, message)


def test_entrypoint_exits_with_status():
    import sys

    argv = sys.argv
    sys.argv = ["blockhh", "oracle", "--p", "2", "--n-max", "4"]
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == 0
    finally:
        sys.argv = argv


def test_cli_start_loads_no_unused_stdlib_modules():
    import os
    import subprocess
    import sys

    import blockhh

    src = os.path.dirname(os.path.dirname(blockhh.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    show = "import sys; print(' '.join(sys.modules))"

    def loaded(prelude):
        code = prelude + show
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.splitlines()[-1].split())  # help text, if any, comes first

    unused = {"dataclasses", "inspect", "logging", "json", "csv"}
    rational = {"fractions", "decimal", "numbers"}  # fractions brings the other two
    usage = {"argparse", "gettext", "locale"}  # only for help and usage errors
    bare = loaded("")
    added = loaded("import blockhh.cli; ") - bare
    assert "blockhh.cli" in added
    assert not added & (unused | rational | usage)

    run_quietly = "import os; from blockhh import cli; cli.main(%r, out=open(os.devnull, 'w')); "
    integer_only = [["blocks", "--p", "3", "--n", "12"], ["oracle", "--p", "2", "--n-max", "10"]]
    integer_only += [["series", "--name", "P"], ["series", "--name", "Z", "--p", "3"],
                     ["series", "--name", "Y", "--p", "3"],  # partial sums of Z
                     ["series", "--name", "HH1group", "--p", "3"],
                     ["series", "--name", "Cs", "--p", "3", "--s", "1"]]
    # JSON renders ints, bools and plain ASCII strings inline: no json module
    integer_only += [["series", "--name", "P", "--format", "json"],
                     ["blocks", "--p", "3", "--n", "12", "--format", "json"],
                     ["oracle", "--p", "2", "--n-max", "10", "--format", "json"]]
    for argv in integer_only:
        added = loaded(run_quietly % (argv,)) - bare
        assert not added & (unused | rational | usage), argv
    # the fit and the closed forms 2/(1-t), 1/(1-t) divide only by 1 and -1
    for argv in (["verify", "--which", "thm3", "--p", "2", "--order", "30"],
                 ["verify", "--which", "thm3", "--p", "3"]):
        added = loaded(run_quietly % (argv,)) - bare
        assert not added & (unused | rational | usage), argv
    # the first division by anything else runs the deferred import
    halves = "from blockhh import rational as r; r.expand(r.RationalFunction("
    halves += "r.Polynomial([1]), r.Polynomial([2, -1])), 3); "
    added = loaded(halves) - bare
    assert rational <= added and not added & (unused | usage)
    # help and a usage error go to argparse, which exits
    exits = ("import os\nfrom blockhh import cli\n"
             "try:\n    cli.main(%r, out=open(os.devnull, 'w'))\nexcept SystemExit:\n    pass\n")
    for argv in (["-h"], ["blocks", "--p", "9", "--n", "2"]):
        added = loaded(exits % (argv,)) - bare
        assert usage <= added and not added & (unused | rational), argv


def test_cli_start_runs_only_the_modules_its_command_uses():
    # a lazily registered module stays of its own type until an attribute is
    # read, so type() tells which ones ran without running any more of them
    import os
    import subprocess

    import blockhh

    src = os.path.dirname(os.path.dirname(blockhh.__file__))
    code = ("import os, sys, types\n"
            "from blockhh import cli\n"
            "cli.main(%r, out=open(os.devnull, 'w'))\n"
            "print(' '.join(name for name, module in sys.modules.items()\n"
            "               if name.startswith('blockhh') and type(module) is types.ModuleType))\n")

    def ran(argv):
        out = subprocess.run([sys.executable, "-c", code % (argv,)], check=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True).stdout
        return {name.partition(".")[2] or name for name in out.split()}

    command_line = {"blockhh", "cli", "cmdline", "series"}
    assert ran(["series", "--name", "P", "--order", "1"]) == command_line | {"tables"}
    assert ran(["series", "--name", "Cs", "--p", "3", "--s", "1"]) == command_line | {"tables"}
    assert ran(["blocks", "--p", "3", "--n", "6"]) == command_line | {
        "tables", "blocks", "partitions", "record"}
    assert ran(["series", "--name", "Z", "--p", "3"]) == command_line | {"tables"}
    # hochschild reads blocks, partitions and rational only where it calls them:
    # Y reads blocks' factor only, and blocks reads partitions where it calls it
    assert ran(["series", "--name", "Y", "--p", "3"]) == command_line | {
        "tables", "hochschild", "record", "blocks"}
    assert not {"blocks", "rational"} & ran(["oracle", "--p", "2", "--n-max", "4"])
    assert "tables" not in ran(["verify", "--which", "thm2", "--p", "3"])
