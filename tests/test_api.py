"""The package's public names: what ``blockhh._EXPORTS`` lists is what it exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import blockhh

import oracles

MOVED_TO_TESTS = {"count_pcores", "dim_center_oracle", "block_of_partition"}
DELETED = {
    "blocks": {"count_weight_blocks", "make_block", "_legendre"},
    "oracle": {"CycleType", "hom_to_Fp_dim"},
    "Series": {"__str__"},
    "Partition": {"__lt__", "__len__", "__iter__", "_trusted"},
    "CycleType": {"to_partition", "size"},
}


def test_every_exported_name_resolves():
    for name in blockhh.__all__:
        assert getattr(blockhh, name) is not None, name
    assert len(set(blockhh.__all__)) == len(blockhh.__all__)


def test_exports_are_exactly_the_table_names():
    import importlib

    listed = [name for _, names in blockhh._EXPORTS for name in names]
    assert sorted(blockhh.__all__) == sorted(listed)
    for module, names in blockhh._EXPORTS:
        owner = importlib.import_module("blockhh." + module)
        for name in names:
            assert getattr(blockhh, name) is getattr(owner, name), name
    star = {}
    exec("from blockhh import *", star)
    assert {name: value for name, value in star.items() if name != "__builtins__"} == {
        name: getattr(blockhh, name) for name in listed
    }
    assert set(blockhh.__all__) <= set(dir(blockhh))
    assert not hasattr(blockhh, "make_block")


def test_test_only_routes_are_not_in_the_package():
    from blockhh import blocks, oracle, partitions

    assert not MOVED_TO_TESTS & set(blockhh.__all__)
    for module in (blockhh, blocks, oracle, partitions):
        assert not MOVED_TO_TESTS & set(vars(module)), module.__name__


def test_deleted_names_are_gone():
    from blockhh import blocks, oracle

    assert not DELETED["blocks"] & (set(blockhh.__all__) | set(vars(blocks)))
    # CycleType and hom_to_Fp_dim live on in tests/oracles.py
    assert not DELETED["oracle"] & (set(blockhh.__all__) | set(vars(blockhh)) | set(vars(oracle)))
    for cls in (blockhh.Series, blockhh.Partition, oracles.CycleType):
        assert not DELETED[cls.__name__] & set(vars(cls)), cls.__name__


def test_no_module_holds_mutable_state():
    import importlib
    import pkgutil

    names = ["blockhh." + info.name for info in pkgutil.iter_modules(blockhh.__path__)]
    for module in map(importlib.import_module, ["blockhh"] + names):
        for name, value in vars(module).items():
            if not name.startswith("__"):
                assert not isinstance(value, (dict, list, set, bytearray)), (module, name)


def test_series_sits_at_the_bottom_of_the_import_graph():
    from blockhh import partitions, series

    tree = ast.parse(Path(series.__file__).read_text())
    relative = [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert relative == []
    assert partitions._check_prime is series._check_prime


def test_the_package_has_no_assert_and_no_float():
    # every check must survive python -O, and all arithmetic is exact
    found = []
    for path in sorted(Path(blockhh.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Assert)
                or isinstance(node, ast.Constant) and isinstance(node.value, float)
                or isinstance(node, ast.Name) and node.id == "float"
            ):
                found.append((path.name, node.lineno))
    assert found == []


def test_only_arithmetic_and_output_invariants_raise_runtime_error():
    # identities are compared and reported by the verifiers, never raised
    raisers = set()
    for path in sorted(Path(blockhh.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Raise) and "RuntimeError" in ast.unparse(node)
                for node in ast.walk(fn)
            ):
                raisers.add("%s.%s" % (path.stem, fn.name))
    assert raisers == {"series.euler_power", "cli._int_coeff"}


def test_the_count_series_is_built_in_two_places_only():
    # Z = E(t)^(-p) has one builder, series.Z_series; thm2 builds its own
    # count series as the independent route it compares with
    builders = set()
    for path in sorted(Path(blockhh.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call) and ast.unparse(node.func).endswith("euler_power")
                and node.args and isinstance(node.args[0], ast.UnaryOp)
                and isinstance(node.args[0].op, ast.USub)
                and not isinstance(node.args[0].operand, ast.Constant)
                for node in ast.walk(fn)
            ):
                builders.add("%s.%s" % (path.stem, fn.name))
    assert builders == {"series.Z_series", "hochschild.verify_theorem2"}


def test_command_line_compiles_below_the_largest_library_module():
    # With no bytecode cache every launch compiles each module, and a launch
    # that computes little (all of verify) peaks while compiling the largest
    # one; the grammar table and its parsers must never be that module.
    import tracemalloc

    peaks = {}
    for path in sorted(Path(blockhh.__file__).parent.glob("*.py")):
        source = path.read_text()
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.stem] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    command_line = {"cli", "cmdline"}
    library = max(peak for name, peak in peaks.items() if name not in command_line)
    assert max(peaks[name] for name in command_line) < library, peaks


def test_every_module_is_registered_before_the_command_line_runs():
    # perfbench's tracer wraps what sys.modules and the package hold after these
    # two imports; reading a lazily registered module then runs it
    src = os.path.dirname(os.path.dirname(blockhh.__file__))
    code = ("import pkgutil, sys\n"
            "import blockhh\n"
            "import blockhh.cli\n"
            "for info in pkgutil.iter_modules(blockhh.__path__):\n"
            "    module = sys.modules['blockhh.' + info.name]\n"
            "    assert getattr(blockhh, info.name) is module, info.name\n"
            "    print(info.name)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert set(out.split()) == {path.stem for path in Path(src, "blockhh").glob("*.py")} - {
        "__init__"
    }
