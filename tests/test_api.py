"""The package's public names: what ``blockhh/__init__`` imports is what it exports."""

import ast
from pathlib import Path

import blockhh

import oracles

MOVED_TO_TESTS = {"count_pcores", "dim_center_oracle", "block_of_partition"}
DELETED = {
    "blocks": {"count_weight_blocks", "make_block"},
    "oracle": {"CycleType", "hom_to_Fp_dim"},
    "Series": {"__str__"},
    "Partition": {"__lt__", "__len__", "__iter__"},
    "CycleType": {"to_partition", "size"},
}


def _imported_public_names() -> set[str]:
    tree = ast.parse(Path(blockhh.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    for name in blockhh.__all__:
        assert getattr(blockhh, name) is not None, name
    assert len(set(blockhh.__all__)) == len(blockhh.__all__)


def test_exports_are_exactly_the_imported_public_names():
    assert set(blockhh.__all__) == _imported_public_names()


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

    for info in pkgutil.iter_modules(blockhh.__path__):
        module = importlib.import_module("blockhh." + info.name)
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
