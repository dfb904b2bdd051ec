"""Each demo prints exactly the bytes it printed when these hashes were recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockhh

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_partitions_and_the_abacus.py":
        "a12dbc6b2d1cdbaa1deb4803ee2efec055a8981ff2bcbf0c59a205db20f1fea0",
    "02_exact_series_arithmetic.py":
        "8c87a9cba814fd8f9777319f0de755d737c9c835515b12534bca3475a5f8747e",
    "03_blocks_and_their_dimensions.py":
        "a1d864b1d3e487c4cd564f87410402471d41ee7d0cce99849753dfca8c79bc5f",
    "04_reconstructing_the_rational_factor.py":
        "3e95719088a3d5d4838df2adca1e2d40176f541524c62d81d44cdadaa9a70429",
    "05_two_routes_to_the_same_integers.py":
        "fafe548890e8826b00e55cd1b34c561acd627458179cf0ab5257c9bd666b3e04",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    src = os.path.dirname(os.path.dirname(blockhh.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env, check=True,
                          capture_output=True)
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[name]
