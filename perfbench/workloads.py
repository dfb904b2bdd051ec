"""Invocation pools of the benchmark workloads, and the seeded draw from them.

An invocation is the argument string of one ``python -m blockhh.cli`` run.
Each workload is a list of slots; a slot lists interchangeable variants of
one invocation whose costs agree to about one per cent (an order one or two
higher, another output format, another residue).  The seed picks one variant
per slot and the running order, so it changes the inputs without changing
how much work a workload is.  Orders stay clear of the powers of two at
which ``partitions._tuple_count_cache`` refills, where cost jumps.

Every workload also runs the same coverage tail: one tiny invocation of each
subcommand, so every layer's per-layer metrics are measured on every
workload and every subcommand's output is checked in every run.  The tail is
a few per cent of a workload's wall time.
"""

from __future__ import annotations

import random


def _orders(template: str, base: int, count: int = 3) -> list[str]:
    return [template % (base + k) for k in range(count)]


def _formats(template: str) -> list[str]:
    return [template + " --format " + f for f in ("table", "json", "csv")]


# The trivial invocation whose cold start is setup_s.
SETUP = "series --name P --order 1"

TAIL = [
    "verify --which all --p 2 --order 24",
    "blocks --p 2 --n 8",
    "oracle --p 2 --n-max 8",
]

WORKLOADS: dict[str, list[list[str]]] = {
    # One small prime at a deep order and one large prime: identity checks
    # that rebuild the same Z, Y and group series many times per process.
    "verify": [
        _orders("verify --which all --p 2 --order %d", 450),
        _orders("verify --which all --p 31 --order %d", 150),
    ],
    # Block tables at n = 32 and the centralizer oracle to n = 30: almost all the
    # work is enumerating partitions and their cores.
    "enumerate": [_formats("blocks --p %d --n 32" % p) for p in (3, 5, 7)]
    + [_formats("oracle --p %d --n-max 30" % p) for p in (2, 3, 5)],
    # Each series built once at a large order and serialized as JSON.
    "dump": [
        _orders("series --name P --order %d --format json", 2000),
        _orders("series --name Z --p 2 --order %d --format json", 600),
        _orders("series --name Z --p 3 --order %d --format json", 500),
        _orders("series --name Y --p 2 --order %d --format json", 600),
        _orders("series --name Y --p 5 --order %d --format json", 500),
        _orders("series --name HH1group --p 2 --order %d --format json", 1200),
        _orders("series --name HH1group --p 3 --order %d --format json", 1000),
        ["series --name Cs --p 3 --s %d --order 500 --format json" % s for s in range(3)],
        _orders("series --name Cs --p 2 --s 1 --order %d --format json", 600),
    ],
}

# The same shapes at tiny sizes, for the benchmark's own test.
SMOKE: dict[str, list[list[str]]] = {
    "verify": [
        _orders("verify --which all --p 2 --order %d", 30),
        _orders("verify --which all --p 7 --order %d", 21),
    ],
    "enumerate": [
        _formats("blocks --p 3 --n 12"),
        _formats("oracle --p 3 --n-max 12"),
    ],
    "dump": [
        _orders("series --name P --order %d --format json", 60),
        _orders("series --name Z --p 2 --order %d --format json", 40),
        _orders("series --name Y --p 3 --order %d --format json", 40),
        _orders("series --name HH1group --p 2 --order %d --format json", 50),
        ["series --name Cs --p 3 --s %d --order 30 --format json" % s for s in range(3)],
    ],
}


def draw(workload: str, seed: int, smoke: bool = False) -> list[str]:
    """The invocation list of one run: a variant per slot, then the tail, shuffled."""
    rng = random.Random("%s:%d:%d" % (workload, seed, smoke))
    pool = (SMOKE if smoke else WORKLOADS)[workload]
    chosen = [rng.choice(variants) for variants in pool] + TAIL
    rng.shuffle(chosen)
    return chosen


def every_invocation() -> list[str]:
    """Every invocation any run can make, in a fixed order: what the goldens cover."""
    out = [SETUP] + TAIL
    for table in (WORKLOADS, SMOKE):
        for workload_slots in table.values():
            for variants in workload_slots:
                out.extend(v for v in variants if v not in out)
    return out
