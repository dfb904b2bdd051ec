#!/usr/bin/env python3
"""Record the exit code and stdout sha256 of every pool invocation.

    python3 perfbench/record_goldens.py

Run from the repository root on the commit whose outputs are the reference.
Goldens already in ``goldens.json`` are never replaced: if an invocation's
output differs from its recorded golden, the script reports it, writes
nothing and exits 1, so re-recording cannot absorb a changed answer.  Only
invocations new to the pools are added, and those no longer in them dropped.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    goldens = json.loads(run.GOLDENS.read_text()) if run.GOLDENS.exists() else {}
    recorded = {}
    differs = 0
    for invocation in workloads.every_invocation():
        child = run.launch(invocation)
        value = {"exit_code": child.exit_code, "sha256": child.sha256}
        old = recorded[invocation] = goldens.get(invocation, value)
        if old != value:
            differs += 1
            print("record_goldens: %r now gives %s, golden %s" % (invocation, value, old),
                  file=sys.stderr)
        print("%8.3fs %s" % (child.wall_s, invocation), flush=True)
    if differs:
        return 1
    run.GOLDENS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
