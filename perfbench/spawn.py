"""Run one command and report its wall time, max-RSS and exit code.

    python3 -S perfbench/spawn.py REPORT_FD -- COMMAND...

The command inherits stdin, stdout and stderr.  When it has ended, one line
``wall_s max_rss_kb exit_code`` is written to the inherited descriptor
REPORT_FD, which the command itself does not inherit.

A process's max-RSS counts the memory of the process that started it, as
Linux carries that into the child when it execs.  This launcher imports
nothing beyond what ``python3 -S`` already loads, about 9 MB, so what it
reports is the command's own peak and not the peak of whoever launched it.
"""

import os
import sys
import time

report = int(sys.argv[1])
argv = sys.argv[3:]
os.set_inheritable(report, False)
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
os.write(report, b"%r %d %d\n" % (wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)))
