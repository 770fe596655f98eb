"""Run one program and report its own wall time, CPU time and peak RSS.

Usage: python3 -I -S bench/spawn.py FD TIMEOUT_S PROGRAM [ARG...]

PROGRAM (an absolute path) runs with this process's stdin, stdout,
stderr and environment.  It is killed after TIMEOUT_S seconds.  Once it
has ended, one line "exit wall_s cpu_s maxrss_kb start_s end_s" is
written to file descriptor FD.  CPU time and max RSS come from os.wait4,
so they are the child's alone; start_s and end_s are time.monotonic()
readings, the clock of bench/probe.py.

Linux starts a new process's max RSS at the peak RSS of the address
space it was spawned from.  Spawned straight from the benchmark, whose
peak is larger than a small CLI run, every child would read at least the
benchmark's own size.  This launcher runs without site and imports only
what it needs, so its peak stays below that of any child it starts.
"""

import os
import signal
import sys
import time

report_fd, timeout = int(sys.argv[1]), float(sys.argv[2])
os.set_inheritable(report_fd, False)
started = time.monotonic()
pid = os.posix_spawn(sys.argv[3], sys.argv[3:], os.environ)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, timeout)
_, status, usage = os.wait4(pid, 0)
signal.setitimer(signal.ITIMER_REAL, 0)
ended = time.monotonic()
with os.fdopen(report_fd, "w") as report:
    report.write(f"{os.waitstatus_to_exitcode(status)} {ended - started!r} "
                 f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss} "
                 f"{started!r} {ended!r}\n")
