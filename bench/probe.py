"""Sample the speed of the CPU core that the measured processes run on.

Usage: python3 -I -S bench/probe.py

The benchmark starts this process pinned to the same core as every
process it measures.  Every INTERVAL_S seconds the probe wakes, runs a
fixed kernel of calls, tuples and dict updates REPEATS times, and keeps
the fastest time.  The measured process is held off the core for those
few tens of microseconds.  On SIGTERM, on the end of its parent, or
after MAX_LIFE_S, the probe writes one line "monotonic_s kernel_s" per
sample to stdout and exits.

A virtual machine's core can run the same code at speeds that differ by
up to 2x, for seconds to minutes at a time, with no steal time shown
to the guest.  The samples let the benchmark scale each process's time
to one reference speed (see ``bench/run.py``).
"""

import os
import signal
import sys
import time

INTERVAL_S = 0.02
REPEATS = 3
MAX_LIFE_S = 600.0


def _step(a, b):
    return b, a ^ b


def kernel():
    table = {}
    pair = (1, 2)
    for i in range(60):
        pair = _step(pair[0] + i, pair[1])
        table[pair] = table.get(pair, i)
    return len(table)


def main():
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    clock = time.monotonic
    ended = clock() + MAX_LIFE_S
    samples = []
    while not stop and clock() < ended and os.getppid() == parent:
        time.sleep(INTERVAL_S)
        best = float("inf")
        for _ in range(REPEATS):
            started = clock()
            kernel()
            best = min(best, clock() - started)
        samples.append((clock(), best))
    sys.stdout.write("".join(f"{at!r} {took!r}\n" for at, took in samples))


if __name__ == "__main__":
    main()
