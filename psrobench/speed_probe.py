"""Sample how fast the benchmark's CPU runs a fixed piece of Python.

On a shared host the same work takes up to twice as long from one minute
to the next, because other tenants load the physical core and its caches.
The benchmark runs this script beside a workload, pinned to the same CPU:
every ``INTERVAL_S`` it wakes, times one chunk of pure Python in thread CPU
time, and appends ``<monotonic start> <chunk seconds>`` to the file named
by its first argument. `bench.py` then scales each timed interval by
``REFERENCE_CHUNK_S`` over the mean chunk time inside it.

The chunk reads ``READS`` floats at fixed random places in a list of
``LIST_SIZE`` (about 4 MB of objects, twice the core's L2 cache). A chunk
of that kind slows down as the workloads do: on a shared Xeon the
workloads' repetition times grew as about the first power of its time
(log-log slope 0.9 to 1.1, correlation 0.97 to 0.99), where a chunk of
arithmetic alone underestimated the slowdown (slope 1.5 to 1.7). Its time
hardly depends on what the benchmarked process does with the cache: beside
a 64 MB streaming loop it ran 1.5% slower than beside pure arithmetic.

The chunk shares no code with gamepop. The probe takes 2 to 5% of the CPU
and exits when the process that started it is gone.
"""

import os
import random
import sys
import time

LIST_SIZE = 100_000
READS = 6000
INTERVAL_S = 0.04
# About the fastest chunk time seen on the machine the benchmark was tuned
# on (Intel Xeon, Sapphire Rapids, Python 3.11): scaled times read as
# seconds on that machine when other tenants leave it alone.
REFERENCE_CHUNK_S = 0.001


def main(path: str) -> None:
    values = [float(i) for i in range(LIST_SIZE)]
    places = random.Random(0).choices(range(LIST_SIZE), k=READS)
    parent = os.getppid()
    with open(path, "w") as fh:
        while os.getppid() == parent:
            time.sleep(INTERVAL_S)
            start = time.monotonic()
            cpu = time.thread_time()
            total = 0.0
            for i in places:
                total += values[i]
            fh.write(f"{start!r} {time.thread_time() - cpu!r}\n")
            fh.flush()


if __name__ == "__main__":
    main(sys.argv[1])
