"""Starts the benchmark's child processes from a small process.

On Linux a child's peak RSS as os.wait4 reports it includes the memory
of the process it was forked from: exec records the old address space in
the high-water mark. The harness holds NumPy, the package and the
references, so children forked from it would report at least its size.
They are forked from this process instead, which imports nothing large.

    python3 perfbench/spawner.py

reads one JSON request per line on stdin, {"argv": [...], "log": PATH},
runs argv with stdout and stderr to PATH.out and PATH.err, and answers
with one JSON line: {"t_spawn", "wall", "rc", "peak_rss_mb"}. The
working directory and environment are this process's own. It exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter

#: a child still running after this many seconds is killed
CHILD_TIMEOUT_S = 120


def run(argv, log):
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t_spawn": t0, "wall": wall, "rc": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["log"])), flush=True)


if __name__ == "__main__":
    main()
