"""Spawner: a small process that starts the benchmark's children and times them.

    python3 perfbench/spawner.py

Reads one JSON request a line on standard input, `{"argv": [...], "log": path}`,
runs `python3 <argv>` with standard output and error in `log`, waits for it
with wait4 and answers one JSON line, `{"exit_code", "wall_s",
"peak_rss_mb"}`.  It exits at the end of its input.

Linux carries the peak RSS of the memory image a process had before `exec`
into the `ru_maxrss` that wait4 reports, and a spawned child's image before
`exec` is its parent's.  The driver holds the workload's inputs and its
checks' data, which can outgrow a small CLI child; children spawned from this
process, which imports next to nothing, report their own peak.
"""

import json
import os
import signal
import sys
import threading
from time import perf_counter

CHILD_TIMEOUT_S = 120.0  # a child still running after this is killed


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, log_path):
    """Run `python3 <argv>` to completion; wall time from spawn to exit and
    the child's own peak RSS from wait4."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, log_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                         file_actions=actions)
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    timer.start()
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        timer.cancel()
        timer.join()
        if not reaped:
            _kill(pid)
            os.waitpid(pid, 0)
    wall = perf_counter() - t0
    return {"exit_code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(spawn(request["argv"], request["log"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
