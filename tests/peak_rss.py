"""Exit code, own peak RSS and standard error of a child interpreter.

Linux carries the peak RSS of the memory image a process had before `exec`
into the `ru_maxrss` that wait4 reports, and a child spawned straight from
the test process starts from the test process's image, so it would report
pytest's peak whenever that is larger.  So the child is spawned from a
small `python -S -c` process, which imports next to nothing: it starts the
child with `os.posix_spawn`, waits for it with `wait4` and prints the exit
code and `ru_maxrss`.  The spawner also kills a child still running after
the timeout, so a runaway child cannot outlive its test.
"""

import os
import subprocess
import sys
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv: timeout in seconds, then the child's arguments after the interpreter.
# The child's standard output goes to /dev/null, its standard error to the
# spawner's; the spawner prints "exit_code ru_maxrss_kb" on its standard output.
_SPAWNER = """
import os, signal, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, float(sys.argv[1]))
_, status, usage = os.wait4(pid, 0)
signal.setitimer(signal.ITIMER_REAL, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class ChildRun(NamedTuple):
    exit_code: int       # -9 when the spawner killed it at the timeout
    peak_mb: float       # the child's own ru_maxrss
    stderr: str


def run_child(argv, timeout: float = 120.0) -> ChildRun:
    """Run `python <argv>` with the checkout's src first on its path."""
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-S", "-c", _SPAWNER, str(timeout), *argv],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, check=True, timeout=timeout + 30)
    code, peak_kb = done.stdout.split()
    return ChildRun(int(code), int(peak_kb) / 1024, done.stderr)
