"""Benchmark driver for the `untwist` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: the driver runs one child at a time, through
spawner.py, and starts the next only after the previous one has exited.  Each
CLI child's artifacts are checked (see checks.py); every run of a session must
also produce byte-identical artifacts.

--trace 0 runs, for S seconds, a set-up probe and a CLI child in turn, each
between two reference jobs (reference.py).  It reports the end-to-end
metrics: child wall time and set-up time, scaled to the reference speed, and
the child's own peak RSS, read per child with wait4.
--trace 1 runs one untraced child and then traced children that call
`untwist.cli.main` in-process under the outside-in tracer (tracer.py), and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run from anywhere; paths are resolved against
the checkout that contains this file, and scratch files go to .bench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 9          # least set-up probes per run; setup_s is their median


@dataclass(frozen=True)
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mb: float


class Spawner:
    """Runs children through spawner.py, so that each child's peak RSS is its
    own and not this process's (see spawner.py)."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv, log_path):
        """Run `python3 <argv>` to completion and return its Child."""
        self._proc.stdin.write(json.dumps({"argv": argv, "log": log_path}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner exited")
        return Child(**json.loads(reply))

    def close(self):
        """End the spawner and wait for it; a child it is still running is
        killed by its timeout."""
        try:
            self._proc.stdin.close()
        finally:
            self._proc.wait()


def digest(path):
    """SHA-256 over an artifact file, or over every file of an artifact dir."""
    h = hashlib.sha256()
    names = sorted(os.listdir(path)) if os.path.isdir(path) else [""]
    for name in names:
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name) if name else path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


class Session:
    """One benchmark invocation: runs children and checks their artifacts."""

    def __init__(self, spawner, prepared, work):
        self.spawner = spawner
        self.prepared = prepared
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._verdicts = {}     # artifact digest -> problems found by the check
        self._first = None      # digest of the session's first artifacts
        self._count = 0

    def _record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def probe(self):
        log = os.path.join(self.work, "probe.log")
        child = self.spawner.spawn([os.path.join(HERE, "probe.py"), *self.prepared.argv("unused")], log)
        self._record("setup probe",
                     [] if child.exit_code == 0 else [_exit_problem(child, log)])
        return child

    def reference(self):
        """One reference job (reference.py)."""
        log = os.path.join(self.work, "reference.log")
        child = self.spawner.spawn([os.path.join(HERE, "reference.py")], log)
        self._record("reference job",
                     [] if child.exit_code == 0 else [_exit_problem(child, log)])
        return child

    def run(self, traced=False):
        """One CLI child; returns (Child, spans file or None)."""
        self._count += 1
        out = os.path.join(self.work, f"out-{self._count}")
        log = out + ".log"
        cli_argv = self.prepared.argv(out)
        spans = None
        if traced:
            spans = out + ".spans.json"
            run_id = f"{os.path.basename(self.work)}-{self._count}"
            argv = [os.path.join(HERE, "tracer.py"), spans, run_id, "--", *cli_argv]
        else:
            argv = ["-m", "untwist.cli", *cli_argv]
        child = self.spawner.spawn(argv, log)
        if child.exit_code != 0:
            problems = [_exit_problem(child, log)]
        else:
            key = digest(out)
            if key not in self._verdicts:
                # The raw-BFS re-verification runs on the session's first output.
                self._verdicts[key] = self.prepared.check(out, not self._verdicts)
            self._first = self._first or key
            problems = list(self._verdicts[key])
            if key != self._first:
                problems.append("artifacts differ from this session's first run")
        self._record(f"run {self._count}", problems)
        return child, spans


def _exit_problem(child, log):
    with open(log, "r", encoding="utf-8", errors="replace") as fh:
        tail = fh.read()[-400:].strip()
    return f"exit code {child.exit_code}: {tail}"


def tail_percentile(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it, or
    None when that percentile would not lie above the median (< 20 samples)."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure(session, seconds):
    """End-to-end metrics.  Every set-up probe and every child runs between two
    reference jobs (reference.py), and its time is reported scaled by
    REFERENCE_S / (the mean time of those two jobs).  The host's speed drifts
    over seconds and minutes and moves the jobs and the probe or child between
    them alike; a change in the program moves only the probe or child."""
    import reference

    session.reference()  # warm-ups: byte-compile the package; not timed
    session.probe()
    refs = [session.reference().wall_s]
    timed = []  # (kind, Child); timed[i] runs between refs[i] and refs[i + 1]

    def step(kind, child):
        timed.append((kind, child))
        refs.append(session.reference().wall_s)

    t0 = perf_counter()
    # One probe before each child spreads the probes over the whole run, so a
    # short burst of load on the host cannot skew all of them.
    while len(timed) < 2 or perf_counter() - t0 < seconds:
        step("setup", session.probe())
        step("wall", session.run()[0])
    while sum(kind == "setup" for kind, _ in timed) < SETUP_PROBES:
        step("setup", session.probe())
    scaled = {"setup": [], "wall": []}
    for i, (kind, child) in enumerate(timed):
        speed = reference.REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)
        scaled[kind].append(child.wall_s * speed)
    walls, setup = scaled["wall"], scaled["setup"]
    rss = [child.peak_rss_mb for kind, child in timed if kind == "wall"]
    tail = tail_percentile(walls)
    print(f"  reference    median {statistics.median(refs):.4f} s, n={len(refs)}; "
          f"times below are scaled to {reference.REFERENCE_S} s per job")
    print("               runs " + " ".join(f"{w:.3f}" for w in refs))
    print(f"  wall_s       median {statistics.median(walls):.4f} s, "
          + (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail
             else "no tail percentile above the median (needs >= 20 runs)")
          + f", n={len(walls)}")
    print("               runs " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  peak_rss_mb  median {statistics.median(rss):.2f} MB, "
          f"max {max(rss):.2f} MB, n={len(rss)}")
    print(f"  setup_s      median {statistics.median(setup):.4f} s, n={len(setup)}")
    print("               runs " + " ".join(f"{w:.3f}" for w in setup))
    return {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def measure_traced(session, seconds):
    import tracer

    session.probe()  # warm-up: byte-compiles the package; not timed
    untraced, _ = session.run()
    elapsed = untraced.wall_s
    runs = []
    attempts = 0
    while attempts == 0 or elapsed < seconds:
        attempts += 1
        child, spans_path = session.run(traced=True)
        elapsed += child.wall_s
        if child.exit_code != 0:
            continue
        with open(spans_path, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
        metrics = tracer.aggregate([tuple(s) for s in trace["spans"]])
        metrics["trace_overhead"] = (child.wall_s - trace["dump_s"]) / untraced.wall_s
        runs.append(metrics)
    if not runs:
        return {}
    merged = {name: statistics.median(r[name] for r in runs)
              for name, _, _ in tracer.PER_LAYER}
    print(f"  traced runs {len(runs)}, untraced wall {untraced.wall_s:.4f} s, "
          f"largest self time {tracer.dominant_layer(merged)}")
    return {name: (merged[name], unit) for name, unit, _ in tracer.PER_LAYER}


def main(argv=None):
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "untwist", "cli.py")):
        print(f"error: no untwist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Relative input paths keep the config echoed into artifacts independent
    # of where the checkout lives.
    os.chdir(ROOT)
    work = os.path.join(".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    prepared = WORKLOADS[args.workload].prepare(work, args.seed)
    spawner = Spawner()
    try:
        session = Session(spawner, prepared, work)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            measured = measure_traced(session, args.seconds)
        else:
            measured = measure(session, args.seconds)
    finally:
        spawner.close()
    print(f"  fail_rate    {session.failed}/{session.attempted} = "
          f"{session.failed / session.attempted:.4f}")
    for problem in session.problems[:20]:
        print(f"  FAIL {problem}")
    correct = session.failed == 0
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
