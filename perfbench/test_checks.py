"""Self-tests of the benchmark: each output check accepts a real artifact and
rejects a corrupted copy, and the tracer leaves the artifacts unchanged.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from untwist.cli import main  # noqa: E402


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def run_prepared(name, tmp_path, seed=3):
    prepared = workloads.WORKLOADS[name].prepare(str(tmp_path), seed)
    out = str(tmp_path / "out")
    assert main(prepared.argv(out)) == 0
    return prepared, out


def test_untwist_check_rejects_changed_psi(tmp_path):
    prepared, out = run_prepared("untwist-z2", tmp_path)
    assert prepared.check(out, True) == []
    report = json.loads(read(out))
    elem = sorted(report["psi"])[0]
    report["psi"][elem][0] += 0.125
    write(out, json.dumps(report))
    assert any(elem in p for p in prepared.check(out, True))


def divergence_artifacts(tmp_path, group, nmax):
    out = tmp_path / group.replace("^", "")
    assert main(["divergence", "--group", group, "--nmax", str(nmax),
                 "--seed", "3", "--out", str(out)]) == 0
    return read(out / "divergence.csv"), read(out / "report.json")


def test_divergence_check_verifies_rows_by_raw_bfs(tmp_path):
    for group, nmax in (("z^2", 8), ("heisenberg", 4)):
        csv_text, report = divergence_artifacts(tmp_path, group, nmax)
        assert checks.check_divergence(csv_text, report, group, nmax, 4, verify=True) == []


def test_divergence_check_rejects_changed_value(tmp_path):
    csv_text, report = divergence_artifacts(tmp_path, "z^2", 8)
    lines = csv_text.splitlines()
    n, value, rest = lines[-1].split(",", 2)
    # Raising the last row keeps the sequence non-decreasing, so only the
    # raw-BFS re-verification can catch it.
    lines[-1] = f"{n},{int(value) + 1},{rest}"
    corrupted = "\n".join(lines) + "\n"
    assert checks.check_divergence(corrupted, report, "z^2", 8, 4, verify=False) == []
    problems = checks.check_divergence(corrupted, report, "z^2", 8, 4, verify=True)
    assert any("raw BFS" in p for p in problems)


def test_glue_check_rejects_adjacent_pair(tmp_path):
    prepared, out = run_prepared("glue-z2", tmp_path)
    assert prepared.check(out, True) == []
    report = json.loads(read(out))
    cell = checks.parse_tuple(report["y"]["support"][0][0])
    report["y"]["support"].append([f"({cell[0] + 1},{cell[1]})", 1])
    write(out, json.dumps(report))
    assert any("adjacent" in p for p in prepared.check(out, True))


def test_axis_cone_matches_piece_definition():
    # Piece j of the + cone is the L1 ball of radius floor(j/4) + R around (j,0).
    assert checks.in_axis_cone((0, 4), "+", 4)
    assert not checks.in_axis_cone((0, 5), "+", 4)
    assert checks.in_axis_cone((8, 6), "+", 4)      # j=8: radius 6
    assert not checks.in_axis_cone((-5, 0), "+", 4)
    assert checks.in_axis_cone((-5, 0), "-", 4)


def test_tracer_leaves_artifacts_identical(tmp_path):
    argv = ["divergence", "--group", "z^2", "--nmax", "5", "--seed", "1"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert main([*argv, "--out", str(plain)]) == 0
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"), str(spans),
                    "t1", "--", *argv, "--out", str(traced)], env=env, check=True)
    for name in ("divergence.csv", "report.json"):
        assert read(plain / name) == read(traced / name)
    trace = json.loads(read(spans))
    rows = [tuple(s) for s in trace["spans"]]
    assert all(s[2] == "t1" for s in rows)
    metrics = tracer.aggregate(rows)
    assert metrics["divergence.avoidant_bfs.calls"] > 0
    assert metrics["groups.enumerate_ball.calls"] > metrics[
        "divergence.avoidant_bfs.enumerate_ball_calls"] > 0
    (root,) = [s for s in rows if s[3] == "cli.main"]
    layer_self = sum(metrics[name] for name in tracer.SELF_TIMES)
    # The reported self times cover the root span's duration, all but the
    # self time of WordMetric.table, which only counts growths.
    duration = root[5] - root[4]
    assert 0 <= duration - layer_self - metrics["cli.self_s"] < 0.01 * duration


def test_spawner_reports_the_childs_own_peak_rss(tmp_path):
    # 96 MB resident in this process must not show in a small child's peak.
    ballast = bytearray(96 * 2**20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    spawner = run.Spawner()
    try:
        child = spawner.spawn(["-c", "pass"], str(tmp_path / "child.log"))
    finally:
        spawner.close()
    assert child.exit_code == 0
    assert 0 < child.peak_rss_mb < 48


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["workloads"] == [{"name": w.name, "why": w.why}
                                  for w in workloads.WORKLOADS.values()]
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b in tracer.PER_LAYER]
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
