import json
import math
import os
import shlex
import subprocess
import sys

import pytest

from untwist.cli import main
from untwist.reporting import dumps

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
SPEC_RELPATH = os.path.join("tests", "golden", "coboundary_w0.json")


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["ball", "--radius", "3"])  # missing required flags
    assert info.value.code == 2


def test_bad_group_descriptor_exit_code(tmp_path, capsys):
    rc = main(["ball", "--group", "nope", "--radius", "2",
               "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_ball_csv_contents(tmp_path):
    out = tmp_path / "ball.csv"
    assert main(["ball", "--group", "z^2", "--radius", "1",
                 "--out", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0].startswith("# config = ")
    assert lines[1] == "normal_form,length"
    assert lines[2] == '"(0,0)",0'
    assert len(lines) == 2 + 5


def test_invariants_artifacts_and_exit(tmp_path):
    out = tmp_path / "inv"
    assert main(["invariants", "--group", "heisenberg", "--element", "z",
                 "--radius", "8", "--out", str(out)]) == 0
    powers = read(out / "powers.csv").splitlines()
    assert "1,4" in powers and "2,6" in powers and "4,8" in powers
    report = json.loads(read(out / "report.json"))
    assert all(report["checks"].values())
    assert report["lower_bound"] == "sqrt(scale=1)"
    assert os.path.exists(out / "compression.csv")
    assert os.path.exists(out / "distortion.csv")
    assert os.path.exists(out / "translation.csv")


@pytest.mark.parametrize("flags, message", [
    (["--sdt-base", "1.5"], "base r must lie in"),
    (["--sdt-base", "0.5", "--sdt-terms", "0"], "at least one term"),
], ids=["base", "terms"])
def test_invariants_bad_sdt_setting_exits_2_writing_nothing(tmp_path, capsys, flags,
                                                            message):
    out = tmp_path / "inv"
    out.mkdir()
    assert main(["invariants", "--group", "heisenberg", "--element", "z",
                 "--radius", "8", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_divergence_z_marks_infinite(tmp_path):
    out = tmp_path / "div"
    assert main(["divergence", "--group", "z", "--nmax", "14", "--seed", "7",
                 "--out", str(out)]) == 0
    report = json.loads(read(out / "report.json"))
    assert report["any_infinite"] is True
    rows = read(out / "divergence.csv").splitlines()
    assert any(line.startswith("12,inf") for line in rows)


@pytest.mark.parametrize("flags, message", [
    (["--nmax", "1"], "nmax must be >= 2, got 1"),
    (["--nmax", "6", "--window-factor", "0"], "window_factor must be >= 1, got 0"),
    (["--nmax", "6", "--pairs-per-n", "0"], "pairs_per_n must be >= 1, got 0"),
    (["--nmax", "6", "--sample-budget", "-1"], "sample_budget must be >= 0, got -1"),
], ids=["nmax", "window_factor", "pairs_per_n", "sample_budget"])
def test_divergence_parameter_out_of_range_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "div"
    assert main(["divergence", "--group", "z^2", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_divergence_parameter_from_config_is_checked(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nmax": -2}))
    out = tmp_path / "div"
    assert main(["--config", str(cfg), "divergence", "--group", "z^2",
                 "--nmax", "6", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: nmax must be >= 2, got -2\n"
    assert not out.exists()


def test_subshift_glue_and_check(tmp_path):
    task = {
        "anchor": "(1,0)", "R": 2,
        "subshift": {"kind": "golden_mean", "alphabet": [0, 1],
                     "families": [["(0,0)", "(1,0)"], ["(0,0)", "(0,1)"]]},
        "x": {"alphabet": [0, 1], "background": 0, "support": [["(15,0)", 1]]},
        "x_prime": {"alphabet": [0, 1], "background": 0,
                    "support": [["(-15,0)", 1]]},
    }
    spec = tmp_path / "task.json"
    spec.write_text(json.dumps(task))
    out = tmp_path / "glue.json"
    assert main(["subshift", "glue", "--group", "z^2", "--spec", str(spec),
                 "--out", str(out)]) == 0
    payload = json.loads(read(out))
    assert payload["glued"] and payload["plus_agrees"] and payload["minus_agrees"]
    assert payload["membership"] == {"x": True, "x_prime": True, "y": True}

    check_task = {"subshift": task["subshift"],
                  "x": {"alphabet": [0, 1], "background": 0,
                        "support": [["(0,0)", 1], ["(1,0)", 1]]}}
    spec2 = tmp_path / "check.json"
    spec2.write_text(json.dumps(check_task))
    out2 = tmp_path / "check_out.json"
    assert main(["subshift", "check", "--group", "z^2", "--spec", str(spec2),
                 "--out", str(out2)]) == 0
    assert json.loads(read(out2))["member"] is False


def test_subshift_glue_contract_violation_exits_1(tmp_path):
    task = {
        "anchor": "(1,0)", "R": 0,
        "subshift": {"kind": "full", "alphabet": [0, 1]},
        "x": {"alphabet": [0, 1], "background": 0, "support": [["(0,0)", 1]]},
        "x_prime": {"alphabet": [0, 1], "background": 0, "support": []},
    }
    spec = tmp_path / "task.json"
    spec.write_text(json.dumps(task))
    out = tmp_path / "glue.json"
    assert main(["subshift", "glue", "--group", "z^2", "--spec", str(spec),
                 "--out", str(out)]) == 1
    assert json.loads(read(out))["glued"] is False


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 2}))
    out = tmp_path / "ball.csv"
    assert main(["--config", str(cfg), "ball", "--group", "z^2",
                 "--radius", "9", "--out", str(out)]) == 0
    lines = read(out).splitlines()
    assert len(lines) == 2 + 13  # radius 2 ball, not radius 9


@pytest.mark.parametrize("overrides", [{"radus": 99}, {"radius": "6"},
                                       {"radius": True}])
def test_config_file_rejects_unknown_key_or_type(tmp_path, capsys, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    out = tmp_path / "ball.csv"
    assert main(["--config", str(cfg), "ball", "--group", "z^2",
                 "--radius", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(next(iter(overrides))) in err
    assert not out.exists()


def test_glue_task_without_anchor_exits_2(tmp_path, capsys):
    task = {
        "R": 0,
        "subshift": {"kind": "full", "alphabet": [0, 1]},
        "x": {"alphabet": [0, 1], "background": 0, "support": []},
        "x_prime": {"alphabet": [0, 1], "background": 0, "support": []},
    }
    spec = tmp_path / "task.json"
    spec.write_text(json.dumps(task))
    assert main(["subshift", "glue", "--group", "z^2", "--spec", str(spec),
                 "--out", str(tmp_path / "glue.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'anchor'" in err and str(spec) in err


def _edited_spec(tmp_path, edit):
    with open(os.path.join(ROOT, SPEC_RELPATH), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return path


def test_cocycle_generator_without_window_exits_2(tmp_path, capsys):
    spec = _edited_spec(tmp_path, lambda p: p["generators"][0].pop("window"))
    assert main(["cocycle", "untwist", "--group", "z^2", "--spec", str(spec),
                 "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'window'" in err and str(spec) in err


def test_cocycle_cell_outside_its_window_exits_2(tmp_path, capsys):
    spec = _edited_spec(tmp_path, lambda p: p["generators"][0].update(window=0))
    out = tmp_path / "report.json"
    assert main(["cocycle", "untwist", "--group", "z^2", "--spec", str(spec),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'x1+'" in err and "window 0" in err
    assert not out.exists()


def test_cocycle_unknown_target_exits_2(tmp_path, capsys):
    spec = _edited_spec(tmp_path,
                        lambda p: p.update(target={"kind": "quaternion"}))
    assert main(["cocycle", "untwist", "--group", "z^2", "--spec", str(spec),
                 "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "quaternion" in err


def _z_specs(tmp_path, window=None):
    """A weighted coboundary spec and a homomorphism spec over z, as files;
    a given window replaces every generator's declared one."""
    from untwist import (InfiniteCyclic, RealVector, WordMetric, coboundary_cocycle,
                         homomorphism_cocycle, weighted_potential)
    from untwist.cocycles import cocycle_spec_to_jsonable

    z, r1 = InfiniteCyclic(), RealVector(1)
    metric = WordMetric(z)
    potential = weighted_potential(z, metric, r1, 0, {(0,): (0.25,)}, (0, 1))
    specs = {
        "coboundary": coboundary_cocycle(z, r1, {"x1+": (0.5,)}, potential, (0, 1),
                                         metric=metric),
        "homomorphism": homomorphism_cocycle(z, r1, {"x1+": (0.5,)}, (0, 1)),
    }
    paths = {}
    for name, spec in specs.items():
        payload = cocycle_spec_to_jsonable(spec)
        for entry in payload["generators"]:
            entry["window"] = entry["window"] if window is None else window
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return paths


def test_cocycle_agreement_radius_past_float_range_exits_2(tmp_path, capsys):
    # 0.5 ** -(agreement + 1) overflows a float once samples reach radius ~1024.
    specs = _z_specs(tmp_path)
    out = tmp_path / "report.json"
    args = ["cocycle", "untwist", "--group", "z", "--samples", "4",
            "--sample-radius", "1100", "--out", str(out)]
    assert main(args + ["--spec", str(specs["coboundary"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "agreement radius" in err and "rate 0.5" in err
    assert not out.exists()
    # Constant maps have continuity constant 0 and never raise r to that power.
    assert main(args + ["--spec", str(specs["homomorphism"])]) == 0


def test_cocycle_window_past_float_range_exits_2(tmp_path, capsys):
    specs = _z_specs(tmp_path, window=1100)
    out = tmp_path / "report.json"
    args = ["cocycle", "untwist", "--group", "z", "--samples", "4", "--out", str(out)]
    assert main(args + ["--spec", str(specs["coboundary"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'x1+'" in err
    assert "window 1100" in err and "rate 0.5" in err
    assert not out.exists()
    # A zero-diameter map keeps its constant at 0 whatever its window.
    assert main(args + ["--spec", str(specs["homomorphism"])]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "nan"], "epsilon must be finite and > 0, got nan"),
    (["--epsilon", "inf"], "epsilon must be finite and > 0, got inf"),
    (["--epsilon", "0"], "epsilon must be finite and > 0, got 0.0"),
    (["--epsilon", "-1"], "epsilon must be finite and > 0, got -1.0"),
    (["--tol", "-1"], "tolerance must be >= 0, got -1.0"),
    (["--tol", "nan"], "tolerance must be >= 0, got nan"),
    (["--sample-cells", "-1"], "sample cell count n_cells must be >= 0, got -1"),
], ids=["epsilon-nan", "epsilon-inf", "epsilon-0", "epsilon-negative", "tol-negative",
        "tol-nan", "sample-cells"])
def test_cocycle_bad_setting_exits_2_naming_it(tmp_path, capsys, flags, message):
    out = tmp_path / "report.json"
    assert main(["cocycle", "untwist", "--group", "z^2", "--samples", "4",
                 "--spec", os.path.join(ROOT, SPEC_RELPATH), "--out", str(out),
                 *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--samples", "1"]])
def test_cocycle_untwist_over_the_background_alone(tmp_path, capsys, extra):
    # The shift over {0} has one point, the background configuration, so
    # every sample is that point.
    from untwist import IntegerLattice, RealVector, homomorphism_cocycle
    from untwist.cocycles import cocycle_spec_to_jsonable

    spec = homomorphism_cocycle(IntegerLattice(2), RealVector(1),
                                {"x1+": (0.5,), "x2+": (0.25,)}, (0,))
    path = tmp_path / "spec.json"
    path.write_text(dumps(cocycle_spec_to_jsonable(spec)))
    out = tmp_path / "report.json"
    assert main(["cocycle", "untwist", "--group", "z^2", "--spec", str(path),
                 "--out", str(out), *extra]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text())["ok"] is True


GLUE_TASK = {
    "anchor": "(1,0)", "R": 2,
    "subshift": {"kind": "golden_mean", "alphabet": [0, 1],
                 "families": [["(0,0)", "(1,0)"], ["(0,0)", "(0,1)"]]},
    "x": {"alphabet": [0, 1], "background": 0, "support": [["(15,0)", 1]]},
    "x_prime": {"alphabet": [0, 1], "background": 0, "support": [["(-15,0)", 1]]},
}


def _edited_task(tmp_path, edit):
    payload = json.loads(json.dumps(GLUE_TASK))
    edit(payload)
    path = tmp_path / "task.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("command, edit", [
    ("glue", lambda t: t.update(R="x")),
    ("glue", lambda t: t.update(x=[])),
    ("glue", lambda t: t["x"].update(support=[["(1,0)"]])),
    ("glue", lambda t: t.update(anchor=5)),
    ("glue", lambda t: t.update(subshift=[])),
    ("glue", lambda t: t.update(s_prime="x")),
    ("glue", lambda t: t.update(s_prime=math.inf)),
    ("glue", lambda t: t.update(t_prime=math.nan)),
    ("glue", lambda t: t.update(R=math.inf)),
    ("glue", lambda t: t.update(max_query_length=[])),
    ("glue", lambda t: t.update(R=2.9)),
    ("glue", lambda t: t.update(R=True)),
    ("glue", lambda t: t.update(max_query_length=30.5)),
    ("cocycle", lambda p: p.update(rate="x")),
    ("cocycle", lambda p: p["generators"][0].update(window="w")),
    ("cocycle", lambda p: p["generators"][0].update(window=1.5)),
    ("cocycle", lambda p: p.update(generators=5)),
], ids=["R", "x", "support-entry", "anchor", "subshift", "s_prime",
        "s_prime-inf", "t_prime-nan", "R-inf", "max_query_length", "R-fraction",
        "R-bool", "max_query_length-fraction", "rate", "window", "window-fraction",
        "generators"])
def test_wrongly_typed_input_value_exits_2(tmp_path, capsys, command, edit):
    out = str(tmp_path / "out.json")
    if command == "glue":
        spec = _edited_task(tmp_path, edit)
        argv = ["subshift", "glue", "--group", "z^2", "--spec", str(spec), "--out", out]
    else:
        spec = _edited_spec(tmp_path, edit)
        argv = ["cocycle", "untwist", "--group", "z^2", "--spec", str(spec), "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(spec) in err
    assert not os.path.exists(out)


def _strings_for_table_values(payload):
    for entry in payload["generators"]:
        for row in entry["table"]:
            row[1] = [str(v) for v in row[1]]


@pytest.mark.parametrize("edit, key, need", [
    (_strings_for_table_values, "table", "a number"),
    (lambda p: p.update(rate="0.5"), "rate", "a number"),
    (lambda p: p.update(rate=True), "rate", "a number"),
    (lambda p: p["target"].update(dim=2.7), "dim", "an integral number"),
    (lambda p: p["target"].update(dim="2"), "dim", "an integral number"),
    (lambda p: p["target"].update(dim=True), "dim", "an integral number"),
    (lambda p: p.update(target={"kind": "cyclic", "n": "3"}), "n", "an integral number"),
], ids=["table", "rate", "rate-bool", "dim-fraction", "dim-string", "dim-bool",
        "n-string"])
def test_spec_value_that_is_no_json_number_exits_2_naming_the_key(tmp_path, capsys,
                                                                   edit, key, need):
    spec = _edited_spec(tmp_path, edit)
    out = tmp_path / "report.json"
    assert main(["cocycle", "untwist", "--group", "z^2", "--spec", str(spec),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: bad value: key {key!r} needs {need}")
    assert not out.exists()


def test_fractional_count_in_a_task_exits_2_naming_the_key(tmp_path, capsys):
    spec = _edited_task(tmp_path, lambda t: t.update(R=2.9))
    argv = ["subshift", "glue", "--group", "z^2", "--spec", str(spec),
            "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: bad value: key 'R' needs an integral number, got 2.9\n")
    # An integral float is an integral number.
    _edited_task(tmp_path, lambda t: t.update(R=2.0))
    assert main(argv) == 0


def _set_table_values(value):
    def edit(payload):
        for entry in payload["generators"]:
            for row in entry["table"]:
                row[1] = value
    return edit


WRONG_SIZE = ("table value for pattern [0, 0, 0, 0, 0]: expected a length-2 tuple "
              "of finite numbers")


@pytest.mark.parametrize("value, message", [
    ([math.nan, math.nan], "bad value: key 'table' needs a finite number, got nan"),
    ([0.5, -0.25, 1.0], WRONG_SIZE),
    ([0.5], WRONG_SIZE),
], ids=["nan", "three-components", "one-component"])
def test_cocycle_bad_table_value_exits_2_naming_the_file(tmp_path, capsys, value, message):
    spec = _edited_spec(tmp_path, _set_table_values(value))
    out = tmp_path / "report.json"
    assert main(["cocycle", "untwist", "--group", "z^2", "--spec", str(spec),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: {message}") and "Traceback" not in err
    assert not out.exists()


def _into_torus(payload):
    payload["target"] = {"kind": "torus", "dim": 2}


@pytest.mark.parametrize("value, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                          (-math.inf, "-inf")],
                         ids=["nan", "inf", "minus-inf"])
def test_cocycle_non_finite_torus_value_exits_2_naming_the_key(tmp_path, capsys,
                                                               value, shown):
    # A torus wraps its coordinates mod 1, which would turn NaN into 0.0.
    out = tmp_path / "report.json"
    argv = ["cocycle", "untwist", "--group", "z^2", "--samples", "4", "--out", str(out)]

    def edit(payload):
        _into_torus(payload)
        payload["generators"][0]["table"][0][1] = [value, 0.5]

    spec = _edited_spec(tmp_path, edit)
    assert main(argv + ["--spec", str(spec)]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: bad value: key 'table' needs a finite number, got {shown}\n")
    assert not out.exists()
    # The golden coboundary, wrapped mod 1, is a torus coboundary.
    spec = _edited_spec(tmp_path, _into_torus)
    assert main(argv + ["--spec", str(spec)]) == 0


def _drop_all_ones_rows(payload):
    for entry in payload["generators"]:
        assert entry["table"][-1][0] == [1, 1, 1, 1, 1]
        del entry["table"][-1]


def _set_last_pattern(pattern):
    def edit(payload):
        payload["generators"][0]["table"][-1][0] = pattern
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda p: p["generators"][0]["table"].append(p["generators"][0]["table"][0]),
     "pattern [0, 0, 0, 0, 0] is listed twice"),
    (_drop_all_ones_rows, "pattern [1, 1, 1, 1, 1] has no value"),
    (_set_last_pattern([1, 1, 1, 1, 2]),
     "pattern [1, 1, 1, 1, 2] is not 5 symbols of the alphabet [0, 1]"),
    (_set_last_pattern([1, 1, 1, 1]),
     "pattern [1, 1, 1, 1] is not 5 symbols of the alphabet [0, 1]"),
], ids=["duplicate", "missing", "foreign-symbol", "short"])
def test_cocycle_table_that_misses_or_repeats_a_pattern_exits_2_naming_it(
        tmp_path, capsys, edit, message):
    spec = _edited_spec(tmp_path, edit)
    out = tmp_path / "report.json"
    assert main(["cocycle", "untwist", "--group", "z^2", "--spec", str(spec),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: block map for generator 'x1+': {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("key, value, need", [
    ("s_prime", "2", "a number"),
    ("t_prime", "0", "a number"),
    ("s_prime", True, "a number"),
    ("t_prime", math.nan, "a finite number"),
], ids=["s_prime-string", "t_prime-string", "s_prime-bool", "t_prime-nan"])
def test_glue_constant_that_is_no_finite_number_exits_2_naming_it(tmp_path, capsys,
                                                                  key, value, need):
    spec = _edited_task(tmp_path, lambda t: t.update({key: value}))
    out = tmp_path / "out.json"
    assert main(["subshift", "glue", "--group", "z^2", "--spec", str(spec),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: bad value: key {key!r} needs {need}, got {value!r}\n")
    assert not out.exists()


def test_cocycle_spec_over_another_group_exits_2_naming_both(tmp_path, capsys):
    from untwist import RealVector, homomorphism_cocycle, parse_group
    from untwist.cocycles import cocycle_spec_to_jsonable

    spec_path = tmp_path / "spec.json"
    group = parse_group("z^2+diag")
    spec = homomorphism_cocycle(group, RealVector(1),
                                {"x1+": (0.5,), "x2+": (0.25,), "diag+": (0.75,)}, (0, 1))
    spec_path.write_text(dumps(cocycle_spec_to_jsonable(spec)))
    out = tmp_path / "report.json"
    argv = ["cocycle", "untwist", "--spec", str(spec_path), "--samples", "2",
            "--out", str(out)]
    assert main(argv + ["--group", "z^2"]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec_path}: spec is over z^2+diag, not z^2\n")
    assert not out.exists()
    assert main(argv + ["--group", "z^2+diag"]) == 0


def test_bad_element_in_task_keeps_group_error_message(tmp_path, capsys):
    spec = _edited_task(tmp_path, lambda t: t.update(anchor="(1,0,0)"))
    assert main(["subshift", "glue", "--group", "z^2", "--spec", str(spec),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == "error: expected 2 coordinates in '(1,0,0)'\n"


@pytest.mark.parametrize("element", ["(1,,2)", ",1,2", "(1,2,)"])
def test_element_with_an_empty_coordinate_exits_2(tmp_path, capsys, element):
    out = tmp_path / "out"
    assert main(["invariants", "--group", "z^2", "--element", element, "--radius", "4",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: expected 2 coordinates in {element!r}\n"
    assert not out.exists()


def test_task_listing_a_cell_twice_exits_2_naming_it(tmp_path, capsys):
    with open(os.path.join(GOLDEN, "glue_z2_task.json"), "r", encoding="utf-8") as fh:
        task = json.load(fh)
    assert ["(-11,4)", 1] in task["x"]["support"]
    task["x"]["support"].append(["(-11, 4)", 0])
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task))
    out = tmp_path / "out.json"
    assert main(["subshift", "glue", "--group", "z^2", "--spec", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: cell (-11,4) is listed twice\n" and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("error", [
    "untwist.groups.GroupError", "untwist.shifts.ContractError",
    "untwist.cocycles.CocycleError", "untwist.targets.TargetError",
    "untwist.cli.InputError",
])
def test_each_bad_input_error_exits_2_through_one_base(tmp_path, capsys, monkeypatch,
                                                       error):
    import importlib

    import untwist.cli as cli
    from untwist.groups import InputError

    module, name = error.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    assert issubclass(cls, InputError) and issubclass(cls, ValueError)

    def raising(args):
        raise cls("the bad input")

    monkeypatch.setattr(cli, "cmd_ball", raising)
    assert cli.main(["ball", "--group", "z", "--radius", "1",
                     "--out", str(tmp_path / "b.csv")]) == 2
    assert capsys.readouterr().err == "error: the bad input\n"
    path = tmp_path / "task.json"
    path.write_text("{}")
    with pytest.raises(cls, match="^the bad input$"):
        with cli._decoding(path):
            raise cls("the bad input")


def test_config_value_outside_choices_exits_2(tmp_path, capsys):
    spec = _edited_task(tmp_path, lambda t: None)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.json"
    argv = ["--config", str(cfg), "subshift", "glue", "--group", "z^2",
            "--spec", str(spec), "--out", str(out)]
    cfg.write_text(json.dumps({"mode": "bogus"}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'mode'" in err and "glue, check" in err
    assert not out.exists()
    cfg.write_text(json.dumps({"mode": "check"}))
    assert main(argv) == 0
    assert json.loads(read(out))["member"] is True


def test_cone_query_past_the_profile_names_cell_and_setting(tmp_path, capsys):
    spec = _edited_task(tmp_path, lambda t: t.update(
        max_query_length=10,
        x={"alphabet": [0, 1], "background": 0, "support": [["(40,0)", 1]]},
        x_prime={"alphabet": [0, 1], "background": 0, "support": []}))
    assert main(["subshift", "glue", "--group", "z^2", "--spec", str(spec),
                 "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cone query at (40,0) of word length 40:")
    assert "max_query_length" in err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    out = tmp_path / "ball.csv"
    assert main(["--config", str(cfg), "ball", "--group", "z^2",
                 "--radius", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(cfg) in err
    assert not out.exists()


BALL_ARGV = ["ball", "--group", "z^2", "--radius", "2", "--out", "{out}"]
CHECK_ARGV = ["subshift", "check", "--group", "z^2", "--spec", "{path}", "--out", "{out}"]


@pytest.mark.parametrize("argv, content", [
    (["--config", "{path}", *BALL_ARGV], None),
    (CHECK_ARGV, None),
    (["--config", "{path}", *BALL_ARGV], b'{"radius": "\xe9"}'),
    (CHECK_ARGV, b'{"R": "\xe9"}'),
    (["--config", "{path}", *BALL_ARGV], b'{'),
    (CHECK_ARGV, b'{"R": 0,}'),
    (["divergence", "--group", "z^2", "--nmax", "4", "--out", "{path}"], b""),
], ids=["config-directory", "spec-directory", "config-not-utf8", "spec-not-utf8",
        "config-not-json", "spec-not-json", "divergence-out-is-a-file"])
def test_unusable_file_exits_2_naming_it(tmp_path, capsys, argv, content):
    # content None makes the path a directory; otherwise a file of these bytes.
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    out = tmp_path / "out.json"
    assert main([arg.format(path=path, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "Traceback" not in err
    assert not out.exists()


REFUSED_SETTINGS = [
    # Only ball and cocycle untwist list a ball, so only they take a budget;
    # ball and invariants draw nothing, so they take no seed.
    (["ball", "--group", "z", "--radius", "1"], "--seed", "seed"),
    (["invariants", "--group", "z", "--element", "1", "--radius", "4"],
     "--seed", "seed"),
    (["invariants", "--group", "z", "--element", "1", "--radius", "4"],
     "--max-elements", "max_elements"),
    (["divergence", "--group", "z", "--nmax", "4"], "--max-elements", "max_elements"),
    (["subshift", "glue", "--group", "z^2", "--spec", "t.json"],
     "--max-elements", "max_elements"),
]


def test_max_elements_defaults_to_the_metric_budget(tmp_path, capsys):
    from untwist.cli import build_parser
    from untwist.groups import DEFAULT_METRIC_BUDGET

    for argv in (["ball", "--group", "z", "--radius", "1", "--out", "b.csv"],
                 ["cocycle", "untwist", "--group", "z", "--spec", "c.json",
                  "--out", "r.json"]):
        assert build_parser().parse_args(argv).max_elements == DEFAULT_METRIC_BUDGET
    out = str(tmp_path / "out")
    cfg = tmp_path / "cfg.json"
    for argv, flag, key in REFUSED_SETTINGS:
        with pytest.raises(SystemExit) as info:
            main([*argv, flag, "1", "--out", out])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        cfg.write_text(json.dumps({key: 1}))
        assert main(["--config", str(cfg), *argv, "--out", out]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cocycle_untwist_honours_max_elements(tmp_path, capsys):
    from untwist import DiscreteHeisenberg, RealVector, homomorphism_cocycle
    from untwist.cocycles import cocycle_spec_to_jsonable

    spec = homomorphism_cocycle(DiscreteHeisenberg(), RealVector(2),
                                {"a": (1.0, 0.0), "b": (0.0, 1.0)}, (0, 1))
    path = tmp_path / "heis.json"
    path.write_text(dumps(cocycle_spec_to_jsonable(spec)))
    argv = ["cocycle", "untwist", "--group", "heisenberg", "--spec", str(path),
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert main(argv + ["--max-elements", "3"]) == 2
    assert "exceeded 3 elements" in capsys.readouterr().err


def test_ball_honours_max_elements(tmp_path, capsys):
    assert main(["ball", "--group", "heisenberg", "--radius", "6",
                 "--max-elements", "100", "--out", str(tmp_path / "b.csv")]) == 2
    err = capsys.readouterr().err
    assert "exceeded 100 elements" in err and "--max-elements" in err


def record_ball_enumeration(monkeypatch, run):
    """Record every enumerate_ball call of the package; run it only if run."""
    import untwist.groups as groups

    original, calls = groups.enumerate_ball, []

    def record(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs) if run else None

    # Patch every module that bound the function, not only its home.
    modules = [m for name, m in sys.modules.items() if name.startswith("untwist")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, record)
    return calls


def refuse_ball_enumeration(monkeypatch):
    """Record, instead of running, every enumerate_ball call of the package."""
    return record_ball_enumeration(monkeypatch, run=False)


def test_cocycle_untwist_lists_its_sample_pool_once(tmp_path, monkeypatch):
    from untwist.groups import DEFAULT_METRIC_BUDGET

    calls = record_ball_enumeration(monkeypatch, run=True)
    assert main(["cocycle", "untwist", "--group", "z^2", "--samples", "20",
                 "--spec", os.path.join(ROOT, SPEC_RELPATH), "--seed", "3",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert [args[1:] for args in calls] == [(6, DEFAULT_METRIC_BUDGET)]


def test_subshift_glue_on_heisenberg_enumerates_no_ball(tmp_path, monkeypatch):
    calls = refuse_ball_enumeration(monkeypatch)
    task = {
        "anchor": "a", "R": 1, "max_query_length": 4,
        "subshift": {"kind": "full", "alphabet": [0, 1]},
        "x": {"alphabet": [0, 1], "background": 0, "support": [["(3,0,0)", 1]]},
        "x_prime": {"alphabet": [0, 1], "background": 0,
                    "support": [["(-3,0,0)", 1]]},
    }
    spec = tmp_path / "task.json"
    spec.write_text(json.dumps(task))
    assert main(["subshift", "glue", "--group", "heisenberg", "--spec", str(spec),
                 "--out", str(tmp_path / "glue.json")]) == 0
    assert calls == []


def test_subshift_glue_on_z2_enumerates_no_ball(tmp_path, monkeypatch):
    calls = refuse_ball_enumeration(monkeypatch)
    task = {
        "anchor": "(1,0)", "R": 2,
        "subshift": {"kind": "golden_mean", "alphabet": [0, 1],
                     "families": [["(0,0)", "(1,0)"], ["(0,0)", "(0,1)"]]},
        "x": {"alphabet": [0, 1], "background": 0, "support": [["(15,0)", 1]]},
        "x_prime": {"alphabet": [0, 1], "background": 0,
                    "support": [["(-15,0)", 1]]},
    }
    spec = tmp_path / "task.json"
    spec.write_text(json.dumps(task))
    assert main(["subshift", "glue", "--group", "z^2", "--spec", str(spec),
                 "--out", str(tmp_path / "glue.json")]) == 0
    assert calls == []


def test_divergence_heisenberg_nmax_8_within_a_million_elements(tmp_path):
    out = tmp_path / "divh"
    assert main(["divergence", "--group", "heisenberg", "--nmax", "8", "--seed", "7",
                 "--out", str(out)]) == 0
    rows = read(out / "divergence.csv").splitlines()[2:]
    golden = read(os.path.join(GOLDEN, "divergence_heisenberg.csv")).splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == [str(n) for n in range(2, 9)]
    assert rows[:len(golden)] == golden


def test_readme_cli_commands_parse():
    from untwist.cli import build_parser

    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 6 and all(argv[0] == "untwist" for argv in commands)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # an unknown flag exits 2


def test_untwist_corrupted_spec_exits_1(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(SPEC_RELPATH, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    entry = payload["generators"][0]["table"][0]
    entry[1] = [elem + 5.0 for elem in entry[1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    assert main(["cocycle", "untwist", "--group", "z^2", "--spec", str(bad),
                 "--seed", "3", "--samples", "8", "--out", str(out)]) == 1


# -- the modules each subcommand loads -----------------------------------------

def run_fresh(script, argv):
    """The last stdout line of script, run with argv in a fresh interpreter."""
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120, check=True)
    return done.stdout.splitlines()[-1]


def loaded_modules(argv):
    """(exit code, modules whose code ran) after cli.main(argv) in a fresh
    interpreter.  A lazy submodule keeps its own module class until first use."""
    script = ("import json, sys, types\n"
              "from untwist.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "ran = [name for name, module in sys.modules.items()\n"
              "       if type(module) is types.ModuleType]\n"
              "print(json.dumps([code, sorted(ran)]))\n")
    code, modules = json.loads(run_fresh(script, argv))
    return code, set(modules)


STDLIB_NEVER = {"dataclasses", "statistics"}


def test_divergence_loads_only_its_modules(tmp_path):
    out = tmp_path / "div"
    code, modules = loaded_modules(["divergence", "--group", "z^2", "--nmax", "6",
                                    "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "growth" in json.loads((out / "report.json").read_text())  # the fit ran
    assert {m for m in modules if m.startswith("untwist")} == {
        "untwist", "untwist.cli", "untwist.groups", "untwist.divergence",
        "untwist.reporting"}
    assert not modules & STDLIB_NEVER


def test_subshift_glue_loads_no_cocycle_target_or_divergence_module(tmp_path):
    task = tmp_path / "task.json"
    task.write_text(json.dumps(GLUE_TASK))
    code, modules = loaded_modules(["subshift", "glue", "--group", "z^2", "--spec",
                                    str(task), "--out", str(tmp_path / "glue.json")])
    assert code == 0
    assert {"untwist.shifts", "untwist.invariants"} <= modules
    assert not modules & {"untwist.cocycles", "untwist.targets", "untwist.divergence",
                          "untwist.sampling", *STDLIB_NEVER}


def test_cocycle_untwist_loads_no_divergence_module(tmp_path):
    code, modules = loaded_modules(
        ["cocycle", "untwist", "--group", "z^2",
         "--spec", os.path.join(ROOT, SPEC_RELPATH),
         "--samples", "4", "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert not modules & {"untwist.divergence", "untwist.invariants", *STDLIB_NEVER}


def test_layer_function_patched_after_import_is_called(tmp_path):
    # A profiler imports untwist.cli, then rebinds a layer function wherever a
    # module of the package binds it; the command's own imports must see it.
    script = ("import sys\n"
              "import untwist.cli\n"
              "calls = []\n"
              "def patch(module_name, attr):\n"
              "    original = getattr(sys.modules[module_name], attr)\n"
              "    def counted(*args, **kwargs):\n"
              "        calls.append(attr)\n"
              "        return original(*args, **kwargs)\n"
              "    for name, module in list(sys.modules.items()):\n"
              "        if name.startswith('untwist'):\n"
              "            for key, bound in list(vars(module).items()):\n"
              "                if bound is original:\n"
              "                    setattr(module, key, counted)\n"
              "patch('untwist.divergence', 'div_function')\n"
              "patch('untwist.divergence', 'avoidant_distance')\n"
              "patch('untwist.divergence', 'avoidant_shortest_path')\n"
              "untwist.cli.main(sys.argv[1:])\n"
              "print(sorted(set(calls)))\n")
    # At nmax 12 some obstacle lies near a geodesic, so a query is searched.
    argv = ["divergence", "--group", "z^2", "--nmax", "12", "--seed", "1",
            "--out", str(tmp_path / "div")]
    assert run_fresh(script, argv) == (
        "['avoidant_distance', 'avoidant_shortest_path', 'div_function']")


# -- determinism and golden artifacts -----------------------------------------

def run_reference_artifacts(base):
    from golden.make_golden import (INVARIANTS_FILES, INVARIANTS_RUNS, UNTWIST_RUNS,
                                    untwist_argv)

    divz = base / "divz"
    divz2 = base / "divz2"
    divh = base / "divh"
    assert main(["divergence", "--group", "z", "--nmax", "14", "--seed", "7",
                 "--out", str(divz)]) == 0
    assert main(["divergence", "--group", "z^2", "--nmax", "12", "--seed", "7",
                 "--out", str(divz2)]) == 0
    assert main(["divergence", "--group", "heisenberg", "--nmax", "4",
                 "--seed", "7", "--out", str(divh)]) == 0
    artifacts = {
        "divergence_z.csv": read(divz / "divergence.csv"),
        "divergence_z2.csv": read(divz2 / "divergence.csv"),
        "divergence_heisenberg.csv": read(divh / "divergence.csv"),
    }
    for spec_name, report, group, _, _ in UNTWIST_RUNS:
        assert main(untwist_argv(group, spec_name, str(base / report))) == 0
        artifacts[report] = read(base / report)
    for stem, argv in INVARIANTS_RUNS:
        assert main(["invariants", *argv, "--out", str(base / stem)]) == 0
        for name in INVARIANTS_FILES:
            artifacts[f"{stem}_{name}"] = read(base / stem / name)
    for stem, group in (("glue_z2", "z^2"), ("glue_heisenberg", "heisenberg")):
        out = base / (stem + ".json")
        assert main(["subshift", "glue", "--group", group, "--spec",
                     os.path.join("tests", "golden", stem + "_task.json"),
                     "--out", str(out)]) == 0
        artifacts[stem + ".json"] = read(out)
    return artifacts


def test_runs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    first = run_reference_artifacts(tmp_path / "one")
    second = run_reference_artifacts(tmp_path / "two")
    assert first == second


def test_golden_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    produced = run_reference_artifacts(tmp_path / "run")
    for name, text in produced.items():
        golden = read(os.path.join(GOLDEN, name))
        assert text == golden, f"artifact {name} deviates from frozen reference"


def test_untwist_report_values():
    with open(os.path.join(GOLDEN, "untwist_report.json"), "r") as fh:
        report = json.load(fh)
    assert report["ok"] is True
    assert report["relation_consistency"] == 0
    assert report["psi"]["(1,0)"] == [0.5, -0.25]
    assert report["psi"]["(0,1)"] == [0.125, 1]
    assert report["constancy_defect"] <= 1e-6
    assert report["generator_independence"] <= 2e-8 + 1e-6


def test_heisenberg_untwist_report_values():
    """The planted psi comes back exactly on the non-abelian model, the centre
    mapping to zero."""
    with open(os.path.join(GOLDEN, "heisenberg_untwist_report.json"), "r") as fh:
        report = json.load(fh)
    assert report["ok"] is True
    assert report["psi"]["(1,0,0)"] == [0.75, -0.5]
    assert report["psi"]["(0,1,0)"] == [0.25, 0.125]
    assert report["psi"]["(1,1,0)"] == report["psi"]["(1,1,1)"] == [1, -0.375]
    assert report["constancy_defect"] == report["generator_independence"] == 0


def test_reporting_dumps_is_json():
    payload = {"a": 1.5, "b": [1, 2.25], "c": {"d": "x"}, "e": None,
               "f": True, "inf": float("inf")}
    parsed = json.loads(dumps(payload))
    assert parsed["a"] == 1.5 and parsed["b"] == [1, 2.25]
    assert parsed["inf"] == "inf"
