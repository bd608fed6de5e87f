"""Deterministic artifact emission: CSV with an echoed-config comment line,
and JSON rendered by a small writer that prints every float with 17
significant digits so artifacts are byte-stable across runs.  Also the
commands' file plumbing: reading a JSON input, whose bad content is bad
input, echoing the settings into the artifacts, and making the output
directory."""

from __future__ import annotations

import contextlib
import json
import math
import os

from .groups import InputError


def load_json(path):
    """The JSON value in path; a file that is not UTF-8 JSON text is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not JSON: {exc}") from None


def json_int(value, key: str) -> int:
    """A JSON number read as an integer; a fraction, a non-finite number, a
    boolean or a non-number is refused, naming its key."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"key {key!r} needs an integral number, got {value!r}")


def json_float(value, key: str) -> float:
    """A finite JSON number read as a float; a string, a boolean or any other
    non-number is refused, naming its key, and so are the NaN and Infinity
    that json.load reads."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"key {key!r} needs a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"key {key!r} needs a finite number, got {value!r}")
    return float(value)


@contextlib.contextmanager
def decoding(path):
    """Yield the JSON object in path; a key the block misses, or a value of the
    wrong type, is bad input.  The package's own errors keep their messages."""
    obj = load_json(path)
    try:
        yield obj
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc.args[0]!r}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad value: {exc}") from None


def echo(args, fields):
    """The config an artifact echoes: the command and the named settings."""
    config = {"command": args.command}
    for name in fields:
        config[name] = getattr(args, name)
    return config


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def fmt_float(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits and stable key order."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            items.append(f'{pad}  {json.dumps(str(key))}: {dumps(value, indent + 2)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return json.dumps(fmt_float(obj))  # JSON has no inf/nan literals
        return fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def write_csv(path, fieldnames, rows, config: dict) -> None:
    import csv  # here, so that commands writing only JSON never load it

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# config = " + json.dumps(config, sort_keys=True, default=str) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([fmt_float(v) for v in row])


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(payload) + "\n")
