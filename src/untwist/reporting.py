"""Deterministic artifact emission: CSV with an echoed-config comment line,
and JSON rendered by a small writer that prints every float with 17
significant digits so artifacts are byte-stable across runs."""

from __future__ import annotations

import io
import json
import math


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


def config_line(config: dict) -> str:
    return "# config = " + json.dumps(config, sort_keys=True, default=str)


def render_csv(fieldnames, rows, config: dict | None = None) -> str:
    import csv  # here, so that commands writing only JSON never load it

    buf = io.StringIO()
    if config is not None:
        buf.write(config_line(config) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([fmt_float(v) for v in row])
    return buf.getvalue()


def write_csv(path, fieldnames, rows, config: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_csv(fieldnames, rows, config))


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(payload) + "\n")
