"""Serialization of cycle results: JSON records and CSV sweep tables.

Floats are printed with 17 significant digits (exact double round-trip), in
a fixed field order, so a record parsed and re-emitted is byte-identical.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .cycles import CycleResult, SweepResult

__all__ = [
    "SCHEMA_VERSION",
    "format_float",
    "result_to_json",
    "json_to_result",
    "sweep_to_csv",
]

SCHEMA_VERSION = 2


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _emit(obj) -> str:
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_emit(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not float("-inf") < obj < float("inf"):
            raise ValueError(f"non-finite value {obj} cannot be serialized")
        return format_float(obj)
    if isinstance(obj, Fraction):
        return _emit({"num": obj.numerator, "den": obj.denominator})
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def result_to_json(result: CycleResult) -> str:
    record = {
        "schema_version": SCHEMA_VERSION,
        "value": float(result.value),
        "pi4_multiple": result.pi4_multiple,
        "error_estimate": float(result.error_estimate),
        "node_counts": list(result.node_counts),
        "wall_time": float(result.wall_time),
        "provenance": result.provenance,
    }
    return _emit(record)


def json_to_result(text: str) -> CycleResult:
    data = json.loads(text)
    pi4 = data.get("pi4_multiple")
    frac = Fraction(pi4["num"], pi4["den"]) if pi4 is not None else None
    return CycleResult(
        value=float(data["value"]),
        pi4_multiple=frac,
        error_estimate=float(data["error_estimate"]),
        node_counts=tuple(int(c) for c in data["node_counts"]),
        wall_time=float(data["wall_time"]),
        provenance=data["provenance"],
    )


_SWEEP_FIELDS = ["kind", "p", "q", "a", "value", "pi4_num", "pi4_den",
                 "error_estimate", "wall_time", "status", "message"]


def sweep_to_csv(sweep: SweepResult) -> str:
    """CSV table with one row per sweep entry; per-row errors are recorded
    in-place and the fitted degeneration exponent, if any, gets a final row."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SWEEP_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in sweep.rows:
        rec = {"kind": "result", "status": "ok", "message": ""}
        for key in ("p", "q", "a"):
            if key in row.label and row.label[key] is not None:
                rec[key] = row.label[key] if key != "a" else format_float(row.label[key])
        if row.result is not None:
            res = row.result
            rec["value"] = format_float(res.value)
            if res.pi4_multiple is not None:
                rec["pi4_num"] = res.pi4_multiple.numerator
                rec["pi4_den"] = res.pi4_multiple.denominator
            rec["error_estimate"] = format_float(res.error_estimate)
            rec["wall_time"] = format_float(res.wall_time)
        else:
            rec["status"] = "error"
            rec["message"] = row.error or "unknown error"
        writer.writerow(rec)
    if sweep.fitted_exponent is not None:
        writer.writerow({"kind": "fitted_exponent",
                         "value": format_float(sweep.fitted_exponent),
                         "status": "ok", "message": ""})
    return buf.getvalue()
