"""Serialization: stable JSON records and CSV sweep tables."""
import csv
import io
import json
import math
from dataclasses import replace

from loopcs import metrics
from loopcs.cycles import CircleAction, SweepResult, SweepRow, integrate_cycle
from loopcs.quadrature import QuadratureSpec
from loopcs.records import format_float, json_to_result, result_to_json, sweep_to_csv


def _result():
    # 16 nodes keeps the error estimate tight enough for an unambiguous snap
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    return integrate_cycle(m, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=16))


def test_float_formatting_round_trips():
    for x in (math.pi, -6.8703228288341771, 1e-300, 0.1, 3.0):
        assert float(format_float(x)) == x
        # idempotent: formatting the parsed value reproduces the string
        assert format_float(float(format_float(x))) == format_float(x)


def test_json_round_trip_is_byte_identical():
    res = _result()
    text = result_to_json(res)
    back = json_to_result(text)
    assert result_to_json(back) == text
    assert back.value == res.value
    assert back.pi4_multiple == res.pi4_multiple
    assert back.node_counts == res.node_counts


def test_json_is_parseable_and_complete():
    res = _result()
    data = json.loads(result_to_json(res))
    assert data["schema_version"] == 2
    assert set(data) == {"schema_version", "value", "pi4_multiple",
                         "error_estimate", "node_counts", "wall_time", "provenance"}
    # The node counts are stated once, at the top level.
    assert "node_counts" not in data["provenance"]
    assert data["pi4_multiple"] == {"num": -432, "den": 6125}
    assert data["provenance"]["normalization"].startswith("2/(2k-1)!")


def test_json_rejects_non_finite():
    import pytest

    from loopcs.records import _emit
    with pytest.raises(ValueError):
        _emit(float("nan"))


def test_sweep_csv_layout():
    res = _result()
    # |value| = (1 - a)^2 at a = 1/2 and 3/4: the fitted exponent is 2.
    sweep = SweepResult(rows=[
        SweepRow(label={"p": 7, "q": 3}, result=res),
        SweepRow(label={"a": 0.9}, result=None, error="synthetic failure"),
        SweepRow(label={"a": 0.5}, result=replace(res, value=0.25)),
        SweepRow(label={"a": 0.75}, result=replace(res, value=-0.0625)),
    ])
    text = sweep_to_csv(sweep)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 5
    assert rows[0]["kind"] == "result" and rows[0]["status"] == "ok"
    assert rows[0]["pi4_num"] == "-432" and rows[0]["pi4_den"] == "6125"
    assert float(rows[0]["value"]) == res.value
    assert rows[1]["status"] == "error" and "synthetic" in rows[1]["message"]
    assert rows[4]["kind"] == "fitted_exponent"
    assert float(rows[4]["value"]) == sweep.fitted_exponent
    assert math.isclose(sweep.fitted_exponent, 2.0, rel_tol=1e-12)
