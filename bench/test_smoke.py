"""Smoke test of the benchmark at reduced sizes.

    python3 -m pytest bench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
and that a run whose output fails its check is counted in ``failed_frac``.
"""
import json
from dataclasses import replace
from fractions import Fraction

import pytest

import run
from workloads import PI4, headline, orbit

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "headline": headline(nodes=8),
    "headline_2w": headline(nodes=8, workers=2, name="headline_2w"),
    "orbit": orbit(nodes=2),
}


def _units(line: dict) -> dict:
    return {name: m["unit"] for name, m in line["metrics"].items()}


def _expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert list(SMALL) == [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
def test_end_to_end_metrics_emitted(name):
    result = run.measure(SMALL[name], seed=3, seconds=0, trace=False)
    line = json.loads(run.result_line(result, SPEC))
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= run.MIN_SAMPLES
    assert _units(line) == _expected("end_to_end")
    assert result["metrics"]["failed_frac"] == 0.0
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert result["provenance"]["seed"] == 3
    assert result["provenance"]["seed_used"] == (name == "orbit")


@pytest.mark.parametrize("name", ["headline_2w", "orbit"])
def test_per_layer_metrics_emitted(name):
    result = run.measure(SMALL[name], seed=3, seconds=0, trace=True)
    line = json.loads(run.result_line(result, SPEC))
    assert line["correct"] and line["failed"] == 0
    assert _units(line) == _expected("per_layer")
    m = result["metrics"]
    assert m["jets.points"] >= m["geometry.riemann.points"] > 0
    # At 8 nodes the coarse level is one chunk, which needs no pool.
    assert m["quadrature.pool_starts"] == (1 if name == "headline_2w" else 0)


def test_wrong_oracle_counts_as_failure():
    # The value the paper reports, which this implementation does not give.
    reported = Fraction(-1849, 22050)
    wrong = replace(SMALL["headline"], exact=float(reported) * PI4, snap=reported)
    result = run.measure(wrong, seed=7, seconds=0, trace=False)
    line = json.loads(run.result_line(result, SPEC))
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= run.MIN_SAMPLES
    assert result["metrics"]["failed_frac"] == 1.0
