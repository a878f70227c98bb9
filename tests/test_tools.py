"""tools/trajectory.py reads the committed BENCH files and prints their medians;
tools/census.py counts the package's settable values and source lines."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = TOOLS.parent / "src" / "loopcs"


def _run(script):
    proc = subprocess.run([sys.executable, str(TOOLS / script)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_trajectory_reproduces_the_committed_medians():
    header, *lines = _run("trajectory.py")
    names = header.split()
    table = {}
    for line in lines:
        row = dict(zip(names, line.split()))
        table[row["file"], row["workload"]] = row
    # The oldest committed file and a later one with its measured medians.
    first, last = "BENCH_pr8_parent.json", "BENCH_pr18.json"
    assert round(float(table[first, "headline"]["wall_s"]), 3) == 0.362
    assert round(float(table[last, "headline"]["wall_s"]), 4) == 0.0225
    assert round(float(table[first, "orbit"]["wall_s"]), 3) == 0.985
    assert round(float(table[last, "orbit"]["wall_s"]), 3) == 0.073
    assert round(float(table[first, "orbit"]["peak_rss_mb"]), 1) == 52.8
    assert round(float(table[last, "orbit"]["peak_rss_mb"]), 1) == 36.0
    assert table[first, "orbit"]["runs"] == "13"
    assert table[first, "orbit"]["commit"] == "3a93bfa"
    # Ordered by the number in the name, each parent before its change.
    files = list(dict.fromkeys(f for f, _ in table))
    assert files.index(first) < files.index("BENCH_pr8.json") < files.index(last)


def test_trajectory_reads_one_result_or_a_list(tmp_path):
    spec = importlib.util.spec_from_file_location("trajectory", TOOLS / "trajectory.py")
    trajectory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trajectory)
    result = {"workload": "orbit", "provenance": {"commit": "0123456789"},
              "runs": [{}, {}], "metrics": {"wall_s": 0.5, "cpu_s": 0.25}}
    (tmp_path / "BENCH_pr2.json").write_text(json.dumps(result))
    (tmp_path / "BENCH_pr2_parent.json").write_text(json.dumps([result, result]))
    rows = trajectory.rows(tmp_path.glob("BENCH_*.json"))
    assert [r["file"] for r in rows] == ["BENCH_pr2_parent.json"] * 2 + ["BENCH_pr2.json"]
    assert rows[-1] == {"file": "BENCH_pr2.json", "workload": "orbit", "commit": "0123456",
                        "runs": 2, "wall_s": 0.5, "setup_s": None, "cpu_s": 0.25,
                        "peak_rss_mb": None}


def test_census_counts_source_lines_and_the_one_loop_nodes_setting():
    lines = _run("census.py")
    counts = dict(line.split(":", 1) for line in lines if line.startswith(("settable", "source")))
    assert int(counts["source lines"]) == sum(path.read_text(encoding="utf-8").count("\n")
                                              for path in SRC.glob("*.py"))
    # The loop cap of an integral is the constant cycles.LOOP_CAP; only the
    # density oracle takes a sample count.
    names = [name for line in lines for name in line.replace(",", " ").split()]
    assert [name for name in names if "loop_nodes" in name] == ["pullback_density(loop_nodes=)"]
