"""tools/trajectory.py reads the committed BENCH files and prints their medians;
tools/census.py counts the package's settable values and source lines;
tools/peaks.py prints the traced peaks and median times of the curvature
kernels."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = TOOLS.parent / "src" / "loopcs"


def _run(script):
    proc = subprocess.run([sys.executable, str(TOOLS / script)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _load(name):
    """The tool ``tools/NAME.py`` as a module, for its functions."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    trajectory = _load("trajectory")
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
    # Every cycle integral is two fixed levels, the fine one at twice the
    # nodes: no tolerance, no refinement rounds or factor, no growth to
    # report, and the snap always has a coarse level to confirm it.  Every
    # caller of quadrature.evaluate states its pool and its rows per batch,
    # and the selftest always prints.  Each metric value is stated once: the
    # components are partials of module-level functions, not dataclasses that
    # copy their builder's parameters, the Y^{p,q} values are not mirrored by
    # a second, exact set, and interior samples keep one margin.  Every
    # caller of symbol_endo names its variant.  Gamma has one entry point,
    # riemann(...).gamma, and a result derives what it can: the box's error
    # estimate and fine counts, and the sweep's fitted exponent.
    assert int(counts["settable values"]) == 55
    gone = ("rel_tol", "max_refinements", "growth", "refinement_factor", "confirm_value",
            "evaluate(", "run_all(", "Components.", "_ConstantDiagonal.", "_exact",
            "sample_interior(margin=", "symbol_endo(variant=", "christoffel(",
            "BoxResult.error_estimate", "SweepResult.fitted_exponent")
    assert not [name for name in names if any(g in name for g in gone)]


def test_peaks_measures_both_kernels_at_a_small_batch():
    peaks = _load("peaks")
    assert [name for name, _, _ in peaks.CASES] == ["perturbed_torus(3)", "perturbed_torus(5)",
                                                    "ypq(7,3)"]
    for _, build, axis in peaks.CASES:
        r = peaks.row(build(), axis, 2, 1)
        assert r.pop("points") == 16 * 2
        assert sorted(r) == ["integrand_ms", "integrand_peak_mb", "pass_ms", "pass_peak_mb",
                             "riemann_ms", "riemann_peak_mb"]
        assert all(x > 0 for x in r.values())


# Runs the tool named by argv[1] with a stdout that, once the first line is
# out, waits until the reader has closed the pipe (a pipe's write end polls
# POLLERR then), so the tool's next write always meets a closed pipe instead
# of racing the reader's close.
_AFTER_FIRST_LINE = """
import runpy, select, sys

class FirstLineThenWait:
    def __init__(self, out):
        self.out, self.waited = out, False

    def write(self, text):
        n = self.out.write(text)
        if "\\n" in text and not self.waited:
            self.out.flush()
            self.waited = True
            waiter = select.poll()
            waiter.register(self.out.fileno(), 0)
            waiter.poll()
        return n

    def __getattr__(self, name):
        return getattr(self.out, name)

sys.stdout = FirstLineThenWait(sys.stdout)
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


@pytest.mark.parametrize("script", ["census.py", "trajectory.py", "peaks.py"])
def test_closed_stdout_exits_141_quietly(script):
    # As `python3 tools/SCRIPT | head -1`: one line is read, the pipe closed.
    proc = subprocess.Popen([sys.executable, "-c", _AFTER_FIRST_LINE, str(TOOLS / script)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().strip()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141, err
    assert err == b""
