"""Layered benchmark for loopcs.

    python3 bench/run.py --workload headline --seed 7 --seconds 30 --trace 0

Runs one workload (or ``--workload all``: each in turn) against the
checkout's own ``src/``. Every program run happens in a fresh interpreter
(``child.py``), one at a time, because every CLI user pays import and
first-call costs. Runs are repeated until ``--seconds`` have passed, at
least ``MIN_SAMPLES`` times; every run's record is checked against the
workload's oracle and against the first run of the same problem, bit for
bit. A failed run is counted, never retried.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, as
medians over the runs. ``--trace 1`` alternates untraced and traced runs
and reports the per-layer metrics: span times from the traced runs, peak
allocations from one run under tracemalloc, and the accuracy ladder on the
(7,3) problem. The report lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--out FILE`` also writes the full result, with provenance,
every run and the raw spans, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import DEFAULT_SEED, LADDER, WORKLOADS, Workload, headline

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

SETUP_SAMPLES = 5
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60

# Per-layer metrics whose spans run inside pool workers, where the tracer
# records nothing; a pooled workload takes them from a 1-worker traced run.
IN_WORKERS = ("jets.", "geometry.", "wcs.", "cycles.density.", "cycles.chunk_ms.")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no loopcs to import)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LOOPCS_WORKERS", None)
    # Users import loopcs from compiled bytecode, so set-up is measured with
    # __pycache__ written by the unmeasured warm-up import, whatever the caller's
    # environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(job: dict) -> dict:
    """Run one job in a fresh interpreter and return its report.

    ``setup_s`` is the time from just before the process starts until its
    ``import loopcs`` returns. A run that fails has an ``error`` entry.
    """
    started = _now()
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(job)], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Timeout or interrupt: stop the child and any pool workers it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if sys.exc_info()[0] is not subprocess.TimeoutExpired:
            raise
        return {"error": f"no result within {CHILD_TIMEOUT_S} s"}
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {}
    if proc.returncode != 0 or "import_done" not in report:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"error": f"exit code {proc.returncode}: {tail}"}
    report["setup_s"] = report["import_done"] - started
    return report


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


class Run:
    """The program runs of one benchmark invocation and their checks."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.numpy: str | None = None
        self._first: dict[tuple, tuple[str, str]] = {}

    def setup(self) -> None:
        """One unmeasured import to warm the bytecode cache, then
        ``SETUP_SAMPLES`` measured ones."""
        for i in range(SETUP_SAMPLES + 1):
            report = spawn({"kind": "import"})
            if "error" in report:
                raise SetupError(f"cannot import loopcs from {ROOT / 'src'}: "
                                 f"{report['error']}")
            if Path(report["loopcs_file"]).resolve().parent.parent != ROOT / "src":
                raise SetupError(f"imported loopcs from {report['loopcs_file']}, "
                                 f"not from {ROOT / 'src'}")
            self.numpy = report["numpy"]
            if i:
                self.setup_s.append(report["setup_s"])

    def sample(self, job: dict, oracle: Workload | None = None) -> dict | None:
        """Run and check one job; return its report unless it failed to run.

        Every run of the same problem (kind, seed and node count) must give
        bit-identical value and error estimate, whatever its worker count.
        """
        oracle = oracle or self.workload
        self.attempted += 1
        report = spawn(job)
        tag = f"run {self.attempted} ({job['workers']} worker(s), trace {job['trace'] or 'off'})"
        if "error" in report:
            self.failures.append(f"{tag}: {report['error']}")
            return None
        self.setup_s.append(report["setup_s"])
        try:
            record = json.loads(report["record"])
            problems = oracle.check(record)
            bits = (float(record["value"]).hex(), float(record["error_estimate"]).hex())
        except (ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{tag}: unreadable record: {exc!r}")
            return None
        key = (job["kind"], job["seed"], job["nodes"])
        first = self._first.setdefault(key, bits)
        if bits != first:
            problems.append(f"value/error estimate {bits} differ bitwise from the "
                            f"first run's {first}")
        if problems:
            self.failures.append(f"{tag}: " + "; ".join(problems))
        report["parsed"] = record
        report["ok"] = not problems
        return report


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    A span's self time is its duration minus the durations of the spans it
    directly encloses. ``geometry.riemann.wall_share`` counts the jets calls
    made inside ``riemann``.
    """
    def dur(span):
        return span["end"] - span["start"]

    by_name = defaultdict(list)
    covered = defaultdict(float)
    for i, span in enumerate(spans):
        by_name[span["name"]].append(i)
        if span["parent"] is not None:
            covered[span["parent"]] += dur(span)

    def total(name):
        return sum(dur(spans[i]) for i in by_name[name])

    def self_s(name):
        return sum(dur(spans[i]) - covered[i] for i in by_name[name])

    def points(name):
        return sum(spans[i]["points"] for i in by_name[name])

    def us_per_point(seconds, name):
        return 1e6 * seconds / points(name) if points(name) else 0.0

    chunks_ms = [1e3 * dur(spans[i]) for i in by_name["cycles.density"]] or [0.0]
    boxes = [spans[i] for i in by_name["quadrature.integrate_box"]]
    return {
        "jets.calls": len(by_name["jets"]),
        "jets.points": points("jets"),
        "jets.us_per_point": us_per_point(total("jets"), "jets"),
        "geometry.riemann.points": points("geometry.riemann"),
        "geometry.riemann.self_us_per_point": us_per_point(self_s("geometry.riemann"),
                                                           "geometry.riemann"),
        "geometry.riemann.wall_share": total("geometry.riemann") / wall_s,
        "wcs.integrand.points": points("wcs.integrand"),
        "wcs.integrand.us_per_point": us_per_point(total("wcs.integrand"), "wcs.integrand"),
        "wcs.integrand.wall_share": total("wcs.integrand") / wall_s,
        "cycles.density.self_s": self_s("cycles.density"),
        "cycles.density.total_s": total("cycles.density"),
        "cycles.chunk_ms.p50": statistics.median(chunks_ms),
        "cycles.chunk_ms.p90": (statistics.quantiles(chunks_ms, n=10)[8]
                                if len(chunks_ms) > 1 else chunks_ms[0]),
        "cycles.integrate_cycle.self_s": self_s("cycles.integrate_cycle"),
        "quadrature.integrate_box.s": total("quadrature.integrate_box"),
        "quadrature.integrate_box.self_s": self_s("quadrature.integrate_box"),
        "quadrature.points.coarse": sum(b["coarse_points"] for b in boxes),
        "quadrature.points.fine": sum(b["fine_points"] for b in boxes),
        "quadrature.pool_starts": len(by_name["quadrature.pool"]),
        "quadrature.pool_s": total("quadrature.pool"),
        "metrics.build_s": total("metrics.build"),
        "records.emit_s": total("records.emit"),
    }


def _median_metrics(dicts: list[dict]) -> dict[str, float]:
    """Median of each metric over runs; a value every run shares (a count)
    is kept as it is, so an even number of runs does not turn it into a float."""
    out = {}
    for key in dicts[0]:
        values = [d[key] for d in dicts]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out


def _abs_err(workload: Workload, report: dict) -> float:
    return abs(report["parsed"]["value"] - workload.exact)


def per_layer(run: Run, plain: list[dict], traced: list[dict], one_worker: dict | None,
              memory: dict | None, ladder: dict[int, dict | None]) -> dict[str, float]:
    """Per-layer metrics of a ``--trace 1`` invocation (medians over runs)."""
    wl = run.workload
    each = [layer_metrics(r["spans"], r["wall_s"]) for r in traced]
    out = _median_metrics(each)
    if one_worker is not None:
        single = layer_metrics(one_worker["spans"], one_worker["wall_s"])
        out.update({k: v for k, v in single.items() if k.startswith(IN_WORKERS)})
        chunk_s = single["cycles.density.total_s"]
    else:
        chunk_s = out["cycles.density.total_s"]
    out["quadrature.parallel_efficiency"] = chunk_s / (
        wl.workers * out["quadrature.integrate_box.s"])
    out["quadrature.abs_err"] = _abs_err(wl, traced[0])
    out["quadrature.err_estimate"] = traced[0]["parsed"]["error_estimate"]
    for n, report in ladder.items():
        out[f"quadrature.abs_err.n{n}"] = _abs_err(headline(n), report)
    for name in ("geometry.riemann", "wcs.integrand"):
        peaks = [s["peak_bytes"] for s in memory["spans"] if s["name"] == name]
        out[f"{name}.peak_alloc_mb"] = max(peaks) / 2 ** 20
    out["records.json_bytes"] = len(traced[0]["record"].strip().encode())
    out["trace.overhead_frac"] = (statistics.median([r["wall_s"] for r in traced])
                                  / statistics.median([r["wall_s"] for r in plain]) - 1.0)
    return out


def end_to_end(run: Run, plain: list[dict]) -> dict[str, float]:
    return {
        "wall_s": statistics.median([r["wall_s"] for r in plain]),
        "setup_s": statistics.median(run.setup_s),
        "cpu_s": statistics.median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        "failed_frac": len(run.failures) / run.attempted,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return the full result."""
    loadavg_start = os.getloadavg()
    run = Run(workload)
    run.setup()

    one_worker = None
    if workload.workers > 1:
        # The 1-worker reference for bitwise equality; when tracing, its spans
        # also stand in for the layers that run inside the pool.
        one_worker = run.sample(workload.job(seed, "time" if trace else "", workers=1))

    plain, traced = [], []
    deadline = _now() + seconds
    while _now() < deadline or len(plain) < (1 if trace else MIN_SAMPLES):
        plain.append(run.sample(workload.job(seed)))
        if trace:
            traced.append(run.sample(workload.job(seed, "time")))

    memory, ladder = None, {}
    if trace:
        memory = run.sample(workload.job(seed, "memory", workers=1))
        for n in LADDER:
            ladder[n] = run.sample(headline(n).job(seed), oracle=headline(n))

    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    ran = bool(plain)
    if trace:
        needed = [memory, *ladder.values()] + ([one_worker] if workload.workers > 1 else [])
        ran = ran and bool(traced) and None not in needed
    result = {
        "workload": workload.name,
        "provenance": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": run.numpy,
            "commit": _git_commit(),
            "seed": seed,
            "seed_used": workload.uses_seed,
            "loadavg_start": list(loadavg_start),
            "loadavg_end": list(os.getloadavg()),
        },
        "seconds": seconds,
        "trace": trace,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "samples": {"plain": len(plain), "traced": len(traced),
                    "setup": len(run.setup_s)},
        "runs": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ok")}
                 for r in plain],
        "metrics": {},
    }
    if ran:
        result["metrics"] = end_to_end(run, plain)
        result["spread"] = {k: _quartiles([r[k] for r in plain])
                            for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        result["spread"]["setup_s"] = _quartiles(run.setup_s)
        if trace:
            result["metrics"].update(per_layer(run, plain, traced, one_worker,
                                               memory, ladder))
            result["spans"] = {"traced": [r["spans"] for r in traced],
                               "memory": memory["spans"]}
    return result


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report_lines(result: dict, spec: dict) -> list[str]:
    """Human-readable report of one workload's result."""
    prov = result["provenance"]
    seed_note = "" if prov["seed_used"] else " (unused: this workload has no random input)"
    lines = [f"# workload {result['workload']}  seed {prov['seed']}{seed_note}  "
             f"trace {int(result['trace'])}  {result['seconds']:g} s",
             "# provenance " + json.dumps(prov)]
    m = result["metrics"]
    n = result["samples"]
    for entry in spec["end_to_end"]:
        name = entry["name"]
        if name in m:
            q1, _, q3 = result["spread"][name]
            count = n["setup"] if name == "setup_s" else n["plain"]
            lines.append(f"# {name:<14} {m[name]:.6g} {entry['unit']}  "
                         f"(median of {count}, quartiles {q1:.6g} .. {q3:.6g})")
    lines.append(f"# {'failed_frac':<14} {result['failed']}/{result['attempted']} = "
                 f"{result['failed'] / result['attempted']:.6g} ratio")
    if result["trace"] and m:
        for entry in spec["per_layer"]:
            lines.append(f"# {entry['name']:<40} {m[entry['name']]:.6g} {entry['unit']}")
    lines += [f"# FAILED {f}" for f in result["failures"]]
    lines.append("# check: " + ("ok" if result["failed"] == 0 else "FAILED"))
    return lines


def result_line(result: dict, spec: dict) -> str:
    """The contract's last line: the end-to-end or the per-layer metrics."""
    names = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {e["name"]: {"value": result["metrics"][e["name"]], "unit": e["unit"]}
               for e in names}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}, the catalog's "
                             "perturbed_torus3 seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result(s) as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "loopcs" / "__init__.py").is_file():
        print(f"error: no loopcs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = measure(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results.append(result)
        if not result["metrics"]:
            print("\n".join(report_lines(result, spec)), file=sys.stderr)
            print(f"error: no run of {name} completed", file=sys.stderr)
            return 1
        print("\n".join(report_lines(result, spec)))
        print(result_line(result, spec), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results if len(results) > 1 else results[0], fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
