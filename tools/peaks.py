"""Print the traced peak memory, the median time and the cold peak RSS growth
of the two curvature kernels, and the cold growth of the two bench jobs.

For each of perturbed_torus(3), perturbed_torus(5) and ypq(7,3) the batch is
the loop-count probe's: the 16 ``cycles._probe_points`` orbits, each at
``cycles.LOOP_CAP`` points (1024 points in all), along x0 on the tori and
alpha on ypq(7,3).  On it the script times ``geometry.riemann`` and
``wcs.wcs_integrand`` (median of ``REPEATS`` calls) and traces the peak of
one call of each with ``tracemalloc``, above what was allocated before the
call, in MB of 1e6 bytes.

A traced peak counts Python allocations, not the pages the process keeps:
a change can raise it while it lowers the resident memory.  So each case
also runs in a fresh ``python3 -c`` child, which builds its input, reads its
memory, runs ``riemann`` and ``wcs_integrand`` once and prints how far the
peak grew, in MiB as the bench's ``peak_rss_mb``: the ``cold_rss_mb``
column.  Two more rows, ``headline job`` and ``orbit job``, give the same
growth over one ``cycles.integrate_cycle`` of the bench's problems: the
(7,3) ``rotate:alpha`` headline at 32 nodes and ``perturbed_torus(3)``
``rotate:x0`` at 6 nodes with no mask.  Each growth is split into
``cold_file_mb``, the file-backed pages (library code paged in on first
use), and ``cold_anon_mb``, the anonymous ones (heap), read from
``RssFile`` and ``RssAnon``.  The child reads ``/proc/self/status``: its
``VmHWM`` is the high-water mark of the child's own address space, where
``ru_maxrss`` would carry the launcher's across ``exec`` and, in a child of
this script (or of pytest), read flat.

Run it on two checkouts, alternating, to quote before/after numbers.  The
script only prints; it checks nothing.  A reader that closes early ends it
quietly with exit 141.

Run from anywhere:  python3 tools/peaks.py
"""
from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from loopcs import cycles, geometry, metrics, wcs  # noqa: E402
from loopcs.quadrature import QuadratureSpec  # noqa: E402

CASES = (("perturbed_torus(3)", lambda: metrics.perturbed_torus(3), 0),
         ("perturbed_torus(5)", lambda: metrics.perturbed_torus(5), 0),
         ("ypq(7,3)", lambda: metrics.ypq_metric(metrics.solve_ypq(7, 3)), 4))
REPEATS = 20  # timed calls per kernel


def _peak_mb(call) -> float:
    """Traced peak of one ``call()`` above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def _median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def row(metric, axis: int, samples: int, repeats: int) -> dict:
    """The batch size and the peak and median time of both kernels."""
    action = cycles.CircleAction.rotation(axis)
    points = cycles._orbit(metric, action, cycles._probe_points(metric), samples)
    pack = geometry.riemann(metric, points)  # warm-up, and the integrand's input
    frame, velocity = cycles._frame_vectors(metric), action.velocity(metric)
    kernels = {"riemann": lambda: geometry.riemann(metric, points),
               "integrand": lambda: wcs.wcs_integrand(pack, frame, velocity)}
    out = {"points": len(points)}
    for name, call in kernels.items():
        out[f"{name}_ms"] = _median_ms(call, repeats)
        out[f"{name}_peak_mb"] = _peak_mb(call)
    return out


def _kernel_pass(name: str):
    """One ``riemann`` and one ``wcs_integrand`` call on the probe batch of
    the case named ``name``, built here."""
    build, axis = next((build, axis) for case, build, axis in CASES if case == name)
    metric = build()
    action = cycles.CircleAction.rotation(axis)
    points = cycles._orbit(metric, action, cycles._probe_points(metric), cycles.LOOP_CAP)
    frame, velocity = cycles._frame_vectors(metric), action.velocity(metric)
    return lambda: wcs.wcs_integrand(geometry.riemann(metric, points), frame, velocity)


def _job(metric, axis: int, k: int, spec):
    """One ``integrate_cycle`` of a rotation of ``metric``, built here."""
    action = cycles.CircleAction.rotation(axis)
    return lambda: cycles.integrate_cycle(metric, action, k, quad=spec)


# The bench's two problems, as bench/workloads.py defines them.
JOBS = (("headline job", lambda: _job(metrics.ypq_metric(metrics.solve_ypq(7, 3)), 4, 3,
                                      QuadratureSpec(nodes=32))),
        ("orbit job", lambda: _job(metrics.perturbed_torus(3), 0, 2,
                                   QuadratureSpec(nodes=6, mask=()))))
COLD = ("cold_rss_mb", "cold_file_mb", "cold_anon_mb")
_STATUS = ("VmHWM", "RssFile", "RssAnon")  # read into the COLD columns, in KiB


def _status_kib() -> list[int]:
    """This process's resident peak, file-backed and anonymous pages, in KiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        fields = dict(line.split(":", 1) for line in status)
    return [int(fields[name].split()[0]) for name in _STATUS]


def cold_growth_mb(name: str) -> dict:
    """The :data:`COLD` growths, in MiB, over one call of the kernel case
    or job named ``name``, its input built first; meant for a fresh process."""
    jobs = dict(JOBS)
    call = jobs[name]() if name in jobs else _kernel_pass(name)
    before = _status_kib()
    call()
    return {c: (after - b) / 1024.0 for c, after, b in zip(COLD, _status_kib(), before)}


# Loads this file as a module in a fresh interpreter and prints the growths.
_COLD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("peaks", sys.argv[1])
peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peaks)
print(json.dumps(peaks.cold_growth_mb(sys.argv[2])))
"""


def cold_mb(name: str) -> dict:
    """:func:`cold_growth_mb` of ``name``, measured in a child process."""
    out = subprocess.run([sys.executable, "-c", _COLD, __file__, name],
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


def main() -> None:
    columns = ("points", "riemann_peak_mb", "riemann_ms", "integrand_peak_mb",
               "integrand_ms") + COLD
    print(f"{'metric':<20}" + " ".join(f"{c:>17}" for c in columns), flush=True)
    for name, build, axis in CASES:
        r = {**row(build(), axis, cycles.LOOP_CAP, REPEATS), **cold_mb(name)}
        print(f"{name:<20}{r['points']:>17d} "
              + " ".join(f"{r[c]:17.3f}" for c in columns[1:]), flush=True)
    for name, _ in JOBS:
        r = cold_mb(name)
        print(f"{name:<20}" + " ".join(f"{'-':>17}" for _ in columns[:-len(COLD)]) + " "
              + " ".join(f"{r[c]:17.3f}" for c in COLD), flush=True)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:  # the reader went away: stop quietly, as loopcs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
