"""Print the traced peak memory, the median time and the cold peak RSS growth
of the two curvature kernels.

For each of perturbed_torus(3), perturbed_torus(5) and ypq(7,3) the batch is
the loop-count probe's: the 16 ``cycles._probe_points`` orbits, each at
``cycles.LOOP_CAP`` points (1024 points in all), along x0 on the tori and
alpha on ypq(7,3).  On it the script times ``geometry.riemann`` and
``wcs.wcs_integrand`` (median of ``REPEATS`` calls) and traces the peak of
one call of each with ``tracemalloc``, above what was allocated before the
call, in MB of 1e6 bytes.

A traced peak counts Python allocations, not the pages the process keeps:
a change can raise it while it lowers the resident memory.  So each case
also runs in a fresh ``python3 -c`` child, which builds the batch, reads its
peak RSS, runs ``riemann`` and ``wcs_integrand`` once and prints how far the
peak grew, in MiB as the bench's ``peak_rss_mb``: the ``cold_rss_mb``
column.  The child reads ``VmHWM`` of ``/proc/self/status``, the high-water
mark of its own address space, not ``ru_maxrss``: Linux carries the
launcher's high-water mark across ``exec`` into ``ru_maxrss``, so in a child
of this script (or of pytest) it would read flat.

Run it on two checkouts, alternating, to quote before/after numbers.  The
script only prints; it checks nothing.  A reader that closes early ends it
quietly with exit 141.

Run from anywhere:  python3 tools/peaks.py
"""
from __future__ import annotations

import os
import pathlib
import statistics
import subprocess
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from loopcs import cycles, geometry, metrics, wcs  # noqa: E402

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


def _peak_rss_kib() -> int:
    """The high-water mark of this process's resident memory, in KiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def cold_growth_mb(case: int) -> float:
    """Peak RSS growth, in MiB, of one ``riemann`` and one ``wcs_integrand``
    call on case ``case``'s probe batch; meant for a fresh process."""
    _, build, axis = CASES[case]
    metric = build()
    action = cycles.CircleAction.rotation(axis)
    points = cycles._orbit(metric, action, cycles._probe_points(metric), cycles.LOOP_CAP)
    frame, velocity = cycles._frame_vectors(metric), action.velocity(metric)
    before = _peak_rss_kib()
    wcs.wcs_integrand(geometry.riemann(metric, points), frame, velocity)
    return (_peak_rss_kib() - before) / 1024.0


# Loads this file as a module in a fresh interpreter and prints the growth.
_COLD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("peaks", sys.argv[1])
peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peaks)
print(peaks.cold_growth_mb(int(sys.argv[2])))
"""


def cold_rss_mb(case: int) -> float:
    """:func:`cold_growth_mb` of case ``case``, measured in a child process."""
    out = subprocess.run([sys.executable, "-c", _COLD, __file__, str(case)],
                         capture_output=True, text=True, check=True, timeout=300)
    return float(out.stdout)


def main() -> None:
    columns = ("points", "riemann_peak_mb", "riemann_ms", "integrand_peak_mb", "integrand_ms",
               "cold_rss_mb")
    print(f"{'metric':<20}" + " ".join(f"{c:>17}" for c in columns), flush=True)
    for case, (name, build, axis) in enumerate(CASES):
        r = row(build(), axis, cycles.LOOP_CAP, REPEATS)
        r["cold_rss_mb"] = cold_rss_mb(case)
        print(f"{name:<20}{r['points']:>17d} "
              + " ".join(f"{r[c]:17.3f}" for c in columns[1:]), flush=True)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:  # the reader went away: stop quietly, as loopcs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
