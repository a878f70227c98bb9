"""Print the traced peak memory and the median time of the two curvature
kernels and of one pass of both as the cycle layer runs it.

For each of perturbed_torus(3), perturbed_torus(5) and ypq(7,3) the batch is
the loop-count probe's: the 16 ``cycles._probe_points`` orbits, each at
``cycles.LOOP_CAP`` points (1024 points in all), along x0 on the tori and
alpha on ypq(7,3).  On it the script times ``geometry.riemann``,
``wcs.wcs_integrand`` and ``cycles._density_batch`` (median of ``REPEATS``
calls) and traces the peak of one call of each with ``tracemalloc``, above
what was allocated before the call, in MB of 1e6 bytes.  The integrand
columns are taken above a full pack already allocated; the ``pass`` columns
are one density batch, curvature and integrand together, so they show what
the cycle layer frees before the integrand runs.

A traced peak counts Python allocations, not the pages the process keeps:
a change can raise it while it lowers the resident memory.  The resident
peak of a whole run is the bench's ``peak_rss_mb``.

Run it on two checkouts, alternating, to quote before/after numbers.  The
script only prints; it checks nothing.  A reader that closes early ends it
quietly with exit 141.

Run from anywhere:  python3 tools/peaks.py
"""
from __future__ import annotations

import os
import pathlib
import statistics
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
    """The batch size and the peak and median time of both kernels and of
    one density batch."""
    action = cycles.CircleAction.rotation(axis)
    probe = cycles._probe_points(metric)
    points = cycles._orbit(metric, action, probe, samples)
    pack = geometry.riemann(metric, points)  # warm-up, and the integrand's input
    frame, velocity = cycles._frame_vectors(metric), action.velocity(metric)
    kernels = {"riemann": lambda: geometry.riemann(metric, points),
               "integrand": lambda: wcs.wcs_integrand(pack, frame, velocity),
               "pass": lambda: cycles._density_batch(metric, action, probe, samples)}
    out = {"points": len(points)}
    for name, call in kernels.items():
        out[f"{name}_ms"] = _median_ms(call, repeats)
        out[f"{name}_peak_mb"] = _peak_mb(call)
    return out


def main() -> None:
    columns = ("points", "riemann_peak_mb", "riemann_ms", "integrand_peak_mb",
               "integrand_ms", "pass_peak_mb", "pass_ms")
    print(f"{'metric':<20}" + " ".join(f"{c:>17}" for c in columns), flush=True)
    for name, build, axis in CASES:
        r = row(build(), axis, cycles.LOOP_CAP, REPEATS)
        print(f"{name:<20}{r['points']:>17d} "
              + " ".join(f"{r[c]:17.3f}" for c in columns[1:]), flush=True)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:  # the reader went away: stop quietly, as loopcs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
