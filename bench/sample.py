"""Runs one job inside ``child.py`` and prints its report as one JSON line.

A job is a workload at a fixed node count, worker count and seed, or the
bare import that measures set-up. With ``"trace": "time"`` the module-level
bindings that loopcs looks up at call time are wrapped so that each call
into a layer becomes a span; ``"trace": "memory"`` also runs tracemalloc,
which slows the run, to give each curvature and integrand call its peak
allocation. Nothing inside ``src/`` changes: the wrappers live here and are
installed only in the traced interpreter.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import loopcs
from loopcs import cli, cycles, geometry, metrics, quadrature, records

HEADLINE_ARGV = ["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                 "--action", "rotate:alpha"]


class Tracer:
    """Spans kept in memory until the job ends.

    Each span is a dict with ``name``, ``start`` and ``end`` (perf_counter
    seconds), ``parent`` (index of the enclosing span or None), ``points``
    and, for spans opened with ``memory=True``, ``peak_bytes``: the tracemalloc
    peak above the allocation level at the span's start. Spans are recorded
    only in the process that created the tracer, so forked pool workers,
    which inherit the wrappers, record nothing.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pid = os.getpid()

    def open(self, name: str, points: int = 0) -> dict | None:
        """Start a span that encloses no other span (closed by :meth:`close`)."""
        if os.getpid() != self._pid:
            return None
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "points": points, "start": time.perf_counter()}
        self.spans.append(span)
        return span

    def close(self, span: dict | None) -> None:
        if span is not None and "end" not in span:
            span["end"] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, points: int = 0, memory: bool = False):
        span = self.open(name, points)
        if span is None:
            yield {}
            return
        self._stack.append(len(self.spans) - 1)
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        try:
            yield span
        finally:
            self.close(span)
            if memory:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            self._stack.pop()

    def wrap(self, name: str, fn, points=None, memory: bool = False):
        """``fn`` with every call recorded as a span; ``points(*args)`` counts
        the evaluation points of a call."""
        def traced(*args, **kwargs):
            with self.span(name, points(*args) if points else 0, memory):
                return fn(*args, **kwargs)
        return traced


def _coord_points(metric, coords) -> int:
    return int(np.prod(np.shape(coords)[:-1]))


def _pack_points(pack, *args) -> int:
    return int(np.prod(pack.g.shape[:-2]))


class TracedChunk:
    """The integrand ``integrate_box`` receives, with each chunk a span.

    Pickled for a pool worker it drops the tracer, so workers evaluate the
    bare integrand.
    """

    def __init__(self, f, tracer: Tracer | None):
        self.f = f
        self.tracer = tracer

    def __getstate__(self):
        return {"f": self.f, "tracer": None}

    def __call__(self, points):
        if self.tracer is None:
            return self.f(points)
        with self.tracer.span("cycles.density", len(points)):
            return self.f(points)


def install(tracer: Tracer, memory: bool) -> None:
    """Wrap the loopcs bindings each layer's callers look up at call time."""
    geometry.metric_jets = tracer.wrap("jets", geometry.metric_jets, _coord_points)
    cycles.metric_jets = tracer.wrap("jets", cycles.metric_jets, _coord_points)
    cycles.riemann = tracer.wrap("geometry.riemann", cycles.riemann, _coord_points,
                                 memory)
    cycles.wcs_integrand = tracer.wrap("wcs.integrand", cycles.wcs_integrand,
                                       _pack_points, memory)

    box = cycles.integrate_box

    def integrate_box(f, box_, spec):
        with tracer.span("quadrature.integrate_box") as span:
            result = box(TracedChunk(f, tracer), box_, spec)
            span["coarse_points"] = int(np.prod(result.coarse_counts))
            span["fine_points"] = int(np.prod(result.counts))
        return result

    cycles.integrate_box = integrate_box

    class TracedPool(ProcessPoolExecutor):
        """Pool whose lifetime, from start to shutdown, is one span."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.open("quadrature.pool")
            if memory:
                kwargs.setdefault("initializer", tracemalloc.stop)
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                tracer.close(self._span)

    quadrature.ProcessPoolExecutor = TracedPool

    # The headline job enters through the CLI, the orbit job through the
    # package's modules; both reach the same spans.
    for module in (cli, cycles):
        module.integrate_cycle = tracer.wrap("cycles.integrate_cycle",
                                             module.integrate_cycle)
    for module in (cli, records):
        module.result_to_json = tracer.wrap("records.emit", module.result_to_json)
    for name in ("solve_ypq", "ypq_metric", "perturbed_torus"):
        setattr(metrics, name, tracer.wrap("metrics.build", getattr(metrics, name)))
    if memory:
        tracemalloc.start()


def run_job(job: dict) -> tuple[int, str]:
    """Run the workload; return the exit code and the JSON record written."""
    if job["kind"] == "headline":
        argv = HEADLINE_ARGV + ["--nodes", str(job["nodes"]),
                                "--workers", str(job["workers"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    if job["kind"] == "orbit":
        metric = metrics.perturbed_torus(3, seed=job["seed"])
        spec = loopcs.QuadratureSpec(nodes=job["nodes"], mask=(), workers=job["workers"])
        result = cycles.integrate_cycle(metric, cycles.CircleAction.rotation(axis=0), 2,
                                        quad=spec)
        return 0, records.result_to_json(result)
    raise ValueError(f"unknown job kind {job['kind']!r}")


def main(argv: list[str], import_done: float) -> int:
    job = json.loads(argv[0]) if argv else {"kind": "import"}
    report = {"import_done": import_done, "numpy": np.__version__,
              "loopcs_file": loopcs.__file__}
    code = 0
    if job["kind"] != "import":
        tracer = None
        if job["trace"]:
            tracer = Tracer()
            install(tracer, memory=job["trace"] == "memory")
        start = time.perf_counter()
        code, text = run_job(job)
        report["wall_s"] = time.perf_counter() - start
        report["record"] = text
        if tracer is not None:
            report["spans"] = tracer.spans
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    report["cpu_s"] = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux; for children it is the largest one reaped.
    report["peak_rss_mb"] = max(own.ru_maxrss, kids.ru_maxrss) / 1024.0
    print(json.dumps(report))
    return code
