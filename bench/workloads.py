"""Workload definitions and output oracles shared by run.py and the child.

A workload is one loopcs problem. ``run.py`` turns it into
jobs, runs each job in a fresh interpreter (``child.py``) and checks the
record the job returns against the oracle here. This module imports only
the standard library, so run.py never loads loopcs or numpy itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

PI4 = math.pi ** 4

# Value the implementation gives for the (7,3) fiber rotation: -432 pi^4/6125
# (criterion 1's companion test), not the reported -1849 pi^4/22050.
HEADLINE_SNAP = Fraction(-432, 6125)
HEADLINE_EXACT = float(HEADLINE_SNAP) * PI4

# The catalog's own perturbed_torus3 seed: the default orbit input equals
# ``--metric perturbed_torus3``.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One benchmark problem and the oracle its output must satisfy.

    kind: ``headline`` runs ``loopcs.cli.main`` on the (7,3) fiber rotation;
        ``orbit`` calls ``integrate_cycle`` for a rotation along ``x0`` on
        ``perturbed_torus(3, seed)``, which takes the generic orbit path with
        the default 64 loop nodes.
    nodes: coarse Gauss-Legendre nodes per free axis (the fine level doubles).
    workers: quadrature worker processes.
    exact: the exact value of the integral.
    rel_tol / abs_tol: largest accepted error against ``exact``.
    snap: the rational r with value = r pi^4 that the record must report.
    counts: node counts per axis that the record must report.
    """

    name: str
    kind: str
    nodes: int
    workers: int
    exact: float
    counts: tuple[int, ...]
    rel_tol: float | None = None
    abs_tol: float | None = None
    snap: Fraction | None = None

    @property
    def uses_seed(self) -> bool:
        return self.kind == "orbit"

    def job(self, seed: int, trace: str = "", workers: int | None = None) -> dict:
        """The JSON-able job a child process runs; ``trace`` is "", "time" or
        "memory" (see sample.py)."""
        return {"kind": self.kind, "seed": seed, "trace": trace,
                "nodes": self.nodes,
                "workers": self.workers if workers is None else workers}

    def check(self, record: dict) -> list[str]:
        """Problems with a parsed JSON record; empty when it is correct."""
        problems = []
        value = record["value"]
        err = abs(value - self.exact)
        if self.rel_tol is not None and not err <= self.rel_tol * abs(self.exact):
            problems.append(f"value {value!r} is {err:.3e} from {self.exact!r}, "
                            f"over the relative tolerance {self.rel_tol:g}")
        if self.abs_tol is not None and not err <= self.abs_tol:
            problems.append(f"value {value!r} is {err:.3e} from {self.exact!r}, "
                            f"over the absolute tolerance {self.abs_tol:g}")
        if self.snap is not None:
            got = record.get("pi4_multiple")
            got = Fraction(got["num"], got["den"]) if got else None
            if got != self.snap:
                problems.append(f"snapped to {got} pi^4, expected {self.snap} pi^4")
        if tuple(record["node_counts"]) != self.counts:
            problems.append(f"node counts {record['node_counts']}, "
                            f"expected {list(self.counts)}")
        return problems


def headline(nodes: int = 32, workers: int = 1, name: str = "headline") -> Workload:
    """``loopcs wcs --metric ypq --p 7 --q 3 --action rotate:alpha``."""
    return Workload(name=name, kind="headline", nodes=nodes, workers=workers,
                    exact=HEADLINE_EXACT, rel_tol=1e-9, snap=HEADLINE_SNAP,
                    counts=(0, 2 * nodes, 0, 2 * nodes, 0))


def orbit(nodes: int = 6, workers: int = 1, name: str = "orbit") -> Workload:
    """k = 2 rotation along x0 on perturbed_torus(3): the form vanishes in
    dimension 3 = 3 mod 4, so the exact integral is 0."""
    return Workload(name=name, kind="orbit", nodes=nodes, workers=workers,
                    exact=0.0, abs_tol=1e-12, counts=(2 * nodes,) * 3)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    headline(),
    headline(workers=2, name="headline_2w"),
    orbit(),
)}

# Node counts of the accuracy ladder on the (7,3) problem: 8->16, 16->32 and
# 32->64. 64->128 is left out because it trips the metric condition guard.
LADDER = (8, 16, 32)
