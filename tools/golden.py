"""Write the golden records to ``tests/golden/``.

Each golden record is the output of one fixed run: a JSON record with its
``wall_time`` field removed, or a sweep CSV with its ``wall_time`` column
blanked, so the files hold only what a run must reproduce bit for bit.
Runs the CLI reaches go through ``cli.main``; the two it does not reach (an
explicit mask, and ``perturbed_torus(5)``, which is not a catalog name) go
through ``cycles.integrate_cycle`` and ``records.result_to_json``.

``tests/test_golden.py`` rebuilds every record in-process and compares
bytes.  Rewrite the files only as a deliberate step, when a change is meant
to move a record; the diff then shows the old and the new bits.

Run from anywhere:  python3 tools/golden.py
"""
from __future__ import annotations

import contextlib
import csv
import io
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from loopcs import cli, cycles, metrics, records  # noqa: E402
from loopcs.quadrature import QuadratureSpec  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

_YPQ73 = ["--metric", "ypq", "--p", "7", "--q", "3"]

# File name -> CLI arguments.
CLI_RUNS = {
    "ypq73_rotate_alpha_n8.json": ["wcs", *_YPQ73, "--action", "rotate:alpha", "--nodes", "8"],
    "ypq73_rotate_alpha_n32.json": ["wcs", *_YPQ73, "--action", "rotate:alpha",
                                    "--nodes", "32"],
    "ypq73_rotate_alpha_n64.json": ["wcs", *_YPQ73, "--action", "rotate:alpha",
                                    "--nodes", "64"],
    "ypq73_rotate_phi_n8.json": ["wcs", *_YPQ73, "--action", "rotate:phi", "--nodes", "8"],
    "ypq73_rotate_psi_n16.json": ["wcs", *_YPQ73, "--action", "rotate:psi", "--nodes", "16"],
    "ypq73_iterate_alpha_2_n8.json": ["wcs", *_YPQ73, "--action", "iterate:alpha:2",
                                      "--nodes", "8"],
    "ypq73_rotate_alpha_speed0_n4.json": ["wcs", *_YPQ73, "--action", "rotate:alpha:0",
                                          "--nodes", "4"],
    "torus3_rotate_x0_nomask_n6.json": ["wcs", "--metric", "perturbed_torus3", "--action",
                                        "rotate:x0", "--no-mask", "--nodes", "6"],
    "torus3_rotate_x0_speed0_nomask_n4.json": ["wcs", "--metric", "perturbed_torus3",
                                               "--action", "rotate:x0:0", "--no-mask",
                                               "--nodes", "4"],
    "sphere5_rotate_phi_n4.json": ["wcs", "--metric", "round_sphere5", "--action",
                                   "rotate:phi", "--nodes", "4"],
    "sweep_scan_p7_n4.csv": ["sweep", "--scan-p-max", "7", "--nodes", "4"],
    "sweep_a_0.4_0.6_n6.csv": ["sweep", "--sweep-a", "0.4,0.6", "--nodes", "6"],
}

# File name -> (metric builder, rotation axis, k, quadrature spec).
DIRECT_RUNS = {
    "ypq73_rotate_alpha_mask024_n8.json": (
        lambda: metrics.ypq_metric(metrics.solve_ypq(7, 3)), 4, 3,
        QuadratureSpec(nodes=8, mask=(0, 2, 4))),
    "torus5_rotate_x0_nomask_n3.json": (
        lambda: metrics.perturbed_torus(5), 0, 3, QuadratureSpec(nodes=3, mask=())),
}


def strip_wall_time(text: str) -> str:
    """A JSON record without its ``wall_time`` field, or a sweep CSV with
    that column blanked; every other byte is kept."""
    if text.startswith("{"):
        return re.sub(r',"wall_time":[^,]*', "", text, count=1)
    rows = list(csv.reader(io.StringIO(text)))
    column = rows[0].index("wall_time")
    for row in rows[1:]:
        row[column] = ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def cli_output(argv: list[str]) -> str:
    """What ``loopcs ARGV`` writes to stdout; its stderr summary is dropped.
    A nonzero exit raises RuntimeError."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"loopcs {' '.join(argv)} exited {code}")
    return out.getvalue()


def record(name: str) -> str:
    """The golden record ``name`` as this checkout produces it."""
    if name in CLI_RUNS:
        return strip_wall_time(cli_output(CLI_RUNS[name]))
    build, axis, k, quad = DIRECT_RUNS[name]
    result = cycles.integrate_cycle(build(), cycles.CircleAction.rotation(axis=axis), k,
                                    quad=quad)
    return strip_wall_time(records.result_to_json(result) + "\n")


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in [*CLI_RUNS, *DIRECT_RUNS]:
        (GOLDEN / name).write_text(record(name), encoding="utf-8")


if __name__ == "__main__":
    main()
