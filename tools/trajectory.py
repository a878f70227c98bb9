"""Print the benchmark trajectory: one row per committed BENCH file and workload.

Each row gives the file, the workload, the commit it measured, the medians
of the end-to-end metrics (wall_s, setup_s, cpu_s, peak_rss_mb) as
``bench/run.py`` recorded them, and the number of runs behind them.  Files
named ``BENCH_pr<N>[_parent].json`` are ordered by N, each parent before its
change.  A file may hold one result or a list of results.  The script only
prints; it checks nothing.

Run from anywhere:  python3 tools/trajectory.py
"""
from __future__ import annotations

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


def _order(path: pathlib.Path):
    """N of ``BENCH_pr<N>``, then the parent file before the change's."""
    match = re.fullmatch(r"BENCH_pr(\d+)(_parent)?\.json", path.name)
    if match is None:
        return (float("inf"), 1, path.name)
    return (int(match[1]), 0 if match[2] else 1, path.name)


def rows(paths) -> list[dict]:
    """One dict per (file, workload): the file name, workload, short commit,
    the medians in ``METRICS`` (None where the result has none) and runs."""
    out = []
    for path in sorted(paths, key=_order):
        data = json.loads(path.read_text(encoding="utf-8"))
        for result in data if isinstance(data, list) else [data]:
            commit = result.get("provenance", {}).get("commit")
            row = {"file": path.name, "workload": result["workload"],
                   "commit": commit[:7] if commit else "-",
                   "runs": len(result.get("runs", []))}
            row.update({k: result.get("metrics", {}).get(k) for k in METRICS})
            out.append(row)
    return out


def main() -> None:
    table = rows(ROOT.glob("BENCH_*.json"))
    print(f"{'file':<24} {'workload':<12} {'commit':<7} "
          + " ".join(f"{k:>11}" for k in METRICS) + f" {'runs':>5}")
    for row in table:
        cells = " ".join("-".rjust(11) if row[k] is None else f"{row[k]:11.4f}"
                         for k in METRICS)
        print(f"{row['file']:<24} {row['workload']:<12} {row['commit']:<7} {cells} "
              f"{row['runs']:5d}")


if __name__ == "__main__":
    main()
