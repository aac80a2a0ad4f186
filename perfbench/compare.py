"""Paired comparison of two result sets of ``perfbench/run.py``.

Each argument is a directory of result files written by ``run.py``
(``perfbench/results/`` of a checkout of one commit).  For every
workload and metric the script prints each side's median and quartiles
and, for end-to-end metrics, a verdict under the bounds of
``BENCHMARK.json``:

* ``worse``: the new median is worse than the base median by more than
  the metric's bound;
* ``better``: the new side wins at least nine tenths of the runs paired
  by seed (ties count for neither), and the medians differ by more than
  the distance between the base side's quartiles;
* ``unresolved``: neither, and the base side's spread is wider than the
  bound;
* ``same``: otherwise.

Per-layer metrics get medians and the new/base ratio, no verdict.

Collect the two sets interleaved (base and new alternately, seed by
seed): on a shared 2-CPU container, two sets of the same commit run a
quarter of an hour apart differed by up to 17% in req/s.

Usage::

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

HERE = pathlib.Path(__file__).resolve().parent


def load_results(directory: pathlib.Path) -> dict:
    """{(workload, trace): {metric: {seed: [values]}}} from result files."""
    table: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for path in sorted(directory.rglob("seed*-trace*.json")):
        record = json.loads(path.read_text())
        env, result = record["env"], record["result"]
        trace = int(path.name.split("-trace")[1][0])
        for name, metric in result["metrics"].items():
            table[(env["workload"], trace)][name][env["seed"]].append(metric["value"])
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    base_all = [v for vs in base.values() for v in vs]
    new_all = [v for vs in new.values() for v in vs]
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base_all)
    new_median = statistics.median(new_all)
    if base_median == 0:
        return "same" if new_median == 0 else "unresolved"
    gain = sign * (new_median - base_median)
    if gain < -bound * abs(base_median):
        return "worse"
    paired = [
        sign * (statistics.median(new[seed]) - statistics.median(base[seed]))
        for seed in base
        if seed in new
    ]
    wins = sum(d > 0 for d in paired)
    if paired and wins >= 0.9 * len(paired) and gain > q3 - q1:
        return "better"
    if (q3 - q1) / abs(base_median) > bound:
        return "unresolved"
    return "same"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load_results(args.base), load_results(args.new)
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        kind = "per-layer" if trace else "end-to-end"
        print(f"\n{workload} ({kind})")
        print(
            f"{'metric':<44}{'base q1/med/q3':>30}{'new q1/med/q3':>30}{'new/base':>10}"
            f"{'verdict':>12}"
        )
        for name in sorted(set(base[key]) & set(new[key])):
            b = [v for vs in base[key][name].values() for v in vs]
            n = [v for vs in new[key][name].values() for v in vs]
            bq, nq = quartiles(b), quartiles(n)
            ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "-"
            spec_row = bounds.get(name)
            judged = (
                verdict(base[key][name], new[key][name], spec_row["better"], spec_row["bound"])
                if spec_row and not trace
                else ""
            )
            print(
                f"{name:<44}{'/'.join(f'{q:.4g}' for q in bq):>30}"
                f"{'/'.join(f'{q:.4g}' for q in nq):>30}{ratio:>10}{judged:>12}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
