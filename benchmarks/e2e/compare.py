"""Compare two result sets of the end-to-end benchmark.

A result set is either a directory of ``run.py`` outputs
(``benchmarks/e2e/out``) or a file written by ``--collect``, such as
``benchmarks/e2e/results/baseline.json``::

    python3 benchmarks/e2e/compare.py benchmarks/e2e/results/baseline.json \\
        benchmarks/e2e/out

For every workload and end-to-end metric it prints both sides' median
and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

- ``regressed``: the new median is worse than the base median by more
  than the bound;
- ``unresolved``: the base runs spread (inter-quartile distance over
  median) wider than the bound, and not every new run beats every base
  run, so the medians cannot be told apart;
- ``ok``: otherwise.

The exit code is 1 when any pairing regressed.

``--collect DIR`` bundles a directory of run outputs into one result set
stamped with the git revision and a host fingerprint.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from summary import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

RUN_KEYS = ("workload", "seed", "trace", "correct", "attempted", "failed",
            "metrics")


def load_runs(path: str) -> List[Dict[str, Any]]:
    """The runs of a result set (a ``--collect`` file or a directory)."""
    if os.path.isdir(path):
        runs = []
        for name in sorted(glob.glob(os.path.join(path, "*.json"))):
            if name.endswith(".trace.json"):
                continue
            with open(name) as handle:
                run = json.load(handle)
            runs.append({key: run[key] for key in RUN_KEYS})
        return runs
    with open(path) as handle:
        return json.load(handle)["runs"]


def _values(runs: List[Dict[str, Any]]) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values[run["workload"], name].append(metric["value"])
    return values


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative change; positive is worse)."""
    q1, base_median, q3 = quartiles(base)
    new_median = quartiles(new)[1]
    sign = 1.0 if better == "lower" else -1.0
    change = (sign * (new_median - base_median) / base_median
              if base_median else 0.0)
    spread = (q3 - q1) / base_median if base_median else 0.0
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if spread > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "regressed", change
    return "ok", change


def compare(base_runs, new_runs, spec) -> Tuple[List[List[str]], bool]:
    base, new = _values(base_runs), _values(new_runs)
    rows, regressed = [], False
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if not base.get(key) or not new.get(key):
                continue
            result, change = verdict(base[key], new[key], metric["better"],
                                     metric["bound"])
            regressed |= result == "regressed"
            cells = [workload, metric["name"]]
            for values in (base[key], new[key]):
                q1, median, q3 = quartiles(values)
                cells.append("%.4g [%.4g, %.4g] n=%d"
                             % (median, q1, q3, len(values)))
            cells += ["%+.1f%%" % (100 * change),
                      "%.0f%%" % (100 * metric["bound"]), result]
            rows.append(cells)
    return rows, regressed


def render(rows: List[List[str]]) -> str:
    headers = ["workload", "metric", "base median [q1, q3]",
               "new median [q1, q3]", "worse by", "bound", "verdict"]
    widths = [max(len(str(row[i])) for row in [headers] + rows)
              for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(width) for cell, width
                       in zip(row, widths)).rstrip()
             for row in [headers] + rows]
    return "\n".join(lines)


def host_fingerprint() -> Dict[str, Any]:
    model, mem_kb = "", 0
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
                    break
    except OSError:
        pass
    return {"platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(), "cpu_model": model,
            "mem_gb": round(mem_kb / 2 ** 20, 1)}


def git_rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def collect(directory: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "git_rev": git_rev(),
        "host": host_fingerprint(),
        "created": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "run_seconds": spec["run_seconds"],
        "runs": load_runs(directory),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--collect", metavar="DIR",
                        help="bundle DIR's run outputs into one result set")
    parser.add_argument("sets", nargs="*", metavar="SET",
                        help="base and new result sets")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.collect:
        json.dump(collect(args.collect, spec), sys.stdout, indent=1,
                  sort_keys=True)
        print()
        return 0
    if len(args.sets) != 2:
        parser.error("give a base and a new result set")
    rows, regressed = compare(load_runs(args.sets[0]),
                              load_runs(args.sets[1]), spec)
    print(render(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
