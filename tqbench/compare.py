"""Compare two sets of benchmark result files, metric by metric.

    python3 tqbench/compare.py --base tqbench/.work/results/A*.json \\
                               --change tqbench/.work/results/B*.json

Refuses (exit 2) when the runs were not made on the same host set-up:
Python, numpy, OpenBLAS version and thread count, nproc or CPU model
differ between any two files.  Flags, and still compares, differences in
commit, source digest and seed, which a before/after comparison expects.
For each workload and metric it prints both medians and quartiles and the
change relative to the base, against the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_FIELDS = ("python", "numpy", "openblas", "blas_threads", "nproc", "cpu_model")
FLAG_FIELDS = ("commit", "source_sha256", "seed")


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    args = p.parse_args(argv)
    base, change = _load(args.base), _load(args.change)

    for field in HOST_FIELDS:
        seen = {json.dumps(r["header"].get(field)) for r in base + change}
        if len(seen) > 1:
            print(f"refused: host field {field!r} differs between results: "
                  f"{', '.join(sorted(seen))}")
            return 2
    for field in FLAG_FIELDS:
        b = {str(r["header"].get(field)) for r in base}
        c = {str(r["header"].get(field)) for r in change}
        if b != c:
            print(f"flag: {field} differs: base {sorted(b)} vs change {sorted(c)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    keys = sorted({(r["workload"], r["trace"]) for r in base + change})
    for workload, trace in keys:
        b_runs = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        c_runs = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        if not b_runs or not c_runs:
            print(f"{workload} trace={int(trace)}: missing on one side, skipped")
            continue
        print(f"{workload} trace={int(trace)}: {len(b_runs)} base runs, "
              f"{len(c_runs)} change runs")
        for name, m in b_runs[0]["metrics"].items():
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            bq, cq = _quartiles(bv), _quartiles(cv)
            info = bounds.get(name, {})
            verdict = ""
            if bq[1] and "bound" in info:
                worse = (cq[1] - bq[1]) / bq[1] * (1 if info["better"] == "lower" else -1)
                verdict = ("REGRESSION" if worse > info["bound"] else "ok") + \
                    f" (bound {info['bound']:.0%}, base spread {(bq[2] - bq[0]) / bq[1]:.1%})"
            delta = f"{(cq[1] - bq[1]) / bq[1]:+8.1%}" if bq[1] else "     n/a"
            print(f"  {name:30s} {bq[1]:12.5g} [{bq[0]:.4g}, {bq[2]:.4g}] -> "
                  f"{cq[1]:12.5g} [{cq[0]:.4g}, {cq[2]:.4g}] {delta} {m['unit']:6s} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
