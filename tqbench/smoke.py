"""Quick self-check of the benchmark: every workload, minimal length, both modes.

    python3 tqbench/smoke.py

Runs each workload once untraced and once traced with ``--seconds 0``
(one op untraced, or one untraced plus one traced op) and asserts that

* every end-to-end metric (untraced) and per-layer metric (traced) named in
  BENCHMARK.json is reported, with the unit given there,
* no op failed (``error_rate`` is 0), and
* the traced run recorded spans from every layer the workload exercises,
  and the workloads together exercise every layer with a per-layer metric.

Takes about a minute on two cores.  Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _require(ok: bool, message: str) -> None:
    # an explicit raise, so the check still runs under ``python -O``
    if not ok:
        raise AssertionError(message)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    path = next(ln.split(": ", 1)[1] for ln in lines if ln.startswith("# result file: "))
    return result, json.loads((ROOT / path).read_text())


def _check_metrics(where: str, result: dict, wanted: list[dict]) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    _require(got == want, f"{where}: metrics {got} differ from BENCHMARK.json {want}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers_with_metrics = {m["name"].split(".")[0] for m in spec["per_layer"]} - {"trace"}
    covered = set()
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                where = f"{workload} trace={trace}"
                result, record = _run(workload, trace)
                _check_metrics(where, result, wanted)
                _require(result["failed"] == 0 and result["correct"],
                         f"{where}: {result['failed']} of {result['attempted']} ops failed")
                if trace:
                    seen = {name.split(".")[0] for name in record["span_counts"]}
                    missing = set(record["layers"]) - seen
                    _require(not missing, f"{where}: no spans from {sorted(missing)}")
                    covered |= seen
                print(f"ok  {where}: {result['attempted']} ops, error_rate 0, "
                      f"{len(result['metrics'])} metrics")
        missing = layers_with_metrics - covered
        _require(not missing, f"no workload produced spans from {sorted(missing)}")
    except AssertionError as e:
        print(f"FAIL {e}")
        return 1
    print(f"ok  spans from every layer: {', '.join(sorted(covered - {'bench'}))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
