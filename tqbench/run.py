"""tquant benchmark: one closed-loop client, one process, one workload per run.

    python3 tqbench/run.py --workload distill-d128 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Set-up builds every input from ``--seed``
(five times; ``setup_s`` is the median), then ops run back to back for
``--seconds``.  Each op is timed alone; its output check runs afterwards,
outside the timed region.  With ``--trace 1`` every other op runs with
span wrappers on tquant's public functions, and the run reports per-layer
metrics and the tracing overhead instead of the end-to-end ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it give the host header, the
same metrics by their workload names, and where the result file went.
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
SETUP_REPS = 5

# end-to-end metrics every workload reports, with their units; op_ms.p90 is
# printed but not among them, since no workload times the hundred ops a run
# would need for ten samples beyond its 90th percentile
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ms.p50", "ms"),
              ("samples_per_s", "1/s"))
TRACE_METRICS = (("trace.overhead_pct", "%"), ("trace.spans_per_op", "count"))
WORKLOAD_NAMES = ("distill-d128", "eval-d128", "kernels-base")


def _blas_threads_env() -> None:
    """Cap BLAS threads at the CPUs this process may run on; call before numpy loads."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, ncpu))
        except ValueError:
            want = ncpu
        os.environ[var] = str(max(1, min(want, ncpu)))


def _openblas() -> dict:
    import ctypes
    import numpy as np
    info = {"openblas": "unknown", "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["blas_threads"] = getter()
                    return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "tquant").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_header(seed: int, ncpu: int) -> dict:
    import numpy as np
    return {"commit": _commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            **_openblas(), "nproc": ncpu, "cpu_model": _cpu_model(), "seed": seed}


def _p90(values: list[float]) -> float:
    import numpy as np
    return float(np.percentile(values, 90))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the full result record."""
    import spans
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    ncpu = len(os.sched_getaffinity(0))
    header = host_header(seed, ncpu)
    print(f"# host {json.dumps(header)}")

    tag = f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    scratch = WORKDIR / "scratch" / tag
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        setup_times = []
        state = None
        for _ in range(SETUP_REPS):
            state = None
            t0 = time.perf_counter()
            state = wl.setup(seed, str(scratch))
            setup_times.append(time.perf_counter() - t0)

        tracer = spans.Tracer()
        lat = {False: [], True: []}
        attempted = failed = 0
        min_ops = 2 if trace else 1
        t_start = time.perf_counter()
        while attempted < min_ops or time.perf_counter() - t_start < seconds:
            i = attempted
            traced = trace and i % 2 == 1
            patches = spans.install(tracer) if traced else []
            tracer.op = i
            t0 = time.perf_counter()
            try:
                root = tracer.begin(spans.ROOT_SPAN) if traced else None
                try:
                    result = wl.op(state, i)
                finally:
                    if traced:
                        tracer.end(root)
                dt = time.perf_counter() - t0
                error = None
            except Exception:
                dt = time.perf_counter() - t0
                error = traceback.format_exc()
            finally:
                spans.uninstall(patches)
            attempted += 1
            if error is None:
                lat[traced].append(dt)
                try:
                    error = wl.check(state, i, result)
                except Exception:
                    error = traceback.format_exc()
                result = None
            if error is not None:
                failed += 1
                print(f"op {i} failed: {error}", file=sys.stderr)
        measured_s = time.perf_counter() - t_start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = lat[False]
    record = {"workload": name, "trace": trace, "header": header, "layers": wl.layers,
              "attempted": attempted, "failed": failed, "measured_s": measured_s,
              "setup_times_s": setup_times, "op_times_s": plain,
              "traced_op_times_s": lat[True]}
    if trace:
        n_traced = len(lat[True])
        values, calls = spans.layer_values(tracer, max(n_traced, 1))
        untraced_ms = 1e3 * statistics.median(plain) if plain else float("nan")
        traced_ms = 1e3 * statistics.median(lat[True]) if n_traced else float("nan")
        values["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
        values["trace.spans_per_op"] = len(tracer.spans) / max(n_traced, 1)
        units = {m.name: m.unit for m in spans.LAYER_METRICS}
        units.update(TRACE_METRICS)
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        print(spans.format_table(name, values, calls, traced_ms,
                                 values["trace.overhead_pct"], n_traced))
        record["span_counts"] = {}
        for s in tracer.spans:
            record["span_counts"][s.name] = record["span_counts"].get(s.name, 0) + 1
        spans_path = WORKDIR / "results" / f"{tag}.spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(str(spans_path))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "peak_rss_mb": _peak_rss_mb(),
                  "op_ms.p50": 1e3 * statistics.median(plain) if plain else float("nan"),
                  "op_ms.p90": 1e3 * _p90(plain) if plain else float("nan"),
                  "samples_per_s": (wl.samples_per_op * len(plain) / sum(plain)
                                    if plain else float("nan"))}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        _print_summary(wl, values, attempted, failed, len(plain))
    record["metrics"] = metrics

    results = WORKDIR / "results" / f"{tag}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))
    print(f"# result file: {results.relative_to(ROOT)}")
    return record


def _print_summary(wl, values: dict, attempted: int, failed: int, n: int) -> None:
    """The run's end-to-end numbers under the workload's own names, then the generic ones."""
    print(f"{wl.name}: {attempted} ops attempted (one {wl.op_label} each), {failed} failed, "
          f"{n} timed")
    rows = [("setup_s", values["setup_s"], "s", f"median of {SETUP_REPS} set-ups"),
            ("error_rate", failed / attempted, "1", f"{failed}/{attempted} ops"),
            ("peak_rss_mb", values["peak_rss_mb"], "MB", "")]
    for key, (alias, scale, unit) in wl.aliases.items():
        rows.append((alias, values[key] * scale, unit, f"n={n}" if ".p" in key else ""))
    rows += [(k, values[k], u, "") for k, u in END_TO_END if k not in ("setup_s", "peak_rss_mb")]
    for key, value, unit, note in rows:
        print(f"  {key:22s} {value:14.6g} {unit:4s} {note}")


def _run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    if not (ROOT / "src" / "tquant" / "__init__.py").is_file():
        print(f"tqbench: no tquant sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    _blas_threads_env()
    # tquant's metrics files must land in the run's own directory
    os.environ.pop("TQ_METRICS_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
