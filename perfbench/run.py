#!/usr/bin/env python3
"""tribell benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {reproduce,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; tribell is imported from its ``src``.
Workloads are described in ``workloads.py`` and the metrics in
``BENCHMARK.json``.

- ``--trace 0`` measures set-up time in fresh interpreters, then repeats
  the workload's timed pass over the same inputs until ``--seconds`` are
  used (at least once), and reports every end-to-end metric. Times are
  seconds at a fixed reference machine speed (see ``clock.py``).
- ``--trace 1`` makes the traced run instead, a fixed amount of work
  that ignores ``--seconds``: spans around each call into a tribell
  module, the per-layer metrics, and the tracing overhead against an
  untraced twin of the traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(machine facts, checks, passes, per-item records, the per-layer
predictions of ``layers.py``) and, for traced runs, the spans are
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60


def _import_checkout():
    """Import tribell from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import tribell
    except ImportError as err:
        raise SystemExit(f"error: cannot import tribell from {SRC}: {err}")
    if Path(tribell.__file__).resolve().parent != SRC / "tribell":
        raise SystemExit(f"error: tribell was imported from {tribell.__file__}, not from {SRC}")


def measure_setup(clock) -> dict[str, float]:
    """Times fresh interpreters that import tribell.cli and load both
    checksummed tables on ``clock``; returns the median milliseconds of
    each step."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "setup_probe.py")]

    def probe() -> dict:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=SETUP_TIMEOUT_S)
        return json.loads(done.stdout)

    probe()  # warms the file cache and, unless PYTHONDONTWRITEBYTECODE is set, writes .pyc files
    steps = []
    for _ in range(SETUP_RUNS):
        with clock.item("setup"):
            steps.append(probe())
    return {key: statistics.median(s[key] for s in steps) for key in steps[0]}


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest of p99.9, p99
    and p90 that has at least ten samples beyond it; the maximum when none
    has, as with fewer than 100 samples."""
    ordered = sorted(samples)
    for percentile in (99.9, 99.0, 90.0):
        rank = math.ceil(len(ordered) * percentile / 100.0)
        if len(ordered) - rank >= 10:
            return percentile, ordered[rank - 1], len(ordered) - rank
    return 100.0, ordered[-1], 0


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """The checkout's commit, when it is a git work tree; None otherwise.
    Git does not look for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts(workers_env: str | None) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {key: value for key, value in sorted(os.environ.items())
                if key.startswith(("OPENBLAS_", "OMP_", "MKL_", "PYTHONDONTWRITEBYTECODE"))},
        "tribell_workers_env": workers_env,
        "git_commit": _git_commit(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload_name: str, seed: int, seconds: int, trace: bool, workload=None) -> dict:
    """One benchmark run; returns the full record. ``workload`` replaces the
    default instance, as the tests do to run at minimal size."""
    from clock import EDGES, Clock
    from layers import PREDICTIONS
    from tracing import Tracer
    from workloads import WORKLOADS, Checks

    spec = load_spec()
    workload = workload or WORKLOADS[workload_name]()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    # A user running `tables` leaves the worker count unset.
    workers_env = os.environ.pop("TRIBELL_WORKERS", None)

    setup_clock = Clock(EDGES)
    setup_steps = measure_setup(setup_clock)
    inputs = workload.inputs(seed)
    checks = Checks()
    record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup": {"runs": setup_clock.items, "steps_ms": setup_steps}}

    if trace:
        tracer = Tracer()
        started = time.perf_counter()
        layer_metrics, items = workload.traced(inputs, tracer, checks, OUT_DIR)
        record["traced_wall_s"] = time.perf_counter() - started
        metrics = {entry["name"]: 0.0 for entry in spec["per_layer"]}
        metrics.update(setup_steps)
        metrics.update(layer_metrics)
        spans_path = OUT_DIR / f"{tag}-spans.json"
        tracer.write(spans_path)
        record.update(spans=str(spans_path.relative_to(ROOT)), span_summary=tracer.summary(),
                      items=items)
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    else:
        clock, walls = Clock(workload.scaling), []
        begun = time.perf_counter()
        while True:
            started, first = time.perf_counter(), len(clock.items)
            workload.timed_pass(inputs, checks, clock, OUT_DIR)
            walls.append(sum(clock.seconds(first)))
            now = time.perf_counter()
            if now - begun + (now - started) > seconds:  # another pass would overrun
                break
        latencies = clock.seconds()
        percentile, tail, beyond = tail_latency(latencies)
        metrics = {
            "setup_s": statistics.median(setup_clock.seconds()),
            "wall_s": statistics.median(walls),
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "item_tail_ms": 1e3 * tail,
            "pass_ratio": (checks.attempted - checks.failed) / max(checks.attempted, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(pass_walls_s=walls, tail={"percentile": percentile, "beyond": beyond},
                      items=clock.items)
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}

    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    record["result"] = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "failures": checks.failures[:50]}
    record["machine"] = machine_facts(workers_env)
    record["machine"]["tables_workers"] = getattr(workload, "workers", None)
    record["predictions"] = {name: [list(p) for p in preds] for name, preds in PREDICTIONS.items()}
    record["path"] = str((OUT_DIR / f"{tag}.json").relative_to(ROOT))
    (ROOT / record["path"]).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_checkout()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"record written to {record['path']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
