"""cealg benchmark: cold time-to-verdict per workload, with per-layer spans.

Every measured run of a workload is a fresh interpreter (`worker.py`) with
cold caches, started one at a time from this process, which is what a
`cealg --task ...` user pays.  One run of this script repeats that until
`--seconds` have passed (at least once) and reports medians.

    python3 perfbench/run.py --workload brane-scan --seed 1 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

With `--trace 0` the result holds the end-to-end metrics (tracing off);
with `--trace 1` the per-layer self times and counts of one traced run,
whose self times plus `trace.unspanned_s` add up to its `trace.wall_s`.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 when the
program is missing or a run crashes; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

#: Import-only interpreters started per run, on top of one per workload run,
#: so that `setup_s` is a median of several.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

_LAYERS = ["reporting.run_task", "graded.mul", "graded.add",
           "graded.transport", "dgca.apply_d", "dgca.morphism", "dgca.check",
           "linalg.basis", "linalg.matrix", "linalg.eliminate",
           "linalg.decide", "clifford.fierz", "clifford.check",
           "clifford.build", "catalog.build", "catalog.verify",
           "rational_homotopy"]
PER_LAYER = {f"{layer}.self_s": "s" for layer in _LAYERS}
PER_LAYER.update({
    "graded.mul.calls": "count",
    "graded.mul.term_pairs": "count",
    "graded.add.calls": "count",
    "graded.add.terms_in": "count",
    "dgca.apply_d.calls": "count",
    "dgca.apply_d.terms_in": "count",
    "dgca.apply_d.terms_out": "count",
    "dgca.morphism.calls": "count",
    "linalg.basis.monomials": "count",
    "linalg.matrix.nnz": "count",
    "linalg.eliminate.rows": "count",
    "clifford.fierz.tensor_mib": "MiB",
    "catalog.cache.hits": "count",
    "catalog.cache.calls": "count",
    "catalog.cache.hit_ratio": "ratio",
    "rational_homotopy.samples": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.unspanned_s": "s",
})


class BenchError(Exception):
    pass


def environment() -> dict:
    """What a result depends on besides the code: recorded with every run."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(args: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["import_done"] - t0
    return rec


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set-up samples, then cold workload runs until
    `seconds` have passed.  Returns the result object."""
    _spawn(["--setup-only"])  # unmeasured: leaves the bytecode cache warm
    setups = [_spawn(["--setup-only"])["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        rec = _spawn(["--workload", workload, "--seed", str(seed),
                      "--trace", str(int(trace))])
        for failure in rec["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        runs.append(rec)
        setups.append(rec["setup_s"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if trace:
        # one run's breakdown, so that its parts add up to its own wall time
        by_wall = sorted(runs, key=lambda r: r["wall_s"])
        layers = by_wall[(len(runs) - 1) // 2]["layers"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "walls": [r["wall_s"] for r in runs]}


def _print_metrics(workload: str, result: dict) -> None:
    walls = ", ".join(f"{w:.3f}" for w in result["walls"])
    print(f"{workload}: {len(result['walls'])} cold run(s), wall_s each "
          f"[{walls}], {result['attempted']} ops, op_fail_rate = "
          f"{result['failed'] / result['attempted']:.4f}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")


def _run_all(seed: int, seconds: float) -> dict:
    summary = {}
    for workload in WORKLOADS:
        plain = run(workload, seed, seconds, trace=False)
        traced = run(workload, seed, seconds, trace=True)
        _print_metrics(workload, plain)
        _print_metrics(workload + " (traced)", traced)
        wall = plain["metrics"]["wall_s"]["value"]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - wall
        print(f"  tracing overhead = {overhead} s "
              f"({overhead / wall:.1%} of untraced wall_s)")
        summary[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
            "trace_overhead_s": overhead,
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS),
                   help="run one workload (default: all, untraced and traced)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measure for at least this long "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cealg" / "__init__.py").is_file():
        print(f"error: no cealg sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]

    env = environment()
    env["loadavg_1m_start"] = os.getloadavg()[0]
    try:
        if args.workload is None:
            result = _run_all(args.seed, seconds)
        else:
            result = run(args.workload, args.seed, seconds, bool(args.trace))
            _print_metrics(args.workload, result)
            del result["walls"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env["loadavg_1m_end"] = os.getloadavg()[0]
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
