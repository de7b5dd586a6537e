"""One cold run of one workload, in the fresh interpreter `run.py` starts.

Importing `cealg` and its task registry `cealg.reporting` is the first
thing this process does, so the moment the import finishes (printed as
`import_done`, on the system-wide monotonic clock) marks the end of set-up
as a `cealg --task ...` user pays it.  The workload's ops then run once, in
order, with every `lru_cache` cold.  The process prints one JSON line:

    {"import_done": ..., "wall_s": ..., "peak_rss_mb": ..., "attempted": n,
     "failed": k, "failures": [...], "layers": {...} or null}

`wall_s` runs from the first op call to the last verdict.  Each verdict is
checked against its known answer after that; an op that raises or differs
counts as failed and the run goes on.

    python3 perfbench/worker.py --workload brane-scan --seed 1 --trace 0
    python3 perfbench/worker.py --setup-only
"""

import time

import cealg
import cealg.reporting  # noqa: F401  (the task registry `run_task` lives in)

IMPORT_DONE = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, mismatch  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def run_ops(ops, tracer: Tracer | None = None) -> dict:
    """Run the ops once, timed, then check every verdict."""
    if tracer is not None:
        tracer.install()
    results = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            results.append(op.call())
        except Exception:  # an op that raises is a failed op, not a crash
            results.append(traceback.format_exc())
    wall_s = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = []
    for op, result in zip(ops, results):
        diff = result if isinstance(result, str) else mismatch(op, result)
        if diff is not None:
            failures.append(f"{op.name}: {diff}")
    return {
        "wall_s": wall_s,
        "peak_rss_mb": peak_kib / 1024,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "layers": None if tracer is None else tracer.layer_metrics(wall_s),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if SRC not in Path(cealg.__file__).resolve().parents:
        print(f"error: imported cealg from {cealg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out = {"import_done": IMPORT_DONE}
    if not args.setup_only:
        if args.workload is None:
            p.error("--workload is required")
        ops = WORKLOADS[args.workload](args.seed)
        out.update(run_ops(ops, Tracer() if args.trace else None))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
