"""Command-line task runner.

    cealg --task m5.relation
    cealg --task family --alpha 1 --beta 1
    cealg --task s4.cohomology --max-degree 12 --json
    cealg --list-tasks

Exit codes: 0 = pass, 1 = fail, 2 = capped by --cap, unsupported, an
unknown task, or an option the task does not read.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dgca import Report
from .graded import GradedError
from .linalg import Capped
from .reporting import (
    TASKS,
    UnknownParameter,
    UnknownTask,
    compare_golden,
    load_golden,
    report_to_json,
    run_task,
    write_report,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CAPPED = 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cealg",
        description="exact verification tasks for the algebra catalog")
    p.add_argument("--task", help="task id to run (see --list-tasks)")
    p.add_argument("--list-tasks", action="store_true",
                   help="print the known task ids and exit")
    p.add_argument("--cap", type=int, default=None,
                   help="monomial cap per basis built; a coboundary "
                        "decision builds only its element's weight component")
    p.add_argument("--out", default="reports",
                   help="directory for timestamped JSON reports")
    p.add_argument("--json", action="store_true", dest="json_out",
                   help="print the machine-readable report to stdout")
    p.add_argument("--alpha", default=None,
                   help="family parameter alpha (rational)")
    p.add_argument("--beta", default=None,
                   help="family parameter beta (rational)")
    p.add_argument("--max-degree", type=int, default=None,
                   help="degree bound for cohomology tasks")
    p.add_argument("--samples", type=int, default=None,
                   help="sample count for the flat-forms suite")
    p.add_argument("--check-golden", action="store_true",
                   help="compare the fresh report against the shipped golden")
    p.add_argument("--no-write", action="store_true",
                   help="skip writing the report file")
    return p


def _exit_code(report: Report) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(report.verdict,
                                                      EXIT_CAPPED)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_tasks:
        for tid in sorted(TASKS):
            print(tid)
        return EXIT_PASS
    if not args.task:
        print("error: --task is required (or --list-tasks)", file=sys.stderr)
        return EXIT_CAPPED

    params = {}
    if args.cap is not None:
        params["cap"] = args.cap
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.beta is not None:
        params["beta"] = args.beta
    if args.max_degree is not None:
        params["max_degree"] = args.max_degree
    if args.samples is not None:
        params["samples"] = args.samples

    try:
        report = run_task(args.task, **params)
    except (UnknownTask, UnknownParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except Capped as exc:
        print(f"capped: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except GradedError as exc:
        print(f"fail: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL

    if not args.no_write:
        write_report(report, args.out)

    if args.check_golden:
        golden = load_golden(report.task_id)
        if golden is None:
            print(f"error: no golden report for {report.task_id}",
                  file=sys.stderr)
            return EXIT_CAPPED
        comparison = compare_golden(report, golden)
        if args.json_out:
            print(json.dumps({"report": report_to_json(report),
                              "golden": comparison.to_json()},
                             indent=2, sort_keys=True))
        else:
            print(f"{report.task_id}: {report.verdict} - {report.details}")
            print(f"golden: {comparison.verdict} - {comparison.details}")
        return _exit_code(comparison if report.verdict == "pass" else report)

    if args.json_out:
        print(json.dumps(report_to_json(report), indent=2, sort_keys=True))
    else:
        print(f"{report.task_id}: {report.verdict} - {report.details}")
        if report.pinned:
            print(f"pinned: {report.pinned}")
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
