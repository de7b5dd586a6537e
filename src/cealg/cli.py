"""Command-line task runner.

    cealg --task m5.relation
    cealg --task family --alpha 1 --beta 1
    cealg --task s4.cohomology --max-degree 12 --json
    cealg --list-tasks

Exit codes: 0 = pass, 1 = fail, 2 = capped by --cap, unsupported, an
unknown task, an option the task does not read, a malformed option value,
or --check-golden with a parameter away from the task's default.
"""

from __future__ import annotations

import argparse
import inspect
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

#: Each task parameter's default, read off the signatures of `TASKS`: one
#: `--<name>` option each, typed by the type of its default.
DEFAULTS = {name: param.default for fn in TASKS.values()
            for name, param in inspect.signature(fn).parameters.items()}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cealg",
        description="exact verification tasks for the algebra catalog")
    p.add_argument("--task", help="task id to run (see --list-tasks)")
    p.add_argument("--list-tasks", action="store_true",
                   help="print the known task ids and exit")
    p.add_argument("--out", default="reports",
                   help="directory for timestamped JSON reports")
    p.add_argument("--json", action="store_true", dest="json_out",
                   help="print the machine-readable report to stdout")
    for name, default in DEFAULTS.items():
        kind = type(default)
        p.add_argument("--" + name.replace("_", "-"), type=kind,
                       metavar=kind.__name__.upper(),
                       help=f"task parameter {name} (default {default})")
    p.add_argument("--check-golden", action="store_true",
                   help="compare the fresh report against the shipped golden")
    p.add_argument("--no-write", action="store_true",
                   help="skip writing the report file")
    return p


def _exit_code(report: Report) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(report.verdict,
                                                      EXIT_CAPPED)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ZeroDivisionError as exc:  # Fraction("1/0"), not a ValueError
        parser.error(f"zero denominator: {exc}")
    if args.list_tasks:
        for tid in sorted(TASKS):
            print(tid)
        return EXIT_PASS
    if not args.task:
        print("error: --task is required (or --list-tasks)", file=sys.stderr)
        return EXIT_CAPPED

    params = {name: getattr(args, name) for name in DEFAULTS
              if getattr(args, name) is not None}
    if args.check_golden and args.task in TASKS:
        reads = inspect.signature(TASKS[args.task]).parameters
        moved = [name for name, value in params.items()
                 if name in reads and value != reads[name].default]
        if moved:
            print(f"error: the golden of {args.task!r} pins the default of "
                  f"{', '.join(map(repr, moved))}", file=sys.stderr)
            return EXIT_CAPPED

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
