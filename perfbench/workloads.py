"""The benchmark's workloads: fixed op lists and the known answer of each op.

An op is one public call into `cealg` that returns a `Report`.  Its known
answer is either the golden report `cealg` ships for the task (compared
with `compare_golden`: verdict and every pinned scalar, bit-exact) or a
hand-written expectation: verdict `pass` plus the pinned scalars listed.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

GOLDEN = None

#: Samples drawn by the seeded flat-forms fiber sampler in `poincare-forms`.
FIBER_SAMPLES = 2000


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    expect: dict | None  # GOLDEN, or the pinned scalars a pass must carry


def _task(task_id: str, expect: dict | None = GOLDEN) -> Op:
    def call():
        from cealg import reporting
        return reporting.run_task(task_id)

    return Op(task_id, call, expect)


def _fiber(seed: int) -> Op:
    def call():
        from cealg import rational_homotopy as rh
        return rh.forms_fiber_check(rh.poly_de_rham(8),
                                    n_samples=FIBER_SAMPLES, seed=seed)

    return Op("forms_fiber_check", call, {"samples": FIBER_SAMPLES})


def fivebrane(seed: int) -> list[Op]:
    return [_task("m5.relation"), _task("m5.cocycle")]


def brane_scan(seed: int) -> list[Op]:
    return [_task("scan.11.32.2"), _task("scan.3.2.1"), _task("scan.3.2.2"),
            _task("s4.cohomology")]


def poincare_forms(seed: int) -> list[Op]:
    return [
        _task("iso.d2", {"generators": 98}),
        _task("resolvedpoincare.d2", {"generators": 100}),
        _task("iso.traces"),
        _task("resolution.homotopy", {}),
        _task("hopf.pushout"),
        _task("derham.d2"),
        _task("mink3.d2"),
        _task("mu3.closure"),
        _task("clifford.check"),
        _task("flatforms.suite"),
        _fiber(seed),
    ]


#: Workload name -> function making its op list, in the order `run.py`
#: runs them; only `poincare-forms` uses the seed.
WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "brane-scan": brane_scan,
    "poincare-forms": poincare_forms,
    "fivebrane": fivebrane,
}


def mismatch(op: Op, report) -> str | None:
    """None when the report is the known answer, else what differs."""
    from cealg import reporting

    if op.expect is GOLDEN:
        golden = reporting.load_golden(op.name)
        if golden is None:
            return f"no golden report for {op.name}"
        verdict = reporting.compare_golden(report, golden)
        return None if verdict.ok else verdict.details
    diffs = []
    if report.verdict != "pass":
        diffs.append(f"verdict: {report.verdict} != pass ({report.details})")
    for key, want in op.expect.items():
        got = report.pinned.get(key)
        if got != want:
            diffs.append(f"{key}: {got!r} != {want!r}")
    return "; ".join(diffs) or None
