"""Task registry, report persistence, and the golden-report regression gate.

Each named verification is addressable by a stable task id.  Reports are
flat JSON files; a golden report pins the exactly-reproducible scalars of
one task (the measured constant, cohomology dimensions, basis counts) and
regression means bit-exact equality of those scalars under an identical
convention-ledger hash.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import __version__, catalog
from .clifford import build_clifford, check_clifford, quartic_fierz_check
from .conventions import LEDGER_HASH, MEASURED_C
from .dgca import ChainMapViolation, Report, apply_d, check_d_squared
from .graded import Element, GradedError
from .linalg import DEFAULT_CAP, cohomology_dims, count_monomials
from .rational_homotopy import (
    flat_form_check,
    forms_fiber_check,
    hopf_sequence_check,
    poincare_lemma_check,
    poly_de_rham,
    sphere_model,
)


class UnknownTask(GradedError):
    pass


class UnknownParameter(GradedError):
    pass


class LedgerMismatch(GradedError):
    pass


# -- individual tasks ---------------------------------------------------------


def _task_d2(task_id: str, algebra_fn):
    def run() -> Report:
        rep = check_d_squared(algebra_fn(), task_id=task_id)
        return rep

    return run


def _task_mu_closure(d: int, p: int, task_id: str):
    def run() -> Report:
        mu = catalog._mu(d, p)
        res = apply_d(catalog._mink(d), mu)
        fast = quartic_fierz_check(catalog._rep(d), "mu4-closure", p)
        ok = not res and fast.ok
        return Report(
            task_id,
            "pass" if ok else "fail",
            details=(f"d mu{p + 2} = 0 in d={d}; tensor path agrees" if ok
                     else f"closure residual has {len(res)} terms"),
            residual=res if res else None,
            stats={"mu_terms": len(mu)},
            pinned={"mu_terms": len(mu)},
        )

    return run


def _task_clifford() -> Report:
    r3 = check_clifford(build_clifford(3))
    r11 = check_clifford(build_clifford(11))
    ok = r3.ok and r11.ok
    return Report(
        "clifford.check",
        "pass" if ok else "fail",
        details="d=3 and d=11 representations validated" if ok else
        f"d=3: {r3.details}; d=11: {r11.details}",
        pinned={"d3": r3.pinned, "d11": r11.pinned},
    )


def _task_s4_cohomology(max_degree=12, cap=DEFAULT_CAP) -> Report:
    dims = cohomology_dims(sphere_model(4), max_degree, cap)
    expected = [1 if k in (0, 4) else 0 for k in range(max_degree + 1)]
    ok = dims == expected
    return Report(
        "s4.cohomology",
        "pass" if ok else "fail",
        details=f"H-dims up to {max_degree}: {dims}",
        pinned={"dims": dims},
    )


def _task_scan(d: int, n: int, p: int, expect_entry: bool):
    def run(cap=DEFAULT_CAP) -> Report:
        nontrivial = catalog.verify_brane_scan_entry(d, n, p, cap=cap)
        closed = nontrivial is not None
        ok = (nontrivial == "yes") == expect_entry and nontrivial != "capped"
        basis = count_monomials(catalog._mink(d), p + 1)
        return Report(
            f"scan.{d}.{n}.{p}",
            "pass" if ok else ("capped" if nontrivial == "capped"
                               else "fail"),
            details=f"({d},{n},{p}): closed={closed} nontrivial={nontrivial}",
            pinned={"closed": closed, "nontrivial": nontrivial,
                    "solve_basis": basis},
        )

    return run


def _task_iso_traces() -> Report:
    tr3, rep3 = catalog.lorentz_trace(3)
    return Report(
        "iso.traces",
        "pass" if rep3.ok else "fail",
        details=("tr w^2 = tr w^4 = 0 and tr w^3 is a nonzero cocycle"
                 if rep3.ok else "trace identities failed"),
        pinned={"trace3_terms": len(tr3)},
    )


def _task_family(alpha=Fraction(0), beta=Fraction(0)) -> Report:
    return catalog.family_seven_cocycle(alpha, beta)[1]


def _task_flatforms(samples=50) -> Report:
    pdr = poly_de_rham(8)
    sig = pdr.sig
    s4 = sphere_model(4)

    w4 = Element.from_terms(
        sig, [(1, [("dx^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])
    flat_form_check(s4, pdr, {"g4": w4, "g7": Element.zero(sig)})
    w4b = w4 + Element.from_terms(
        sig, [(1, [("dx^5", 1), ("dx^6", 1), ("dx^7", 1), ("dx^8", 1)])])
    w7 = Element.from_terms(
        sig, [(2, [("x^1", 1)] + [(f"dx^{i}", 1) for i in range(2, 9)])])
    flat_form_check(s4, pdr, {"g4": w4b, "g7": w7})
    rejected = False
    try:
        flat_form_check(s4, pdr, {"g4": w4b, "g7": Element.zero(sig)})
    except ChainMapViolation:
        rejected = True
    fiber = forms_fiber_check(pdr, n_samples=samples)

    closed = [
        apply_d(pdr, Element.from_terms(
            sig, [(1, [("x^1", 1), ("dx^2", 1), ("dx^3", 1), ("dx^4", 1)])])),
        Element.from_terms(sig, [(3, [("dx^1", 1), ("dx^2", 1)])]),
        w4b * w4b,
    ]
    lemma = poincare_lemma_check(pdr, closed)

    ok = rejected and fiber.ok and lemma.ok
    return Report(
        "flatforms.suite",
        "pass" if ok else "fail",
        details=("two flat assignments accepted, the non-flat one rejected; "
                 "fiber sequence and radial homotopy verified" if ok else
                 f"rejected={rejected} fiber={fiber.verdict} lemma={lemma.verdict}"),
        stats={"fiber_samples": fiber.stats.get("samples")},
        pinned={"fiber_samples": fiber.pinned.get("samples")},
    )


def _task_derham_d2() -> Report:
    n_max = 8
    for n in range(1, n_max + 1):
        rep = check_d_squared(poly_de_rham(n), task_id="derham.d2")
        if not rep.ok:
            return rep
    return Report("derham.d2", "pass",
                  details=f"d**2 = 0 on polynomial forms up to R^{n_max}",
                  pinned={"dims": n_max})


def _task_m5_relation() -> Report:
    rep = catalog.verify_m5_relation()
    if rep.ok and Fraction(rep.pinned["c"]) != MEASURED_C:
        return Report("m5.relation", "fail",
                      details=f"measured c = {rep.pinned['c']} does not match "
                              f"the pinned convention value {MEASURED_C}")
    return rep


TASKS = {
    "mink3.d2": _task_d2("mink3.d2", lambda: catalog._mink(3)),
    "mink11.d2": _task_d2("mink11.d2", lambda: catalog._mink(11)),
    "m2brane.d2": _task_d2("m2brane.d2", lambda: catalog.m2brane()),
    "resolved.d2": _task_d2("resolved.d2",
                            lambda: catalog.resolved_minkowski()[0]),
    "iso.d2": _task_d2("iso.d2", lambda: catalog.super_poincare()),
    "resolvedpoincare.d2": _task_d2(
        "resolvedpoincare.d2", lambda: catalog.resolved_poincare()),
    "s4.d2": _task_d2("s4.d2", lambda: sphere_model(4)),
    "derham.d2": _task_derham_d2,
    "clifford.check": _task_clifford,
    "mu3.closure": _task_mu_closure(3, 1, "mu3.closure"),
    "mu4.closure": _task_mu_closure(11, 2, "mu4.closure"),
    "m5.relation": _task_m5_relation,
    "m5.cocycle": lambda: catalog.m5_cocycle()[1],
    "resolution.homotopy": lambda: catalog.resolution_homotopy_report(),
    "lift.equivariant": lambda: catalog.equivariant_lift()[1],
    "hopf.pushout": lambda: hopf_sequence_check(),
    "s4.cohomology": _task_s4_cohomology,
    "scan.3.2.1": _task_scan(3, 2, 1, expect_entry=True),
    "scan.3.2.2": _task_scan(3, 2, 2, expect_entry=False),
    "scan.11.32.2": _task_scan(11, 32, 2, expect_entry=True),
    "iso.traces": _task_iso_traces,
    "iso.trace7": lambda: catalog.lorentz_trace(7)[1],
    "family": _task_family,
    "flatforms.suite": _task_flatforms,
}


def run_task(task_id: str, **params) -> Report:
    """Execute one named verification with its parameters and return its
    report.  A parameter the task does not read raises `UnknownParameter`
    before the task runs.

    `duration_s` is stamped here, once, as the wall time of the whole task,
    on a copy: tasks may hand back a report cached by `lru_cache`, which
    must not change.
    """
    fn = TASKS.get(task_id)
    if fn is None:
        raise UnknownTask(f"unknown task {task_id!r}; known: "
                          + ", ".join(sorted(TASKS)))
    reads = inspect.signature(fn).parameters
    unread = sorted(set(params) - set(reads))
    if unread:
        raise UnknownParameter(
            f"task {task_id!r} does not read {', '.join(map(repr, unread))}; "
            f"it reads {', '.join(map(repr, reads)) or 'no parameter'}")
    t0 = time.monotonic()
    report = fn(**params)
    return replace(report, duration_s=time.monotonic() - t0)


# -- persistence and goldens ---------------------------------------------------


REPORT_SCHEMA_VERSION = 1


def report_to_json(report: Report) -> dict:
    out = report.to_json()
    out["schema_version"] = REPORT_SCHEMA_VERSION
    out["ledger_hash"] = LEDGER_HASH
    out["engine_version"] = __version__
    out["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return out


def write_report(report: Report, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = out_dir / f"{report.task_id.replace('/', '_')}-{stamp}.json"
    path.write_text(json.dumps(report_to_json(report), indent=2, sort_keys=True))
    return path


@dataclass
class GoldenReport:
    task_id: str
    verdict: str
    pinned: dict
    ledger_hash: str = LEDGER_HASH

    @staticmethod
    def from_json(data: dict) -> "GoldenReport":
        return GoldenReport(data["task_id"], data["verdict"], data["pinned"],
                            data["ledger_hash"])


GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(task_id: str) -> GoldenReport | None:
    path = GOLDEN_DIR / f"{task_id}.json"
    if not path.exists():
        return None
    return GoldenReport.from_json(json.loads(path.read_text()))


def compare_golden(report: Report, golden: GoldenReport) -> Report:
    """Regression gate: verdict and every pinned scalar must match bit-exactly."""
    if report.task_id != golden.task_id:
        raise UnknownTask(
            f"task ids differ: {report.task_id} vs {golden.task_id}")
    if golden.ledger_hash != LEDGER_HASH:
        raise LedgerMismatch("golden report was pinned under different "
                             "conventions; refusing to compare")
    diffs = []
    if report.verdict != golden.verdict:
        diffs.append(f"verdict: {report.verdict} != {golden.verdict}")
    for key, want in golden.pinned.items():
        got = report.pinned.get(key)
        if got != want:
            diffs.append(f"{key}: {got!r} != {want!r}")
    for key, got in report.pinned.items():
        if key not in golden.pinned:
            diffs.append(f"{key}: {got!r} is not in the golden")
    return Report(
        f"golden.{report.task_id}",
        "pass" if not diffs else "fail",
        details="all pinned scalars match the golden report" if not diffs
        else "; ".join(diffs),
        stats={"compared": len(golden.pinned.keys() | report.pinned.keys())},
    )
