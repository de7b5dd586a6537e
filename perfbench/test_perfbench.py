"""Tests of the benchmark itself: the known-answer gate, the tracing
wrappers, count determinism and the refusal to run without the program.

    python3 -m pytest perfbench -q      # about 40 s
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from cealg.dgca import Report  # noqa: E402
from workloads import GOLDEN, Op, mismatch  # noqa: E402
from worker import run_ops  # noqa: E402

COUNTS = [name for name, unit in run.PER_LAYER.items()
          if unit in ("count", "MiB", "ratio")]


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced(workload: str, seed: int = 7) -> dict:
    out = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    return {k: m["value"] for k, m in out["metrics"].items()}


def test_gate_accepts_known_answers():
    iso = Report("iso.d2", "pass", pinned={"generators": 98})
    assert mismatch(Op("iso.d2", None, {"generators": 98}), iso) is None
    assert mismatch(Op("s4.cohomology", None, GOLDEN),
                    Report("s4.cohomology", "pass",
                           pinned={"dims": [1, 0, 0, 0, 1] + [0] * 8})) is None


def test_gate_negative_control():
    """A wrong expected value, verdict or golden scalar is a failure."""
    assert mismatch(Op("iso.d2", None, {"generators": 97}),
                    Report("iso.d2", "pass", pinned={"generators": 98}))
    assert mismatch(Op("iso.d2", None, {}), Report("iso.d2", "fail"))
    assert mismatch(Op("s4.cohomology", None, GOLDEN),
                    Report("s4.cohomology", "pass",
                           pinned={"dims": [1, 0, 0, 0, 0] + [0] * 8}))
    assert mismatch(Op("no.such.task", None, GOLDEN),
                    Report("no.such.task", "pass"))


def test_failed_ops_are_counted_and_the_run_goes_on():
    def boom():
        raise ValueError("op raised")

    ops = [Op("mink3.d2", workloads._task("mink3.d2").call, GOLDEN),
           Op("mink3.d2", workloads._task("mink3.d2").call,
              {"generators": 6}),
           Op("boom", boom, {}),
           Op("hopf.pushout", workloads._task("hopf.pushout").call, GOLDEN)]
    out = run_ops(ops)
    assert out["attempted"] == 4
    assert out["failed"] == 2
    assert "generators: 5 != 6" in out["failures"][0]
    assert "ValueError: op raised" in out["failures"][1]


def test_traced_brane_scan_sees_every_binding_and_repeats_counts():
    first = _traced("brane-scan")
    # differential_matrix reaches apply_d through linalg's own binding
    assert first["dgca.apply_d.calls"] >= 13717
    assert first["linalg.matrix.nnz"] > 0
    assert first["linalg.eliminate.rows"] > 0
    second = _traced("brane-scan")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_traced_poincare_forms_repeats_counts_and_adds_up():
    first = _traced("poincare-forms")
    assert first["rational_homotopy.samples"] == workloads.FIBER_SAMPLES + 50
    assert first["dgca.morphism.calls"] > 0
    assert first["graded.mul.term_pairs"] > 0
    self_total = sum(v for k, v in first.items() if k.endswith(".self_s"))
    assert math.isclose(self_total + first["trace.unspanned_s"],
                        first["trace.wall_s"], rel_tol=1e-9)
    second = _traced("poincare-forms")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "brane-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
