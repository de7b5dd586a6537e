"""Task runner, report persistence, golden comparisons, exit codes."""

import functools
import hashlib
import inspect
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from cealg import reporting
from cealg.cli import main
from cealg.dgca import Report
from cealg.reporting import (
    GOLDEN_DIR,
    GoldenReport,
    LedgerMismatch,
    TASKS,
    UnknownParameter,
    UnknownTask,
    compare_golden,
    load_golden,
    run_task,
    write_report,
)
from cealg import conventions
from fresh import fresh_run, package_env


def test_unknown_task():
    with pytest.raises(UnknownTask):
        run_task("not.a.task")


def test_run_task_refuses_a_parameter_the_task_does_not_read(monkeypatch):
    """A parameter the task never reads is an error naming it, raised
    before the task runs, not silently dropped."""
    ran = []
    monkeypatch.setitem(TASKS, "derham.d2", lambda: ran.append(1))
    with pytest.raises(UnknownParameter, match="'max_dim'"):
        run_task("derham.d2", max_dim=4)
    with pytest.raises(UnknownParameter, match="'samples'.*'max_degree'"):
        run_task("s4.cohomology", max_degree=4, samples=3)
    assert ran == []


def test_every_task_parameter_has_a_default():
    """`run_task` reads a task's parameters off its signature, so each one
    must be a keyword with a default: a task runs with none given."""
    for fn in TASKS.values():
        for param in inspect.signature(fn).parameters.values():
            assert param.kind is param.POSITIONAL_OR_KEYWORD
            assert param.default is not param.empty


@pytest.mark.parametrize("args, name", [
    (["--task", "derham.d2", "--samples", "5"], "samples"),
    (["--task", "hopf.pushout", "--cap", "3"], "cap"),
    (["--task", "family", "--max-degree", "4"], "max_degree"),
    (["--task", "flatforms.suite", "--alpha", "1"], "alpha"),
])
def test_cli_exits_2_on_an_option_the_task_does_not_read(args, name,
                                                         capsys):
    assert main(args + ["--no-write"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: task {args[1]!r} does not read "
                                   f"{name!r}")


def spy_task(monkeypatch, task_id) -> list:
    """Record the parameters of each run of a task, which keeps its
    signature (`functools.wraps`), so its defaults read the same."""
    runs = []
    real = TASKS[task_id]

    @functools.wraps(real)
    def spy(**params):
        runs.append(params)
        return real(**params)

    monkeypatch.setitem(TASKS, task_id, spy)
    return runs


def test_check_golden_refuses_parameters_away_from_the_defaults(
        monkeypatch, capsys):
    """A golden pins its task at the default parameters: --check-golden
    with any other value exits 2, naming each such parameter, before the
    task runs.  A parameter given at its default still compares."""
    runs = spy_task(monkeypatch, "family")
    assert main(["--task", "family", "--alpha", "1", "--beta", "1",
                 "--check-golden", "--no-write"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the golden of 'family' pins the "
                            "default of 'alpha', 'beta'\n")
    assert runs == []

    runs = spy_task(monkeypatch, "s4.cohomology")
    assert main(["--task", "s4.cohomology", "--max-degree", "11",
                 "--check-golden", "--no-write"]) == 2
    assert capsys.readouterr().err.endswith("the default of 'max_degree'\n")
    assert runs == []
    assert main(["--task", "s4.cohomology", "--max-degree", "12",
                 "--check-golden", "--no-write"]) == 0
    assert "golden: pass" in capsys.readouterr().out
    assert runs == [{"max_degree": 12}]


def test_cli_types_each_option_by_its_default(monkeypatch, capsys):
    """Options are read off the task signatures: --alpha parses as a
    Fraction, as its default is one, and a zero denominator is a usage
    error (exit 2), not a traceback."""
    runs = spy_task(monkeypatch, "family")
    monkeypatch.setattr(reporting.catalog, "family_seven_cocycle",
                        lambda alpha, beta: (None, Report("family", "pass")))
    assert main(["--task", "family", "--alpha", "1/2", "--no-write"]) == 0
    assert runs == [{"alpha": Fraction(1, 2)}]
    with pytest.raises(SystemExit) as exc:
        main(["--task", "family", "--beta", "1/0", "--no-write"])
    assert exc.value.code == 2
    assert "zero denominator" in capsys.readouterr().err


def test_closure_tasks_give_the_tensor_path_their_own_rank(monkeypatch):
    """A closure task checks mu_{p+2} on the tensor path at its own p:
    mu3.closure at p = 1, mu4.closure at p = 2, and a (d, p) = (3, 2)
    task at 2."""
    ranks = []
    real = reporting.quartic_fierz_check

    def spy(rep, family, p=None):
        ranks.append((rep.d, p))
        return real(rep, family, p)

    monkeypatch.setattr(reporting, "quartic_fierz_check", spy)
    assert run_task("mu3.closure").ok and run_task("mu4.closure").ok
    assert reporting._task_mu_closure(3, 2, "mu4.closure.d3")().ok
    assert ranks == [(3, 1), (11, 2), (3, 2)]


def test_run_cheap_tasks():
    assert run_task("hopf.pushout").ok
    assert run_task("s4.d2").ok
    assert run_task("mink3.d2").ok
    assert run_task("mu3.closure").ok
    assert run_task("derham.d2").pinned == {"dims": 8}
    assert run_task("s4.cohomology", max_degree=12).pinned["dims"] == \
        [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_write_report_and_json_shape(tmp_path):
    rep = run_task("hopf.pushout")
    path = write_report(rep, tmp_path)
    data = json.loads(path.read_text())
    assert data["task_id"] == "hopf.pushout"
    assert data["verdict"] == "pass"
    assert "ledger_hash" in data and "engine_version" in data


GOLDEN_TASKS = sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))


def test_every_registered_task_has_a_golden():
    """A task cannot be registered without a golden, nor a golden shipped
    for a task that is not registered."""
    assert set(TASKS) == set(GOLDEN_TASKS)


@pytest.mark.parametrize("task_id", GOLDEN_TASKS)
def test_task_matches_its_golden_report(task_id):
    """Every shipped golden report is reproduced bit-exactly: verdict and
    every pinned scalar of the task run with default parameters."""
    cmp = compare_golden(run_task(task_id), load_golden(task_id))
    assert cmp.ok, cmp.details


def test_compare_golden_pass_fail_and_mismatch():
    rep = run_task("s4.cohomology")
    golden = load_golden("s4.cohomology")
    assert golden is not None
    assert compare_golden(rep, golden).ok

    tweaked = GoldenReport(rep.task_id, rep.verdict,
                           {"dims": [0] * 13}, golden.ledger_hash)
    cmp = compare_golden(rep, tweaked)
    assert not cmp.ok and "dims" in cmp.details

    # a pinned scalar the golden does not carry is a diff too
    short = GoldenReport(rep.task_id, rep.verdict, {}, golden.ledger_hash)
    cmp = compare_golden(rep, short)
    assert not cmp.ok and "dims" in cmp.details

    alien = GoldenReport(rep.task_id, rep.verdict, dict(golden.pinned),
                         ledger_hash="f" * 64)
    with pytest.raises(LedgerMismatch):
        compare_golden(rep, alien)

    with pytest.raises(UnknownTask):
        compare_golden(Report("other.task", "pass"), golden)


def test_cli_main_inprocess(tmp_path, capsys):
    assert main(["--task", "hopf.pushout", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "hopf.pushout: pass" in out

    # --cap bounds the 165-monomial domain of scan.11.32.2's solve
    assert main(["--task", "scan.11.32.2", "--cap", "165",
                 "--no-write"]) == 0
    # exit 2: a verdict capped by --cap, an unknown task, an unknown option
    assert main(["--task", "scan.11.32.2", "--cap", "164",
                 "--no-write"]) == 2
    assert main(["--task", "definitely.not.a.task", "--no-write"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["--task", "iso.trace7", "--long", "--no-write"])
    assert exc.value.code == 2
    assert main(["--list-tasks"]) == 0
    listing = capsys.readouterr().out
    assert "m5.relation" in listing

    code = main(["--task", "s4.cohomology", "--json", "--no-write"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pinned"]["dims"][4] == 1

    assert main(["--task", "s4.cohomology", "--check-golden",
                 "--out", str(tmp_path)]) == 0
    # --cap reaches s4.cohomology's bases, and every one of them (g4^a
    # g7^b, b <= 1) has at most one monomial, so cap 1 bounds nothing
    assert main(["--task", "s4.cohomology", "--cap", "1", "--no-write"]) == 0


@pytest.mark.parametrize("args, message", [
    (["--task", "scan.11.32.2", "--cap", "0"], "cap must be positive"),
    (["--task", "flatforms.suite", "--samples", "-5"],
     "the fiber check needs at least one sample"),
    (["--task", "flatforms.suite", "--samples", "0"],
     "the fiber check needs at least one sample"),
    (["--task", "s4.cohomology", "--max-degree", "-3"],
     "max_degree must be nonnegative"),
    (["--task", "s4.cohomology", "--cap", "0"], "cap must be positive"),
])
def test_cli_rejects_a_vacuous_parameter(args, message, capsys):
    """A parameter that would leave nothing to check fails with GradedError
    (exit 1) instead of passing on an empty sample or degree range."""
    assert main(args + ["--no-write"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fail: GradedError: {message}\n"


def test_cli_subprocess_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cealg.cli", "--task", "hopf.pushout",
         "--out", str(tmp_path), "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["verdict"] == "pass"


def test_cli_m5_cocycle_matches_its_golden_in_a_fresh_interpreter():
    """`cealg --task m5.cocycle --check-golden --no-write` runs the
    relation, then closes the cocycle from its cached parts, and matches
    the golden (c = 15/1, 8,752 terms) with nothing cached beforehand."""
    proc = subprocess.run(
        [sys.executable, "-m", "cealg.cli", "--task", "m5.cocycle",
         "--check-golden", "--no-write"],
        env=package_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "m5.cocycle: pass" in proc.stdout


def test_reports_are_deterministic():
    a = run_task("s4.cohomology")
    b = run_task("s4.cohomology")
    assert a.pinned == b.pinned
    c1 = run_task("mu3.closure").pinned
    c2 = run_task("mu3.closure").pinned
    assert c1 == c2


def test_ledger_hash_is_the_digest_of_the_conventions():
    """LEDGER_HASH is a literal, so that the package need not import
    `hashlib`; it must stay the sha256 of the ledger text."""
    assert conventions.LEDGER_HASH == hashlib.sha256(
        conventions.CONVENTIONS.encode()).hexdigest()


def test_package_import_leaves_openssl_unloaded():
    """Importing the package and its task registry does not load
    `_hashlib`, OpenSSL's libcrypto (about 3.6 MiB of RSS per process)."""
    assert fresh_run(
        "import sys, cealg, cealg.reporting; print('_hashlib' in sys.modules)"
    ).split() == ["False"]
