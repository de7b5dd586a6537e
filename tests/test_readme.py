"""README.md names only what the package has: every backticked dotted name
headed by a `cealg` module or class resolves, and every other backticked
dotted name is a registered task id."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import cealg
from cealg.reporting import TASKS

README = Path(__file__).resolve().parent.parent / "README.md"
#: Heads of dotted names that belong to other packages, as the code
#: imports them (`np.take`).
FOREIGN = {"np"}


def _roots() -> dict:
    """`cealg`, its modules by their short names, and every class defined
    in one of them, by name."""
    modules = {m.name: importlib.import_module(f"cealg.{m.name}")
               for m in pkgutil.iter_modules(cealg.__path__)}
    classes = {name: obj for mod in modules.values()
               for name, obj in vars(mod).items()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__}
    return {"cealg": cealg, **modules, **classes}


def readme_drift(text: str) -> tuple[list, int, int]:
    """(the stale names, the dotted names resolved, the task ids checked)
    of the backticked spans in `text`; a span is read by its first word."""
    roots = _roots()
    stale, names, tasks = [], 0, 0
    for span in re.findall(r"`([^`]+)`", text):
        word = span.split()[0]
        if not re.fullmatch(r"[A-Za-z_]\w*(\.\w+)+", word):
            continue
        head, *rest = word.split(".")
        if head in roots:
            names += 1
            obj = roots[head]
            for part in rest:
                obj = getattr(obj, part, None)
            if obj is None:
                stale.append(word)
        elif head not in FOREIGN:
            tasks += 1
            if word not in TASKS:
                stale.append(word)
    return stale, names, tasks


def test_readme_names_resolve_and_tasks_are_registered():
    stale, names, tasks = readme_drift(README.read_text())
    assert stale == []
    # the check reads the kernel paragraph, the layout table and the
    # command-line section, not an empty match
    assert names >= 20 and tasks >= 5


def test_readme_drift_check_catches_stale_names():
    text = ("`catalog._m5_parts`, `batched._Context.repack`, "
            "`Element.nope`, `m5.cocyle --cap 3` and `cealg.nothing`, "
            "but not `catalog._close_m5`, `Element.from_packed`, "
            "`scan.11.32.2 --cap 165`, `np.take` or `0.0`")
    stale, names, tasks = readme_drift(text)
    assert stale == ["catalog._m5_parts", "batched._Context.repack",
                     "Element.nope", "m5.cocyle", "cealg.nothing"]
    assert (names, tasks) == (6, 2)
