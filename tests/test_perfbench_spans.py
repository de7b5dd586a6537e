"""The benchmark's span table names only entry points that exist.

`perfbench/spans.py` wraps each `(module, attribute)` of `SPANS` and
`TENSOR_HELPERS` by name; a deleted or renamed one makes a traced
benchmark run raise AttributeError.  The table is loaded read-only here
and nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_in_cealg():
    spans = _load_spans()
    targets = [(mod, attr) for mod, attr, _, _ in spans.SPANS]
    targets += list(spans.TENSOR_HELPERS)
    missing = []
    for mod_name, attr in targets:
        owner = importlib.import_module("cealg." + mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            ok = meth in vars(getattr(owner, cls_name, object))
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing
    assert len(targets) > 50
