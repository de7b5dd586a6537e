"""Scripts run in a fresh interpreter, with this package first on
PYTHONPATH: no cached construction hides a call, and traced memory figures
repeat exactly."""

import os
import subprocess
import sys
from pathlib import Path

import cealg


def package_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(cealg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def fresh_run(script: str, *flags: str) -> str:
    """Run `script` as `python *flags -c script` in a fresh interpreter,
    require it to exit 0, and return what it printed."""
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          env=package_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


KERNEL_MEMORY_SCRIPT = """
import tracemalloc

from cealg import batched
{setup}
calls = []
real = batched._sum_of_products
batched._sum_of_products = lambda *a: calls.append(1) or real(*a)
tracemalloc.start()
out = {call}
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print({facts}, len(calls), peak)
"""


def kernel_memory(setup: str, call: str, facts: str) -> list:
    """Run the code `setup`, then the expression `call` under tracemalloc
    (numpy reports its buffers), in a fresh interpreter (`fresh_run`).
    Return the integers `facts` (expressions over the names `setup` binds
    and `out`, the value of `call`), then the number of kernel core calls
    `call` made and its traced peak in bytes."""
    return list(map(int, fresh_run(KERNEL_MEMORY_SCRIPT.format(
        setup=setup, call=call, facts=facts)).split()))
