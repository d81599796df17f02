"""Every hook of the benchmark tracer still names a function of asmpp.

``perfbench/tracer.py`` patches the names in its ``HOOKS`` list with
``getattr`` when tracing is on, and swaps ``asmpp.verify.ProcessPoolExecutor``
for a counting pool, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1`` without failing any other test.  These tests
only read the hook list; they install nothing.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
HOOKS = runpy.run_path(str(TRACER))["HOOKS"]


@pytest.mark.parametrize("hook", HOOKS, ids=lambda h: f"{h.module}:{h.attr}")
def test_tracer_hook_resolves(hook):
    target = importlib.import_module(f"asmpp.{hook.module}")
    for part in hook.attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_tracer_pool_binding_resolves():
    verify = importlib.import_module("asmpp.verify")
    assert isinstance(verify.ProcessPoolExecutor, type)
