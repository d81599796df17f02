"""Every hook of the benchmark tracer still names a function of asmpp.

``perfbench/tracer.py`` patches the names in its ``HOOKS`` list with
``getattr`` when tracing is on, and swaps ``asmpp.verify.ProcessPoolExecutor``
for a counting pool, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1`` without failing any other test.  These tests
only read the hook list; they install nothing.  ``perfbench/test_harness.py``
also reads some imported copies of functions, which must stay the objects
of their home modules.
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


@pytest.mark.parametrize("binding, home", [
    ("lgv.determinant", "algebra.matrix.determinant"),
    ("schur.determinant", "algebra.matrix.determinant"),
    ("verify.verify_dyck_values", "schur.verify_dyck_values"),
    ("cli.main", "cli.main"),
    ("cli.enumerate_asms", "asm.enumerate_asms"),
    ("cli.integral_A", "contour.integral_A"),
    ("cli.lgv_genfun", "lgv.lgv_genfun"),
])
def test_harness_binding_is_its_home_object(binding, home):
    def resolve(path):
        module, attr = path.rsplit(".", 1)
        return getattr(importlib.import_module(f"asmpp.{module}"), attr)

    target = resolve(binding)
    assert callable(target) and target is resolve(home)
