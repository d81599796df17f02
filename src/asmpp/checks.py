"""The check record every verify suite reports.

A check is a plain dict with the keys ``check`` (its name), ``n``,
``expected`` and ``got`` (both as strings) and ``pass``, plus whatever
extras a suite attaches (``point``, ``index``, ``profile``, ...).  A check
over many objects passes when no object is broken; when one is, it carries
the first broken object as ``witness``.
"""

from __future__ import annotations


def check(name, n, expected, got, passed=None, **extra):
    """One check record; it passes when expected == got unless the caller
    gives the verdict (for values whose string form is only a summary)."""
    entry = {
        "check": name,
        "n": n,
        "expected": str(expected),
        "got": str(got),
        "pass": expected == got if passed is None else passed,
    }
    entry.update(extra)
    return entry


def witness_check(name, n, holds, fails, objects, broken, show):
    """A check over many objects: `holds` against `holds` when no object is
    broken, otherwise `fails` with show(first broken object) as witness.
    The objects are consumed only up to the first broken one."""
    for obj in objects:
        if broken(obj):
            return check(name, n, holds, fails, witness=show(obj))
    return check(name, n, holds, holds)
