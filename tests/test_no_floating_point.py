"""No floating point anywhere in the library.

Every module under src/asmpp is parsed and refused if it has a float or
complex literal, uses the name ``float`` or ``complex``, imports ``cmath``,
``decimal`` or ``numpy``, or uses a ``math`` function outside the integer
ones.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "asmpp"
MODULES = sorted(SRC.rglob("*.py"))

FORBIDDEN_NAMES = {"float", "complex"}
FORBIDDEN_MODULES = {"cmath", "decimal", "numpy"}
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def violations(source):
    """(line, description) for each floating-point construct in source."""
    tree = ast.parse(source)
    math_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FORBIDDEN_MODULES:
                    found.append((node.lineno, f"import {alias.name}"))
                if alias.name == "math":
                    math_names.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in FORBIDDEN_MODULES:
                found.append((node.lineno, f"from {node.module} import"))
            if node.module == "math":
                for alias in node.names:
                    if alias.name not in INTEGER_MATH:
                        found.append((node.lineno, f"math.{alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append((node.lineno, f"name {node.id}"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in INTEGER_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
    return sorted(found)


def test_modules_found():
    assert SRC / "contour.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_floating_point(path):
    assert violations(path.read_text()) == []


def test_checker_flags_each_construct():
    source = "\n".join([
        "import math as m",
        "import numpy.linalg",
        "from decimal import Decimal",
        "from math import sqrt, gcd",
        "x = 0.5 + 2j",
        "y = float(3) + m.factorial(4) + m.pi",
    ])
    assert [d for _, d in violations(source)] == [
        "import numpy.linalg", "from decimal import", "math.sqrt",
        "literal 0.5", "literal 2j", "math.pi", "name float",
    ]
