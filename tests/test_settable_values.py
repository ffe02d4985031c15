"""The number of independently settable values in src/drawseg, pinned.

Counted by AST over src/drawseg/*.py: dataclass fields, plus parameters
with a default, plus reads of the environment. A change that adds or
removes one updates SETTABLE_VALUES and says so in CHANGES.md.
"""
import ast
from pathlib import Path

import drawseg

SETTABLE_VALUES = 69


def _decorator_name(d: ast.expr) -> str:
    d = d.func if isinstance(d, ast.Call) else d
    return d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", "")


def count_settable_values(paths) -> tuple[int, int, int]:
    """(dataclass fields, defaulted parameters, environment reads) over the files."""
    fields = params = env = 0
    for path in paths:
        for node in ast.walk(ast.parse(Path(path).read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    _decorator_name(d) == "dataclass" for d in node.decorator_list):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params += len(node.args.defaults)
                params += sum(d is not None for d in node.args.kw_defaults)
            elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                  and isinstance(node.value, ast.Name) and node.value.id == "os"):
                env += 1
    return fields, params, env


def test_settable_values_are_pinned():
    counts = count_settable_values(sorted(Path(drawseg.__file__).parent.glob("*.py")))
    assert sum(counts) == SETTABLE_VALUES, f"fields, defaulted parameters, env reads: {counts}"

