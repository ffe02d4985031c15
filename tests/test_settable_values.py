"""The number of independently settable values in src/drawseg, pinned.

Counted by AST over src/drawseg/*.py: dataclass fields, plus parameters
with a default, plus reads of the environment. A change that adds or
removes one updates SETTABLE_VALUES and says so in CHANGES.md. A failure
lists every counted value as "file:line name", so a diff shows what moved.
"""
import ast
from pathlib import Path

import drawseg

SETTABLE_VALUES = 64


def _decorator_name(d: ast.expr) -> str:
    d = d.func if isinstance(d, ast.Call) else d
    return d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", "")


def settable_values(paths) -> list[tuple[str, int, str, str]]:
    """(file, line, kind, name) for each value counted over the files, sorted;
    kind is "field" (dataclass field), "param" (defaulted parameter) or "env"."""
    found = []
    for path in paths:
        file = Path(path).name
        for node in ast.walk(ast.parse(Path(path).read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    _decorator_name(d) == "dataclass" for d in node.decorator_list):
                found += [(file, s.lineno, "field", f"{node.name}.{ast.unparse(s.target)}")
                          for s in node.body if isinstance(s, ast.AnnAssign)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                fn = getattr(node, "name", "<lambda>")
                found += [(file, a.lineno, "param", f"{fn}({a.arg})") for a in defaulted]
            elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                  and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append((file, node.lineno, "env", f"os.{node.attr}"))
    return sorted(found)


def test_settable_values_are_pinned():
    found = settable_values(sorted(Path(drawseg.__file__).parent.glob("*.py")))
    counts = tuple(sum(f[2] == kind for f in found) for kind in ("field", "param", "env"))
    assert sum(counts) == SETTABLE_VALUES, "\n".join(
        [f"fields, defaulted parameters, env reads: {counts}"]
        + [f"{file}:{line} {name}" for file, line, _, name in found])
