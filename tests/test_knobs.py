"""The settable-value count of the package: parameters with a default,
dataclass fields with a default and CLI flags over src/ellsel, counted
by AST.  Every such value is a knob that must work or be rejected, so a
change that adds or removes one moves KNOBS here and says why."""

import ast
from pathlib import Path

import ellsel

KNOBS = 104


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(deco.func if isinstance(deco, ast.Call) else deco, "id", None) == "dataclass"
        for deco in node.decorator_list
    )


def settable_values(tree: ast.AST) -> int:
    """Defaults of every def and lambda, defaulted fields of every
    dataclass, and every --flag passed to add_argument."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument":
            count += any(isinstance(a, ast.Constant) and str(a.value).startswith("--") for a in node.args)
    return count


def test_counter_sees_each_kind():
    source = '''
@dataclass(frozen=True)
class A:
    x: int
    y: int = 1

def f(a, b=2, *, c=3, d):
    return lambda e=4: e

parser.add_argument("--flag", default=None)
parser.add_argument("positional")
'''
    assert settable_values(ast.parse(source)) == 5


def test_settable_value_count_is_pinned():
    package = Path(ellsel.__file__).parent
    total = sum(settable_values(ast.parse(path.read_text())) for path in sorted(package.glob("*.py")))
    assert total == KNOBS, f"{total} settable values, pinned at {KNOBS}: move KNOBS and declare the change"
