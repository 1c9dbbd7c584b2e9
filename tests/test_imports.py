"""Every relative import in the package names a module that exists and,
for `from .mod import name`, a name that module defines at top level."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jno"
MODULES = sorted(PACKAGE.glob("*.py"))


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_relative_imports_resolve(path):
    defined = {p.stem: _top_level_names(ast.parse(p.read_text())) for p in MODULES}
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        assert node.level == 1, f"{path.name}:{node.lineno} leaves the package"
        if node.module is None:
            missing += [f"{path.name}:{node.lineno} module {a.name}"
                        for a in node.names if a.name not in defined]
        elif node.module not in defined:
            missing.append(f"{path.name}:{node.lineno} module {node.module}")
        else:
            missing += [f"{path.name}:{node.lineno} {node.module}.{a.name}"
                        for a in node.names if a.name not in defined[node.module]]
    assert not missing
