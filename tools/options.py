"""Print the optional parameters of the public callables of each `src/jno`
module, and their total.

An optional parameter is one with a default (positional or keyword-only)
or a `**kwargs`.  They are counted on public functions and on the
`__init__`, `__call__` and public methods of public classes, from the
source alone (nothing is imported).  From the repository root:

    python tools/options.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jno"


def optional(fn):
    """The names of `fn`'s optional parameters."""
    a = fn.args
    positional = a.posonlyargs + a.args
    names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
    names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
              if d is not None]
    return names + ([f"**{a.kwarg.arg}"] if a.kwarg else [])


def public_callables(tree):
    """(qualified name, function node) of every counted callable."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (
                        fn.name in ("__init__", "__call__")
                        or not fn.name.startswith("_")):
                    yield f"{node.name}.{fn.name}", fn


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found = [(name, opts) for name, fn in public_callables(tree)
                 if (opts := optional(fn))]
        count = sum(len(opts) for _, opts in found)
        total += count
        listing = "; ".join(f"{name}({', '.join(opts)})"
                            for name, opts in found)
        print(f"{path.name}: {count} optional: {listing}")
    print(f"total: {total} optional parameters")
