"""Nothing public without a caller.

An ``ast`` walk starts from the command table ``cli.COMMANDS``, the acceptance
items ``acceptance.ITEMS`` and every ``module.name`` that the benchmark
workloads use, and follows each name that a module-level definition mentions:
its own module's definitions, what it imports from the package, and
``module.name`` through a module it imports.  A public module-level function
or class of ``src/bipermute`` that the walk never reaches serves only tests
or demos.  ``__init__`` re-exports everything, so it is no root.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bipermute"
WORKLOADS = ROOT / "bench" / "workloads.py"

# Reached by no root yet.  Each stays because a demo shows it, until an
# acceptance item backs it: the paper's scaling lifts that transport rigidity
# from 2x2 tropical matrices to natural max-plus ones, the corner projection
# and the weak-permutability bound.
UNBACKED = {
    ("constructions", "lift_scale_UT2"),
    ("constructions", "lift_to_full_Nmax"),
    ("matrices", "project_topleft"),
    ("permutability", "weak_bound"),
}


def _bindings(tree: ast.Module) -> tuple[dict, dict]:
    """The module's top-level definitions by name, and its imports from the package.

    An import maps the local name to (module, name), or to (module, None)
    for ``from . import module``.
    """
    defs: dict[str, ast.AST] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                defs.update((n.id, stmt) for n in ast.walk(target) if isinstance(n, ast.Name))
    imports = {}
    for node in ast.walk(tree):  # imports inside functions count too
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = (alias.name, None) if node.module is None else (node.module, alias.name)
    return defs, imports


def _graph():
    """The public definitions, the roots, and a function from a definition to the definitions it mentions."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    bindings = {module: _bindings(tree) for module, tree in trees.items()}

    def resolve(module: str, name: str):
        defs, imports = bindings[module]
        if name in defs:
            return module, name
        source = imports.get(name)
        if source is None or source[1] is None:
            return None
        return resolve(*source)

    def mentions(module: str, node: ast.AST) -> set:
        imports, found = bindings[module][1], set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(resolve(module, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                source = imports.get(sub.value.id)
                if source is not None and source[1] is None and sub.attr in bindings[source[0]][0]:
                    found.add((source[0], sub.attr))
        return found - {None}

    roots = {("cli", "COMMANDS"), ("acceptance", "ITEMS")}
    roots |= {(m, node.attr) for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute) for m in bindings if node.attr in bindings[m][0]}
    public = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    public.add((module, stmt.name))
            elif not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.Import, ast.ImportFrom)):
                roots |= mentions(module, stmt)  # runs on import, such as a __main__ guard
    return public, roots, lambda key: mentions(key[0], bindings[key[0]][0][key[1]])


def _reach(roots, edges) -> set:
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(edges(key) - seen)
    return seen


def test_every_public_function_and_class_has_a_caller():
    public, roots, edges = _graph()
    unreached = public - _reach(roots | UNBACKED, edges)  # what the kept definitions call stays with them
    assert not unreached, f"nothing reaches {sorted(unreached)}"
    backed = UNBACKED & _reach(roots, edges)
    assert not backed, f"a root reaches {sorted(backed)}: take them off UNBACKED"
