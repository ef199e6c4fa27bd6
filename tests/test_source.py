"""Source hygiene of ``src/megraph``: no unused imports, no function, class
or method that only tests could call, and no parameter that its function
never reads."""

import ast
from collections import Counter
from pathlib import Path

import megraph

SRC = Path(__file__).resolve().parent.parent / "src" / "megraph"

# Library entry points for users that the program itself never calls.
ENTRY_POINTS = {"dumps_egraph", "egraph_of_term_tree", "certificate", "EGraph.merge"}


def parse_modules(src=SRC):
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(src.glob("*.py"))}


def names_in(expr):
    """The names an annotation uses, also inside quoted parts."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from names_in(ast.parse(sub.value, mode="eval"))
        elif isinstance(sub, ast.Name):
            yield sub.id


def annotation_names(tree):
    """Names used in the annotations of a module."""
    for node in ast.walk(tree):
        anns = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            anns = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                    + [args.vararg, args.kwarg] if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            anns = [node.annotation]
        for ann in filter(None, anns):
            yield from names_in(ann)


def unused_imports(modules, exported=()):
    """``module: name`` for each imported name that its module never uses;
    ``exported`` names count as used in ``__init__.py``."""
    out = []
    for mod, tree in modules.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(annotation_names(tree))
        if mod == "__init__.py":
            used.update(exported)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        out.append(f"{mod}: {name}")
    return out


def references(tree):
    """Every name a tree refers to: loaded or stored names, attributes, and
    names imported from modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def definitions(tree):
    """(qualified name, node) of every function, class and method; a method
    is qualified by its class."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child
                inner = child.name + "." if isinstance(child, ast.ClassDef) else ""
                yield from walk(child, inner)
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def unreferenced(modules, exempt):
    """``module: name`` for each definition that no code outside its own body
    refers to, unless it is a dunder, a click command or in ``exempt``."""
    total = Counter(name for tree in modules.values() for name in references(tree))
    out = []
    for mod, tree in modules.items():
        for qualname, node in definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__") or is_click_command(node)
                    or qualname in exempt):
                continue
            own = sum(1 for ref in references(node) if ref == name)
            if total[name] == own:
                out.append(f"{mod}: {qualname}")
    return out


def unread_parameters(modules):
    """``module: function: parameter`` for each parameter that its function's
    body never reads; ``self``, ``cls`` and ``_``-prefixed names are exempt."""
    out = []
    for mod, tree in modules.items():
        for qualname, node in definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out.extend(f"{mod}: {qualname}: {p}" for p in params
                       if p not in read and p not in ("self", "cls") and not p.startswith("_"))
    return out


def test_no_unused_imports():
    assert unused_imports(parse_modules(), megraph.__all__) == []


def test_every_definition_is_used_by_the_program_or_a_user_entry_point():
    assert unreferenced(parse_modules(), set(megraph.__all__) | ENTRY_POINTS) == []


def test_every_parameter_is_read():
    assert unread_parameters(parse_modules()) == []
