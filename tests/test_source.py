"""Static checks on the package source."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import swcactus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "swcactus"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    # every top-level import is used, unless its line says ``noqa: F401``
    source = (SRC / module).read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    assert unused == []


def _references(tree) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_no_orphaned_private_helpers():
    # every private top-level function and private method is referenced
    # somewhere in the package outside its own definition; dunders and
    # public names are exempt
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    everywhere = sum(map(_references, trees.values()), Counter())
    orphans = []
    for module, tree in trees.items():
        scopes = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        for node in (node for body in scopes for node in body):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and everywhere[node.name] == _references(node)[node.name]):
                orphans.append(f"{module}: {node.name}")
    assert orphans == []


def test_every_parameter_is_read():
    # every parameter of every function, methods and nested functions
    # included, is read somewhere in that function's body
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg, args.kwarg)
                      if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}: {name}({p})" for p in params if p not in read]
    assert unread == []


def test_one_matching_kernel():
    # hopcroft_karp is called from exactly two places: the union graph's
    # row matching and the layered linking; a second augmenting-path loop
    # would have to be a second kernel
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and "hopcroft_karp" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    callers.append(f"{path.name}: {func.name}")
    assert sorted(callers) == ["mdg.py: max_linking", "unigraph.py: _row_matching"]


def test_only_the_model_reads_nonzeros():
    # ``StructuredMatrix.columns`` is the one stored pattern; ``nonzeros`` is
    # a view derived from it for library callers, so no stage may read it
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "nonzeros"]
    assert readers == []


# exported for library callers, though no stage of the package calls them:
# the walk witness of a cover bound, its check, and the document writer
ENTRY_POINTS = {"verify_cactus_walking", "cactus_walks_for_bud", "walk_violations",
                "serialize_system"}


def test_every_export_is_used_by_the_package():
    # a name in ``__all__`` is read by some module other than its own
    # definition and ``__init__.py``, unless it is one of the entry points
    # above; an oracle that only the tests call belongs in tests/helpers.py
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"]
    everywhere = sum(map(_references, trees), Counter())
    own = Counter()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            own[name] += _references(node)[name]
    unused = {name for name in swcactus.__all__ if everywhere[name] == own[name]}
    assert unused == ENTRY_POINTS


def test_exports_resolve_and_the_readme_names_only_exports():
    # every name in ``__all__`` is on the package, once; every backticked
    # name in the README's Library section is exported
    exported = swcactus.__all__
    assert [name for name in exported if not hasattr(swcactus, name)] == []
    assert len(set(exported)) == len(exported)
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", library, flags=re.S)
    named = re.findall(r"`([A-Za-z_]\w*)`", prose)
    assert named
    assert [name for name in named if name not in exported] == []


def test_only_the_layered_graph_checks_the_vertex_cap():
    # the vertex cap guards graphs that are built: ``mdg.layer_blocks``
    # checks it as ``Mdg`` sizes itself, so no other module reads the cap
    # or asks whether a graph would fit without building it
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted(SRC.glob("*.py")) if path.name != "mdg.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if {"VERTEX_CAP", "layer_blocks"} & {getattr(node, "id", None),
                                                   getattr(node, "attr", None),
                                                   getattr(node, "name", None)}]
    assert readers == []


def test_the_layered_graph_knows_no_ceiling():
    # the ceiling-stopped depth schedule lives in ``checker.dim_bounds``;
    # ``mdg.max_linking`` links the graph it is given, whole
    tree = ast.parse((SRC / "mdg.py").read_text())
    names = {name for node in ast.walk(tree)
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "arg", None), getattr(node, "name", None))
             if isinstance(name, str)}
    assert {name for name in names if "ceiling" in name} == set()
    linking = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "max_linking")
    args = linking.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["mdg"]
    assert args.vararg is None and args.kwarg is None
