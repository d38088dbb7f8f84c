"""Static checks of the package source, with the standard library's ast."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "energia"


def _unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of source that nothing in
    it reads and that its __all__ does not re-export; __future__ is skipped."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read | exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_import_check_sees_what_it_should():
    src = "from __future__ import annotations\nimport os, os.path as osp\nfrom typing import Union\nfrom . import a, b\n"
    assert _unused_imports(src + "__all__ = ['a']\nprint(b)\n") == ["os (line 2)", "osp (line 2)", "Union (line 3)"]
    assert _unused_imports(src + "x: Union[int, str] = osp.sep + os.sep\n__all__ = ['a', 'b']\n") == []


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each private function, class and non-dunder method in
    tree, and of each private name a module-level assignment binds."""
    found = [(node.name, node.lineno) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in found if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """The private definitions of sources (file name -> source) that no file
    reads, as a name or as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return [f"{file}: {name} (line {line})" for file, tree in trees.items() for name, line in _private_definitions(tree) if name not in read]


def test_every_private_definition_is_read():
    assert _dead_private_names({path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}) == []


def test_the_private_name_check_sees_what_it_should():
    a = "_A = 1\n_B: int = 2\n__all__ = []\nclass _C:\n    def __init__(self): self._x = _A\n    def _m(self): pass\n    def _n(self): pass\n"
    b = "from a import _C\ndef _f():\n    def _g(): pass\n    return _C()._n()\n"
    assert _dead_private_names({"a.py": a, "b.py": b}) == ["a.py: _m (line 6)", "a.py: _B (line 2)", "b.py: _f (line 2)", "b.py: _g (line 3)"]


def _unread_parameters(source: str) -> list[str]:
    """The parameters of each function and lambda in source that its body never
    reads; self and cls are skipped, since an override may not need its instance."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {"self", "cls"} | {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}: {p.arg} (line {node.lineno})" for p in params if p.arg not in read]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path.read_text(encoding="utf-8")) == []


def test_the_parameter_check_sees_what_it_should():
    src = ("def f(a, /, b, *args, c, d=1, **kw):\n    def g(e):\n        return a + c\n    return g\n"
           "h = lambda x, y: x\nclass K:\n    def m(self, z=2):\n        return 1\n")
    assert _unread_parameters(src) == [
        "f: b (line 1)", "f: d (line 1)", "f: args (line 1)", "f: kw (line 1)",
        "g: e (line 2)", "<lambda>: y (line 5)", "m: z (line 7)"]
    assert _unread_parameters("def f(a, *, b):\n    return lambda c: a + b + c\n") == []


# each layer imports, at module level, only from the layers before it
LAYERS = ({"ring"}, {"bounds"}, {"energy", "lattice", "charsum"}, {"vinogradov", "eqcount", "sweep"}, {"cli"})
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def _imports_out_of_order(name: str, source: str) -> list[str]:
    """The module-level `from .x import` (and `from . import x`) lines of the
    module name whose x does not come before it in LAYERS."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            found += [f"{name} imports {t} (line {node.lineno})" for t in targets if RANK[t] >= RANK[name]]
    return found


def test_every_layer_is_ranked():
    assert set(RANK) == {path.stem for path in SRC.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem in RANK), ids=lambda p: p.name)
def test_module_level_imports_follow_the_layers(path):
    assert _imports_out_of_order(path.stem, path.read_text(encoding="utf-8")) == []


def test_the_layer_check_sees_what_it_should():
    src = "from .charsum import x\nfrom . import ring, cli\nfrom .energy import y\ndef f():\n    from . import sweep\n"
    assert _imports_out_of_order("energy", src) == ["energy imports charsum (line 1)", "energy imports cli (line 2)", "energy imports energy (line 3)"]
    assert _imports_out_of_order("cli", src) == ["cli imports cli (line 2)"]
