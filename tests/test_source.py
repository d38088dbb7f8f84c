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
