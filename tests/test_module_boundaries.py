"""Module boundaries inside plusforms, read from the source with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "plusforms"


def relative_imports():
    """(importing module, imported module, name) per `from .mod import name`."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                for alias in node.names:
                    yield path.stem, node.module, alias.name


def test_no_module_imports_another_modules_private_names():
    assert [(src, mod, name) for src, mod, name in relative_imports()
            if name.startswith("_")] == []


def test_operators_and_congruence_engine_skip_class_numbers():
    assert [(src, name) for src, mod, name in relative_imports()
            if src in ("operators", "congruence_engine")
            and mod == "class_numbers"] == []


def test_no_module_starts_processes():
    # the census runs in one process; no worker pool sits beside it
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update((path.stem, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.stem, node.module))
    assert [(src, name) for src, name in sorted(imported)
            if name.partition(".")[0] in ("concurrent", "multiprocessing")
            ] == []
