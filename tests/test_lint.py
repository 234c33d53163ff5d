"""Every name a module under src/durp, tests or perfbench imports is used in that module.

A stdlib ``ast`` stand-in for pyflakes' unused-import check.  The package
``__init__`` is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = [
    path
    for folder in (ROOT / "src" / "durp", ROOT / "tests", ROOT / "perfbench")
    for path in sorted(folder.glob("*.py"))
    if path.name != "__init__.py"
]


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "tau")]


def test_no_module_imports_an_unused_name():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in CHECKED
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
