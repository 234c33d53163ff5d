"""Every name a module under src/durp, tests, perfbench or scripts imports is used there,
every top-level function and class src/durp defines is used outside the tests,
src/durp imports nothing at run time but numpy and the standard library,
only its ``cli`` module renders output files, only ``data`` and ``cli``
read LIBSVM text, only ``solver`` picks a Gram route or reads its size cap
or the accumulator's split and band sizes,
only ``metric`` imports ``struct`` (it alone knows the metric file layout),
``evaluate``'s scorers raise nothing (``evaluate_metric`` is the one gate),
only ``evaluate.require_scorable`` refuses a train/test split,
no flag of ``cli`` has a literal default, and the package root binds no
name.

A stdlib ``ast`` stand-in for pyflakes' unused-import check.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = [
    path
    for folder in (ROOT / "src" / "durp", ROOT / "tests", ROOT / "perfbench",
                   ROOT / "scripts")
    for path in sorted(folder.glob("*.py"))
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


REACHING = [
    path
    for folder in (ROOT / "src" / "durp", ROOT / "perfbench", ROOT / "scripts")
    for path in sorted(folder.glob("*.py"))
]


def unreached_names():
    """Top-level defs and classes of src/durp, private ones too, that no program file uses.

    A reference is an ``ast.Name`` or ``ast.Attribute`` naming it anywhere in
    src/durp, perfbench or scripts; imports and tests do not count, so a
    name that only tests call is reported, and so is a helper left behind
    when its last caller goes.
    """
    referenced = set()
    for path in REACHING:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path in sorted((ROOT / "src" / "durp").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in referenced
    ]


def test_every_name_in_src_is_reached_outside_tests():
    assert unreached_names() == []


def foreign_imports(source):
    """Absolute imports of modules that are neither numpy nor in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    return found


def test_foreign_imports_detected():
    source = ("import os, scipy.linalg\nfrom numpy import linalg\nfrom . import gram\n"
              "from sklearn import svm\n")
    assert foreign_imports(source) == [(1, "scipy.linalg"), (4, "sklearn")]


def test_src_imports_only_numpy_and_the_standard_library():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "durp").glob("*.py"))
        for line, name in foreign_imports(path.read_text())
    ]
    assert found == []


def rendering(source):
    """(line, what) for each json import, savetxt call and ``*_csv``/``*to_json`` function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "json") for alias in node.names
                      if alias.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "json":
                found.append((node.lineno, "json"))
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) == "savetxt":
                found.append((node.lineno, "savetxt"))
        elif isinstance(node, ast.FunctionDef) and node.name.endswith(("_csv", "to_json")):
            found.append((node.lineno, node.name))
    return sorted(found)


def test_rendering_detected():
    source = ("import json\nfrom json import dumps\nimport numpy as np\n"
              "np.savetxt('t', x)\ndef table_csv(): pass\nclass R:\n    def to_json(self): pass\n"
              "def csv_rows(): pass\n")
    assert rendering(source) == [(1, "json"), (2, "json"), (4, "savetxt"), (5, "table_csv"),
                                 (7, "to_json")]


def test_only_the_cli_renders_output():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted((ROOT / "src" / "durp").glob("*.py"))
        if path.name != "cli.py"
        for line, what in rendering(path.read_text())
    ]
    assert found == []


def file_loading(source):
    """(line, name) for each call of ``load_libsvm`` or ``parse_libsvm``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("load_libsvm", "parse_libsvm"):
                found.append((node.lineno, name))
    return sorted(found)


def test_file_loading_detected():
    source = ("from .data import load_libsvm\nimport durp\nload_libsvm('a')\n"
              "durp.data.parse_libsvm(text)\nload_split('a', 'b')\n")
    assert file_loading(source) == [(3, "load_libsvm"), (4, "parse_libsvm")]


def test_only_data_and_cli_load_files():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "durp").glob("*.py"))
        if path.name not in ("data.py", "cli.py")
        for line, name in file_loading(path.read_text())
    ]
    assert found == []


GRAM_CONSTANTS = ("DENSE_LIMIT", "CHUNK", "BAND_BYTES")


def gram_decisions(source):
    """(line, name) for each call of ``gram_factor`` and each use of a ``GRAM_CONSTANTS`` name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "gram_factor":
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in GRAM_CONSTANTS]
        elif (name := getattr(node, "attr", getattr(node, "id", None))) in GRAM_CONSTANTS:
            found.append((node.lineno, name))
    return sorted(found)


def test_gram_decisions_detected():
    source = ("from .solver import DENSE_LIMIT, gram_product\nfrom . import solver\n"
              "Phi = solver.gram_factor(U, V)\nif n > solver.DENSE_LIMIT: pass\n"
              "gram_factor(U, V)\ngram_product(U, V)\n"
              "from .solver import BLOCK, CHUNK\nband = solver.BAND_BYTES // 8\n")
    assert gram_decisions(source) == [(1, "DENSE_LIMIT"), (3, "gram_factor"),
                                      (4, "DENSE_LIMIT"), (5, "gram_factor"),
                                      (7, "CHUNK"), (8, "BAND_BYTES")]


def test_only_solver_picks_the_gram_route_caps_and_splits():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "durp").glob("*.py"))
        if path.name != "solver.py"
        for line, name in gram_decisions(path.read_text())
    ]
    assert found == []


def struct_imports(source):
    """(line, name) for each import of ``struct`` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "struct":
            found += [(node.lineno, alias.name) for alias in node.names]
    return found


def test_struct_imports_detected():
    source = ("import os, struct\nfrom struct import pack\nfrom . import struct\n"
              "import numpy as np\nnp.frombuffer(raw)\n")
    assert struct_imports(source) == [(1, "struct"), (2, "pack")]


def test_only_metric_knows_the_file_layout():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "durp").glob("*.py"))
        if path.name != "metric.py"
        for line, name in struct_imports(path.read_text())
    ]
    assert found == []


SCORERS = ("ranking_map", "knn_accuracy")


def raises_in(source, names):
    """(line, function) for each ``raise`` inside the top-level functions ``names``."""
    return sorted(
        (node.lineno, fn.name)
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef) and fn.name in names
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise)
    )


def test_raises_in_detected():
    source = ("def score(x):\n    if x:\n        raise ValueError('x')\n    return x\n"
              "def gate(x):\n    raise ValueError('y')\n"
              "def rank(x):\n    def inner():\n        raise KeyError\n    return inner\n")
    assert raises_in(source, ("score", "rank")) == [(3, "score"), (9, "rank")]


def test_the_scorers_leave_every_refusal_to_evaluate_metric():
    source = (ROOT / "src" / "durp" / "evaluate.py").read_text()
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert set(SCORERS) <= defined
    assert raises_in(source, SCORERS) == []


SPLIT_MESSAGES = ("train and test dimensions differ", "needs at least two test points",
                  "no query had a same-class candidate", "k must be in [1, ")


def split_refusals(source):
    """(line, top-level name) for each ``raise`` whose string parts hold a split message."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise):
                text = "".join(part.value for part in ast.walk(node)
                               if isinstance(part, ast.Constant) and isinstance(part.value, str))
                if any(message in text for message in SPLIT_MESSAGES):
                    found.append((node.lineno, getattr(top, "name", None)))
    return sorted(found)


def test_split_refusals_detected():
    source = ("def gate(train, test, k):\n    if test.n < 2:\n"
              "        raise ValueError('evaluation needs at least two test points')\n"
              "def run(train, k):\n    if k > train.n:\n"
              "        raise ValueError(f'k must be in [1, {train.n}]')\n"
              "    raise ValueError('m must be positive')\n"
              "class C:\n    def f(self):\n"
              "        raise ValueError('train and test dimensions differ')\n"
              "if x:\n    raise ValueError('no query had a same-class candidate')\n")
    assert split_refusals(source) == [(3, "gate"), (6, "run"), (10, "C"), (12, None)]


def test_only_require_scorable_refuses_a_split():
    found = [
        (path.name, name)
        for path in sorted((ROOT / "src" / "durp").glob("*.py"))
        for _, name in split_refusals(path.read_text())
    ]
    assert found == [("evaluate.py", "require_scorable")] * len(SPLIT_MESSAGES)


def literal_defaults(source):
    """(line, flag) for each ``add_argument`` call whose ``default=`` is a literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            found += [(node.lineno, node.args[0].value) for kw in node.keywords
                      if kw.arg == "default" and isinstance(kw.value, ast.Constant)]
    return found


def test_literal_defaults_detected():
    source = ('p.add_argument("--d", type=int, default=500)\n'
              'p.add_argument("--k", type=int, default=run_defaults.k)\n'
              'p.add_argument("--m", type=int)\nq.set_defaults(default=1)\n')
    assert literal_defaults(source) == [(1, "--d")]


def test_cli_flags_take_their_defaults_from_the_config_dataclasses():
    assert literal_defaults((ROOT / "src" / "durp" / "cli.py").read_text()) == []


def bindings(source):
    """(line, name) for each name a module binds: imports, assignments, defs and classes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
    return sorted(found)


def test_bindings_detected():
    source = ('"""Doc."""\nfrom .data import load_libsvm as load\nimport numpy.linalg\n'
              '__version__ = "0.1.0"\nx, y = 1, 2\nclass C: pass\nprint(z)\n')
    assert bindings(source) == [(2, "load"), (3, "numpy.linalg"), (4, "__version__"),
                                (5, "x"), (5, "y"), (6, "C")]


def test_the_package_root_binds_no_name():
    # names are imported from their modules; the root is only its docstring
    assert bindings((ROOT / "src" / "durp" / "__init__.py").read_text()) == []
