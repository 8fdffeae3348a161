"""Every package definition has a user outside the tests.

For each function and class defined in ``src/prosogate/*.py`` (dunder
methods excepted), its name must appear outside its own body somewhere
in ``src/`` or ``perfbench/``: as a name, as an attribute, or as a
string constant (the benchmark's tracer names what it patches by
string). A definition that only the tests use belongs with them, in
``tests/references.py`` or next to the test that needs it.

Every data file is decoded by ``prosogate.loads_json``, so only that
function may name ``json.loads``. A command reads each of its files with
one ``load_file`` call, so only ``cli`` may name ``load_file``. A report
command builds one payload and ``cli._report`` writes it, so only that
function reads ``--format``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _definitions(tree):
    """(qualified name, node) of each module-level function and class
    and of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item


def _uses(tree):
    """(name, line) of each name, attribute and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unused_definitions(root=ROOT):
    """Sorted ``module.name`` of each package definition whose name has
    no use in ``src/`` or ``perfbench/`` outside its own body."""
    package = root / "src" / "prosogate"
    files = sorted(package.glob("*.py")) + sorted(
        (root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    uses = {}  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(package.glob("*.py")):
        for qualified, node in _definitions(trees[path]):
            if not any(where != path
                       or not node.lineno <= line <= node.end_lineno
                       for where, line in uses.get(node.name, ())):
                unused.append(f"{path.stem}.{qualified}")
    return sorted(unused)


def test_every_definition_has_a_use_outside_the_tests():
    unused = unused_definitions()
    assert not unused, f"used only by the tests: {', '.join(unused)}"


def _names_json_loads(node):
    """``json.loads``, or ``from json import loads``."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "loads" and isinstance(node.value, ast.Name)
                and node.value.id == "json")
    return (isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(alias.name == "loads" for alias in node.names))


def _names_load_file(node):
    """``load_file``, ``prosogate.load_file``, or an import of it."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "load_file" for alias in node.names)
    return (isinstance(node, ast.Name) and node.id == "load_file"
            or isinstance(node, ast.Attribute) and node.attr == "load_file")


def users(names, root=ROOT):
    """Sorted ``module.name`` of each package function or method with a
    node for which ``names`` holds (``module`` alone outside any)."""
    found = set()
    for path in sorted((root / "src" / "prosogate").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # module-level functions and methods: no two overlap
        functions = [(name, node) for name, node in _definitions(tree)
                     if isinstance(node, ast.FunctionDef)]
        for use in filter(names, ast.walk(tree)):
            found.add(next((f"{path.stem}.{name}" for name, node in functions
                            if node.lineno <= use.lineno <= node.end_lineno),
                           path.stem))
    return sorted(found)


def test_only_loads_json_calls_json_loads():
    assert users(_names_json_loads) == ["__init__.loads_json"]


def test_only_cli_calls_load_file():
    # a command reads each file with one load_file call of its own
    outside = [user for user in users(_names_load_file)
               if user.split(".")[0] != "cli"]
    assert outside == []


def test_only_report_reads_the_format():
    assert users(lambda node: isinstance(node, ast.Attribute)
                 and node.attr == "format") == ["cli._report"]
