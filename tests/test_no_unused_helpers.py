"""Every module-level function and every non-dunder method or property of
a package class has a caller in the package, and every name a module
imports is used in that module. No Record class writes its own __init__.

A function that only tests or the package's re-exports use is dead weight
in src/: delete it or move it into the tests. The exceptions are the
functions the acceptance criteria call directly, and each of them must
still be defined in src/ with no caller there. The package's __init__
imports only to re-export, so the import check skips it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rmlattice"

# Kept in src/ for the acceptance criteria that call them.
CRITERIA_ONLY = {
    "are_associates_in_maximal",
    "bezout_conductor",
    "check_symmetric_rank_even",
    "element_action",
    "enumerate_valid_kernels",
    "is_trivial",
    "reduce_degree_step",
    "span_mod_p",
    "squarefree_reduce",
}


def _definitions_and_references():
    """(module, name) of every function and non-dunder method defined in the
    package, and every name or attribute its modules other than __init__
    read."""
    defined = []
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (path.name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("__")
                ]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined, f"no functions found under {PACKAGE}"
    return defined, referenced


def test_every_module_function_is_referenced_in_the_package():
    defined, referenced = _definitions_and_references()
    kept = referenced | CRITERIA_ONLY
    unused = sorted(
        f"{module}:{name}"
        for module, name in defined
        if name.rpartition(".")[2] not in kept
    )
    assert unused == []


def test_every_exception_is_defined_and_has_no_package_caller():
    # a stale entry names nothing in src/; a needless one has a caller there
    defined, referenced = _definitions_and_references()
    names = {name.rpartition(".")[2] for _, name in defined}
    assert sorted(CRITERIA_ONLY - names) == []
    assert sorted(CRITERIA_ONLY & referenced) == []


def test_no_record_class_defines_its_own_init():
    # Record builds each __init__ from _fields, so field order is stated once
    records, own_inits = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef) and "Record" in {
                getattr(base, "id", None) for base in node.bases
            }:
                records.append(node.name)
                own_inits += [
                    f"{path.name}:{node.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                ]
    assert len(records) == 6
    assert own_inits == []


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}" for name in imported if name not in used]
    assert unused == []
