"""Import hygiene of ``src/selpred``, read from each module's source.

``checks`` sits at the bottom of the import graph, every name a module
imports from ``selpred`` is used there, loading a CSV does not import the
network, and no setting comes from the environment.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "selpred"
SPANS = ROOT / "bench" / "spans.py"

# The imports kept only so that the benchmark's span recorder can wrap them.
BENCH_ONLY = {("cli", "mc_dropout_confidence"), ("cli", "sr_confidence"),
              ("cli", "threshold_for_coverage"), ("model", "sigmoid")}


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def _selpred_imports(tree):
    """``(source module, imported name)`` for every name imported from a
    ``selpred`` module, by a relative or an absolute import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("selpred")):
            out += [(node.module, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name, a.asname or a.name) for a in node.names
                    if a.name.startswith("selpred")]
    return out


def _bench_sites():
    """``(module, name)`` that ``bench/spans.py`` ``SITES`` looks up: the
    first part of each entry's path, at its module."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(mod, path.split(".")[0]) for mod, path, _ in spans.SITES}


MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def test_checks_imports_nothing_from_selpred():
    assert _selpred_imports(_tree("checks")) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    tree = _tree(name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {imported for _, imported in _selpred_imports(tree)} - used
    assert unused - {n for m, n in _bench_sites() if m == name} == set()
    assert {(name, n) for n in unused} == {
        site for site in BENCH_ONLY if site[0] == name}


def test_data_does_not_import_the_model():
    sources = {module for module, _ in _selpred_imports(_tree("data"))}
    assert not sources & {"model", "selpred.model"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_the_environment(path):
    """Every setting is a config field or a flag: no ``os.environ`` or
    ``os.getenv``, by attribute or by a ``from os import``."""
    tree = ast.parse(path.read_text())
    names = {"environ", "getenv"}
    reads = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "os"
             and n.attr in names]
    reads += [a.name for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) and n.module == "os"
              for a in n.names if a.name in names]
    assert reads == []
