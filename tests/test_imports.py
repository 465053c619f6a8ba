"""Import hygiene of ``src/selpred``, read from each module's source.

``checks`` sits at the bottom of the import graph, every name a module
imports from ``selpred`` is used there, loading a CSV does not import the
network, no setting comes from the environment, only ``data`` splits and
standardizes a dataset, no handler catches every exception, and every
error class is a ``SelpredError``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "selpred"
SPANS = ROOT / "bench" / "spans.py"
DEMOS = ROOT / "demos"

# The imports kept only so that the benchmark's span recorder can wrap them.
BENCH_ONLY = {("cli", "mc_dropout_confidence"), ("cli", "sr_confidence"),
              ("cli", "threshold_for_coverage"), ("model", "sigmoid"),
              ("model", "softmax"), ("cli", "split"), ("cli", "standardize")}


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
    """Reading a dataset needs no part of the network: ``data`` imports
    neither the model nor its layers nor the autograd engine."""
    sources = {module for module, _ in _selpred_imports(_tree("data"))}
    assert not sources & {f"{prefix}{name}" for prefix in ("", "selpred.")
                          for name in ("model", "layers", "autograd")}


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


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py"))
             if p != SRC / "data.py"],
    ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_only_data_splits_and_standardizes(path):
    """The train-only fit of the standardization is applied in one place,
    ``data.standardized_splits``: no other module and no demo calls
    ``split`` or ``standardize``, by name or as an attribute of a name it
    imports from ``selpred``."""
    tree = ast.parse(path.read_text())
    names = {"split", "standardize"}
    imported = {name for _, name in _selpred_imports(tree)}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in names:
            calls.append(f.id)
        elif (isinstance(f, ast.Attribute) and f.attr in names
              and isinstance(f.value, ast.Name) and f.value.id in imported):
            calls.append(f"{f.value.id}.{f.attr}")
    assert calls == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_broad_except(path):
    """No bare ``except:`` and no ``except Exception``: an error that is not
    ``selpred``'s own is a bug and must reach the caller. ``except
    BaseException`` is allowed only as a cleanup that re-raises."""
    broad = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = (node.type.elts if isinstance(node.type, ast.Tuple)
                 else [node.type])
        names = {"<bare>" if t is None else ast.unparse(t) for t in types}
        reraises = (isinstance(node.body[-1], ast.Raise)
                    and node.body[-1].exc is None)
        if names & {"<bare>", "Exception"} or (
                "BaseException" in names and not reraises):
            broad.append(node.lineno)
    assert broad == []


def test_every_error_class_is_a_selpred_error():
    """Every exception class a ``selpred`` module defines derives from
    ``SelpredError``, so ``cli.main`` reports it as bad input; the walk
    imports each module and reads its attributes."""
    from selpred.checks import SelpredError
    classes = {v for name in MODULES
               for v in vars(importlib.import_module(f"selpred.{name}")).values()
               if isinstance(v, type) and issubclass(v, BaseException)
               and v.__module__.startswith("selpred")}
    assert {"ParseError", "IntegrityError", "GradCheckError"} <= {
        c.__name__ for c in classes}
    assert {c.__name__ for c in classes
            if not issubclass(c, SelpredError)} == set()
