"""Every function the benchmark's span recorder wraps exists in selpred.

``bench/spans.py`` replaces each ``SITES`` entry at the module attribute
where callers look it up; a name deleted from ``src/`` fails here instead of
crashing a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod, path, _ in spans.SITES:
        module = importlib.import_module(f"selpred.{mod}")
        try:
            owner, attr = spans._resolve(module, path)
            if not callable(getattr(owner, attr)):
                missing.append(f"selpred.{mod}.{path} is not callable")
        except AttributeError:
            missing.append(f"selpred.{mod}.{path}")
    assert not missing, f"bench/spans.py SITES not in src: {missing}"
