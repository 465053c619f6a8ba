"""Opt-in line coverage of ``src/selpred`` for a pytest run (stdlib only).

Run the suite under it with::

    PYTHONPATH=src:tests python -m pytest -q -p linecov

At the end of the run it prints every executable line of ``src/selpred``
that never ran, as ``file:line  source``, then how many of them lie outside
``ALLOWED`` and the executable-line total. The rule it serves: every line of
``src/`` runs under tier-1, or it goes. Without ``-p linecov`` nothing here
is imported, so the plain suite's run and time do not change; under it the
suite runs about 2.5 times slower.

How it counts:

- A module's executable lines are the line numbers of every instruction of
  its code objects (``co_lines()``), nested code objects included, compiled
  from the source file.
- A line ran if ``sys.settrace`` (``threading.settrace`` for new threads)
  saw a call or line event for it, in a frame whose file is under the root.

Its limits:

- A ``def`` or ``class`` line runs when its module is imported, so an
  uncalled function shows only its body's lines.
- Code run in a subprocess is invisible to it. Tier-1 starts none:
  ``test_cli.py`` calls ``main`` and ``test_demos.py`` uses ``runpy``.
- It installs itself when pytest configures plugins, so a ``selpred``
  module imported before that (none is) would miss its import-time lines.
- A test that sets its own trace function stops the recording until it
  restores this one, as ``LineCollector.stop`` does.

``ALLOWED`` is keyed by file and stripped source text, not by line number,
so an entry survives edits above it.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent / "src" / "selpred"

#: Lines that may never run under pytest: (file relative to the root, source).
ALLOWED = frozenset({("cli.py", "sys.exit(main())")})


def executable_lines(path: Path) -> set[int]:
    """Every line number of every code object compiled from ``path``."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class LineCollector:
    """Records the lines that run in files under ``root`` while started."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.ran: dict[str, set[int]] = {}
        self._tracers: dict[CodeType, object] = {}
        self._saved = None

    def _tracer(self, code: CodeType):
        """The local trace function for ``code``'s frames, or None."""
        if not Path(code.co_filename).resolve().is_relative_to(self.root):
            return None
        ran = self.ran.setdefault(code.co_filename, set())

        def local(frame, event, arg):
            ran.add(frame.f_lineno)
            return local

        return local

    def _global(self, frame, event, arg):
        code = frame.f_code
        if code not in self._tracers:
            self._tracers[code] = self._tracer(code)
        local = self._tracers[code]
        return local and local(frame, event, arg)

    def start(self) -> None:
        self._saved = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        """Stop recording and put back the trace functions ``start`` found."""
        outer, outer_threads = self._saved
        sys.settrace(outer)
        threading.settrace(outer_threads)

    def never_run(self) -> list[tuple[str, int, str]]:
        """``(file relative to root, line, stripped source)`` of each line
        under the root that is executable and did not run, in file order."""
        ran = {str(Path(f).resolve()): lines for f, lines in self.ran.items()}
        missed = []
        for path in sorted(self.root.rglob("*.py")):
            source = path.read_text(encoding="utf-8").splitlines()
            done = ran.get(str(path), set())
            rel = path.relative_to(self.root).as_posix()
            for line in sorted(executable_lines(path) - done):
                missed.append((rel, line, source[line - 1].strip()))
        return missed


def outside(missed, allowed=ALLOWED) -> list[tuple[str, int, str]]:
    """The entries of ``missed`` whose (file, source) ``allowed`` lacks."""
    return [m for m in missed if (m[0], m[2]) not in allowed]


_collector = LineCollector(ROOT)


def pytest_configure(config) -> None:
    _collector.start()


def pytest_sessionfinish(session, exitstatus) -> None:
    _collector.stop()


def pytest_terminal_summary(terminalreporter) -> None:
    missed = _collector.never_run()
    total = sum(len(executable_lines(p)) for p in ROOT.rglob("*.py"))
    tr = terminalreporter
    tr.section("linecov: never-run lines in src/selpred")
    for rel, line, text in missed:
        note = "  (allowed)" if (rel, text) in ALLOWED else ""
        tr.write_line(f"{rel}:{line}  {text}{note}")
    tr.write_line(
        f"{len(outside(missed))} never-run lines outside the allowlist "
        f"({len(missed)} in all) of {total} executable lines"
    )
