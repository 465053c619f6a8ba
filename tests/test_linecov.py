"""The opt-in line-coverage plugin (``linecov.py``) on a fixture module: its
line collection and its difference, without tracing the suite."""

import runpy
import sys

from linecov import ALLOWED, LineCollector, outside

SOURCE = """\
def sign(x):
    if x >= 0:
        return 1
    y = -1
    return y
"""


def _never_run(tmp_path, source):
    """Write ``source`` as ``mod.py``, import it and call ``sign(1)`` under
    a collector rooted at its directory; the collector's never-run lines."""
    path = tmp_path / "pkg" / "mod.py"
    path.parent.mkdir(exist_ok=True)
    path.write_text(source)
    collector = LineCollector(path.parent)
    outer = sys.gettrace()
    collector.start()
    try:
        assert runpy.run_path(str(path))["sign"](1) == 1
    finally:
        collector.stop()
    assert sys.gettrace() is outer
    return collector.never_run()


def test_reports_exactly_the_branch_never_taken(tmp_path):
    assert _never_run(tmp_path, SOURCE) == [("mod.py", 4, "y = -1"),
                                            ("mod.py", 5, "return y")]


def test_allowlist_matches_source_text_after_the_lines_shift(tmp_path):
    allowed = frozenset({("mod.py", "return y")})
    for shift in (0, 3):
        missed = _never_run(tmp_path, "# moved\n" * shift + SOURCE)
        assert missed == [("mod.py", 4 + shift, "y = -1"),
                          ("mod.py", 5 + shift, "return y")]
        assert outside(missed, allowed) == [("mod.py", 4 + shift, "y = -1")]


def test_the_allowlist_is_the_command_line_entry_point():
    assert ALLOWED == {("cli.py", "sys.exit(main())")}
