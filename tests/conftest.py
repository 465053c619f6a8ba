"""One hypothesis profile for the whole suite.

Every property test draws the same examples on every run (``derandomize``,
which also turns off the example database), and none fails on the time an
example takes (``deadline=None``): the suite's results depend only on the
code under test. Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("selpred", derandomize=True, deadline=None)
settings.load_profile("selpred")
