"""Shared test settings.

Hypothesis runs under one profile: no per-example deadline, because
timings swing on a loaded machine, and derandomized example generation,
so every run of the suite checks the same examples.  No example
database is written.  Only tests/test_properties.py needs hypothesis
(the ``test`` extra); without it the other modules still run.  The
kernel_misses_first_trial fixture injects a level-kernel fault.
"""

import pytest

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ffcs", deadline=None, derandomize=True, database=None)
    settings.load_profile("ffcs")


@pytest.fixture
def kernel_misses_first_trial(monkeypatch):
    """montecarlo's level kernel, patched to drop every hit of each block's first trial."""
    from ffcs import model, montecarlo

    class Missing(model._ColumnTable):
        def levels(self, k_max, targets):
            t = len(targets)
            for w, hits in super().levels(k_max, targets):
                yield w, hits[hits % t != 0]

    monkeypatch.setattr(montecarlo, "_ColumnTable", Missing)
