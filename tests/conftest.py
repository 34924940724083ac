"""Shared test settings.

Hypothesis runs under one profile: no per-example deadline, because
timings swing on a loaded machine, and derandomized example generation,
so every run of the suite checks the same examples.  No example
database is written.  Only tests/test_properties.py needs hypothesis
(the ``test`` extra); without it the other modules still run.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ffcs", deadline=None, derandomize=True, database=None)
    settings.load_profile("ffcs")
