"""Hypothesis profiles for the suite.

    HYPOTHESIS_PROFILE=ci python -m pytest

The `ci` profile draws the same examples on every run, so a failure seen
in CI replays locally, and it drops the per-example deadline, which a slow
runner would otherwise trip. Without the variable the default profile
applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
