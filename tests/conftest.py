"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized profile: every property
test draws the same examples on every run, so a red CI run replays
locally with the same variable set.  Without it the default profile
applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
