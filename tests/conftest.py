"""Shared test configuration.

`--hypothesis-profile=ci` runs every property with derandomized examples,
so a failure in CI reproduces on any machine with the same command.
"""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
