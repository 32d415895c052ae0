"""Test configuration: property-based tests draw the same examples on
every run, so a failure they find is a failure on every rerun."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
