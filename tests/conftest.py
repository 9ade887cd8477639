"""Shared test settings: hypothesis runs derandomized and without a
per-example deadline, so property tests are reproducible and do not flake
on a loaded machine."""

from hypothesis import settings

settings.register_profile("firasym", derandomize=True, deadline=None)
settings.load_profile("firasym")
