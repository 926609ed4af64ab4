"""Hypothesis runs derandomized and without deadlines, so the suite is
deterministic and timing-independent on slow or shared machines."""

from hypothesis import settings

settings.register_profile("cqexp", derandomize=True, deadline=None)
settings.load_profile("cqexp")
