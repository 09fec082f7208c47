"""Shared test settings: property tests draw the same examples on every run."""

from hypothesis import settings

# derandomized, so each property test sees a fixed example list; no deadline,
# since exact k=3 censuses vary in time with the host and the induction cache
settings.register_profile("retesting", derandomize=True, deadline=None, max_examples=30, database=None)
settings.load_profile("retesting")
