"""Shared test settings: property tests draw the same examples on every run,
and every test starts with cold error-rate, cohort-row and census witness
caches."""

import pytest
from hypothesis import settings

from retesting.metrics import _error_rates
from retesting.model import cohort_rows
from retesting.search import _origin_strategy

# derandomized, so each property test sees a fixed example list; no deadline,
# since exact k=3 censuses vary in time with the host and the induction cache
settings.register_profile("retesting", derandomize=True, deadline=None, max_examples=30, database=None)
settings.load_profile("retesting")


@pytest.fixture(autouse=True)
def cold_error_rates():
    """Each test starts with empty error-rate, cohort-row and census witness
    caches, so that a test which counts outcome distributions per report or
    strategies built per census sees the first-use path whatever ran before
    it."""
    _error_rates.cache_clear()
    cohort_rows.cache_clear()
    _origin_strategy.cache_clear()
