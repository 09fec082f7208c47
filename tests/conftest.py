"""Shared test settings: property tests draw the same examples on every run,
and every test starts with cold error-rate, cohort-row and census caches and
no kept certificate."""

import pytest
from hypothesis import settings

from retesting.metrics import _error_rates
from retesting.model import cohort_rows
from retesting import search

# derandomized, so each property test sees a fixed example list; no deadline,
# since exact k=3 censuses vary in time with the host and the induction cache
settings.register_profile("retesting", derandomize=True, deadline=None, max_examples=30, database=None)
settings.load_profile("retesting")


@pytest.fixture(autouse=True)
def cold_error_rates():
    """Each test starts with empty error-rate, cohort-row and census caches
    (group odds per alpha, kept groups per row-sign key, admission terms,
    class labels, family policies, policy-list plans and witness strategies)
    and an empty certificate pool, so that a test which counts outcome
    distributions per report, mask tests, strategies built per census or LPs
    refuted by a kept certificate sees the first-use path whatever ran
    before it. The census tables, one per (k, first score, alpha is 1),
    stay: no test counts their fills without clearing them itself."""
    _error_rates.cache_clear()
    cohort_rows.cache_clear()
    for cached in (search._group_odds, search._kept_groups, search._admit_terms, search._class_label,
                   search._family_policies, search._policy_plan, search._origin_strategy,
                   search._certificate_list):
        cached.cache_clear()
