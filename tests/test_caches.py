"""Caches of values that do not depend on the prior p: thresholds once per
(alpha, phi, k), canonical policies and strategies once per k."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import retesting.cli
from retesting import AdmissionPolicy, ModelParams, StudentStrategy, boundary_thresholds
from retesting import equilibria, model
from retesting.equilibria import _chase_run, _threshold_record, construct_non_first_score_equilibrium

README_GRID = ["--alpha", "0.6:0.9:0.1", "--p", "0.05:0.95:0.05", "--phi", "0,0.5,1", "--k", "2,3"]

# every cache filled by the closed forms, by its dotted path from the package
CACHES = {
    "equilibria._threshold_record": _threshold_record,
    "equilibria._chase_run": _chase_run,
    "equilibria.AdmissionPolicy.first_score": AdmissionPolicy.first_score,
    "equilibria.AdmissionPolicy.best_score_a": AdmissionPolicy.best_score_a,
    "equilibria.AdmissionPolicy.accept_all": AdmissionPolicy.accept_all,
    "equilibria.AdmissionPolicy.reject_all": AdmissionPolicy.reject_all,
    "equilibria.AdmissionPolicy.b_then_a_run": AdmissionPolicy.b_then_a_run,
    "model.StudentStrategy.always_stop": StudentStrategy.always_stop,
    "model.StudentStrategy.stop_after_a": StudentStrategy.stop_after_a,
    "model.node_index": model.node_index,
}


def test_every_cache_is_bounded():
    for name, cached in CACHES.items():
        assert cached.cache_info().maxsize is not None, name
        assert cached.cache_info().maxsize <= 256, name


def test_readme_sweep_fills_one_threshold_record_per_triple(capsys):
    _threshold_record.cache_clear()
    assert retesting.cli.main(["sweep", *README_GRID]) == 0
    capsys.readouterr()
    info = _threshold_record.cache_info()
    # 4 alphas x 3 phis x 2 ks; each of the 19 p's of a triple after the
    # first is a hit
    assert info.currsize == info.misses == 24
    assert info.hits >= 24 * 18


def test_threshold_record_is_keyed_without_p():
    _threshold_record.cache_clear()
    for p in range(1, 20):
        params = ModelParams(p=Fraction(p, 20), alpha=Fraction(7, 10), phi=Fraction(1, 2), k=3)
        equilibria.is_boundary(params)
        equilibria.closed_form_profiles(params)
    assert _threshold_record.cache_info().currsize == 1


def test_boundary_thresholds_hands_out_a_copy():
    params = ModelParams(p=Fraction(3, 10), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=2)
    first = boundary_thresholds(params)
    want = dict(first)
    first["p_hat"] = Fraction(0)
    first["made_up"] = Fraction(1, 3)
    del first["alpha"]
    assert boundary_thresholds(params) == want
    record = _threshold_record(params.alpha, params.phi, params.k)
    with pytest.raises(TypeError):
        record.bounds["p_hat"] = Fraction(0)
    assert not equilibria.is_boundary(ModelParams(p=Fraction(1, 3), alpha=params.alpha, phi=params.phi, k=2))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cached_thresholds_match_the_closed_forms(k):
    """The record holds what the formulas give, so a cached value is never
    another triple's."""
    grid = product((Fraction(3, 5), Fraction(9, 10), Fraction(1)), (Fraction(0), Fraction(1, 2), Fraction(1)))
    for alpha, phi in grid:
        params = ModelParams(p=Fraction(1, 2), alpha=alpha, phi=phi, k=k)
        a, ab, phib = alpha, 1 - alpha, 1 - phi
        lower = (phi * ab + phib * (1 - a**k)) / (phi + phib * (2 - a**k - ab**k))
        upper = (phi * a + phib * a**k) / (phi + phib * (a**k + ab**k))
        assert equilibria.report_max_thresholds(params) == (lower, upper)
        c = a * ab * phib
        assert equilibria.reject_all_threshold(params) == min(Fraction(1, 2), (c + ab) / (c + 1))
        first, region = equilibria.report_all_regions(params)
        assert region == equilibria.Region(
            [(equilibria.p_star(k + 2, a), ab), (equilibria.p_star(k, a), a)]
        )
        for n in range(2, k + 1):
            hi = a if n == 2 else equilibria.p_star(n - 1, a)
            assert equilibria.non_first_score_region(params, n) == equilibria.Region(
                [(max(equilibria.p_star(n, a), ab), min(hi, a))]
            )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_policies_and_strategies_are_built_once_per_k(k):
    for name in ("first_score", "best_score_a", "accept_all", "reject_all"):
        build = getattr(AdmissionPolicy, name)
        assert build(k) is build(k)
        assert build(k).k == k
    for build in (StudentStrategy.always_stop, StudentStrategy.stop_after_a):
        assert build(k) is build(k)
    for n in range(2, k + 1):
        assert AdmissionPolicy.b_then_a_run(k, n) is AdmissionPolicy.b_then_a_run(k, n)
        profiles = [
            construct_non_first_score_equilibrium(
                ModelParams(p=p, alpha=Fraction(3, 5), phi=Fraction(1, 2), k=k), n
            )
            for p in (Fraction(1, 2), Fraction(11, 20))
        ]
        if all(profiles):
            assert profiles[0].strategy is profiles[1].strategy


def test_import_leaves_every_cache_empty():
    """The caches fill on first use, never at import, so that start-up does
    not pay for them."""
    script = f"""
import json, retesting.cli
from retesting import equilibria, model
out = {{}}
for name in {sorted(CACHES)!r}:
    obj = {{"equilibria": equilibria, "model": model}}[name.split(".")[0]]
    for part in name.split(".")[1:]:
        obj = getattr(obj, part)
    out[name] = obj.cache_info().currsize
print(json.dumps(out))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(retesting.cli.__file__)))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env).stdout
    assert json.loads(out) == {name: 0 for name in CACHES}
