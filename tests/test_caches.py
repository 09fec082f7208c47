"""Caches of values that do not depend on the prior p: thresholds once per
(alpha, phi, k), with their phi-free part once per (alpha, k), canonical
policies and strategies once per k, within-cohort rows once per (alpha, k,
strategy) and error rates once per (alpha, k, profile); and the caches of
the exact search, whose layouts hold one point's masses, with its pool of
Farkas certificates."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import retesting.cli
from retesting import AdmissionPolicy, Category, ModelParams, StudentStrategy, boundary_thresholds, fairness_report
from retesting import equilibria, model, search
from retesting.equilibria import _chase_run, _threshold_record, construct_non_first_score_equilibrium
from retesting.metrics import _error_rates

README_GRID = ["--alpha", "0.6:0.9:0.1", "--p", "0.05:0.95:0.05", "--phi", "0,0.5,1", "--k", "2,3"]

# every cache filled by the closed forms or the search, by its dotted path
# from the package
CACHES = {
    "equilibria._threshold_record": _threshold_record,
    "equilibria._run_thresholds": equilibria._run_thresholds,
    "equilibria._chase_run": _chase_run,
    "equilibria._best_score_masks": equilibria._best_score_masks,
    "equilibria.AdmissionPolicy.first_score": AdmissionPolicy.first_score,
    "equilibria.AdmissionPolicy.best_score_a": AdmissionPolicy.best_score_a,
    "equilibria.AdmissionPolicy.accept_all": AdmissionPolicy.accept_all,
    "equilibria.AdmissionPolicy.reject_all": AdmissionPolicy.reject_all,
    "equilibria.AdmissionPolicy.b_then_a_run": AdmissionPolicy.b_then_a_run,
    "model.StudentStrategy.always_stop": StudentStrategy.always_stop,
    "model.StudentStrategy.stop_after_a": StudentStrategy.stop_after_a,
    "model.node_index": model.node_index,
    "model.cohort_rows": model.cohort_rows,
    "metrics._error_rates": _error_rates,
    "search._subtree": search._subtree,
    "search._subtree_mask": search._subtree_mask,
    "search._subtree_induction": search._subtree_induction,
    "search._subtree_response": search._subtree_response,
    "search._code_book": search._code_book,
    "search._group_odds": search._group_odds,
    "search._kept_groups": search._kept_groups,
    "search._admit_terms": search._admit_terms,
    "search._class_label": search._class_label,
    "search._family_policies": search._family_policies,
    "search._policy_plan": search._policy_plan,
    "search._certificate_list": search._certificate_list,
    "search._origin_strategy": search._origin_strategy,
    "search._tree_origin_strategy": search._tree_origin_strategy,
    "search._shape": search._shape,
    "search._layout": search._layout,
    "search._template": search._template,
}


def test_every_cache_is_bounded():
    for name, cached in CACHES.items():
        assert cached.cache_info().maxsize is not None, name
        assert cached.cache_info().maxsize <= 256, name


def test_certificate_lists_and_plans_stay_within_their_caps(monkeypatch):
    """41 k=3 alphas, each with both censuses, then report-max at k=10: the
    plans and the certificate lists stay within their caps, and certificates
    kept at one alpha refute spine LPs at later ones."""
    certificate_list, lists = search._certificate_list, {}
    monkeypatch.setattr(search, "_certificate_list", lambda key: lists.setdefault(key, certificate_list(key)))
    farkas, spine_refutes, solved, refuted = search._farkas, search._spine_refutes, [], []
    monkeypatch.setattr(search, "_farkas", lambda *args: solved.append(farkas(*args)) or solved[-1])
    monkeypatch.setattr(search, "_spine_refutes", lambda *args: refuted.append(spine_refutes(*args)) or refuted[-1])
    alphas = [Fraction(51 + j, 100) for j in range(40)] + [Fraction(1)]
    for alpha in alphas:
        for scope in ("report-all", "report-max"):
            search.enumerate_outcomes(ModelParams(p="0.5", alpha=alpha, phi="0.5", k=3), scope)
    found = sum(y is not None for y in solved)
    assert sum(refuted) - found > 10 * found > 0  # refuted by a kept certificate, and by a new one
    search.enumerate_outcomes(ModelParams(p="0.5", alpha="0.8", phi="0.5", k=10), "report-max")
    info = certificate_list.cache_info()
    assert 0 < info.currsize <= info.maxsize and len(lists) == info.misses
    assert all(len(certificates) <= search._PER_KEY for certificates in lists.values())
    assert any(lists.values())
    plans = search._policy_plan.cache_info()
    assert plans.misses == len(alphas) + 1 and plans.currsize == plans.maxsize


def test_certificate_list_keeps_the_last_to_refute_first(monkeypatch):
    """A key keeps at most ``_PER_KEY`` certificates: one that refutes an LP
    moves to the front, and a new one goes first and pushes the last out."""
    certificate_list, lists = search._certificate_list, {}
    monkeypatch.setattr(search, "_certificate_list", lambda key: lists.setdefault(key, certificate_list(key)))
    params = ModelParams(p="0.5", alpha="0.8", phi="0.5", k=3)
    search.enumerate_outcomes(params, "report-max")
    certificates = next(certificates for certificates in lists.values() if certificates)
    [y] = certificates
    fillers = [(j,) * (len(y) + 1) for j in range(search._PER_KEY)]  # of the wrong length: they refute nothing
    certificates[:] = fillers[1:] + [y]
    search.enumerate_outcomes(params, "report-max")
    assert certificates == [y] + fillers[1:]
    certificates[:] = fillers
    search.enumerate_outcomes(params, "report-max")
    assert certificates == [y] + fillers[:-1]


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
        # every bound, in order, whether it enters per (alpha, phi) or per alpha
        want = {"alpha_bar": ab, "alpha": a, "p_hat": lower, "p_hat_prime": upper}
        if k == 2:
            want["p_hat_hat"] = min(Fraction(1, 2), (c + ab) / (c + 1))
        want.update((f"p_star_{n}", equilibria.p_star(n, a) if n >= 2 else a) for n in range(1, k + 3))
        if a != 1:
            want["p_double_star"] = equilibria.p_double_star(k, a)
        assert list(boundary_thresholds(params).items()) == list(want.items())
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
from retesting import equilibria, metrics, model, search
out = {{}}
for name in {sorted(CACHES)!r}:
    obj = {{"equilibria": equilibria, "metrics": metrics, "model": model, "search": search}}[name.split(".")[0]]
    for part in name.split(".")[1:]:
        obj = getattr(obj, part)
    out[name] = obj.cache_info().currsize
print(json.dumps(out))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(retesting.cli.__file__)))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env).stdout
    assert json.loads(out) == {name: 0 for name in CACHES}


def _profile_keys(argv):
    """(key, label) of every report a sweep over ``argv`` makes, in order."""
    args = retesting.cli._parser().parse_args(["sweep", *argv])
    out = []
    for alpha, p, phi, k in product(args.alpha, args.p, args.phi, args.k):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
        for profile in equilibria.closed_form_profiles(params):
            key = (params.alpha, k, profile.policy.bits, profile.strategy)
            out.append((key, profile.label))
    return out


def test_readme_sweep_fills_one_error_record_per_profile(capsys):
    _error_rates.cache_clear()
    assert retesting.cli.main(["sweep", *README_GRID]) == 0
    capsys.readouterr()
    reports = _profile_keys(README_GRID)
    info = _error_rates.cache_info()
    assert info.hits + info.misses == len(reports) == 806
    # one record per (alpha, k, profile): those whose stops do not depend on
    # p are read back at every other p and phi of the grid; the reject-all
    # witness of k = 2 retakes after a Low B at a rate set by p and phi, so
    # it adds one record per distinct rate
    assert info.currsize == info.misses == len({key for key, _ in reports})
    p_free = {key for key, label in reports if label != equilibria.REJECT_ALL}
    assert 0 < len(p_free) <= 4 * (3 + 4)  # separating, first-score and a run per n, per alpha and k
    assert info.misses < len(p_free) + sum(label == equilibria.REJECT_ALL for _, label in reports)


def test_reject_all_rows_match_a_cold_cache():
    """At k = 2 the reject-all witness's stops depend on p, so a warm cache
    must hand each p the record of its own stops."""
    ps = [Fraction(j, 20) for j in range(1, 20)]
    warm_grid = ([Fraction(7, 10)], ps, [Fraction(0), Fraction(1, 2), Fraction(1)], [2])
    retesting.cli._sweep_rows(*warm_grid)
    warm = retesting.cli._sweep_rows(*warm_grid)
    assert sum(row[5] == equilibria.REJECT_ALL for row in warm) >= 19
    cold = []
    for phi, p in product(warm_grid[2], ps):
        _error_rates.cache_clear()
        cold += retesting.cli._sweep_rows(warm_grid[0], [p], [phi], [2])
    assert sorted(warm) == sorted(cold)


def test_error_record_is_keyed_without_p_or_phi():
    _error_rates.cache_clear()
    profile = equilibria.construct_first_score_equilibrium(
        ModelParams(p=Fraction(1, 2), alpha=Fraction(7, 10), phi=Fraction(1, 2), k=3)
    )
    for p, phi in product(range(7, 14), range(0, 5)):
        fairness_report(ModelParams(p=Fraction(p, 20), alpha=Fraction(7, 10), phi=Fraction(phi, 4), k=3), profile)
    assert _error_rates.cache_info().currsize == 1


def test_strategies_with_equal_stops_share_a_record():
    k = 3
    shared = StudentStrategy.stop_after_a(k)
    rebuilt = StudentStrategy(dict(reversed(list(shared.stop.items()))))
    assert rebuilt is not shared and rebuilt == shared and hash(rebuilt) == hash(shared)
    changed = dict(shared.stop)
    changed[(model.StudentType.HIGH, model.seq("B"))] = Fraction(1, 2)  # some stop after a B
    assert StudentStrategy(changed) != shared
    _error_rates.cache_clear()
    alpha, bits = Fraction(4, 5), AdmissionPolicy.best_score_a(k).bits
    assert _error_rates(alpha, k, bits, shared) is _error_rates(alpha, k, bits, rebuilt)
    assert _error_rates(alpha, k, bits, StudentStrategy(changed)) != _error_rates(alpha, k, bits, shared)
    assert _error_rates.cache_info().currsize == 2


def test_reports_hand_out_read_only_rates():
    """Reports of one profile at other priors share the cached maps, so no
    report may let its caller change them."""
    first = ModelParams(p=Fraction(3, 10), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=2)
    other = ModelParams(p=Fraction(2, 5), alpha=Fraction(4, 5), phi=Fraction(1, 4), k=2)
    profile = equilibria.report_max_separating(first)
    report = fairness_report(first, profile)
    with pytest.raises(TypeError):
        report.fnr[Category.CAT1] = Fraction(0)
    with pytest.raises(TypeError):
        report.fpr[Category.CAT2] = Fraction(0)
    with pytest.raises(TypeError):
        report.admit_prob[model.COHORTS[0]] = Fraction(0)
    with pytest.raises(TypeError):
        del report.fnr[Category.CAT2]
    again = fairness_report(other, profile)
    assert again.fnr == {Category.CAT1: Fraction(1, 5), Category.CAT2: Fraction(1, 25)}
    assert again.fpr == {Category.CAT1: Fraction(1, 5), Category.CAT2: Fraction(9, 25)}
    assert again.admit_prob == dict(zip(model.COHORTS, (Fraction(4, 5), Fraction(1, 5), Fraction(24, 25), Fraction(9, 25))))
