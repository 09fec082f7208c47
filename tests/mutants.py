"""Committed mutants of the package: each one breaks a proven step or a
checked guard, and the tests named with it must fail.

    python3 tests/mutants.py [name ...]

A mutant is (name, file under ``src/``, exact source text, replacement,
pytest node ids). The script first runs every named node id once on an
unmutated copy of ``src/``, where they must pass. It then copies ``src/``
afresh into a temporary directory per mutant, replaces the text there,
which must occur exactly once, and runs only that mutant's node ids from
the repository root with the copy first on PYTHONPATH. The mutant is killed
when pytest reports a failing test (exit 1); a surviving mutant, a missing
text or any other pytest exit is an error, and the script exits 1. With
names, only those mutants run. It uses the standard library alone, and
pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEARCH = "retesting/search.py"
LEMMA = "tests/test_search.py::TestSpineVertexLemma::test_whole_tree_vertex_is_the_lifted_spine_vertex"
PLAN = "tests/test_search.py::TestPolicyListPlan"


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    text: str
    replacement: str
    node_ids: tuple[str, ...]


MUTANTS = (
    Mutant("spine point not divided by the unit", SEARCH,
           "        x[c] = v / unit\n", "        x[c] = v\n",
           (f"{LEMMA}[3]", "tests/test_search.py::TestPolicyListWitnesses::test_stops_are_read_once_per_new_class")),
    Mutant("a nonzero lift off the spine", SEARCH,
           "    x = [_ZERO] * len(spine.reach)\n", "    x = [_ONE] * len(spine.reach)\n",
           (f"{LEMMA}[3]",)),
    Mutant("the spine rhs read at the wrong weights", SEARCH,
           "    b_ub = [_at(form, weights) for form in spine.b_ub]\n"
           "    point = _simplex.feasible_point(",
           "    b_ub = [_at(form, weights[::-1]) for form in spine.b_ub]\n"
           "    point = _simplex.feasible_point(",
           (f"{LEMMA}[3]", f"{LEMMA}[5]")),
    Mutant("the spine ranges on the plan's matrix, not the point's", SEARCH,
           "    a_ub = [[v * unit for v in row] for row in spine.a_ub]\n",
           "    a_ub = [list(row) for row in spine.a_ub]\n",
           ("tests/test_search.py::TestSmallerLPs::test_report_max_intervals_match_the_reference[3]",)),
    Mutant("_dual_holds without the yA check", SEARCH,
           "            and all(sum(map(mul, y, col)) >= 0 for col in zip(*a_ub)))\n",
           "            and True)\n",
           (f"{PLAN}::test_a_certificate_that_fails_its_check_changes_no_verdict",)),
    Mutant("_spine_refutes without the yA check", SEARCH,
           "                                if _dual_holds(y, spine.a_ub) else None)\n",
           "                                if min(y, default=0) >= 0 else None)\n",
           (f"{PLAN}::test_a_certificate_that_fails_its_check_changes_no_verdict",)),
    Mutant("an unchecked Farkas point kept", SEARCH,
           "    if not _certifies(y, spine.a_ub, b_ub):\n", "    if False:\n",
           (f"{PLAN}::test_a_farkas_point_that_fails_its_check_is_not_kept",)),
    Mutant("the origin test with pos and neg swapped", SEARCH,
           "    return not (bits & pos or ~bits & neg)\n", "    return not (bits & neg or ~bits & pos)\n",
           ("tests/test_search.py::TestTreeDecision::test_every_census_lp",)),
    Mutant("kept groups keyed without alpha 1, which reads the table below 1", SEARCH,
           "            for group, patterns, code in _kept_groups(k, first, at_one, pos, neg)}\n",
           "            for group, patterns, code in _kept_groups(k, first, False, pos, neg)}\n",
           ("tests/test_search.py::TestSignKeyedCensus::test_groups_match_the_per_pattern_loop[2]",)),
    Mutant("a value polynomial without its top coefficient", SEARCH,
           "        return tuple(value // base**j % base for j in range(k))\n",
           "        return tuple(value // base**j % base for j in range(k - 1))\n",
           ("tests/test_search.py::TestCensusTable::test_table_matches_the_induction_at_every_alpha[2]",)),
    Mutant("the report-all interval origin test with pos and neg swapped", SEARCH,
           "            if not _origin_holds(policy.bits, pos, neg):\n",
           "            if not _origin_holds(policy.bits, neg, pos):\n",
           ("tests/test_search.py::TestFreeIntervals::test_no_equilibrium_needs_no_column_lp",)),
    Mutant("the subtree ranges' reach list in template.reach order", SEARCH,
           "values[template.reach[key][1]]) for key in template.var_index]\n",
           "values[template.reach[key][1]]) for key in template.reach]\n",
           ("tests/test_search.py::TestSmallerLPs::test_report_all_intervals_match_the_reference[2]",)),
    Mutant("the interval table read below 1 at alpha 1", SEARCH,
           "_subtree_induction(k, first, params.alpha == 1).codes[code][0]",
           "_subtree_induction(k, first, False).codes[code][0]",
           ("tests/test_search.py::TestCensusPlan::test_repeat_census_at_alpha_one_reads_no_template",)),
    Mutant("ANY given a stop of 0 at the origin", SEARCH,
           "    return {(t, h): _ZERO if _rule_of(code, t, h) == CONTINUE else _ONE for t, h in keys}\n",
           "    return {(t, h): _ONE if _rule_of(code, t, h) == STOP else _ZERO for t, h in keys}\n",
           ("tests/test_search.py::TestOriginWitness::test_mask_verdicts_and_stops_from_the_code",)),
)


def copy_src(temp: Path) -> Path:
    """A fresh copy of ``src/`` under ``temp``, without bytecode."""
    dest = temp / "src"
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def run_tests(src: Path, node_ids: tuple[str, ...]) -> int:
    """Run the node ids from the repository root on the package in ``src``;
    pytest's exit code. Refuses to run if ``retesting`` would load from
    anywhere else."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
               PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import retesting; print(retesting.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise SystemExit(f"retesting loads from {where}, not from the copy in {src}")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    mutants = [m for m in MUTANTS if not names or m.name in names]
    node_ids = tuple(dict.fromkeys(node_id for m in mutants for node_id in m.node_ids))
    errors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as temp:
        code = run_tests(copy_src(Path(temp, "original")), node_ids)
        print(f"unmutated: {len(node_ids)} node ids, pytest exit {code}", flush=True)
        if code != 0:
            return 1
        for i, mutant in enumerate(mutants):
            src = copy_src(Path(temp, str(i)))
            target = src / mutant.path
            text = target.read_text()
            found = text.count(mutant.text)
            if found != 1:
                errors.append(mutant.name)
                print(f"ERROR {mutant.name}: its text occurs {found} times in src/{mutant.path}", flush=True)
                continue
            target.write_text(text.replace(mutant.text, mutant.replacement))
            start = time.perf_counter()
            code = run_tests(src, mutant.node_ids)
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
            print(f"{verdict}: {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if code != 1:
                errors.append(mutant.name)
    print(f"{len(mutants) - len(errors)} of {len(mutants)} mutants killed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
