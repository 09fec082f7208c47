"""Run the steps of the CI workflow locally, in order, as CI would.

    python3 tests/run_workflow.py

Every ``run`` step of ``.github/workflows/tests.yml`` runs from the
repository root under ``bash -eo pipefail``, with RUNNER_TEMP set to a fresh
temporary directory; the first failing step stops the run and the script
exits 1. Steps that only use an action (checkout, setup-python) are skipped.
The install step is replaced, since an editable install needs the ``wheel``
package: ``src`` goes on PYTHONPATH and a ``retesting`` shim that calls
:func:`retesting.cli.main` goes on PATH. Pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP_KEYS = {"name", "run", "shell", "uses", "with"}

SHIM = """#!/bin/sh
exec "{python}" -c 'import sys; from retesting.cli import main; sys.exit(main())' "$@"
"""


def main() -> int:
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    with tempfile.TemporaryDirectory(prefix="runner-") as temp:
        env = dict(os.environ, RUNNER_TEMP=temp)
        for job_name, job in jobs.items():
            for step in job["steps"]:
                unknown = set(step) - STEP_KEYS
                if unknown:
                    raise SystemExit(f"{job_name}: step keys {sorted(unknown)} are not supported")
                name = step.get("name") or step.get("uses")
                if "run" not in step:
                    print(f"== {name}: skipped, it only uses an action", flush=True)
                    continue
                if "pip install" in step["run"]:
                    shims = Path(temp, "bin")
                    shims.mkdir()
                    (shims / "retesting").write_text(SHIM.format(python=sys.executable))
                    (shims / "retesting").chmod(0o755)
                    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
                    env["PATH"] = os.pathsep.join([str(shims), env["PATH"]])
                    print(f"== {name}: replaced by PYTHONPATH=src and a `retesting` shim on PATH "
                          f"(an editable install needs the wheel package)", flush=True)
                    continue
                print(f"== {name}", flush=True)
                script = Path(temp, "step.sh")
                script.write_text(step["run"])
                start = time.perf_counter()
                code = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
                                      cwd=ROOT, env=env).returncode
                took = time.perf_counter() - start
                if code:
                    print(f"-- {name}: FAILED with exit {code} after {took:.1f} s", flush=True)
                    return 1
                print(f"-- {name}: passed in {took:.1f} s", flush=True)
    print("every step passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
