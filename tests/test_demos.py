"""The demo scripts run to completion against the package sources."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_demos_exit_cleanly():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 5
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    failed = []
    for demo in demos:
        run = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        if run.returncode != 0:
            failed.append((demo.name, run.returncode, run.stderr[-2000:]))
    assert not failed, failed
