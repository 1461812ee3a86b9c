"""The benchmark's layer tracer finds every attribute it patches, and puts
each one back; the benchmark's correctness gate passes."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from idealtop import jsonio, search, space, star, theorems

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_patches_and_uninstall_restores():
    modules = (jsonio, search, space, star, theorems)
    before = [dict(vars(m)) for m in modules]
    tr = load_tracer().Tracer()
    tr.install(scan=True)
    try:
        patched = {(m.__name__, name)
                   for m, old in zip(modules, before)
                   for name, value in vars(m).items()
                   if old.get(name) is not value}
    finally:
        tr.uninstall()
    for name in ("classify", "is_compatible", "is_ideal_compact", "check",
                 "hypotheses_pass", "conclusions_violated"):
        assert ("idealtop.theorems", name) in patched, name
    assert ("idealtop.search", "_run_row") in patched
    for m, old in zip(modules, before):
        assert vars(m).keys() == old.keys(), m.__name__
        restored = [name for name, value in old.items()
                    if vars(m)[name] is not value]
        assert restored == [], (m.__name__, restored)


def test_benchmark_selftest_passes():
    # a slice of each workload against its recorded expectations: the
    # nominal scan count, the carrier-restricted warm-up and the tracer names
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("workload", ["certify", "instances"])
def test_traced_benchmark_run_is_correct(workload):
    # one traced pass: the tracer finds the names it patches, and the
    # cache count finds the package's lru caches, the search's included
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
