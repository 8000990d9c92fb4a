"""The benchmark scripts in `benchmarks/` still run, so their byte-equality
checks still hold. `bench_svd.py` takes about 15 s even at its smallest
settings and is left to be run by hand."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_ops_runs_and_its_forms_agree():
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "bench_ops.py"),
         "--repeats", "1", "--rounds", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "LoRA/LaMDA held after forward" in proc.stdout
