"""The benchmark scripts in `benchmarks/` still run, so their byte-equality
checks still hold. `bench_svd.py` takes about 15 s even at its smallest
settings, so its checks run here in process on small operands, and its
fresh-process table in one child."""

import importlib.util
import os
import subprocess
import sys

import numpy as np

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


def test_bench_svd_checks_hold_on_small_operands(capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_svd", os.path.join(ROOT, "benchmarks", "bench_svd.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    # The kernel against the scalar loop, and full against values-only.
    bench._row("24x12", (24, 12), 1)
    bench._values_only_row("24x12", (24, 12), 1)
    label, sweeps, waves = capsys.readouterr().out.split()[:3]
    # The wave counter sees every wave: n per sweep plus the last one's
    # tail of n - 3, with n = 12 working columns.
    assert label == "24x12" and int(waves) == int(sweeps) * 12 + 9

    rng = np.random.default_rng(5)
    ats = [bench._operands(rng.normal(size=shape)) for shape in ((12, 8), (8, 20), (12, 8))]
    _, one = bench._one_at_a_time(ats)
    _, stacked = bench._stacked(ats)
    assert stacked == one and all(run[4] for run in one)

    # The fresh-process table: one child, one row of times and fault counts.
    capsys.readouterr()
    bench._cold_table({"a": rng.normal(size=(12, 8)), "b": rng.normal(size=(8, 20))}, 1)
    _, row = capsys.readouterr().out.splitlines()
    child, first, first_faults, second, second_faults = row.split()
    assert child == "1" and float(first) >= 0 and float(second) >= 0
    assert int(first_faults) >= 0 and int(second_faults) >= 0

    # The analyze table's smallest row: d 64, one 64x64 and one 64x256 f32 matrix.
    bench._analyze_row(64, 1, 1)
    d, layers, size, seconds, peak = capsys.readouterr().out.split()
    assert d == "64" and layers == "1" and int(size) > 4 * 64 * 64 * 5
    assert float(seconds) > 0 and float(peak) > 0
