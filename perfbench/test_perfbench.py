"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
from layers import LAYER_METRICS, step_accounting  # noqa: E402
from tracer import Patcher, Tracer, install, outermost, self_times, union_length  # noqa: E402


def _bindings():
    import lamda
    from lamda import adapter, allocator, cli, model, tensor, train
    from lamda.train import Adam

    svd = sys.modules["lamda.svd"]  # the package rebinds `lamda.svd` to the function

    return {
        "svd.svd": (svd, "svd"), "allocator.svd": (allocator, "svd"), "cli.svd": (cli, "svd"),
        "lamda.svd": (lamda, "svd"), "tensor.matmul": (tensor, "matmul"),
        "model.matmul": (model, "matmul"), "adapter.matmul": (adapter, "matmul"),
        "model.slice_cols": (model, "slice_cols"), "train.build_adapter": (train, "build_adapter"),
        "Adam.step": (Adam, "step"),
    }


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    bindings = _bindings()
    originals = {key: vars(owner)[attr] for key, (owner, attr) in bindings.items()}
    tracer, patcher = Tracer(), Patcher()
    install(tracer, patcher)
    try:
        for key, (owner, attr) in bindings.items():
            assert vars(owner)[attr] is not originals[key], key
        from lamda import cli, model
        from lamda.tensor import Tensor

        assert cli.svd is vars(sys.modules["lamda.svd"])["svd"]  # one wrapper, all names
        model.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        cli.svd(np.eye(3))
        assert tracer.leaf_calls["matmul"] == 1
        assert [s[0] for s in tracer.spans] == ["svd"]
    finally:
        patcher.restore()
    patcher.verify_restored()
    for key, (owner, attr) in bindings.items():
        assert vars(owner)[attr] is originals[key], key


def test_verify_restored_catches_a_leftover_wrapper():
    from lamda import cli

    patcher = Patcher()
    original = cli.svd
    patcher.wrap_attr(cli, "svd", lambda fn: lambda *a, **k: fn(*a, **k))
    with pytest.raises(RuntimeError):
        patcher.verify_restored()
    patcher.restore()
    assert cli.svd is original
    patcher.verify_restored()


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a, as pool threads do
        ["a.child", 1.0, 2.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert union_length([(0, 5)], lo=1, hi=2) == pytest.approx(1.0)


def test_outermost_skips_spans_nested_in_the_same_layer():
    spans = [
        ["allocator.score", 0.0, 5.0, None, 0],
        ["svd", 0.5, 4.0, 0, 0],
        ["allocator.score", 4.0, 4.5, 0, 0],  # score_from_sigma inside score_modules
        ["allocator.score", 6.0, 7.0, None, 0],
    ]
    assert outermost(spans, ["allocator.score"]) == [0, 3]
    assert outermost(spans, ["svd"]) == [1]


def test_step_accounting_counts_phases_inside_each_step():
    marks = [0.0, 10.0, 20.0]  # step 0 ends at 0; steps 1 and 2 follow
    spans = [
        ["op", -5.0, 21.0, None, 0],
        ["tasks.batch", 1.0, 2.0, 0, 0],
        ["model.loss", 2.0, 6.0, 0, 0],
        ["model.forward", 2.0, 5.0, 2, 0],  # nested: counted once, via model.loss
        ["tape.backward", 6.0, 9.0, 0, 0],
        ["train.adam", 11.0, 19.0, 0, 0],
        ["tasks.batch", -4.0, -3.0, 0, 0],  # before the first step: ignored
    ]
    wall, coverage = step_accounting(spans, {0: marks})
    assert wall == pytest.approx(20.0)
    assert coverage == pytest.approx((1 + 4 + 3 + 8) / 20)


def test_every_metric_is_declared_with_unit_and_direction():
    spec = run.load_spec()
    run.check_declarations(spec, LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    wrong = [(n, "ms" if u == "s" else u, b) for n, u, b in LAYER_METRICS]
    with pytest.raises(run.UsageError):
        run.check_declarations(spec, wrong)
    with pytest.raises(run.UsageError):
        run.check_declarations(spec, LAYER_METRICS[:-1])


def test_end_to_end_takes_each_phase_and_unit_at_its_best():
    from workloads import OpRecord

    records = [
        OpRecord(start=0.0, end=6.0, phases=[1.0, 2.0, 2.0, 1.0], steady=slice(1, 3),
                 unit_s=[2.0, 2.0]),
        OpRecord(start=0.0, end=7.0, phases=[2.0, 1.0, 3.0, 1.0], steady=slice(1, 3),
                 unit_s=[1.0, 3.0]),
    ]
    metrics, samples = run.end_to_end(records, [], 4.0)
    assert metrics["run_s"] == pytest.approx(1 + 1 + 2 + 1)
    assert metrics["steps_per_s"] == pytest.approx(2 / 3)
    assert metrics["step_ms_p50"] == pytest.approx(1500.0)  # best units [1, 2]
    assert metrics["setup_s"] == pytest.approx(1.5)  # median set-up, not the best
    assert metrics["eval_loss"] == 4.0
    assert samples["run_s"] == 2
