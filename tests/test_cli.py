import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamda import accounting, cli, container
from lamda.errors import NumericalError
from lamda.model import ToyTransformer, ToyTransformerConfig
from lamda.train import TrainRunConfig, build_run, train


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def weights_file(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {}
    for layer in range(2):
        for kind in ("q", "v"):
            tensors[f"L{layer}.{kind}"] = rng.normal(size=(16, 16)).astype(np.float32)
    tensors["bias"] = np.zeros(4, dtype=np.float32)  # 1-D, must be skipped
    path = tmp_path / "w.ldwt"
    container.write_weights(path, tensors)
    return path


def _zero_row():
    """A Gaussian 8x8 that svd cannot decompose (it does not converge)."""
    w = np.random.default_rng(0).normal(size=(8, 8))
    w[0] = 0.0
    return w


class TestAnalyzePlan:
    def test_pipeline(self, tmp_path, weights_file):
        scores = tmp_path / "scores.json"
        energy = tmp_path / "energy.csv"
        assert run_cli("analyze", "--weights", str(weights_file),
                       "--ranks", "2,4,6", "--target", "4",
                       "--scores-out", str(scores),
                       "--energy-csv", str(energy), "--max-rank", "6") == 0
        doc = json.loads(scores.read_text())
        assert len(doc["modules"]) == 4
        with open(energy, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 6
        assert all(0 < float(r["energy_ratio"]) <= 1.0 + 1e-12 for r in rows)

        budget = tmp_path / "budget.json"
        budget.write_text(json.dumps({"ranks": [2, 4, 6], "target": 4}))
        plan = tmp_path / "plan.json"
        assert run_cli("plan", "--scores", str(scores), "--budget", str(budget),
                       "--out", str(plan)) == 0
        plan_doc = json.loads(plan.read_text())
        # 4 modules over 3 quantiles: boundaries 0,1,2,4 -> ranks 6,4,2,2
        assert sorted(plan_doc["ranks"].values()) == [2, 2, 4, 6]

        rev = tmp_path / "rev.json"
        assert run_cli("plan", "--scores", str(scores), "--budget", str(budget),
                       "--reverse", "--out", str(rev)) == 0
        rev_doc = json.loads(rev.read_text())
        first = plan_doc["order"][0]
        assert plan_doc["ranks"][first] == 6 and rev_doc["ranks"][first] == 2

    def test_missing_module_is_usage_error(self, weights_file, capsys):
        code = run_cli("analyze", "--weights", str(weights_file),
                       "--ranks", "2,4,6", "--target", "4",
                       "--modules", "L0.q,L9.zz")
        assert code == 2
        assert "L9.zz" in capsys.readouterr().err

    def test_decomposes_singular_values_only(self, tmp_path, monkeypatch, weights_file):
        """analyze reads only sigma: one kernel call per matrix, each with
        compute_uv False, and the outputs of full decompositions, byte for byte."""
        kernel, calls = sys.modules["lamda.svd"].jacobi_sweeps, []

        def spied(ats, compute_uv, *args):
            calls.append((len(ats), ats[0].shape, compute_uv))
            return kernel(ats, compute_uv, *args)

        monkeypatch.setattr(sys.modules["lamda.svd"], "jacobi_sweeps", spied)
        outputs = []
        for run in ("values-only", "full"):
            scores, energy = tmp_path / f"{run}.json", tmp_path / f"{run}.csv"
            assert run_cli("analyze", "--weights", str(weights_file), "--ranks", "2,4,6",
                           "--target", "4", "--scores-out", str(scores),
                           "--energy-csv", str(energy)) == 0
            outputs.append((scores.read_bytes(), energy.read_bytes()))
            full_svd = cli.svd
            monkeypatch.setattr(cli, "svd", lambda w, compute_uv: full_svd(w))
        assert calls == [(1, (16, 16), False)] * 4 + [(1, (16, 16), True)] * 4
        assert outputs[0] == outputs[1]

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli("analyze", "--weights", str(tmp_path / "nope.ldwt"),
                       "--ranks", "2,4,6", "--target", "4") == 2

    def test_bad_rank_list(self, weights_file):
        assert run_cli("analyze", "--weights", str(weights_file),
                       "--ranks", "2,four,6", "--target", "4") == 2

    @pytest.mark.parametrize("shape, message", [
        ((8, 8), "'L0.q': no energy"),
        ((64, 0), "non-empty"),
        ((0, 64), "non-empty"),
    ])
    def test_zero_energy_or_empty_matrix_is_usage_error(self, tmp_path, capsys,
                                                        shape, message):
        weights = tmp_path / "w.ldwt"
        container.write_weights(weights, {"L0.q": np.zeros(shape, dtype=np.float32)})
        scores, energy = tmp_path / "scores.json", tmp_path / "energy.csv"
        assert run_cli("analyze", "--weights", str(weights), "--ranks", "1,2,3",
                       "--target", "2", "--scores-out", str(scores),
                       "--energy-csv", str(energy)) == 2
        assert message in capsys.readouterr().err
        assert not scores.exists() and not energy.exists()

    def test_rank_too_large_for_a_matrix_fails_before_any_svd(self, tmp_path, capsys,
                                                              monkeypatch):
        rng = np.random.default_rng(1)
        weights = tmp_path / "w.ldwt"
        container.write_weights(weights, {"L0.k": rng.normal(size=(16, 16)),
                                          "L0.q": rng.normal(size=(16, 16)),
                                          "L0.v": rng.normal(size=(8, 16))})
        calls = []
        monkeypatch.setattr(sys.modules["lamda.svd"], "jacobi_sweeps",
                            lambda ats, *args: calls.append(len(ats)))
        scores = tmp_path / "scores.json"
        assert run_cli("analyze", "--weights", str(weights), "--ranks", "4,8,12",
                       "--target", "8", "--scores-out", str(scores)) == 2
        assert "'L0.v'" in capsys.readouterr().err
        assert calls == [] and not scores.exists()

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["--max-rank", "0"], "--max-rank", id="max-rank-zero"),
        pytest.param(["--max-rank", "-3"], "--max-rank", id="max-rank-negative"),
        pytest.param(["--modules", "L0.q,bias"], "'bias'", id="module-not-a-matrix"),
        pytest.param(["--modules", ""], "--modules entry 1 of '' is empty", id="modules-empty"),
        pytest.param(["--modules", "L0.q,L0.q"], "--modules names 'L0.q' twice",
                     id="module-twice"),
        pytest.param(["--ranks", "4,,8,12", "--target", "8"], "--ranks entry 2 of '4,,8,12'",
                     id="ranks-empty-entry"),
    ])
    def test_input_analyze_would_ignore_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       weights_file, argv, named):
        calls = []
        monkeypatch.setattr(sys.modules["lamda.svd"], "jacobi_sweeps",
                            lambda ats, *args: calls.append(len(ats)))
        scores, energy = tmp_path / "scores.json", tmp_path / "energy.csv"
        assert run_cli("analyze", "--weights", str(weights_file), "--ranks", "2,4,6",
                       "--target", "4", "--scores-out", str(scores),
                       "--energy-csv", str(energy), *argv) == 2
        assert named in capsys.readouterr().err
        assert calls == [] and not scores.exists() and not energy.exists()

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    @pytest.mark.parametrize("init_mode", ["spectral_top", "kaiming"])
    def test_plan_is_the_ranks_of_a_lamdapp_run(self, tmp_path, init_mode, reverse):
        """analyze and plan over a run's adapted modules assign the ranks that
        a lamda++ run with the same budget does, with full SVDs (spectral_top)
        and with values only (kaiming)."""
        cfg = TrainRunConfig(method="lamda++", budget_ranks=(2, 4, 6), budget_target=4,
                             reverse_allocation=reverse, init_mode=init_mode,
                             model=ToyTransformerConfig(layers=2, d_model=16, heads=2,
                                                        ffn_dim=32, vocab=11, context=8))
        model = build_run(cfg)[0]
        weights, budget = tmp_path / "w.ldwt", tmp_path / "budget.json"
        scores, plan = tmp_path / "scores.json", tmp_path / "plan.json"
        container.write_weights(weights, model.weights())
        budget.write_text(json.dumps({"ranks": [2, 4, 6], "target": 4}))
        assert run_cli("analyze", "--weights", str(weights), "--ranks", "2,4,6",
                       "--target", "4", "--scores-out", str(scores), "--modules",
                       ",".join(model.linear_module_ids(cfg.adapted_kinds))) == 0
        assert run_cli("plan", "--scores", str(scores), "--budget", str(budget),
                       "--out", str(plan), *(["--reverse"] if reverse else [])) == 0
        assert json.loads(plan.read_text())["ranks"] == {
            m: st.config.rank for m, st in model.adapters.items()}

    def test_matrix_no_scale_fits_is_numerical_error(self, tmp_path, capsys):
        weights = tmp_path / "w.ldwt"
        container.write_weights(weights, {"L0.q": np.diag([1e300] + [1.0] * 6 + [1e-300])})
        assert run_cli("analyze", "--weights", str(weights), "--ranks", "1,2,3",
                       "--target", "2") == 3
        assert "orders of magnitude" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix, code, message", [
        pytest.param(np.diag([1e300] + [1.0] * 6 + [1e-300]), 3, "orders of magnitude",
                     id="no-scale-fits"),
        pytest.param(np.zeros((64, 0)), 2, "non-empty", id="empty"),
        pytest.param(_zero_row(), 3, "did not converge", id="no-convergence"),
    ])
    def test_svd_error_names_the_module(self, tmp_path, capsys, matrix, code, message):
        weights = tmp_path / "w.ldwt"
        container.write_weights(weights, {"L0.k": np.eye(8), "L0.q": matrix})
        assert run_cli("analyze", "--weights", str(weights), "--ranks", "1,2,3",
                       "--target", "2") == code
        err = capsys.readouterr().err
        assert message in err and "'L0.q'" in err and "'matrix'" not in err

    def test_holds_one_tensor_at_a_time(self, tmp_path):
        """analyze reads a tensor it does not decompose and drops it, so its
        peak stays far below a container of many such tensors."""
        rng = np.random.default_rng(2)
        tensors = {"L0.q": rng.normal(size=(16, 16))}
        tensors.update({f"bias{i}": rng.normal(size=4096) for i in range(64)})
        weights = tmp_path / "w.ldwt"
        container.write_weights(weights, tensors)
        tracemalloc.start()
        try:
            assert run_cli("analyze", "--weights", str(weights), "--ranks", "2,4,6",
                           "--target", "4", "--scores-out", str(tmp_path / "scores.json")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(weights) / 4

    @staticmethod
    def _matrix_then_bias(path):
        """A container of one 16x16 matrix and, after it, a 1-D tensor."""
        rng = np.random.default_rng(3)
        container.write_weights(path, {"L0.q": rng.normal(size=(16, 16)), "bias": np.ones(4)})
        return path.read_bytes()

    def test_nan_in_a_tensor_it_does_not_decompose_exits_3(self, tmp_path, capsys):
        weights, scores = tmp_path / "w.ldwt", tmp_path / "scores.json"
        raw = self._matrix_then_bias(weights)
        weights.write_bytes(raw[:-8] + struct.pack("<d", np.nan))
        assert run_cli("analyze", "--weights", str(weights), "--ranks", "2,4,6",
                       "--target", "4", "--scores-out", str(scores)) == 3
        assert "tensor 'bias' holds non-finite values" in capsys.readouterr().err
        assert not scores.exists()

    @pytest.mark.parametrize("cut, tail, message", [
        pytest.param(1, b"", "truncated container: tensor 'bias'", id="truncated"),
        pytest.param(0, b"\x00", "1 trailing bytes", id="trailing-byte"),
    ])
    def test_malformed_bytes_after_the_analyzed_tensor_exit_before_any_svd(
            self, tmp_path, capsys, monkeypatch, cut, tail, message):
        weights, scores = tmp_path / "w.ldwt", tmp_path / "scores.json"
        raw = self._matrix_then_bias(weights)
        weights.write_bytes(raw[:len(raw) - cut] + tail)
        calls = []
        monkeypatch.setattr(sys.modules["lamda.svd"], "jacobi_sweeps",
                            lambda ats, *args: calls.append(len(ats)))
        assert run_cli("analyze", "--weights", str(weights), "--modules", "L0.q",
                       "--ranks", "2,4,6", "--target", "4", "--scores-out", str(scores)) == 2
        assert message in capsys.readouterr().err
        assert calls == [] and not scores.exists()

    def test_empty_matrix_fails_before_any_svd(self, tmp_path, capsys, monkeypatch):
        weights = tmp_path / "w.ldwt"
        container.write_weights(weights, {"L0.k": np.eye(8), "L0.q": np.zeros((64, 0))})
        calls = []
        monkeypatch.setattr(sys.modules["lamda.svd"], "jacobi_sweeps",
                            lambda ats, *args: calls.append(len(ats)))
        assert run_cli("analyze", "--weights", str(weights), "--ranks", "1,2,3",
                       "--target", "2") == 2
        assert "non-empty matrix, got shape (64, 0) for 'L0.q'" in capsys.readouterr().err
        assert calls == []


class TestCount:
    def test_lamda_json_and_csv(self, tmp_path):
        out = tmp_path / "count.json"
        out_csv = tmp_path / "count.csv"
        assert run_cli("count", "--model-preset", "llama2-7b", "--method", "lamda",
                       "--rank", "32", "--ti", "0.3",
                       "--json", str(out), "--csv", str(out_csv)) == 0
        doc = json.loads(out.read_text())
        assert doc["effective_params"] == pytest.approx(4.37e6, rel=0.005)
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0] == "TOTAL"

    def test_lora(self, tmp_path):
        out = tmp_path / "count.json"
        assert run_cli("count", "--model-preset", "llama2-7b", "--method", "lora",
                       "--rank", "16", "--json", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["trainable_params"] == pytest.approx(28.0e6, rel=0.005)

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["--method", "lora", "--rank", "-5"], "rank -5", id="lora-rank-negative"),
        pytest.param(["--method", "lamda", "--rank", "0"], "rank 0", id="lamda-rank-zero"),
        pytest.param(["--method", "lamda", "--rank-plan", "PLAN"], "'L0.v'",
                     id="plan-rank-zero"),
    ])
    def test_rank_below_one_is_usage_error(self, tmp_path, capsys, argv, named):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"ranks": dict(_LLAMA_PLAN, **{"L0.v": 0})}))
        out = tmp_path / "count.json"
        argv = [str(plan) if a == "PLAN" else a for a in argv]
        assert run_cli("count", "--model-preset", "llama2-7b", *argv,
                       "--json", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["--method", "lora", "--rank", "8", "--ti", "7"], "ti_fraction 7.0",
                     id="lora-ti-above-one"),
        pytest.param(["--method", "lamda", "--rank-plan", "PLAN"],
                     "not adapted: ['L99.q', 'not-a-module']", id="plan-names-unknown-modules"),
        pytest.param(["--method", "lamda", "--rank-plan", "SHORT"],
                     "misses modules ['L0.q', 'L0.k']", id="plan-misses-modules"),
        pytest.param(["--method", "lamda", "--rank", "999999", "--rank-plan", "PLAN"],
                     "--rank does nothing with --rank-plan", id="rank-beside-plan"),
        pytest.param(["--method", "lora", "--rank-plan", ""], "--rank-plan needs --method lamda",
                     id="empty-plan-path-under-lora"),
    ])
    def test_input_the_report_cannot_take_is_usage_error(self, tmp_path, capsys, argv, named):
        plan, short = tmp_path / "plan.json", tmp_path / "short.json"
        plan.write_text(json.dumps({"ranks": dict(_LLAMA_PLAN, **{"L99.q": 8,
                                                                   "not-a-module": 8})}))
        short.write_text(json.dumps({"ranks": {m: r for m, r in _LLAMA_PLAN.items()
                                               if m not in ("L0.q", "L0.k")}}))
        out = tmp_path / "count.json"
        argv = [{"PLAN": str(plan), "SHORT": str(short)}.get(a, a) for a in argv]
        assert run_cli("count", "--model-preset", "llama2-7b", *argv,
                       "--json", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err
        assert not out.exists()

    def test_rank_defaults_to_32(self, tmp_path):
        outputs = []
        for ranks in ([], ["--rank", "32"]):
            out = tmp_path / f"count{len(outputs)}.json"
            assert run_cli("count", "--model-preset", "llama2-7b", "--method", "lamda",
                           *ranks, "--json", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_rank_plan_with_one_rank_equals_that_rank(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"ranks": _LLAMA_PLAN}))
        outputs = {}
        for name, ranks in (("plan", ["--rank-plan", str(plan)]), ("rank", ["--rank", "8"])):
            out_json, out_csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            assert run_cli("count", "--model-preset", "llama2-7b", "--method", "lamda",
                           *ranks, "--json", str(out_json), "--csv", str(out_csv)) == 0
            outputs[name] = out_json.read_bytes(), out_csv.read_bytes()
        assert outputs["plan"] == outputs["rank"]

    def test_unknown_preset(self):
        assert run_cli("count", "--model-preset", "gpt-99", "--method", "lora",
                       "--json", "-") == 2

    def test_unknown_method(self):
        assert run_cli("count", "--model-preset", "llama2-7b", "--method", "prefix",
                       "--json", "-") == 2


_SCORE = {"module": "L0.q", "layer": 0, "kind": "q", "e_lo": 1.0, "e_hi": 3.0,
          "e_target": 2.0, "score": 1.0}
_LLAMA_PLAN = {m: 8 for m, _ in accounting.load_preset("llama2-7b").modules()}
_TINY_RUN = {"total_steps": 1, "batch_size": 2,
             "model": {"layers": 1, "d_model": 8, "heads": 2, "ffn_dim": 8,
                       "vocab": 11, "context": 8}}


@pytest.mark.parametrize("command, text", [
    pytest.param("count-lora", '{"ranks": {"L0.q": 8}}', id="lora-given-a-plan"),
    pytest.param("plan", "{not json", id="scores-not-json"),
    pytest.param("count-lamda", "{not json", id="plan-not-json"),
    pytest.param("plan", '{"scores": []}', id="scores-without-modules"),
    pytest.param("count-lamda", '{"mean_rank": 8}', id="plan-without-ranks"),
    pytest.param("count-lamda", '{"ranks": [1, 2]}', id="plan-ranks-a-list"),
    pytest.param("count-lamda", json.dumps({"ranks": dict(_LLAMA_PLAN, **{"L0.q": "8"})}),
                 id="plan-rank-a-string"),
    pytest.param("plan", '{"modules": [{"module": "L0.q"}]}', id="score-entry-lacks-fields"),
    pytest.param("plan", json.dumps({"modules": [dict(_SCORE, score="high")]}),
                 id="score-a-string"),
    pytest.param("plan", json.dumps({"modules": [dict(_SCORE, rank=4)]}),
                 id="score-entry-unknown-field"),
    # Python's json reads NaN and Infinity, which are not JSON numbers.
    pytest.param("plan", json.dumps({"modules": [dict(_SCORE, score=float("nan"))]}),
                 id="score-nan"),
    pytest.param("plan", json.dumps({"modules": [dict(_SCORE, score=float("inf"))]}),
                 id="score-infinity"),
    pytest.param("plan", '{"modules": {"L0.q": 1.0}}', id="scores-modules-an-object"),
    pytest.param("plan", json.dumps({"modules": [_SCORE, _SCORE]}), id="module-scored-twice"),
    pytest.param("plan-budget", '{"ranks": "246", "target": 4}', id="budget-ranks-a-string"),
    pytest.param("finetune", json.dumps(dict(_TINY_RUN, adapted_kinds="qv")),
                 id="adapted-kinds-a-string"),
    pytest.param("finetune", json.dumps(dict(_TINY_RUN, method="lamda++", budget_ranks="246",
                                             budget_target=4)),
                 id="budget-ranks-a-string-in-run-config"),
])
def test_malformed_json_input_is_usage_error(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    budget = tmp_path / "budget.json"
    budget.write_text(json.dumps({"ranks": [2, 4, 6], "target": 4}))
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"modules": [_SCORE]}))
    out = tmp_path / "out.json"
    count = ["count", "--model-preset", "llama2-7b", "--rank-plan", str(bad), "--json", str(out)]
    argv = {
        "plan": ["plan", "--scores", str(bad), "--budget", str(budget), "--out", str(out)],
        "plan-budget": ["plan", "--scores", str(scores), "--budget", str(bad), "--out", str(out)],
        "count-lora": count + ["--method", "lora"],
        "count-lamda": count + ["--method", "lamda"],
        "finetune": ["finetune", "--config", str(bad), "--out-dir", str(out)],
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


_LAMDAPP = {"method": "lamda++", "budget_ranks": [2, 4, 6], "budget_target": 4}
_LAMDAPP_PLAN = {"method": "lamda++", "rank_plan": {"L0.q": 2, "L0.v": 4}}
# (key path, bad value, other overrides): a wrong JSON type, then an out-of-range value.
_BAD_RUN_VALUES = [
    ("rank", "8", {}),
    ("rank", 17, {}),  # exceeds the d 16 model's weights; build_run rejects it
    ("init_mode", "bogus", {"method": "lora"}),
    ("total_steps", 2.5, {}),
    ("lr", "0.1", {}),
    ("ti_fraction", "0.3", {}),
    ("reverse_allocation", "no", _LAMDAPP),
    ("budget_ranks", ["4", "8", "12"], dict(_LAMDAPP, budget_target=8)),
    ("rank_plan", {"L0.q": True, "L0.v": 2}, {"method": "lamda++"}),
    ("model.d_model", "64", {}),
    ("model.causal", 1, {}),
    ("seed", -1, {}),
    ("batch_size", -2, {}),
    ("batch_size", 0, {}),
    ("lr", -1, {}),
    ("model.heads", 0, {}),
    ("model.d_model", 0, {}),
    ("model.ffn_dim", 0, {}),
    ("model.layers", 0, {}),
    ("beta1", -0.5, {}),
    ("beta1", 1.0, {}),
    ("beta2", 2.0, {}),
    ("adam_eps", -1, {}),
    ("alpha", 0, {}),
    ("alpha", -1.0, {}),
    # Python's json reads Infinity, which is not a JSON number.
    ("alpha", float("inf"), {}),
    ("lr", float("inf"), {}),
    ("adam_eps", float("inf"), {}),
    # layer_norm divides by sqrt(ln_eps) where a row has zero variance.
    ("model.ln_eps", -1.0, {}),
    ("model.ln_eps", 0.0, {"model": {"layers": 1, "d_model": 1, "heads": 1, "ffn_dim": 32,
                                     "vocab": 11, "context": 8}}),
    # LaMDA++-only keys under another method, and budget keys next to a plan.
    ("rank_plan", {"L0.q": 2, "L0.v": 2}, {}),
    ("budget_ranks", [2, 4, 6], {"method": "lora"}),
    ("budget_target", 4, {}),
    ("reverse_allocation", True, {"method": "full"}),
    ("budget_ranks", [4, 8, 12], _LAMDAPP_PLAN),
    ("budget_target", 8, _LAMDAPP_PLAN),
    ("reverse_allocation", True, _LAMDAPP_PLAN),
]


def _run_config(tmp_path, **overrides):
    doc = {
        "method": "lamda", "task": "copy", "rank": 2, "total_steps": 8,
        "batch_size": 2, "lr": 0.005, "seed": 3, "adapted_kinds": ["q", "v"],
        "model": {"layers": 1, "d_model": 16, "heads": 2, "ffn_dim": 32,
                  "vocab": 11, "context": 8},
    }
    doc.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


class TestFinetuneReport:
    def test_end_to_end(self, tmp_path):
        cfg = _run_config(tmp_path)
        out = tmp_path / "runs" / "a"
        assert run_cli("finetune", "--config", str(cfg), "--out-dir", str(out)) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert all(np.isfinite(float(r["loss"])) for r in rows)
        tensors, meta = container.load_checkpoint(out / "checkpoint.ldck")
        assert meta["step"] == 8 and "adapter/L0.q/s" in tensors
        backbone = container.read_weights(out / "backbone.ldwt")
        assert "tok_emb" in backbone
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_loss"] == float(rows[-1]["loss"])

        # second run so the report has two columns to merge
        cfg_b = _run_config(tmp_path, seed=4)
        assert run_cli("finetune", "--config", str(cfg_b),
                       "--out-dir", str(tmp_path / "runs" / "b")) == 0
        merged = tmp_path / "merged.csv"
        assert run_cli("report", "--runs", str(tmp_path / "runs"),
                       "--out", str(merged)) == 0
        with open(merged, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["step", "a.loss", "a.live_params", "b.loss", "b.live_params"]

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = _run_config(tmp_path, learning_rate=0.1)
        code = run_cli("finetune", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, extra", _BAD_RUN_VALUES,
                             ids=[f"{k}-{json.dumps(v, separators=(',', ':'))}"
                                  for k, v, _ in _BAD_RUN_VALUES])
    def test_bad_run_config_value_is_usage_error(self, tmp_path, capsys, key, value, extra):
        doc = json.loads(_run_config(tmp_path, **extra).read_text())
        section, _, leaf = key.rpartition(".")
        (doc[section] if section else doc)[leaf] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("finetune", "--config", str(cfg), "--out-dir", str(out)) == 2
        assert leaf in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides", [
        pytest.param("finetune", {"rank": 17}, id="lamda"),
        pytest.param("finetune", {"method": "lora", "rank": 17}, id="lora"),
        pytest.param("finetune", dict(_LAMDAPP, budget_ranks=[8, 16, 24], budget_target=16),
                     id="lamdapp-candidate"),
        pytest.param("count", {}, id="count"),
    ])
    def test_rank_error_names_the_module(self, tmp_path, capsys, command, overrides):
        out = tmp_path / "o"
        argv = {
            "finetune": ["finetune", "--config", str(_run_config(tmp_path, **overrides)),
                         "--out-dir", str(out)],
            "count": ["count", "--model-preset", "llama2-7b", "--method", "lamda",
                      "--rank", "5000", "--json", str(out)],
        }[command]
        assert run_cli(*argv) == 2
        assert "module 'L0.q': rank " in capsys.readouterr().err
        assert not out.exists()

    def test_rank_plan_module_not_adapted_is_usage_error(self, tmp_path, capsys):
        plan = {"L0.q": 2, "L0.v": 2, "L7.q": 2}
        cfg = _run_config(tmp_path, method="lamda++", rank_plan=plan)
        code = run_cli("finetune", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "rank_plan" in (err := capsys.readouterr().err) and "L7.q" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kinds, named", [
        pytest.param(["q", "qq"], "'qq'", id="qq"),
        pytest.param(["q", "Q"], "'Q'", id="Q"),
        pytest.param(["q", "v", "q"], "'q' is listed twice", id="duplicate"),
        pytest.param([], "adapted_kinds must be non-empty", id="empty"),
    ])
    def test_unknown_adapted_kind_is_usage_error(self, tmp_path, capsys, kinds, named):
        cfg = _run_config(tmp_path, adapted_kinds=kinds)
        code = run_cli("finetune", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invalid_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("finetune", "--config", str(bad),
                       "--out-dir", str(tmp_path / "o")) == 2

    def test_report_with_no_runs(self, tmp_path):
        assert run_cli("report", "--runs", str(tmp_path), "--out",
                       str(tmp_path / "m.csv")) == 2

    @pytest.mark.parametrize("text", [
        pytest.param("loss,live_params\n0.5,10\n", id="no-step-column"),
        pytest.param("step,live_params\n0,10\n", id="no-loss-column"),
        pytest.param("step,loss,live_params\nx,0.5,10\n", id="step-not-an-integer"),
    ])
    def test_report_malformed_metrics_is_usage_error(self, tmp_path, capsys, text):
        run = tmp_path / "runs" / "a"
        run.mkdir(parents=True)
        (run / "metrics.csv").write_text(text)
        assert run_cli("report", "--runs", str(tmp_path / "runs"),
                       "--out", str(tmp_path / "m.csv")) == 2
        assert "metrics.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text, step", [
        pytest.param("step,loss,live_params\n0,0.5,10\n0,0.7,11\n1,0.4,9\n", 0,
                     id="repeated-step"),
        pytest.param("step,loss,live_params\n0,0.5,10\n1,0.4\n", 1, id="short-row"),
        pytest.param("step,loss,live_params\n0,0.5,10\n1,0.4,9,7\n", 1, id="long-row"),
    ])
    def test_report_rejects_repeated_step_or_ragged_row(self, tmp_path, capsys, text, step):
        run = tmp_path / "runs" / "a"
        run.mkdir(parents=True)
        (run / "metrics.csv").write_text(text)
        out = tmp_path / "m.csv"
        assert run_cli("report", "--runs", str(tmp_path / "runs"), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(run / "metrics.csv") in err and f"step {step} " in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, drop, named", [
        pytest.param({"layers": 2}, None, "'L1.q'", id="too-few-layers"),
        pytest.param({"d_model": 32}, None, "'tok_emb' has shape (11, 16)", id="other-width"),
        pytest.param({}, "L0.ln1.g", "'L0.ln1.g'", id="missing-tensor"),
    ])
    def test_backbone_that_does_not_fit_the_model_is_usage_error(
            self, tmp_path, capsys, monkeypatch, overrides, drop, named):
        model = json.loads(_run_config(tmp_path).read_text())["model"]
        weights = ToyTransformer(ToyTransformerConfig(**model)).weights()
        weights.pop(drop, None)
        backbone = tmp_path / "pre.ldwt"
        container.write_weights(backbone, weights)
        cfg = _run_config(tmp_path, model=dict(model, **overrides))
        calls = []
        monkeypatch.setattr(sys.modules["lamda.svd"], "jacobi_sweeps",
                            lambda ats, *args: calls.append(len(ats)))
        out = tmp_path / "o"
        assert run_cli("finetune", "--config", str(cfg), "--backbone", str(backbone),
                       "--out-dir", str(out)) == 2
        assert named in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("case", ["report-runs-a-file", "config-a-directory",
                                      "backbone-a-directory", "count-json-a-directory",
                                      "out-dir-a-file", "out-dir-below-a-file",
                                      "config-not-utf8", "corpus-not-utf8"])
    def test_malformed_path_is_usage_error(self, tmp_path, capsys, monkeypatch, case):
        a_file = tmp_path / "a-file"
        a_file.write_text("kept")
        a_dir = tmp_path / "a-dir"
        a_dir.mkdir()
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("caf\xe9 ".encode("latin-1") * 8)
        cfg = str(_run_config(tmp_path))
        out = str(tmp_path / "o")
        argv = {
            "report-runs-a-file": ["report", "--runs", str(a_file), "--out", out],
            "config-a-directory": ["finetune", "--config", str(a_dir), "--out-dir", out],
            "backbone-a-directory": ["finetune", "--config", cfg, "--backbone", str(a_dir),
                                     "--out-dir", out],
            "count-json-a-directory": ["count", "--model-preset", "llama2-7b", "--method",
                                       "lora", "--json", str(a_dir)],
            "out-dir-a-file": ["finetune", "--config", cfg, "--out-dir", str(a_file)],
            "out-dir-below-a-file": ["finetune", "--config", cfg, "--out-dir",
                                     str(a_file / "sub")],
            "config-not-utf8": ["finetune", "--config", str(latin1), "--out-dir", out],
            "corpus-not-utf8": ["finetune", "--config",
                                str(_run_config(tmp_path, task=f"text:{latin1}")),
                                "--out-dir", out],
        }[case]
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args, **kw: trained.append(1) or train(
            *args, **kw))
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        # Only the corpus is read inside train(), where the task is made first.
        assert len(trained) == (case == "corpus-not-utf8")
        assert a_file.read_text() == "kept" and os.listdir(a_dir) == []
        assert not os.path.exists(out)

    def test_metrics_csv_write_is_atomic(self, tmp_path):
        path = tmp_path / "metrics.csv"
        cli._write_metrics_csv(path, [(0, 0.5, 10, 4)])
        before = path.read_bytes()
        with pytest.raises(TypeError):  # the second row's loss is not a number
            cli._write_metrics_csv(path, [(0, 0.25, 10, 4), (1, None, 10, 4)])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["metrics.csv"]

    def test_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        cfg = _run_config(tmp_path)

        def boom(*args, **kwargs):
            raise NumericalError("loss diverged at step 0")

        monkeypatch.setattr(cli, "train", boom)
        assert run_cli("finetune", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "o")) == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_update_overflowing_f32_on_last_step_exits_3(self, tmp_path, capsys):
        # lr fits a float but not f32, so the one update makes every live
        # parameter inf or NaN while the loss, computed before it, is finite.
        cfg = _run_config(tmp_path, total_steps=1, lr=1e39)
        out = tmp_path / "o"
        assert run_cli("finetune", "--config", str(cfg), "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert "L0.q.s is not finite after Adam step 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, error", [
        # 1e39 is beyond f32, so Adam's one update makes the parameters inf or NaN.
        pytest.param({"total_steps": 1, "lr": 1e39}, "numerical error: parameter ",
                     id="update-overflows-f32"),
        # 1e30 fits f32, so the update stays finite, but the next forward overflows.
        pytest.param({"lr": 1e30}, "numerical error: loss diverged at step 1",
                     id="forward-overflows"),
    ])
    def test_overflow_prints_only_the_error_line(self, tmp_path, overrides, error):
        # A fresh interpreter shows numpy's warnings, which pytest would capture.
        cfg = _run_config(tmp_path, **overrides)
        proc = subprocess.run(
            [sys.executable, "-m", "lamda.cli", "finetune", "--config", str(cfg),
             "--out-dir", str(tmp_path / "o")], capture_output=True, text=True)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(error), lines
        assert not (tmp_path / "o").exists()

    def test_model_too_large_to_allocate_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # 10**15 x 16 floats lie beyond the 48-bit address space, so the
        # allocation fails at once and touches no memory.
        calls = []
        monkeypatch.setattr(sys.modules["lamda.svd"], "jacobi_sweeps",
                            lambda ats, *args: calls.append(len(ats)))
        cfg = _run_config(tmp_path, model={"layers": 1, "d_model": 16, "heads": 2,
                                           "ffn_dim": 32, "vocab": 10**15, "context": 8})
        out = tmp_path / "o"
        assert run_cli("finetune", "--config", str(cfg), "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err
        assert calls == [] and not out.exists()


_HEADER = b"step,loss,live_params,stored_activation_floats\n"
_METRICS = _HEADER + b"0,0.5,10,4\n1,0.25,9,4\n"
_one_byte_changed = st.tuples(st.integers(0, len(_METRICS) - 1), st.integers(0, 255)).map(
    lambda at: _METRICS[:at[0]] + bytes([at[1]]) + _METRICS[at[0] + 1:])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(st.binary(max_size=200), _one_byte_changed,
                 st.binary(max_size=200).map(lambda rows: _HEADER + rows)))
@example(_HEADER + b"0,caf\xe9,10,4\n")  # not UTF-8
@example(_HEADER + b"0," + b"9" * 131_073 + b",10,4\n")  # a field over csv's limit
def test_report_on_any_metrics_bytes_merges_or_is_usage_error(raw):
    """Whatever bytes one run's metrics.csv holds, `lamda report` exits 0, or
    exits 2 with one `error:` line and writes no --out file; never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        run = os.path.join(tmp, "runs", "a")
        os.makedirs(run)
        with open(os.path.join(run, "metrics.csv"), "wb") as fh:
            fh.write(raw)
        out, err = os.path.join(tmp, "merged.csv"), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("report", "--runs", os.path.dirname(run), "--out", out)
        lines = err.getvalue().splitlines()
        assert code in (0, 2) and "Traceback" not in err.getvalue()
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error:") and not os.path.exists(out)


@pytest.mark.parametrize("command", ["count", "analyze", "report"])
def test_dash_as_a_csv_output_path_prints(tmp_path, monkeypatch, capsys, weights_file, command):
    """`-` means standard output for a CSV output path, as it does for a JSON one."""
    runs = tmp_path / "runs"
    (runs / "a").mkdir(parents=True)
    (runs / "a" / "metrics.csv").write_bytes(_METRICS)
    argv, header = {
        "count": (["--model-preset", "llama2-7b", "--method", "lamda", "--rank", "8",
                   "--json", "count.json", "--csv", "-"],
                  "module,trainable_params,effective_params,activation_floats"),
        "analyze": (["--weights", str(weights_file), "--ranks", "2,4,6", "--target", "4",
                     "--scores-out", "scores.json", "--energy-csv", "-"],
                    "module,rank,energy_ratio"),
        "report": (["--runs", str(runs), "--out", "-"], "step,a.loss,a.live_params"),
    }[command]
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, *argv) == 0
    assert capsys.readouterr().out.startswith(header + "\r\n")
    assert not (tmp_path / "-").exists()


def _d16_container():
    """The d 16 model's tensor names and container bytes."""
    buf = io.BytesIO()
    cfg = ToyTransformerConfig(layers=1, d_model=16, heads=2, ffn_dim=32, vocab=11, context=8)
    weights = ToyTransformer(cfg, seed=0).weights()
    container.write_weights_stream(buf, weights)
    return list(weights), buf.getvalue()


_D16_NAMES, _D16 = _d16_container()
_d16_one_byte_changed = st.tuples(st.integers(0, len(_D16) - 1), st.integers(0, 255)).map(
    lambda at: _D16[:at[0]] + bytes([at[1]]) + _D16[at[0] + 1:])
_rank_lists = st.lists(st.integers(-1, 40), max_size=4).map(lambda ranks: ",".join(map(str, ranks)))
_module_lists = st.lists(st.sampled_from(_D16_NAMES + ["nope", ""]), max_size=4).map(",".join)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw=st.one_of(st.just(_D16), _d16_one_byte_changed,
                     st.integers(0, len(_D16) - 1).map(lambda n: _D16[:n]),
                     st.binary(min_size=1, max_size=8).map(lambda tail: _D16 + tail)),
       ranks=st.one_of(st.just("2,4,6"), _rank_lists, st.text(max_size=8)),
       target=st.integers(-1, 40),
       modules=st.one_of(st.none(), _module_lists, st.text(max_size=8)),
       max_rank=st.integers(-1, 40))
@example(raw=_D16, ranks="2,4,6", target=4, modules=None, max_rank=8)
def test_analyze_on_any_arguments_and_container_bytes(raw, ranks, target, modules, max_rank):
    """Whatever its arguments and container bytes, `lamda analyze` exits 0,
    or exits 2 or 3 with one error line and no output file; an exit 2 comes
    before any SVD kernel call."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        calls = []
        kernel = sys.modules["lamda.svd"].jacobi_sweeps
        mp.setattr(sys.modules["lamda.svd"], "jacobi_sweeps",
                   lambda ats, *args: calls.append(len(ats)) or kernel(ats, *args))
        weights = os.path.join(tmp, "w.ldwt")
        with open(weights, "wb") as fh:
            fh.write(raw)
        scores, energy = os.path.join(tmp, "scores.json"), os.path.join(tmp, "energy.csv")
        argv = ["analyze", "--weights", weights, f"--ranks={ranks}", f"--target={target}",
                f"--max-rank={max_rank}", "--scores-out", scores, "--energy-csv", energy]
        if modules is not None:
            argv.append(f"--modules={modules}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(*argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3) and "Traceback" not in err.getvalue()
        if code == 0:
            assert os.path.exists(scores) and os.path.exists(energy)
        else:
            prefix = "error:" if code == 2 else "numerical error:"
            assert len(lines) == 1 and lines[0].startswith(prefix), lines
            assert not os.path.exists(scores) and not os.path.exists(energy)
        if code == 2:
            assert calls == []


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.json"
    proc = subprocess.run(
        [sys.executable, "-m", "lamda.cli", "count", "--model-preset",
         "deberta-v3-base", "--method", "lora", "--rank", "8", "--json", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["trainable_params"] == pytest.approx(1.33e6, rel=0.01)


@pytest.mark.parametrize("env_mode", ["f16", "f64"])
def test_float_mode_ignores_environment(tmp_path, env_mode):
    """A fresh interpreter starts in f32 whatever LDA_FLOAT_MODE holds."""
    script = ("import sys; from lamda import cli, tensor; "
              "code = cli.main(sys.argv[1:]); print(tensor.get_float_mode()); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", script, "count", "--model-preset", "deberta-v3-base",
         "--method", "lora", "--rank", "8", "--json", str(tmp_path / "c.json")],
        capture_output=True, text=True, env=dict(os.environ, LDA_FLOAT_MODE=env_mode),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "f32\n"


def test_a_command_builds_only_its_own_parser(tmp_path, monkeypatch, weights_file):
    """`lamda analyze` adds no other command's arguments: it never lists the
    presets that `count`'s help names."""
    built, listed = [], []
    add_parser = argparse._SubParsersAction.add_parser

    def spy_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy_add_parser)
    monkeypatch.setattr(accounting, "list_presets", lambda: listed.append(1) or [])
    assert run_cli("analyze", "--weights", str(weights_file), "--ranks", "2,4", "--target", "3",
                   "--scores-out", str(tmp_path / "scores.json")) == 0
    assert built == ["analyze"] and listed == []


def test_a_parser_asks_for_the_terminal_width_once(monkeypatch):
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: calls.append(1) or size(*args))
    cli.build_parser(["analyze"])
    assert len(calls) <= 1


def test_a_parser_wraps_its_help_at_argparse_s_own_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "57")
    parser = cli.build_parser(["analyze"])
    help_text = parser.format_help()
    parser.formatter_class = argparse.HelpFormatter
    assert help_text == parser.format_help()


def _parse_outcome(parse, argv, capsys):
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


_COMMANDS = ("analyze", "plan", "count", "finetune", "report")


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]]
                         + [[name, "-h"] for name in _COMMANDS]
                         + [[name, "--no-such-option"] for name in _COMMANDS],
                         ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(argv, capsys):
    assert (_parse_outcome(cli.main, argv, capsys)
            == _parse_outcome(cli.build_parser().parse_args, argv, capsys))
