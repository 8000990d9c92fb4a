import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lamda import accounting, cli, container
from lamda.errors import NumericalError


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


    def test_matrix_no_scale_fits_is_numerical_error(self, tmp_path, capsys):
        weights = tmp_path / "w.ldwt"
        container.write_weights(weights, {"L0.q": np.diag([1e300] + [1.0] * 6 + [1e-300])})
        assert run_cli("analyze", "--weights", str(weights), "--ranks", "1,2,3",
                       "--target", "2") == 3
        assert "orders of magnitude" in capsys.readouterr().err


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

    def test_rank_plan_module_not_adapted_is_usage_error(self, tmp_path, capsys):
        plan = {"L0.q": 2, "L0.v": 2, "L7.q": 2}
        cfg = _run_config(tmp_path, method="lamda++", rank_plan=plan)
        code = run_cli("finetune", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "rank_plan" in (err := capsys.readouterr().err) and "L7.q" in err

    @pytest.mark.parametrize("kind", ["qq", "Q"])
    def test_unknown_adapted_kind_is_usage_error(self, tmp_path, capsys, kind):
        cfg = _run_config(tmp_path, adapted_kinds=["q", kind])
        code = run_cli("finetune", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert repr(kind) in capsys.readouterr().err

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
        assert os.listdir(out) == []

    def test_update_overflow_prints_only_the_error_line(self, tmp_path):
        # A fresh interpreter shows numpy's warnings, which pytest would capture.
        cfg = _run_config(tmp_path, total_steps=1, lr=1e39)
        proc = subprocess.run(
            [sys.executable, "-m", "lamda.cli", "finetune", "--config", str(cfg),
             "--out-dir", str(tmp_path / "o")], capture_output=True, text=True)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error: parameter "), lines


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
