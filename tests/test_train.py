import sys
import weakref

import numpy as np
import pytest

import oracles
from lamda import accounting, container
from lamda.adapter import AdapterConfig, build_adapter
from lamda.allocator import RankBudget, allocate, score_modules
from lamda.errors import ConfigError, NumericalError
from lamda.model import ToyTransformer, ToyTransformerConfig
from lamda.svd import svd_many
from lamda.tasks import IGNORE, make_task
from lamda.tensor import Tape, Tensor
from lamda.train import (Adam, TrainRunConfig, build_run, count_retained_activations,
                         eval_loss, train)

SMALL = ToyTransformerConfig(layers=1, d_model=16, heads=2, ffn_dim=32,
                             vocab=11, context=8)


class TestTasks:
    def test_copy_layout(self):
        task = make_task("copy", vocab=11, context=8, seed=0)
        inputs, targets = task.batch(4)
        assert inputs.shape == targets.shape == (4, 8)
        m, sep = 4, 10
        assert np.all(inputs[:, m] == sep)
        assert np.all(targets[:, :m] == IGNORE)
        # scored half predicts the x prefix again
        assert np.array_equal(targets[:, m:], inputs[:, :m])

    def test_reverse_layout(self):
        task = make_task("reverse", vocab=11, context=8, seed=0)
        inputs, targets = task.batch(4)
        assert np.array_equal(targets[:, 4:], inputs[:, :4][:, ::-1])

    def test_modsum_recurrence(self):
        task = make_task("modsum", vocab=7, context=6, seed=1)
        inputs, targets = task.batch(3)
        assert np.array_equal(targets[:, :-1], inputs[:, 1:])
        full = np.concatenate([inputs, targets[:, -1:]], axis=1)
        for i in range(2, 7):
            assert np.array_equal(full[:, i], (full[:, i - 1] + full[:, i - 2]) % 7)

    def test_text_task(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("abcabcabc" * 10)
        task = make_task(f"text:{corpus}", vocab=8, context=6, seed=2)
        inputs, targets = task.batch(5)
        assert np.array_equal(inputs[:, 1:], targets[:, :-1])
        assert inputs.max() < 3

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            make_task("sort", vocab=8, context=8)

    def test_odd_context_rejected(self):
        with pytest.raises(ConfigError):
            make_task("copy", vocab=8, context=7)

    def test_seeded_batches_reproducible(self):
        a = make_task("copy", 11, 8, seed=5).batch(4)
        b = make_task("copy", 11, 8, seed=5).batch(4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestAdam:
    def test_dense_step_matches_reference(self, f64):
        t = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        opt = Adam(lr=0.1)
        opt.add_param("w", t)
        g = np.array([[0.5, -0.5]])
        t.grad = g
        opt.step()
        m = 0.1 * g
        v = 0.001 * g * g
        want = np.array([[1.0, 2.0]]) - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        assert np.abs(t.data - want).max() <= 1e-12

    def test_row_masking_leaves_frozen_rows_untouched(self, f64):
        t = Tensor(np.ones((4, 3)), requires_grad=True)
        opt = Adam(lr=0.5)
        opt.add_param("b", t, live_rows=4)
        opt.set_live_rows("b", 2)
        t.grad = np.ones((4, 3))
        opt.step()
        assert np.array_equal(t.data[2:], np.ones((2, 3)))
        assert np.abs(t.data[:2] - 1.0).min() > 0

    def test_zero_live_rows_disables_param(self):
        t = Tensor(np.ones((4, 3)), requires_grad=True)
        opt = Adam(lr=0.5)
        opt.add_param("b", t, live_rows=4)
        opt.set_live_rows("b", 0)
        assert not t.requires_grad
        t.grad = np.ones((4, 3))
        before = t.data.copy()
        opt.step()
        assert np.array_equal(t.data, before)

    def test_full_run_matches_two_path_reference(self, monkeypatch):
        # Every parameter of a full run is added without live rows: the
        # one update path must give the dense path's bits.
        cfg = TrainRunConfig(method="full", total_steps=12, batch_size=2, lr=5e-3,
                             seed=3, model=SMALL)
        got = train(cfg)
        monkeypatch.setattr("lamda.train.Adam", oracles.AdamTwoPathRef)
        want = train(cfg)
        assert got.metrics == want.metrics
        for name, w in want.model.weights().items():
            assert got.model.params[name].data.tobytes() == w.tobytes(), name
        _assert_same_checkpoint(got, want)

    @pytest.mark.parametrize("run", [
        dict(method="lamda", rank=4, ti_fraction=0.5),
        dict(method="lora", rank=4),
        dict(method="lamda++", rank_plan={"L0.q": 2, "L0.k": 4, "L0.v": 4, "L0.ffn1": 2,
                                          "L0.ffn2": 8}, ti_fraction=0.75),
    ], ids=["lamda-freezing", "lora", "lamda++-mixed-ranks"])
    def test_adapter_run_matches_two_path_reference(self, monkeypatch, run):
        """Grouped slots (one group per shape; mixed ranks give several) and
        B rows freezing mid-run leave the loss series, the adapters and the
        checkpointed moments byte-equal to the slot-by-slot optimizer."""
        cfg = TrainRunConfig(total_steps=12, batch_size=2, lr=5e-3, seed=5, model=SMALL,
                             **run)
        got = train(cfg)
        monkeypatch.setattr("lamda.train.Adam", oracles.AdamTwoPathRef)
        want = train(cfg)
        assert got.metrics == want.metrics
        assert len({m for _, _, m, _ in got.metrics}) > 1 or cfg.method == "lora"
        _assert_same_checkpoint(got, want)

    def test_add_param_after_step_regroups(self):
        runs = []
        for cls in (Adam, oracles.AdamTwoPathRef):
            rng = np.random.default_rng(4)
            opt = cls(lr=0.1)
            ts = [Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(3)]
            opt.add_param("p0", ts[0])
            opt.add_param("p1", ts[1], live_rows=2)
            for step in range(4):
                if step == 2:
                    opt.add_param("p2", ts[2])
                for t in ts:
                    t.grad = np.asarray(rng.normal(size=(3, 2)), dtype=t.data.dtype)
                opt.step()
            runs.append((ts, opt))
        (got, opt), (want, ref) = runs
        for name, g, w in zip(opt.slots, got, want):
            assert g.data.tobytes() == w.data.tobytes(), name
            for key in ("m", "v"):
                assert opt.slots[name][key].tobytes() == ref.slots[name][key].tobytes()
        # p2 joined p0 and p1's buffer at the next step.
        assert got[0].data.base is not None
        assert all(t.data.base is got[0].data.base for t in got[1:])

    def test_group_with_mixed_live_rows_updates_only_live_rows(self):
        runs = []
        for cls in (Adam, oracles.AdamTwoPathRef):
            rng = np.random.default_rng(5)
            opt = cls(lr=0.1)
            ts = [Tensor(np.ones((4, 3)), requires_grad=True) for _ in range(5)]
            for i, (t, live) in enumerate(zip(ts, (4, 2, 2, 0, 3))):
                opt.add_param(f"b{i}", t, live_rows=live)
            for _ in range(3):
                for t in ts[:4]:  # b4 has live rows but no gradient
                    t.grad = rng.normal(size=(4, 3)).astype(t.data.dtype)
                opt.step()
            runs.append(ts)
        got, want = runs
        for i, (g, w) in enumerate(zip(got, want)):
            assert g.data.tobytes() == w.data.tobytes(), i
        for t, live in zip(got, (4, 2, 2, 0, 0)):
            assert np.array_equal(t.data[live:], np.ones((4 - live, 3)))
            assert (t.data[:live] != 1.0).all()

    def test_non_finite_parameter_names_slot_and_step(self):
        opt = Adam(lr=1e39)  # the f32 update lr * m / sqrt(v) overflows
        ts = [Tensor(np.ones(shape), requires_grad=True) for shape in [(3, 3), (3, 3), (2, 2)]]
        for name, t in zip(("L0.k.s", "L0.q.s", "w"), ts):
            opt.add_param(name, t)
        ts[1].grad = np.ones((3, 3), dtype=np.float32)  # only L0.q.s is updated
        with np.errstate(over="ignore"), pytest.raises(NumericalError,
                                                       match=r"L0\.q\.s .*step 1"):
            opt.step()

    def test_live_scalars(self):
        opt = Adam(lr=0.1)
        opt.add_param("s", Tensor(np.ones((3, 3)), requires_grad=True))
        opt.add_param("b", Tensor(np.ones((4, 5)), requires_grad=True), live_rows=2)
        assert opt.live_scalars() == 9 + 2 * 5


def _assert_same_checkpoint(got, want):
    tensors, meta = container.checkpoint_from_result(got)
    ref_tensors, ref_meta = container.checkpoint_from_result(want)
    assert meta == ref_meta and list(tensors) == list(ref_tensors)
    for name, arr in ref_tensors.items():
        assert tensors[name].dtype == arr.dtype and tensors[name].shape == arr.shape, name
        assert tensors[name].tobytes() == arr.tobytes(), name


class TestConfig:
    def test_method_validation(self):
        cfg = TrainRunConfig(method="prefix", model=SMALL)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_lamdapp_needs_budget(self):
        cfg = TrainRunConfig(method="lamda++", model=SMALL)
        with pytest.raises(ConfigError, match="budget"):
            cfg.validate()

    def test_digest_changes_with_config(self):
        a = TrainRunConfig(model=SMALL, seed=1).digest()
        b = TrainRunConfig(model=SMALL, seed=2).digest()
        assert a != b and len(a) == 16


def _adapter_ranks(model):
    return {m: st.a.data.shape[1] for m, st in model.adapters.items()}


class TestResolveRanks:
    """`build_run` gives each adapted module its rank."""

    def test_uniform_for_lamda(self):
        for method in ("lora", "lamda"):
            cfg = TrainRunConfig(method=method, rank=4, adapted_kinds=("q", "v"), model=SMALL)
            model, _, _ = build_run(cfg)
            assert _adapter_ranks(model) == {"L0.q": 4, "L0.v": 4}, method

    def test_explicit_plan_must_cover_modules(self):
        cfg = TrainRunConfig(method="lamda++", rank_plan={"L0.q": 4}, model=SMALL)
        with pytest.raises(ConfigError, match="misses"):
            build_run(cfg)

    def test_explicit_plan_must_name_only_adapted_modules(self):
        plan = dict.fromkeys(["L0.q", "L0.k", "L0.v", "L0.ffn1", "L0.ffn2", "L7.q"], 4)
        cfg = TrainRunConfig(method="lamda++", rank_plan=plan, model=SMALL)
        with pytest.raises(ConfigError, match=r"not adapted: \['L7.q'\]"):
            build_run(cfg)

    def test_budget_allocation_runs(self):
        cfg = TrainRunConfig(method="lamda++", budget_ranks=(2, 4, 6), budget_target=4,
                             model=SMALL)
        ranks = _adapter_ranks(build_run(cfg)[0])
        assert len(ranks) == 5 and set(ranks.values()) <= {2, 4, 6}

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_budget_ranks_are_the_allocation_of_the_scores(self, reverse):
        cfg = TrainRunConfig(method="lamda++", budget_ranks=(2, 4, 6), budget_target=4,
                             reverse_allocation=reverse, model=SMALL)
        model, _, _ = build_run(cfg)
        w = {m: model.params[m].data for m in model.linear_module_ids(cfg.adapted_kinds)}
        budget = RankBudget(ranks=(2, 4, 6), target=4)
        want = allocate(score_modules(w, budget, svd_many(w)), budget, reverse).ranks
        assert _adapter_ranks(model) == want
        # Quantile groups of 1, 2 and 2 modules for 3 candidate ranks.
        assert sorted(want.values()) == ([2, 4, 4, 6, 6] if reverse else [2, 2, 4, 4, 6])

    def test_lamdapp_decomposes_each_weight_once(self, monkeypatch, toy_cfg):
        """Budget scoring and spectral init share one SVD per adapted weight."""
        svd_module = sys.modules["lamda.svd"]  # `lamda.svd` names the function
        kernel = svd_module.jacobi_sweeps
        calls = []

        def counting_kernel(*args):
            calls.append(args[0].shape)
            return kernel(*args)

        monkeypatch.setattr(svd_module, "jacobi_sweeps", counting_kernel)
        cfg = TrainRunConfig(method="lamda++", budget_ranks=(4, 8, 12), budget_target=8,
                             total_steps=1, batch_size=2, model=toy_cfg)
        train(cfg)
        # 2 layers x 5 adapted kinds, each decomposed once, in one stack per
        # operand shape: q, k, v are 64 x 64 and ffn1, ffn2 64 x 256.
        assert calls == [(6, 64, 64), (4, 64, 256)]

        model, _, _ = build_run(cfg)
        modules = sorted(model.adapters)
        ranks = {m: model.adapters[m].config.rank for m in modules}
        assert sorted(set(ranks.values())) == [4, 8, 12]
        for i, module in enumerate(modules):
            w = model.params[module].data
            want = build_adapter(w, AdapterConfig(rank=ranks[module], shape=w.shape),
                                 seed=cfg.seed * 7919 + i)
            got = model.adapters[module]
            assert list(got.tensors()) == list(want.tensors())
            for name, t in want.tensors().items():
                assert got.tensors()[name].data.tobytes() == t.data.tobytes(), (module, name)


    @pytest.mark.parametrize("bad", [
        dict(method="lamda", rank=17),
        dict(method="lamda++", rank_plan={"L0.q": 4, "L0.k": 4, "L0.v": 17, "L0.ffn1": 4,
                                          "L0.ffn2": 4}),
        dict(method="lamda++", budget_ranks=(8, 16, 24), budget_target=16),
        dict(method="lamda++", budget_ranks=(4, 8, 16), budget_target=8),
        dict(method="lamda++", budget_ranks=(2, 4, 6), budget_target=4, init_mode="bogus"),
    ])
    def test_bad_config_fails_before_any_svd(self, monkeypatch, bad):
        """Every rank, a budget's largest candidate and the init mode are
        checked against the weights before the run's one batched SVD."""
        calls = []
        monkeypatch.setattr(sys.modules["lamda.svd"], "jacobi_sweeps",
                            lambda at, *args: calls.append(at.shape))
        with pytest.raises(ConfigError):
            build_run(TrainRunConfig(model=SMALL, **bad))
        assert calls == []


class TestTraining:
    def test_build_run_freezes_backbone(self):
        cfg = TrainRunConfig(method="lamda", rank=2, total_steps=10,
                             adapted_kinds=("q", "v"), model=SMALL)
        model, opt, schedules = build_run(cfg)
        assert all(not t.requires_grad for t in model.params.values())
        assert set(model.adapters) == {"L0.q", "L0.v"}
        assert set(schedules) == {"L0.q", "L0.v"}
        assert list(opt.slots) == ["L0.q.s", "L0.q.b", "L0.v.s", "L0.v.b"]

    def test_build_run_slots_follow_method(self):
        kinds = ("q", "v")
        lora = TrainRunConfig(method="lora", rank=2, adapted_kinds=kinds, model=SMALL)
        _, opt, schedules = build_run(lora)
        assert list(opt.slots) == ["L0.q.a", "L0.q.b", "L0.v.a", "L0.v.b"]
        assert schedules == {}
        full = TrainRunConfig(method="full", adapted_kinds=kinds, model=SMALL)
        model, opt, schedules = build_run(full)
        assert list(opt.slots) == list(model.params)
        assert all(t.requires_grad for t in model.params.values())
        assert model.adapters == {} and schedules == {}

    @pytest.mark.parametrize("ti_fraction, live", [
        pytest.param(0.0, 0, id="b-never-trains"),
        pytest.param(0.5, 2, id="b-starts-live"),
    ])
    def test_build_run_starts_b_at_step_zero_rows(self, ti_fraction, live):
        """t_i = 0 freezes every B row from the start; t_i > 0 starts all live."""
        cfg = TrainRunConfig(method="lamda", rank=2, total_steps=10, ti_fraction=ti_fraction,
                             adapted_kinds=("q", "v"), model=SMALL)
        model, opt, _ = build_run(cfg)
        for module, st in model.adapters.items():
            assert st.trainable_rows == live
            assert st.b.requires_grad == (live > 0) and st.s.requires_grad
            assert opt.slots[f"{module}.b"]["live"] == live
            assert opt.slots[f"{module}.s"]["live"] == 2

    def test_short_lamda_run_improves_and_freezes(self):
        cfg = TrainRunConfig(method="lamda", task="modsum", rank=4, total_steps=150,
                             ti_fraction=0.3, lr=1e-2, batch_size=8, seed=1,
                             model=SMALL)
        result = train(cfg)
        assert len(result.metrics) == 150
        steps, losses, live, retained = zip(*result.metrics)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])
        # after the freeze horizon only the five 4x4 cores remain live
        assert live[-1] == 5 * 16
        assert live[0] > live[-1]
        for st in result.model.adapters.values():
            assert st.trainable_rows == 0

    def test_frozen_tensors_bitwise_stable(self):
        cfg = TrainRunConfig(method="lamda", task="copy", rank=2, total_steps=15,
                             ti_fraction=0.0, lr=5e-3, batch_size=4, seed=2,
                             adapted_kinds=("q",), model=SMALL)
        model, opt, schedules = build_run(cfg)
        st = model.adapters["L0.q"]
        frozen_before = {
            "w_res": st.w_res.data.copy(), "a": st.a.data.copy(),
            "b": st.b.data.copy(), "backbone": model.params["L0.v"].data.copy(),
        }
        result = train(cfg)
        st = result.model.adapters["L0.q"]
        assert np.array_equal(st.w_res.data, frozen_before["w_res"])
        assert np.array_equal(st.a.data, frozen_before["a"])
        assert np.array_equal(st.b.data, frozen_before["b"])  # ti = 0: b never trains
        assert np.array_equal(result.model.params["L0.v"].data, frozen_before["backbone"])
        assert not np.array_equal(st.s.data, np.eye(2))

    def test_lora_run(self):
        cfg = TrainRunConfig(method="lora", task="copy", rank=2, total_steps=80,
                             lr=1e-2, batch_size=8, seed=1,
                             adapted_kinds=("q", "v"), model=SMALL)
        result = train(cfg)
        losses = result.loss_series()
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_metrics_hook_sees_every_row(self):
        seen = []
        cfg = TrainRunConfig(method="lamda", rank=2, total_steps=5, batch_size=2,
                             adapted_kinds=("q",), model=SMALL)
        result = train(cfg, metrics_hook=seen.append)
        assert seen == result.metrics

    def test_determinism(self):
        cfg = TrainRunConfig(method="lamda", rank=2, total_steps=10, batch_size=2,
                             seed=7, adapted_kinds=("q",), model=SMALL)
        a = train(cfg).loss_series()
        b = train(cfg).loss_series()
        assert a == b

    def test_eval_loss_runs_without_tape(self):
        cfg = TrainRunConfig(method="lamda", rank=2, total_steps=5, batch_size=2,
                             adapted_kinds=("q",), model=SMALL)
        model, _, _ = build_run(cfg)
        val = eval_loss(model, "copy", cfg, batches=2)
        assert np.isfinite(val)


class TestOneGraphPerStep:
    def test_train_drops_a_step_graph_before_the_next_forward(self, monkeypatch):
        loss_fn, prev, dead = ToyTransformer.loss, [], []

        def loss(model, tokens, targets):
            if prev:
                dead.append(prev[-1]() is None)
            out = loss_fn(model, tokens, targets)
            prev.append(weakref.ref(out))
            return out

        monkeypatch.setattr(ToyTransformer, "loss", loss)
        cfg = TrainRunConfig(method="lamda", rank=2, total_steps=4, batch_size=2,
                             adapted_kinds=("q", "ffn1"), model=SMALL)
        train(cfg)
        assert dead == [True, True, True]

    @pytest.mark.parametrize("method", ["lora", "lamda"])
    def test_retained_count_is_the_closed_form(self, method):
        """The floats the tape nodes keep for trainable parameters, read from
        their `_saved` records, before and after t_i."""
        kinds, rank, batch = ("q", "k", "v", "ffn1", "ffn2"), 2, 3
        cfg = TrainRunConfig(method=method, rank=rank, batch_size=batch, ti_fraction=0.5,
                             init_mode="kaiming", adapted_kinds=kinds, model=SMALL)
        model, _, _ = build_run(cfg)
        inputs, targets = make_task("copy", SMALL.vocab, SMALL.context, seed=1).batch(batch)

        def step_count():
            with Tape() as tape:
                tape.backward(model.loss(inputs, targets))
            return count_retained_activations(tape)

        spec = accounting.ModelSpec(name="small", layers=SMALL.layers, d_model=SMALL.d_model,
                                    ffn_dim=SMALL.ffn_dim, adapted_kinds=kinds,
                                    seq_len=SMALL.context, batch=batch)
        core = accounting.count_lamda_effective(spec, rank, 0.5).activation_floats
        if method == "lamda":
            assert step_count() == (core["adapter_core_input"]
                                    + core["up_projection_input_while_trainable"])
            for st in model.adapters.values():
                st.set_trainable_rows(0)  # past t_i only the cores train
            assert step_count() == core["adapter_core_input"]
        else:
            # q, k and v read one input array, which is kept once; b's
            # gradient also reads the r-wide x @ a of every module.
            inputs_once = {**vars(spec), "adapted_kinds": ("q", "ffn1", "ffn2")}
            lora = accounting.count_lora(accounting.ModelSpec(**inputs_once), rank)
            lora = lora.activation_floats
            assert step_count() == lora["adapter_input"] + core["adapter_core_input"]
