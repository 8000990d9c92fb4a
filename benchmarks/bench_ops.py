"""Benchmark the fused adapted linear, `lamda.tensor.adapted_linear`, against
the matmul/scale/add composition it replaced, and a step's fixed costs:
the optimizer update and the row maxima of attention and cross-entropy.

Usage: PYTHONPATH=src python benchmarks/bench_ops.py [--repeats 300] [--rounds 5]

Op level: on the toy model's shapes (b*n 128, r 8; d_in x d_out 64x64,
64x256 and 256x64) for LaMDA (x live, `a` frozen, `s` and `b` live) and
LoRA (`a` and `b` live), the two forms run interleaved, forward and
backward under a tape. Each pair must give byte-equal outputs and
gradients; the best time per call over the rounds is printed.

Step costs: the 20 optimizer slots of the toy LaMDA run (r 8 on q, k, v,
ffn1 and ffn2 of 2 layers: ten 8x8 `s`, eight 8x64 and two 8x256 `b`),
updated slot by slot and by `train.Adam`'s one update per slot shape,
before t_i (every slot live) and after it (only the `s` slots); and
numpy's row-wise max against `tensor._row_max` on the attention scores
(8, 4, 16, 16) and the logits (128, 32). Each pair must give byte-equal
parameters and moments, or maxima; the best time per call is printed.

Model level: one training step of the toy model (d 64, ffn 256, n 16,
b 8) and of a wider one (d 256, ffn 1024, n 32, b 8), both with rank 8 on
q, k, v, ffn1 and ffn2, for LoRA and LaMDA (kaiming init, so no SVD runs).
Printed per form: the bytes the forward leaves allocated while the tape
is alive and the step's peak, both from tracemalloc, next to the adapter
activations `accounting.activation_footprint` says must be kept.
"""

import argparse
import time
import tracemalloc

import numpy as np

from lamda import accounting, adapter
from lamda.model import ToyTransformerConfig
from lamda.tasks import make_task
from lamda.tensor import (Tape, Tensor, _row_max, adapted_linear, add, matmul, mul, scale,
                          tensor_sum)
from lamda.train import Adam, TrainRunConfig, build_run

SHAPES = [(128, 64, 64, 8), (128, 64, 256, 8), (128, 256, 64, 8)]  # b*n, d_in, d_out, r
MODELS = {
    "toy d64": (ToyTransformerConfig(layers=2, d_model=64, heads=4, ffn_dim=256,
                                     vocab=32, context=16), 8),
    "d256": (ToyTransformerConfig(layers=2, d_model=256, heads=4, ffn_dim=1024,
                                  vocab=32, context=32), 8),
}


def composed(x, w, a, s, b, alpha=1.0):
    """The five tape nodes (six with alpha != 1) of the adapted linear."""
    h = matmul(x, a)
    if s is not None:
        h = matmul(h, s)
    path = matmul(h, b)
    if alpha != 1.0:
        path = scale(path, alpha)
    return add(matmul(x, w), path)


def _step(op, arrs, lora, c):
    x, w, a, s, b = arrs
    ts = [Tensor(x, requires_grad=True), Tensor(w), Tensor(a, requires_grad=lora),
          None if lora else Tensor(s, requires_grad=True), Tensor(b, requires_grad=True)]
    start = time.perf_counter()
    with Tape() as tape:
        out = op(*ts)
        tape.backward(tensor_sum(mul(out, c)))
    elapsed = time.perf_counter() - start
    bits = [out.data.tobytes()] + [t.grad.tobytes() for t in ts
                                   if t is not None and t.grad is not None]
    return elapsed, bits


def op_table(repeats, rounds):
    print(f"{'form':>6} {'b*n x d_in -> d_out, r':>24} {'composed (us)':>14} "
          f"{'fused (us)':>11} {'speed-up':>9}")
    for lora in (False, True):
        for bn, d_in, d_out, r in SHAPES:
            rng = np.random.default_rng(0)
            arrs = [rng.normal(size=shape) for shape in
                    [(bn, d_in), (d_in, d_out), (d_in, r), (r, r), (r, d_out)]]
            c = Tensor(rng.normal(size=(bn, d_out)))
            best = {composed: float("inf"), adapted_linear: float("inf")}
            for _ in range(rounds):
                total = {composed: 0.0, adapted_linear: 0.0}
                for _ in range(repeats):
                    runs = {op: _step(op, arrs, lora, c) for op in (composed, adapted_linear)}
                    assert runs[composed][1] == runs[adapted_linear][1], "forms differ"
                    for op, (elapsed, _) in runs.items():
                        total[op] += elapsed
                for op in best:
                    best[op] = min(best[op], total[op] / repeats)
            name = "LoRA" if lora else "LaMDA"
            old, new = best[composed] * 1e6, best[adapted_linear] * 1e6
            print(f"{name:>6} {f'{bn} x {d_in} -> {d_out}, {r}':>24} {old:>14.1f} "
                  f"{new:>11.1f} {old / new:>8.2f}x")


class PerSlotAdam(Adam):
    """The optimizer's update as it ran before slots were grouped by shape."""

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for slot in self.slots.values():
            tensor = slot["tensor"]
            live = slot["live"]
            if tensor.grad is None or live == 0:
                continue
            g = tensor.grad[:live]
            m, v = slot["m"][:live], slot["v"][:live]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            upd = (self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)).astype(
                tensor.data.dtype
            )
            tensor.data[:live] -= upd


def _best_pair(first, second, repeats, rounds, same):
    """Best mean time per call of two interleaved callables, in microseconds;
    `same()` must hold after every pair of calls."""
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        total = [0.0, 0.0]
        for _ in range(repeats):
            for k, fn in enumerate((first, second)):
                start = time.perf_counter()
                fn()
                total[k] += time.perf_counter() - start
            assert same(), "forms differ"
        best = [min(b, t / repeats) for b, t in zip(best, total)]
    return best[0] * 1e6, best[1] * 1e6


def step_cost_table(repeats, rounds):
    model_cfg, rank = MODELS["toy d64"]
    cfg = TrainRunConfig(method="lamda", rank=rank, init_mode="kaiming", model=model_cfg)
    _, template, _ = build_run(cfg)
    print(f"\n{'step cost':>40} {'per slot / np.max (us)':>23} {'grouped / row max (us)':>23} "
          f"{'speed-up':>9}")
    rng = np.random.default_rng(0)
    for phase, frozen_b in (("Adam.step, 20 slots before t_i", False),
                            ("Adam.step, 10 slots after t_i", True)):
        opts = (PerSlotAdam(cfg.lr), Adam(cfg.lr))
        for opt in opts:
            for name, slot in template.slots.items():
                live = 0 if frozen_b and name.endswith(".b") else slot["live"]
                opt.add_param(name, Tensor(slot["tensor"].data.copy(), requires_grad=True),
                              live_rows=live)
        grads = {name: rng.normal(size=slot["tensor"].data.shape).astype(np.float32)
                 for name, slot in template.slots.items()
                 if not (frozen_b and name.endswith(".b"))}

        def stepper(opt):
            def step():
                for name, g in grads.items():
                    opt.slots[name]["tensor"].grad = g
                opt.step()
            return step

        def same():
            return all(a[key].tobytes() == b[key].tobytes() and
                       a["tensor"].data.tobytes() == b["tensor"].data.tobytes()
                       for a, b in zip(*(opt.slots.values() for opt in opts))
                       for key in ("m", "v"))

        old, new = _best_pair(*map(stepper, opts), repeats, rounds, same)
        print(f"{phase:>40} {old:>23.1f} {new:>23.1f} {old / new:>8.2f}x")
    for what, shape in (("attention scores", (8, 4, 16, 16)), ("logits", (128, 32))):
        x = rng.normal(size=shape).astype(np.float32)
        out = {}
        old, new = _best_pair(lambda: out.update(old=x.max(axis=-1, keepdims=True)),
                              lambda: out.update(new=_row_max(x)), repeats, rounds,
                              lambda: out["old"].tobytes() == out["new"].tobytes())
        label = f"row max, {what} {shape}"
        print(f"{label:>40} {old:>23.1f} {new:>23.1f} {old / new:>8.2f}x")


def _held_bytes(model_cfg, method, rank, forward):
    cfg = TrainRunConfig(method=method, rank=rank, init_mode="kaiming", total_steps=10,
                         batch_size=8, model=model_cfg)
    model, _, _ = build_run(cfg)
    inputs, targets = make_task("copy", model_cfg.vocab, model_cfg.context, seed=1).batch(8)
    saved = adapter.AdapterState.forward, adapter.LoraState.forward
    if forward == "composed":
        adapter.AdapterState.forward = lambda st, x: composed(
            x, st.w_res, st.a, st.s, st.b, st.config.alpha)
        adapter.LoraState.forward = lambda st, x: composed(x, st.w, st.a, None, st.b, st.alpha)
    try:
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = model.loss(inputs, targets)
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        adapter.AdapterState.forward, adapter.LoraState.forward = saved
    spec = accounting.ModelSpec(name="bench", layers=model_cfg.layers, d_model=model_cfg.d_model,
                                ffn_dim=model_cfg.ffn_dim, adapted_kinds=cfg.adapted_kinds,
                                seq_len=model_cfg.context, batch=cfg.batch_size)
    floats = accounting.activation_footprint(spec, method, rank, include_trainable_up=True)
    return held, peak, 4 * sum(floats.values())


def memory_table():
    print(f"\n{'model':>8} {'method':>6} {'form':>9} {'held after forward (MB)':>24} "
          f"{'step peak (MB)':>15} {'activation_footprint (MB)':>26}")
    for name, (model_cfg, rank) in MODELS.items():
        for method in ("lora", "lamda"):
            for form in ("composed", "fused"):
                held, peak, model_bytes = _held_bytes(model_cfg, method, rank, form)
                print(f"{name:>8} {method:>6} {form:>9} {held / 1e6:>24.2f} "
                      f"{peak / 1e6:>15.2f} {model_bytes / 1e6:>26.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=300, help="pairs per round")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    op_table(args.repeats, args.rounds)
    step_cost_table(args.repeats, args.rounds)
    memory_table()


if __name__ == "__main__":
    main()
