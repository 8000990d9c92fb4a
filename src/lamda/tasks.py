"""Synthetic next-token tasks that make desk-scale fine-tuning verifiable.

copy / reverse: the input is [x_0..x_{m-1}, SEP, y_0..y_{m-1}] with
y = x (copy) or y = reversed(x) (reverse); only the positions producing
y are scored, so a causal model must retrieve earlier tokens. modsum is
a running (a+b) mod vocab recurrence scored everywhere. "text:<path>"
samples windows from a plain-text character corpus. Each task draws from
its own seeded RNG, and `batch(batch_size)` returns (inputs, targets).
"""

import numpy as np

from .errors import ConfigError

IGNORE = -1


class _PairTask:
    """copy/reverse: emit x, SEP, then x or x reversed. The tokens of x are
    drawn below SEP, the last token id."""

    def __init__(self, vocab, context, seed, reverse):
        if context % 2 != 0 or context < 4:
            raise ConfigError(f"copy/reverse need an even context >= 4, got {context}")
        if vocab < 3:
            raise ConfigError("copy/reverse need vocab >= 3")
        self.rng = np.random.default_rng(seed)
        self.half = context // 2
        self.sep = vocab - 1
        self.reverse = reverse

    def batch(self, batch_size):
        m = self.half
        x = self.rng.integers(0, self.sep, size=(batch_size, m))
        y = x[:, ::-1] if self.reverse else x
        full = np.concatenate(
            [x, np.full((batch_size, 1), self.sep), y], axis=1
        ).astype(np.int64)
        inputs = full[:, : 2 * m]
        targets = full[:, 1 : 2 * m + 1].copy()
        targets[:, : m] = IGNORE  # only the y half is scored
        return inputs, targets


class ModSumTask:
    def __init__(self, vocab, context, seed):
        self.seq_len = context
        self.vocab = vocab
        self.rng = np.random.default_rng(seed)

    def batch(self, batch_size):
        n = self.seq_len
        seq = np.zeros((batch_size, n + 1), dtype=np.int64)
        seq[:, :2] = self.rng.integers(0, self.vocab, size=(batch_size, 2))
        for i in range(2, n + 1):
            seq[:, i] = (seq[:, i - 1] + seq[:, i - 2]) % self.vocab
        return seq[:, :n], seq[:, 1:].copy()


class TextTask:
    """Character-level windows from a plain-text file."""

    def __init__(self, path, vocab, context, seed):
        self.seq_len = context
        self.rng = np.random.default_rng(seed)
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"corpus {path} is not UTF-8 text: {exc}") from None
        if len(text) <= context + 1:
            raise ConfigError(f"corpus {path} shorter than one context window")
        chars = sorted(set(text))
        if len(chars) > vocab:
            raise ConfigError(
                f"corpus has {len(chars)} distinct chars but vocab is {vocab}"
            )
        lut = {c: i for i, c in enumerate(chars)}
        self.ids = np.array([lut[c] for c in text], dtype=np.int64)

    def batch(self, batch_size):
        n = self.seq_len
        starts = self.rng.integers(0, self.ids.shape[0] - n - 1, size=batch_size)
        inputs = np.stack([self.ids[s : s + n] for s in starts])
        targets = np.stack([self.ids[s + 1 : s + n + 1] for s in starts])
        return inputs, targets


def make_task(task_id, vocab, context, seed=0):
    if task_id in ("copy", "reverse"):
        return _PairTask(vocab, context, seed, reverse=task_id == "reverse")
    if task_id == "modsum":
        return ModSumTask(vocab, context, seed)
    if task_id.startswith("text:"):
        return TextTask(task_id[5:], vocab, context, seed)
    raise ConfigError(f"unknown task {task_id!r}")
