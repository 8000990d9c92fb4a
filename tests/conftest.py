import os

import numpy as np
import pytest

from lamda.kernels import _SAFE_EXP
from lamda.model import ToyTransformerConfig
from lamda.tensor import set_float_mode
from lamda.train import pretrain_backbone

# The BLAS thread count this process started with. Collecting
# perfbench/run.py later sets OPENBLAS_NUM_THREADS=1 in os.environ: child
# interpreters see that, but numpy here has already loaded with this value.
OPENBLAS_THREADS_AT_START = os.environ.get("OPENBLAS_NUM_THREADS")

TOY_MODEL = dict(layers=2, d_model=64, heads=4, ffn_dim=256, vocab=32, context=16)


@pytest.fixture(autouse=True)
def _reset_float_mode():
    yield
    set_float_mode("f32")


@pytest.fixture
def f64():
    set_float_mode("f64")
    yield
    set_float_mode("f32")


@pytest.fixture(scope="session")
def toy_cfg():
    return ToyTransformerConfig(**TOY_MODEL)


@pytest.fixture(scope="session")
def copy_backbone(toy_cfg):
    """Backbone pre-trained on the copy task; shared across the session."""
    set_float_mode("f32")
    return pretrain_backbone(toy_cfg, task_id="copy", steps=400, lr=3e-3,
                             batch_size=16, seed=0)


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.abs(want).max(), 1e-300)
    return np.abs(got - want).max() / denom


def in_kernel_contract(at):
    """Whether `kernels.jacobi_sweeps` takes the operand `at`: no more rows
    than columns, finite, and no |entry| above 2**_SAFE_EXP / sqrt(n * m)."""
    n, m = at.shape
    return n <= m and bool(np.all(np.abs(at) <= 2.0**_SAFE_EXP / np.sqrt(max(n * m, 1))))
