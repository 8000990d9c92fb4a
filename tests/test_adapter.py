import numpy as np
import pytest

from lamda.adapter import (AdapterConfig, build_adapter, build_lora,
                           kaiming_normal)
from lamda.errors import ConfigError
from lamda.tensor import Tensor


def _weight(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestSpectralInit:
    @pytest.mark.parametrize("init_mode", ["spectral_top", "spectral_tail"])
    def test_exact_reconstruction_at_identity_core(self, f64, init_mode):
        w = _weight((24, 16), 1)
        cfg = AdapterConfig(rank=6, shape=w.shape, init_mode=init_mode)
        st = build_adapter(w, cfg)
        assert np.array_equal(st.s.data, np.eye(6))
        err = np.linalg.norm(st.merged_weight() - w) / np.linalg.norm(w)
        assert err <= 1e-12

    def test_forward_matches_dense_layer(self, f64):
        w = _weight((10, 8), 2)
        st = build_adapter(w, AdapterConfig(rank=4, shape=w.shape))
        x = _weight((5, 10), 3)
        out = st.forward(Tensor(x))
        assert np.abs(out.data - x @ w).max() <= 1e-10

    def test_top_init_a_carries_dominant_energy(self, f64):
        w = _weight((20, 20), 4)
        top = build_adapter(w, AdapterConfig(rank=3, shape=w.shape, init_mode="spectral_top"))
        tail = build_adapter(w, AdapterConfig(rank=3, shape=w.shape, init_mode="spectral_tail"))
        assert np.linalg.norm(top.a.data) > np.linalg.norm(tail.a.data)

    def test_alpha_scales_only_adapter_path(self, f64):
        w = _weight((8, 8), 5)
        st = build_adapter(w, AdapterConfig(rank=2, shape=w.shape, alpha=3.0))
        x = _weight((4, 8), 6)
        out = st.forward(Tensor(x)).data
        want = x @ st.w_res.data + 3.0 * (x @ st.a.data @ st.s.data @ st.b.data)
        assert np.abs(out - want).max() <= 1e-10


class TestKaimingInit:
    def test_zero_core_means_identity_function(self, f64):
        w = _weight((12, 9), 7)
        st = build_adapter(w, AdapterConfig(rank=5, shape=w.shape, init_mode="kaiming"))
        assert np.array_equal(st.s.data, np.zeros((5, 5)))
        assert np.array_equal(st.w_res.data, w.astype(st.w_res.data.dtype))
        x = _weight((3, 12), 8)
        assert np.abs(st.forward(Tensor(x)).data - x @ w).max() <= 1e-10

    def test_seeded_determinism(self):
        w = _weight((12, 9), 7)
        cfg = AdapterConfig(rank=5, shape=w.shape, init_mode="kaiming")
        s1 = build_adapter(w, cfg, seed=42)
        s2 = build_adapter(w, cfg, seed=42)
        s3 = build_adapter(w, cfg, seed=43)
        assert np.array_equal(s1.a.data, s2.a.data)
        assert not np.array_equal(s1.a.data, s3.a.data)

    def test_kaiming_std(self):
        rng = np.random.default_rng(0)
        sample = kaiming_normal(rng, 64, (64, 4000))
        assert sample.std() == pytest.approx(np.sqrt(2.0 / 64), rel=0.05)


class TestTrainability:
    def test_initial_flags(self, f64):
        w = _weight((10, 10), 9)
        st = build_adapter(w, AdapterConfig(rank=4, shape=w.shape))
        assert st.s.requires_grad and st.b.requires_grad
        assert not st.a.requires_grad and not st.w_res.requires_grad
        assert st.trainable_rows == 4

    def test_set_trainable_rows(self, f64):
        w = _weight((10, 10), 9)
        st = build_adapter(w, AdapterConfig(rank=4, shape=w.shape))
        st.set_trainable_rows(2)
        assert st.trainable_rows == 2
        assert st.b.requires_grad and st.s.requires_grad
        st.set_trainable_rows(0)
        assert st.trainable_rows == 0
        assert not st.b.requires_grad and st.s.requires_grad
        with pytest.raises(ConfigError):
            st.set_trainable_rows(5)


class TestValidation:
    def test_rank_bounds(self):
        with pytest.raises(ConfigError):
            AdapterConfig(rank=0, shape=(4, 4))
        with pytest.raises(ConfigError):
            AdapterConfig(rank=5, shape=(4, 8))

    def test_bad_modes(self):
        with pytest.raises(ConfigError, match="init_mode"):
            AdapterConfig(rank=1, shape=(4, 4), init_mode="random")

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError, match="shape"):
            build_adapter(np.zeros((3, 3)), AdapterConfig(rank=1, shape=(4, 4)))


class TestLora:
    def test_identity_at_init(self, f64):
        w = _weight((9, 7), 10)
        st = build_lora(w, rank=3, seed=1)
        x = _weight((4, 9), 11)
        assert np.abs(st.forward(Tensor(x)).data - x @ w).max() <= 1e-10
        assert np.array_equal(st.b.data, np.zeros((3, 7)))

    def test_flags_and_names(self):
        st = build_lora(_weight((9, 7), 10), rank=3)
        assert st.a.requires_grad and st.b.requires_grad and not st.w.requires_grad
        assert list(st.tensors()) == ["a", "b", "w"]

    def test_rank_validation(self):
        with pytest.raises(ConfigError):
            build_lora(np.zeros((4, 4)), rank=0)
