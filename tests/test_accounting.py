from dataclasses import asdict

import pytest

from lamda.accounting import (CostReport, ModelSpec, activation_footprint,
                              count_lamda_effective, count_lora,
                              list_presets, live_trainable_params,
                              load_preset, optimizer_state_bytes)
from lamda.config import from_json
from lamda.errors import ConfigError


def _rel(got, want):
    return abs(got - want) / want


class TestPresets:
    def test_all_listed_presets_load(self):
        names = list_presets()
        assert "llama2-7b" in names and "deberta-v3-base" in names
        for name in names:
            spec = load_preset(name)
            assert spec.layers > 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("no-such-model")

    def test_from_json_rejects_extras(self):
        with pytest.raises(ConfigError, match="unknown"):
            from_json(ModelSpec, {"name": "x", "layers": 1, "d_model": 8,
                                  "ffn_dim": 16, "adapted_kinds": ["q"], "foo": 1}, "spec")

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ModelSpec(name="x", layers=1, d_model=8, ffn_dim=16,
                      adapted_kinds=("attn",))

    @pytest.mark.parametrize("kinds, message", [
        pytest.param(("q", "q"), "'q' is listed twice", id="duplicate"),
        pytest.param((), "non-empty", id="empty"),
    ])
    def test_kinds_are_non_empty_and_distinct(self, kinds, message):
        with pytest.raises(ConfigError, match=message):
            ModelSpec(name="x", layers=1, d_model=8, ffn_dim=16, adapted_kinds=kinds)

    def test_module_enumeration(self):
        spec = ModelSpec(name="x", layers=2, d_model=8, ffn_dim=16,
                         adapted_kinds=("q", "ffn1"))
        mods = dict(spec.modules())
        assert mods == {"L0.q": (8, 8), "L0.ffn1": (8, 16),
                        "L1.q": (8, 8), "L1.ffn1": (8, 16)}


class TestClosedFormCounts:
    def test_lora_small_example_by_hand(self):
        spec = ModelSpec(name="x", layers=2, d_model=8, ffn_dim=16,
                         adapted_kinds=("q", "ffn1"), seq_len=4, batch=2)
        rep = count_lora(spec, rank=2)
        # q: (8+8)*2 = 32; ffn1: (8+16)*2 = 48; two layers
        assert rep.trainable_params == 2 * (32 + 48)
        assert rep.effective_params == rep.trainable_params
        # activation: b*n*d_in per module
        assert rep.activation_floats == {"adapter_input": 2 * (2 * 4 * 8 + 2 * 4 * 8)}

    def test_lamda_small_example_by_hand(self):
        spec = ModelSpec(name="x", layers=1, d_model=8, ffn_dim=16,
                         adapted_kinds=("q", "ffn1"), seq_len=4, batch=2)
        rep = count_lamda_effective(spec, ranks=2, ti_fraction=0.5)
        # q: 0.5*(2*8)/2 + 4 = 8; ffn1: 0.5*(2*16)/2 + 4 = 12
        assert rep.effective_params == pytest.approx(8 + 12)
        assert rep.trainable_params == 2 * 4  # two r^2 cores
        assert rep.activation_floats["adapter_core_input"] == 2 * (2 * 4 * 2)

    def test_lamda_per_module_ranks(self):
        spec = ModelSpec(name="x", layers=1, d_model=8, ffn_dim=16,
                         adapted_kinds=("q", "ffn1"))
        rep = count_lamda_effective(spec, ranks={"L0.q": 2, "L0.ffn1": 4},
                                    ti_fraction=0.0)
        assert rep.effective_params == 4 + 16
        assert "up_projection_input_while_trainable" not in rep.activation_floats
        with pytest.raises(ConfigError, match="no rank"):
            count_lamda_effective(spec, ranks={"L0.q": 2}, ti_fraction=0.0)

    def test_ranks_naming_modules_the_spec_lacks(self):
        spec = ModelSpec(name="x", layers=1, d_model=8, ffn_dim=16, adapted_kinds=("q",))
        with pytest.raises(ConfigError, match=r"not adapted: \['L0\.v', 'L9\.q'\]"):
            count_lamda_effective(spec, ranks={"L0.q": 2, "L9.q": 2, "L0.v": 2},
                                  ti_fraction=0.0)

    def test_ti_fraction_bounds(self):
        spec = load_preset("llama2-7b")
        with pytest.raises(ConfigError):
            count_lamda_effective(spec, 32, ti_fraction=1.5)

    def test_rank_too_large(self):
        spec = ModelSpec(name="x", layers=1, d_model=8, ffn_dim=16,
                         adapted_kinds=("q",))
        with pytest.raises(ConfigError, match="exceeds"):
            count_lora(spec, rank=9)


class TestPublishedCounts:
    """Reference totals for well-known model geometries."""

    def test_llama_lamda_effective(self):
        spec = load_preset("llama2-7b")
        for ti, want in ((0.1, 1.56e6), (0.2, 2.97e6), (0.3, 4.37e6)):
            got = count_lamda_effective(spec, 32, ti).effective_params
            assert _rel(got, want) <= 0.005

    def test_llama_lora(self):
        got = count_lora(load_preset("llama2-7b"), 16).trainable_params
        assert _rel(got, 28.0e6) <= 0.005

    def test_deberta_lora(self):
        got = count_lora(load_preset("deberta-v3-base"), 8).trainable_params
        assert _rel(got, 1.33e6) <= 0.01

    def test_deberta_lda_only(self):
        got = count_lamda_effective(load_preset("deberta-v3-base"), 32, 0.0)
        assert _rel(got.effective_params, 0.075e6) <= 0.03

    def test_activation_ratio_is_d_over_r(self):
        spec = load_preset("llama2-7b")
        lora = activation_footprint(spec, "lora", 32)["adapter_input"]
        lamda = activation_footprint(spec, "lamda", 32)["adapter_core_input"]
        # attention modules dominate when d_in = d; check q-only spec exactly
        attn = ModelSpec(name="a", layers=4, d_model=4096, ffn_dim=1,
                         adapted_kinds=("q",), seq_len=128, batch=2)
        ratio = (activation_footprint(attn, "lora", 32)["adapter_input"]
                 / activation_footprint(attn, "lamda", 32)["adapter_core_input"])
        assert ratio == 4096 / 32
        assert lora > lamda


class TestRuntimeHelpers:
    def test_optimizer_state(self):
        assert optimizer_state_bytes(100, bytes_per_scalar=4) == 800.0

    def test_live_params_endpoints(self):
        spec = ModelSpec(name="x", layers=1, d_model=8, ffn_dim=16,
                         adapted_kinds=("q", "ffn1"))
        full = live_trainable_params(spec, 2, {"L0.q": 2, "L0.ffn1": 2})
        frozen = live_trainable_params(spec, 2, {"L0.q": 0, "L0.ffn1": 0})
        assert full == (4 + 2 * 8) + (4 + 2 * 16)
        assert frozen == 8  # just the two cores

    def test_footprint_rejects_unknown_method(self):
        spec = load_preset("llama2-7b")
        with pytest.raises(ConfigError):
            activation_footprint(spec, "prefix", 32)


def test_report_serialization():
    spec = ModelSpec(name="x", layers=1, d_model=8, ffn_dim=16,
                     adapted_kinds=("q",), seq_len=4, batch=1)
    rep = count_lamda_effective(spec, 2, 0.5)
    doc = asdict(rep)
    assert doc["method"] == "lamda"
    assert doc["per_module"][0]["module"] == "L0.q"
    rows = rep.csv_rows()
    assert rows[0][0] == "module" and rows[-1][0] == "TOTAL"
    assert isinstance(CostReport(**{k: doc[k] for k in doc}), CostReport)
