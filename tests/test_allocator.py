import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lamda.accounting import ModelSpec, list_presets, load_preset
from lamda.allocator import (ModuleScore, RankBudget, RankPlan, allocate,
                             parse_module_id, score_from_sigma, score_modules)
from lamda.config import from_json, load_run_config
from lamda.errors import ConfigError
from lamda.train import TrainRunConfig

BUDGET = RankBudget(ranks=(16, 24, 32, 40, 48), target=32)


def _synthetic_scores(n, seed=0):
    rng = np.random.default_rng(seed)
    scores = []
    for i in range(n):
        # spectra with varied decay so candidacy scores spread out
        decay = rng.uniform(0.5, 5.0)
        sigma = np.sort(rng.uniform(0.1, 2.0, size=64) ** decay)[::-1]
        scores.append(score_from_sigma(f"L{i}.q", sigma, BUDGET))
    return scores


class TestRankBudget:
    def test_valid(self):
        assert BUDGET.target == 32

    def test_must_average_to_target(self):
        with pytest.raises(ConfigError, match="average"):
            RankBudget(ranks=(16, 32, 50), target=32)

    def test_must_ascend(self):
        with pytest.raises(ConfigError, match="ascending"):
            RankBudget(ranks=(32, 16, 48), target=32)

    def test_must_be_positive(self):
        with pytest.raises(ConfigError):
            RankBudget(ranks=(0, 64), target=32)

    def test_from_json_rejects_extras(self):
        with pytest.raises(ConfigError, match="unknown"):
            from_json(RankBudget, {"ranks": [16, 48], "target": 32, "mode": "x"}, "budget")


class TestScoring:
    def test_flat_spectrum_score(self):
        sigma = np.ones(64)
        sc = score_from_sigma("L0.q", sigma, BUDGET)
        # flat spectrum: E_r = r, so nu = (48 - 16) / 32 = 1
        assert sc.score == pytest.approx(1.0)

    def test_concentrated_spectrum_scores_low(self):
        head = np.zeros(64)
        head[:8] = 10.0
        head[8:] = 1e-3
        flat = np.ones(64)
        sc_head = score_from_sigma("L0.q", head, BUDGET)
        sc_flat = score_from_sigma("L0.q", flat, BUDGET)
        assert sc_head.score < sc_flat.score

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        sigma = np.sort(rng.uniform(0.1, 3.0, size=64))[::-1]
        base = score_from_sigma("L0.q", sigma, BUDGET).score
        for scale in rng.uniform(0.01, 100.0, size=10):
            assert score_from_sigma("L0.q", sigma * scale, BUDGET).score == pytest.approx(base, rel=1e-12)

    def test_rank_exceeding_spectrum(self):
        with pytest.raises(ConfigError, match="exceeds"):
            score_from_sigma("L0.q", np.ones(8), BUDGET)

    def test_score_modules_runs_svd(self):
        rng = np.random.default_rng(6)
        weights = {"L0.q": rng.normal(size=(64, 64)), "L0.v": rng.normal(size=(64, 64))}
        scores = score_modules(weights, BUDGET)
        assert {s.module for s in scores} == set(weights)
        for s in scores:
            assert s.e_lo <= s.e_target <= s.e_hi

    def test_zero_energy_names_the_module(self):
        with pytest.raises(ConfigError, match="'L1.v': no energy"):
            score_from_sigma("L1.v", np.zeros(64), BUDGET)

    def test_score_modules_rejects_an_all_zero_weight(self):
        weights = {"L0.q": np.random.default_rng(7).normal(size=(64, 64)),
                   "L0.v": np.zeros((64, 64))}
        with pytest.raises(ConfigError, match="'L0.v': no energy"):
            score_modules(weights, BUDGET)

    def test_parse_module_id(self):
        assert parse_module_id("L3.ffn1") == (3, "ffn1")
        assert parse_module_id("embedding") == (0, "embedding")


class TestAllocate:
    def test_matches_bruteforce_on_160_modules(self):
        scores = _synthetic_scores(160)
        plan = allocate(scores, BUDGET)
        ordered = sorted(scores, key=lambda m: (m.score, m.layer))
        want = oracles.quantile_assignment_ref(
            [m.module for m in ordered], list(BUDGET.ranks)
        )
        assert plan.ranks == want

    def test_mean_rank_when_divisible(self):
        scores = _synthetic_scores(160)  # 160 = 5 * 32, S | L
        plan = allocate(scores, BUDGET)
        assert plan.mean_rank == pytest.approx(BUDGET.target)

    def test_lowest_score_gets_largest_rank(self):
        scores = _synthetic_scores(10, seed=3)
        plan = allocate(scores, BUDGET)
        lowest = min(scores, key=lambda m: m.score)
        highest = max(scores, key=lambda m: m.score)
        assert plan.ranks[lowest.module] == BUDGET.ranks[-1]
        assert plan.ranks[highest.module] == BUDGET.ranks[0]

    def test_reverse_flips_assignment(self):
        scores = _synthetic_scores(20, seed=4)
        fwd = allocate(scores, BUDGET)
        rev = allocate(scores, BUDGET, reverse=True)
        lowest = min(scores, key=lambda m: m.score)
        assert rev.ranks[lowest.module] == BUDGET.ranks[0]
        assert fwd.order == rev.order

    def test_tie_break_is_deterministic(self):
        sigma = np.ones(64)
        scores = [score_from_sigma(f"L{i}.{k}", sigma, BUDGET)
                  for i in range(2) for k in ("v", "q", "k")]
        plan1 = allocate(scores, BUDGET)
        plan2 = allocate(list(reversed(scores)), BUDGET)
        assert plan1.ranks == plan2.ranks
        # identical scores: layer asc, then kind order q < k < v
        assert plan1.order[:3] == ["L0.q", "L0.k", "L0.v"]

    def test_module_scored_twice_rejected(self):
        scores = _synthetic_scores(4)
        with pytest.raises(ConfigError, match="'L1.q' is scored more than once"):
            allocate(scores + [scores[1]], BUDGET)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            allocate([], BUDGET)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 60))
    def test_matches_bruteforce_property(self, seed, n):
        scores = _synthetic_scores(n, seed=seed)
        plan = allocate(scores, BUDGET)
        ordered = sorted(scores, key=lambda m: (m.score, m.layer))
        want = oracles.quantile_assignment_ref(
            [m.module for m in ordered], list(BUDGET.ranks)
        )
        assert plan.ranks == want


def _through_json(doc):
    return json.loads(json.dumps(doc))


def test_json_round_trips():
    # What the writers emit (`asdict`) reads back to an equal record.
    scores = _synthetic_scores(12, seed=9)
    back = from_json(list[ModuleScore], _through_json([asdict(m) for m in scores]), "scores")
    assert back == scores
    plan = allocate(scores, BUDGET)
    assert from_json(RankPlan, _through_json(asdict(plan)), "plan") == plan
    for name in list_presets():
        spec = load_preset(name)
        assert from_json(ModelSpec, _through_json(asdict(spec)), name) == spec
    cfg = load_run_config(os.path.join(os.path.dirname(__file__), "data", "golden_config.json"))
    again = from_json(TrainRunConfig, _through_json(asdict(cfg)), "golden")
    assert again == cfg and again.digest() == cfg.digest()
