"""Configuration advisor: the Section 8 / 10.5 decision procedure."""

import pytest

from repro.analysis.advisor import advise_activation_strategy, recommend_zero_config
from repro.nn.transformer import GPTConfig
from repro.zero.placement import Mesh

MODEL_60B = GPTConfig(n_layers=75, hidden=8192, n_heads=64)
MODEL_170B = GPTConfig(n_layers=212, hidden=8192, n_heads=64)
MODEL_1B = GPTConfig(n_layers=20, hidden=2048, n_heads=16)
MODEL_13B = GPTConfig(n_layers=62, hidden=4096, n_heads=32)


class TestActivationAdvice:
    def test_pa_recommended_for_60b(self):
        """60B @ MP=16: Pa's bigger batch wins (Figure 8's C2/C4 > C1/C3)."""
        advice = advise_activation_strategy(MODEL_60B, mesh=Mesh.of_world(128, mp=16), stage=2)
        assert advice.config.partition_activations
        assert not advice.config.cpu_offload_activations
        assert advice.batch > 0

    def test_pa_cpu_required_for_170b(self):
        """170B only trains with checkpoint offload (paper Section 10.5:
        'Pa+cpu is needed for 170B model to execute' at a usable batch)."""
        advice = advise_activation_strategy(MODEL_170B, mesh=Mesh.of_world(400, mp=16), stage=2)
        assert advice.config.cpu_offload_activations
        by_label = {v.label: v for v in advice.variants}
        assert not by_label["no-Pa"].feasible

    def test_dp_only_has_no_pa_option(self):
        advice = advise_activation_strategy(MODEL_1B, mesh=Mesh.of_world(64, mp=1), stage=2)
        assert [v.label for v in advice.variants] == ["no-Pa"]
        assert not advice.config.partition_activations

    def test_infeasible_reported_not_raised(self):
        advice = advise_activation_strategy(MODEL_170B, mesh=Mesh.of_world(32, mp=1), stage=1)
        assert advice.batch == 0
        assert "does not fit" in advice.reason

    def test_divisibility_validated(self):
        with pytest.raises(ValueError):
            advise_activation_strategy(MODEL_1B, mesh=Mesh.of_world(65, mp=16))


class TestStageRecommendation:
    def test_small_model_gets_baseline(self):
        advice = recommend_zero_config(MODEL_1B, mesh=Mesh.of_world(64))
        assert advice.config.stage == 0  # fits without any partitioning

    def test_13b_dp_only_needs_partitioning(self):
        """The Figure 4 scenario: 13B without MP needs ZeRO (not baseline)."""
        advice = recommend_zero_config(MODEL_13B, mesh=Mesh.of_world(128))
        assert 1 <= advice.config.stage <= 2
        assert advice.batch >= 1

    def test_stage_escalates_with_model_size(self):
        stages = {}
        for label, model in (("1B", MODEL_1B), ("13B", MODEL_13B), ("60B", MODEL_60B)):
            advice = recommend_zero_config(model, mesh=Mesh.of_world(128, mp=16))
            stages[label] = advice.config.stage
        assert stages["1B"] <= stages["13B"] <= stages["60B"]

    def test_monster_model_gets_stage3(self):
        huge = GPTConfig(n_layers=500, hidden=8192, n_heads=64)  # ~400B
        advice = recommend_zero_config(huge, mesh=Mesh.of_world(1024, mp=16))
        assert advice.config.stage == 3
        assert advice.batch >= 1
