"""ResiliencePolicy rung selection and env grammar."""

import pytest

from repro.resilience import DEFAULT_POLICY, ResiliencePolicy, default_policy


class TestRungSelection:
    def test_off_is_single_rung(self):
        assert ResiliencePolicy(escalation="off").rungs == ("lu",)

    def test_safe_is_answer_preserving_only(self):
        assert ResiliencePolicy(escalation="safe").rungs == (
            "lu", "equilibrated",
        )

    def test_full_enables_rescue_rungs(self):
        assert ResiliencePolicy(escalation="full").rungs == (
            "lu", "equilibrated", "gmin", "lstsq",
        )

    def test_source_stepping_is_full_only(self):
        assert not ResiliencePolicy(escalation="safe").source_stepping_enabled
        assert ResiliencePolicy(escalation="full").source_stepping_enabled


class TestValidation:
    def test_unknown_escalation_rejected(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(escalation="heroic")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ResiliencePolicy().escalation = "off"


class TestFromEnv:
    def test_empty_means_default(self):
        assert ResiliencePolicy.from_env("") == ResiliencePolicy()
        assert ResiliencePolicy.from_env("").escalation == "safe"

    def test_each_mode(self):
        for mode in ("off", "safe", "full"):
            assert ResiliencePolicy.from_env(mode).escalation == mode

    def test_whitespace_and_case_tolerated(self):
        assert ResiliencePolicy.from_env(" FULL ").escalation == "full"

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            ResiliencePolicy.from_env("turbo")

    def test_default_policy_is_the_module_singleton(self):
        assert default_policy() is DEFAULT_POLICY
