"""The verify battery as pytest: one test per registry entry, plus the registry's own contract."""

import math

import numpy as np
import pytest

from w2s_lab.estimators import STAGE_ROOT, derive_seed
from w2s_lab.harness import verify
from w2s_lab.harness.config import build_config

# Any fixed seed other than the acceptance suite's master seed; each property
# draws from derive_seed(SEED, STAGE_ROOT, index) exactly as `w2s-lab verify --seed SEED`.
SEED = 4242

NAMES = [name for name, _ in verify._PROPERTIES]


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_property(index):
    result = verify.run_property(index, SEED)
    assert result["name"] == NAMES[index]
    assert result["passed"], result["detail"]
    assert math.isfinite(result["margin"])


def _stub_registry(monkeypatch, crashed=()):
    """Replace every check by a cheap pass, and each name in `crashed` by a raise."""

    def passes(rng):
        return verify.Verdict(True, 1.0, "stub")

    def crashes(rng):
        raise RuntimeError("planted")

    monkeypatch.setattr(
        verify,
        "_PROPERTIES",
        tuple((name, crashes if name in crashed else passes) for name in NAMES),
    )
    return verify.run_verify(build_config("verify", {"seed": SEED}))


class TestRegistry:
    def test_names_are_unique(self):
        assert len(set(NAMES)) == len(NAMES)

    def test_report_names_follow_the_registry(self, monkeypatch):
        report = _stub_registry(monkeypatch)
        assert [prop["name"] for prop in report["properties"]] == NAMES
        assert report["property_count"] == len(NAMES)

    def test_parametrized_ids_are_the_registry_names(self):
        (marker,) = test_property.pytestmark
        assert marker.name == "parametrize"
        assert marker.kwargs["ids"] == NAMES

    def test_crashed_property_keeps_its_registry_name(self, monkeypatch):
        """A raising check is reported failed under its registry name, not its function's."""
        crashed = ("mask-brute-force-equality", "negative-control-fault-detected")
        report = _stub_registry(monkeypatch, crashed)
        by_name = {prop["name"]: prop for prop in report["properties"]}
        for name in crashed:
            assert by_name[name]["passed"] is False
            assert by_name[name]["margin"] == -1.0
            assert "raised" in by_name[name]["detail"]
        assert report["all_passed"] is False

    def test_report_body_holds_only_the_battery(self, monkeypatch):
        """The header is render_json's; run_verify returns the body alone, in order."""
        report = _stub_registry(monkeypatch)
        assert list(report) == ["properties", "property_count", "all_passed"]
        assert report["all_passed"] is True

    def test_property_draws_from_its_root_stream(self, monkeypatch):
        def first_draw(rng):
            return verify.Verdict(True, float(rng.random()), "draw")

        monkeypatch.setattr(verify, "_PROPERTIES", (("a", first_draw), ("b", first_draw)))
        for index in (0, 1):
            expected = np.random.default_rng(derive_seed(SEED, STAGE_ROOT, index)).random()
            assert verify.run_property(index, SEED)["margin"] == expected
