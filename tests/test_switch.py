"""The one runtime-switch type shared by CHECK, RAS, DEDUP and RESTORE_PLAN."""

import pytest

from repro.check import CHECK
from repro.dedup import DEDUP
from repro.ras import RAS
from repro.rfork.restoreplan import RESTORE_PLAN
from repro.sim.switch import Switch

SWITCHES = [CHECK, RAS, DEDUP, RESTORE_PLAN]
DEFAULT_ON = {RESTORE_PLAN}


@pytest.fixture(autouse=True)
def _clean_switches(monkeypatch):
    monkeypatch.delenv("REPRO_RESTORE_PLAN", raising=False)
    for switch in SWITCHES:
        switch.reset()
    yield
    monkeypatch.delenv("REPRO_RESTORE_PLAN", raising=False)
    for switch in SWITCHES:
        switch.reset()


def _rebuilt(switch: Switch) -> Switch:
    """A fresh switch from the same constructor data."""
    return Switch(
        switch.name,
        default=switch.default,
        env=switch.env,
        follows=switch.follows,
        counters=switch.counters,
    )


@pytest.mark.parametrize("switch", SWITCHES, ids=lambda s: s.name)
class TestSwitch:
    def test_defaults(self, switch):
        expected = switch in DEFAULT_ON
        assert switch.enabled is expected
        assert switch.active() is expected

    def test_enable_disable(self, switch):
        switch.enable()
        assert switch.active()
        switch.disable()
        assert not switch.active()

    def test_force_nests_and_restores_on_exception(self, switch):
        before = switch.active()
        with switch.force(False):
            assert not switch.active()
            with pytest.raises(KeyError):
                with switch.force(True):  # reentrant
                    assert switch.active()
                    raise KeyError("inner scope fails")
            assert not switch.active()
        assert switch.active() is before
        with switch.force(True):
            switch.disable()  # the flag moves, the override still wins
            assert switch.active()
        assert not switch.active()

    def test_reset_restores_constructed_state(self, switch):
        fresh = _rebuilt(switch).summary()
        if switch in DEFAULT_ON:
            switch.disable()
        else:
            switch.enable()
        for attr in switch.counters:
            setattr(switch, attr, 7)
        with switch.force(not switch.active()):
            switch.reset()
            # reset() also drops an enclosing override.
            assert switch.active() is (switch in DEFAULT_ON)
        assert switch.summary() == fresh

    def test_env_var_at_construction_and_reset(self, switch, monkeypatch):
        monkeypatch.setenv("REPRO_RESTORE_PLAN", "0")
        reads_env = switch.env == "REPRO_RESTORE_PLAN"
        expected = switch in DEFAULT_ON and not reads_env
        assert _rebuilt(switch).active() is expected
        switch.reset()
        assert switch.active() is expected
        monkeypatch.setenv("REPRO_RESTORE_PLAN", "1")
        assert _rebuilt(switch).active() is (switch in DEFAULT_ON or reads_env)

    def test_follows_check(self, switch):
        follows = switch is CHECK or switch.follows is CHECK
        CHECK.enable()
        assert switch.active() is (follows or switch in DEFAULT_ON)
        CHECK.disable()
        with CHECK.force(True):
            assert switch.active() is (follows or switch in DEFAULT_ON)


def test_ras_under_check_overridden_by_ras_force():
    CHECK.enable()
    assert RAS.active() and not RAS.enabled
    with RAS.force(False):
        assert not RAS.active()
        with RAS.force(True):
            assert RAS.active()
        assert not RAS.active()
    assert RAS.active()
    with CHECK.force(False):
        assert not RAS.active()


def test_counters_keep_their_names():
    assert (RAS.seals, RAS.verifications, RAS.detections) == (0, 0, 0)
    assert CHECK.stats.failures == [] and CHECK.stats.oracle_runs == 0
    assert set(DEDUP.summary()) == {"enabled"}
