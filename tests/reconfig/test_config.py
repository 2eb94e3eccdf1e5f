"""ReconfigConfig: one switch, off by default."""

from repro.core.config import ReconfigConfig, TabsConfig


class TestReconfigConfig:
    def test_off_by_default(self):
        assert TabsConfig().reconfig.enabled is False
        assert ReconfigConfig.off().enabled is False
