"""The shared Spark session config."""
import re

from repro.session import driver_memory


def test_driver_memory_env_override_wins(monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert driver_memory() == "3g"


def test_driver_memory_default_within_2_to_8g(monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    m = re.fullmatch(r"(\d+)g", driver_memory())
    assert m and 2 <= int(m.group(1)) <= 8
