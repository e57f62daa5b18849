import time
from pathlib import Path

import numpy as np
import pytest

from hymac.domain import ClassConfig, TimingConstants


@pytest.fixture
def tc() -> TimingConstants:
    return TimingConstants()


@pytest.fixture
def small_cfg() -> ClassConfig:
    return ClassConfig(class_sizes=(30,), p_inl=0.05, alpha=1.0, arrival_rate=0.2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


_START = time.perf_counter()  # the session's start, as this plugin loads
_SRC = Path(__file__).resolve().parent.parent / "src" / "hymac"


def pytest_terminal_summary(terminalreporter, config):
    """Print the acceptance scoreboard, and keep it as JSON in the pytest
    cache (``.pytest_cache/v/hymac/acceptance``) when the cache is on, with
    the session's wall time, its passed and failed tests and the code's
    size, the lines of ``src/hymac/*.py`` and the bytes of
    ``simulator.py`` (``hymac/tier1``)."""
    if getattr(config, "cache", None) is not None:
        stats = terminalreporter.stats
        config.cache.set("hymac/tier1", {
            "wall_s": round(time.perf_counter() - _START, 3),
            "passed": len(stats.get("passed", [])),
            "failed": len(stats.get("failed", [])),
            "src_lines": sum(f.read_bytes().count(b"\n") for f in _SRC.glob("*.py")),
            "simulator_bytes": (_SRC / "simulator.py").stat().st_size})
    try:
        from test_acceptance import RECORDS, VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
    if RECORDS and getattr(config, "cache", None) is not None:
        config.cache.set("hymac/acceptance", RECORDS)
