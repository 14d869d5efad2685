import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA5)


@pytest.fixture
def empty_memo(monkeypatch):
    """Run the test from an empty group-layer memo (``groups._MEMO``), and
    give the process's memo back after it. Calling the value empties the
    memo again, for a test that builds its inputs first."""
    from kummer import groups

    def empty() -> None:
        monkeypatch.setattr(groups, "_MEMO", {})
        monkeypatch.setattr(groups, "_memo_weight", 0)

    empty()
    return empty
