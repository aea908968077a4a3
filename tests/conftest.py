import sys
from pathlib import Path

import pytest

from truthquad.rules import clear_rule_cache

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def empty_rule_cache():
    """Start every test with an empty rule cache, so a count of rule builds does not depend on test order."""
    clear_rule_cache()
