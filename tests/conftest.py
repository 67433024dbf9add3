import sys
import threading
from pathlib import Path

import pytest

# Make the sibling oracle helpers importable regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """A test that ends with more live threads than it started with fails."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running after the test: {left}"
