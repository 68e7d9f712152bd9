"""Golden bytes: each case of `golden_cases` as a test.

To capture the goldens again after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""
import sys

import pytest

from golden_cases import CASES, capture, mismatches


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    assert mismatches(name, tmp_path) == []


if __name__ == "__main__":
    capture()
    sys.exit(0)
