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


def test_golden_bytes_in_one_process_twice(tmp_path):
    # every case, then every case again in reverse order: what one case
    # leaves in the process, such as a mapped oracle grid, changes no bytes
    names = sorted(CASES)
    bad = {}
    for i, name in enumerate(names + names[::-1]):
        (tmp_path / str(i)).mkdir()
        if found := mismatches(name, tmp_path / str(i)):
            bad[i, name] = found
    assert bad == {}


if __name__ == "__main__":
    capture()
    sys.exit(0)
