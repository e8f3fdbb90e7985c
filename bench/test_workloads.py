"""Workload inputs depend on the seed alone.

    python3 -m pytest -q bench/test_workloads.py
"""

import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv_and_other_seed_other_argv(name):
    first = workloads.argv_hash(workloads.generate(name, 7))
    assert workloads.argv_hash(workloads.generate(name, 7)) == first
    assert workloads.argv_hash(workloads.generate(name, 8)) != first
