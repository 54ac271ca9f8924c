"""Each benchmark workload still runs one whole cycle on coinpress without a failed op."""

import contextlib
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["estimate-wide", "compile-toy", "oracle-n4"])
def test_whole_cycle_has_no_failed_ops(name):
    """One cycle runs every chunk of the op mix once: all eight oracle-n4
    passes and both compile-toy cases."""
    workload = load_workloads().WORKLOADS[name](4242)
    ops = failed = 0
    for index in range(workload.cycle):
        chunk_ops, chunk_failed = workload.run_chunk(index, lambda op_id: None, contextlib.nullcontext())
        ops += chunk_ops
        failed += chunk_failed
    failed += workload.finish()
    assert ops > 0 and failed == 0
    if name == "oracle-n4":
        assert len(workload.branches) == workload.cycle
        assert all(count > 0 for count in workload.branches)
