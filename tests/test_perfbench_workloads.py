"""Each benchmark workload still runs one chunk on coinpress without a failed op."""

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
def test_first_chunk_has_no_failed_ops(name):
    workload = load_workloads().WORKLOADS[name](4242)
    ops, failed = workload.run_chunk(0, lambda op_id: None, contextlib.nullcontext())
    failed += workload.finish()
    assert ops > 0 and failed == 0
    if name == "oracle-n4":
        assert workload.branches[0] > 0
