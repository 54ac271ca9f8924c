import os
import sys

import pytest

# allow running the suite from a checkout without installing the package
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def compiles(monkeypatch):
    """The weights of each verifier compile made while the test runs: the
    module global ``protocol.verifier_tables``, which round 1 calls on a
    cache miss, is wrapped to record them."""
    from coinpress import protocol

    calls = []
    compile_tables = protocol.verifier_tables

    def counting(params, weights):
        calls.append(weights)
        return compile_tables(params, weights)

    monkeypatch.setattr(protocol, "verifier_tables", counting)
    return calls
