from __future__ import annotations

import numpy as np
import pytest

import holonomy_lab.connections as connections


@pytest.fixture
def transport_calls(monkeypatch):
    """Every polyline the batched transport kernel integrates during a test."""
    calls = []
    original = connections._transport_batch

    def counting(conn, polylines, *args, **kwargs):
        calls.extend(np.asarray(p) for p in polylines)
        return original(conn, polylines, *args, **kwargs)

    monkeypatch.setattr(connections, "_transport_batch", counting)
    return calls


def pytest_runtest_logreport(report):
    # one visible line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    state = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {state}", flush=True)
