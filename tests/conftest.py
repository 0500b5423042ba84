from __future__ import annotations

import numpy as np
import pytest

import holonomy_lab.connections as connections


@pytest.fixture
def transport_calls(monkeypatch):
    """Polylines of every ``connections.transport`` call made during a test."""
    calls = []
    original = connections.transport

    def counting(conn, polyline, *args, **kwargs):
        calls.append(np.asarray(polyline))
        return original(conn, polyline, *args, **kwargs)

    monkeypatch.setattr(connections, "transport", counting)
    return calls


def pytest_runtest_logreport(report):
    # one visible line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    state = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {state}", flush=True)
