from __future__ import annotations

import numpy as np
import pytest

import holonomy_lab.connections as connections


@pytest.fixture
def _transport_log(monkeypatch):
    """Every polyline the batched transport kernel integrates, and the polylines of each call."""
    polylines, batches = [], []
    original = connections._transport_batch

    def counting(conn, lines, *args, **kwargs):
        batches.append([np.asarray(p) for p in lines])
        polylines.extend(batches[-1])
        return original(conn, lines, *args, **kwargs)

    monkeypatch.setattr(connections, "_transport_batch", counting)
    return polylines, batches


@pytest.fixture
def transport_calls(_transport_log):
    """Every polyline the batched transport kernel integrates during a test."""
    return _transport_log[0]


@pytest.fixture
def transport_batches(_transport_log):
    """The polylines of each call of the batched transport kernel during a test."""
    return _transport_log[1]


def pytest_runtest_logreport(report):
    # one visible line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    state = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {state}", flush=True)
