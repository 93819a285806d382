"""CheckReport invariants and JSON serialization."""

import json

import pytest

from foursquares.report import CheckReport


def test_failing_report_needs_witness_or_error():
    with pytest.raises(ValueError):
        CheckReport(identity="x", passed=False)
    CheckReport(identity="x", passed=False, witness="coefficient 3: got 1, expected 2")
    CheckReport(identity="x", passed=False, error=0.5, tol=0.1)


def test_json_schema_keys():
    report = CheckReport(
        identity="theta-transformation",
        passed=True,
        tau=0.3 + 0.7j,
        matrix="[[0,-1],[1,0]]",
        error=1e-12,
        tol=1e-10,
    )
    doc = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
    assert set(doc) >= {"identity", "tau", "matrix", "error", "tol", "pass"}
    assert doc["tau"] == [0.3, 0.7]
    assert doc["pass"] is True


def test_json_round_trip_preserves_verdict_and_witness():
    report = CheckReport(
        identity="jacobi-odd-part",
        passed=False,
        order=99,
        witness="coefficient 1: got 15, expected 16",
    )
    doc = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
    assert doc["pass"] is False
    assert doc["order"] == 99
    assert "expected 16" in doc["witness"]


def test_describe_mentions_verdict():
    ok = CheckReport(identity="x", passed=True, order=10)
    bad = CheckReport(identity="x", passed=False, error=1.0, tol=0.5)
    assert ok.describe().startswith("PASS")
    assert bad.describe().startswith("FAIL")
