"""Smoke tests for the stand-alone scripts under scripts/."""

import importlib.util
import json
from pathlib import Path

from drpki.runtime import FRAME_OVERHEAD

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_curve_microbench_prints_every_row(monkeypatch, capsys):
    bench = _load("curve_microbench")
    monkeypatch.setattr(bench, "CALLS", 2)
    monkeypatch.setattr(bench, "ROUNDS", 2)
    bench.main()
    report = json.loads(capsys.readouterr().out)
    assert set(report["rows"]) == {
        "g_mul", "var_mul", "ecdsa_verify", "ecdsa_verify_known_r",
        "checked_point_open_5", "lagrange_3_full_width", "mascot_open_mac_100",
        "verify_consent",
    }
    for row in report["rows"].values():
        assert row["median_ms"] > 0
        assert row["calls_per_round"] == 2 and row["rounds"] == 2
    assert report["python"]


def test_transport_microbench_prints_every_row(monkeypatch, capsys):
    bench = _load("transport_microbench")
    monkeypatch.setattr(bench, "CALLS", 2)
    monkeypatch.setattr(bench, "ROUNDS", 2)
    bench.main()
    report = json.loads(capsys.readouterr().out)
    assert set(report["rows"]) == {
        "encode_frame", "decode_frame", "hub_send_recv", "broadcast_round_5",
    }
    for row in report["rows"].values():
        assert row["median_ms"] > 0
        assert row["calls_per_round"] == 2 and row["rounds"] == 2
    assert report["frame_overhead_bytes"] == FRAME_OVERHEAD
    assert report["python"]
