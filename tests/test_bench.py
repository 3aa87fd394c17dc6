"""Benchmark-harness tests: structure, byte accounting, latency monotonicity."""

import pytest

from drpki.bench import (
    PHASES,
    WAN_RTT_MS,
    BenchRow,
    bench_phase,
    load_latency_matrix,
    one_way_delays,
    read_csv,
    run_benchmarks,
    save_latency_matrix,
    write_csv,
)
from drpki.sharing import SchemeId


def test_latency_matrix_roundtrip(tmp_path):
    path = tmp_path / "latency.csv"
    save_latency_matrix(WAN_RTT_MS, str(path))
    assert load_latency_matrix(str(path)) == WAN_RTT_MS


def test_one_way_delays_are_half_rtt_symmetric():
    delays = one_way_delays(WAN_RTT_MS)
    assert delays[(3, 4)] == pytest.approx(308.7 / 2)
    assert delays[(4, 3)] == delays[(3, 4)]
    assert max(WAN_RTT_MS.values()) == pytest.approx(308.7)


def test_report_covers_all_schemes_settings_phases(tmp_path):
    # full structural matrix with tiny workloads (WAN rounds are real sleeps)
    rows = run_benchmarks(
        schemes=list(SchemeId),
        settings=("lan", "wan"),
        phases=PHASES,
        repetitions=2,
        tuples=2,
        signatures=2,
        out_csv=str(tmp_path / "report.csv"),
    )
    combos = {(r.scheme, r.setting, r.phase) for r in rows}
    assert len(combos) == 4 * 2 * 3
    parsed = read_csv(str(tmp_path / "report.csv"))
    assert {(r.scheme, r.setting, r.phase) for r in parsed} == combos
    assert all(r.offline_source == "dealer" for r in parsed)
    assert all(r.status == "ok" for r in parsed)


def test_throughput_arithmetic_consistent():
    row = bench_phase("online", SchemeId.ADDITIVE, "lan", signatures=4, seed=3)
    elapsed_s = row.mean_ms * row.unit_count / 1000.0
    assert row.throughput_per_s * elapsed_s == pytest.approx(row.unit_count, rel=1e-9)


def test_online_bytes_independent_of_message_content():
    # same seed, different message bytes: identical online communication
    def online_bytes(tag):
        from drpki.runtime import LocalCluster
        from drpki.tecdsa import ProtocolConfig

        cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR), seed=5)
        cluster.keygen("m")
        cluster.preprocess_independent(1)
        cluster.preprocess_dependent("m", 1)
        before = cluster.hub.counters.snapshot()
        cluster.run_signing("m", tag)
        after = cluster.hub.counters.snapshot()
        totals = {p: after[p] - before.get(p, 0) for p in cluster.participants}
        cluster.close()
        return totals

    assert online_bytes(b"short") == online_bytes(b"a considerably longer message " * 40)


def test_honest_majority_online_bytes_below_dishonest():
    shamir = bench_phase("online", SchemeId.SHAMIR, "lan", signatures=3, seed=4)
    mascot = bench_phase("online", SchemeId.ADDITIVE_MAC, "lan", signatures=3, seed=4)
    # an open sends bare shares, with no MAC share under mascot, so a sign
    # op's two rounds carry the same bytes under both schemes
    assert shamir.bytes_per_party == mascot.bytes_per_party


def test_wan_online_latency_bounded_by_round_count():
    row = bench_phase("online", SchemeId.SHAMIR, "wan", signatures=2, seed=5)
    rtt = max(WAN_RTT_MS.values())
    assert row.mean_ms >= rtt
    assert row.mean_ms <= 3 * rtt


def test_wan_slower_than_lan_same_seed():
    lan = bench_phase("online", SchemeId.SHAMIR, "lan", signatures=2, seed=6)
    wan = bench_phase("online", SchemeId.SHAMIR, "wan", signatures=2, seed=6)
    assert wan.mean_ms > lan.mean_ms


def test_byte_counts_deterministic_across_runs():
    a = bench_phase("online", SchemeId.SHAMIR_CHECKED, "lan", signatures=2, seed=7)
    b = bench_phase("online", SchemeId.SHAMIR_CHECKED, "lan", signatures=2, seed=7)
    assert a.bytes_per_party == b.bytes_per_party


def test_parallel_online_mode_reports_throughput():
    row = bench_phase("online-parallel", SchemeId.SHAMIR, "lan",
                      signatures=6, seed=12)
    assert row.status == "ok"
    assert row.unit_count == 6
    assert row.throughput_per_s > 0


def test_count_bytes_reports_exact_totals():
    from drpki.runtime import FRAME_OVERHEAD, LocalCluster
    from drpki.tecdsa import ProtocolConfig
    from faults import echo_round

    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR), seed=9)
    echo_round(cluster, b"x" * 10)
    sent = cluster.hub.counters.snapshot()
    assert sent == {p: 4 * (FRAME_OVERHEAD + 10) for p in cluster.participants}
    cluster.close()


def test_csv_roundtrip_preserves_rows(tmp_path):
    row = BenchRow("shamir", "lan", "online", 2, 2, 1.5, 0.1, 1.5, 1333.3, 640.0)
    write_csv([row], str(tmp_path / "r.csv"))
    parsed = read_csv(str(tmp_path / "r.csv"))
    assert parsed == [row]


def test_csv_header_and_a_report_without_the_later_columns(tmp_path):
    # the header is BenchRow's fields; a report written before the
    # offline_source and status columns reads them as their defaults, and
    # one with keygen's old secret_ms and public_ms columns skips those
    row = BenchRow("shamir", "lan", "online", 2, 2, 1.5, 0.1, 1.5, 1333.3, 640.0)
    write_csv([row], str(tmp_path / "r.csv"))
    header = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert header == ("scheme,setting,phase,runs,unit_count,mean_ms,stddev_ms,per_unit_ms,"
                      "throughput_per_s,bytes_per_party,offline_source,status")
    old = tmp_path / "old.csv"
    old.write_text(",".join(header.split(",")[:10]) + "\n"
                   "shamir,lan,online,2,2,1.5,0.1,1.5,1333.3,640.0\n")
    assert read_csv(str(old)) == [row]
    split = tmp_path / "split.csv"
    split.write_text(header.replace("bytes_per_party,", "bytes_per_party,secret_ms,public_ms,")
                     + "\nshamir,lan,online,2,2,1.5,0.1,1.5,1333.3,640.0,0.1,4.8,dealer,ok\n")
    assert read_csv(str(split)) == [row]
