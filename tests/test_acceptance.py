"""Acceptance suite: the ten exit criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  Tolerances are pinned in the assertions themselves.
"""

import json
import random
import shutil
import tempfile
import time
from contextlib import nullcontext, suppress
from datetime import date
from pathlib import Path

import pytest

from drpki.algebra import ecdsa_sign, ecdsa_verify
from drpki.analysis import SnapshotDay, compute_churn, headroom, ingest
from drpki.bench import WAN_RTT_MS, bench_phase, one_way_delays
from drpki.rpki import (
    Action,
    CrlRecord,
    IpPrefix,
    RoaRecord,
    plan_transfer,
    sign_consent,
)
from drpki.runtime import ConsentPolicy, LocalCluster, SessionAbort, SignRequest
from drpki.algebra import KeyPair
from drpki.sharing import ProtocolAbort, SchemeId
from drpki.tecdsa import ProtocolConfig
from faults import CrashError, count_curve_ops, crash_at, inject_fault

ALL_SCHEMES = list(SchemeId)
MALICIOUS_SCHEMES = [SchemeId.SHAMIR_CHECKED, SchemeId.ADDITIVE_MAC]
HONEST_MAJORITY = [SchemeId.SHAMIR, SchemeId.SHAMIR_CHECKED]
DISHONEST_MAJORITY = [SchemeId.ADDITIVE, SchemeId.ADDITIVE_MAC]


def report(criterion: int, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion:2d}: PASS - {detail}")


def test_criterion_01_end_to_end_correctness():
    """100 full pipelines per scheme; every signature verifies."""
    started = time.perf_counter()
    failures = 0
    for scheme in ALL_SCHEMES:
        cluster = LocalCluster(ProtocolConfig.for_scheme(scheme), seed=1000)
        for i in range(100):
            member = f"m{i}"
            pk = cluster.keygen(member)
            cluster.preprocess_independent(1)
            cluster.preprocess_dependent(member, 1)
            message = b"pipeline %d" % i
            result = cluster.run_signing(member, message)
            if not ecdsa_verify(pk, message, result.signature):
                failures += 1
        cluster.close()
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 120.0
    report(1, f"4 schemes x 100 pipelines, 0 failures, {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence():
    """Threshold signature equals single-party signature from reconstructed (sk, k)."""
    for scheme in ALL_SCHEMES:
        cluster = LocalCluster(
            ProtocolConfig.for_scheme(scheme, test_mode=True), seed=2000
        )
        for i in range(50):
            member = f"m{i}"
            cluster.keygen(member)
            cluster.preprocess_independent(1)
            cluster.preprocess_dependent(member, 1)
            message = b"oracle %d" % i
            result = cluster.run_signing(member, message)
            sk = cluster.test_reconstruct_sk(member)
            k = cluster.test_reconstruct_k(result.tuple_id)
            assert ecdsa_sign(sk, message, k) == result.signature  # exact
        cluster.close()
    report(2, "50 seeded runs per scheme, threshold == single-party, bit-for-bit")


def test_criterion_03_abort_soundness():
    """1000 randomized single-party fault injections per malicious scheme all abort.

    A trial's opens are c and d in preprocessing, then R and s.  A `mac`
    fault corrupts one of the two MAC-checked preprocessing opens: the MAC
    of s is never checked, since the verify against R accepts s, so a
    MAC-only change there changes no output and is no forgery.
    """
    trials_per_scheme = 1000
    for scheme in MALICIOUS_SCHEMES:
        rng = random.Random(3000 + scheme.value)
        aborts = 0
        forgeries = 0
        for trial in range(trials_per_scheme):
            cluster = LocalCluster(
                ProtocolConfig.for_scheme(scheme), seed=31_000 + trial
            )
            pk = cluster.keygen("m")
            victim = rng.choice(cluster.participants)
            kind = rng.choice(["value", "mac"]) if scheme.has_mac else "value"
            try:
                opens = 2 if kind == "mac" else 4
                with inject_fault(victim, rng.randrange(opens), kind) as plan:
                    cluster.preprocess_independent(1)
                    cluster.preprocess_dependent("m", 1)
                    result = cluster.run_signing("m", b"trial %d" % trial)
                if ecdsa_verify(pk, b"trial %d" % trial, result.signature):
                    # the fault must actually have fired for this to count
                    assert not plan.triggered
                    aborts += 1  # plan never fired: re-count as a clean run
                else:
                    forgeries += 1
            except ProtocolAbort:
                aborts += 1
            finally:
                cluster.close()
        assert forgeries == 0
        assert aborts == trials_per_scheme
    report(3, f"{trials_per_scheme} fault trials x 2 malicious schemes: all abort, 0 forgeries")


def test_criterion_04_tuple_non_reuse_across_crashes():
    """A crash between any two consecutive steps never reuses a tuple or nonce."""
    crash_points = [
        "after_keygen",
        "after_preprocess_independent",
        "after_preprocess_dependent",
        "after_sign",
    ]
    for scheme in ALL_SCHEMES:
        for point in crash_points:
            workdir = tempfile.mkdtemp(prefix="drpki-crash-")
            cfg = ProtocolConfig.for_scheme(scheme)
            seen_r = set()
            all_sig_tuples = []

            def run_script(cluster):
                if "m" not in cluster.nodes[cluster.participants[0]].key_records:
                    cluster.keygen("m")
                if cluster.initial_stock() < 2:
                    cluster.preprocess_independent(2)
                if cluster.final_stock("m") < 2:
                    cluster.preprocess_dependent("m", 2)
                for i in range(2):
                    res = cluster.run_signing("m", b"crash run %d" % i)
                    all_sig_tuples.append(res.tuple_id)
                    assert res.signature.r_x.value not in seen_r
                    seen_r.add(res.signature.r_x.value)

            cluster = LocalCluster(cfg, data_dir=workdir, seed=4000)
            with suppress(CrashError), crash_at(point):
                run_script(cluster)
            cluster.close()

            cluster = LocalCluster(cfg, data_dir=workdir, seed=4000)
            run_script(cluster)
            # no tuple id may appear twice in any party's consumed journal
            for node in cluster.nodes.values():
                journal = node.tuple_store.consumed_ids()
                assert len(journal) == len(set(journal))
            assert len(all_sig_tuples) == len(set(all_sig_tuples))
            cluster.close()
            shutil.rmtree(workdir)
    report(4, "crash at every step boundary x 4 schemes: no tuple or nonce reuse")


def test_criterion_05_liveness_matrix():
    """Each single party offline: honest-majority completes, dishonest aborts. 10/10."""
    for offline in range(1, 6):
        live = [p for p in range(1, 6) if p != offline]
        for scheme in HONEST_MAJORITY:
            for trial in range(10):
                cluster = LocalCluster(
                    ProtocolConfig.for_scheme(scheme),
                    seed=5000 + offline * 100 + trial,
                    participants=live,
                )
                pk = cluster.keygen("m")
                cluster.preprocess_independent(1)
                cluster.preprocess_dependent("m", 1)
                res = cluster.run_signing("m", b"live")
                assert ecdsa_verify(pk, b"live", res.signature)
                cluster.close()
        for scheme in DISHONEST_MAJORITY:
            for trial in range(10):
                cluster = LocalCluster(
                    ProtocolConfig.for_scheme(scheme),
                    seed=5500 + offline * 100 + trial,
                    participants=live,
                )
                with pytest.raises(SessionAbort, match="party unavailable"):
                    cluster.keygen("m")
                cluster.close()
    report(5, "every single-party outage: Shamir variants sign, additive variants abort")


def _consent_cluster(seed, workdir=None, flag=False):
    cluster = LocalCluster(
        ProtocolConfig.for_scheme(SchemeId.SHAMIR),
        data_dir=workdir,
        seed=seed,
        policy=ConsentPolicy(flag_on_failed_consent=flag),
        clock=lambda: 1_600_000_000.0,
    )
    member_keys = KeyPair.generate(random.Random(seed))
    pk = cluster.keygen("memberA")
    cluster.preprocess_independent(6)
    cluster.preprocess_dependent("memberA", 6)
    cluster.register_member("memberA", member_keys.pk)
    roa = RoaRecord(
        serial=1, member_id="memberA", asn=64512,
        prefixes=(IpPrefix.parse("192.0.2.0/24", 24),),
        not_before=1_500_000_000, not_after=1_700_000_000, ee_pk=pk,
    )
    return cluster, member_keys, roa


def test_criterion_06_consent_gating_and_transfer_atomicity():
    """Scenario fixtures plus 100 transfer runs with random abort injection."""
    # (a) issue with consent succeeds
    cluster, keys, roa = _consent_cluster(600)
    token = sign_consent(keys.sk, "memberA", Action.ISSUE, [roa],
                         expiry=1_600_000_600, rng=random.Random(1))
    cluster.submit_consent(token)
    outcome = cluster.handle_sign_request(SignRequest("memberA", Action.ISSUE, [roa], token))
    assert outcome.status == "published" and outcome.objects[0].verify()
    cluster.close()

    # (b) revoke without consent aborts under the default policy
    cluster, keys, roa = _consent_cluster(601)
    crl = CrlRecord("memberA", 1_500_000_001, (1,))
    outcome = cluster.handle_sign_request(SignRequest("memberA", Action.REVOKE, [crl], None))
    assert outcome.status == "aborted"
    assert not any("crl" in n for node in cluster.nodes.values() for n in node.objects)
    cluster.close()

    # (c) flag policy: revoke completes only after 3 recorded approvals
    cluster, keys, roa = _consent_cluster(602, flag=True)
    outcome = cluster.handle_sign_request(SignRequest("memberA", Action.REVOKE, [crl], None))
    assert outcome.status == "flagged"
    cluster.approve_ticket(outcome.ticket_id, 1)
    cluster.approve_ticket(outcome.ticket_id, 3)
    with pytest.raises(Exception, match="needs 3"):
        cluster.complete_ticket(outcome.ticket_id)
    cluster.approve_ticket(outcome.ticket_id, 5)
    done = cluster.complete_ticket(outcome.ticket_id)
    assert done.status == "published"
    assert all(1 in node.revoked_serials() for node in cluster.nodes.values())
    cluster.close()

    # transfer atomicity under 100 randomly injected aborts
    injector = random.Random(606)
    points = ["before_consent", "after_consent", "after_sign",
              "before_publish", "after_publish", None]
    for run in range(100):
        workdir = tempfile.mkdtemp(prefix="drpki-transfer-")
        cluster, keys, roa = _consent_cluster(7000 + run, workdir=workdir)
        plan = plan_transfer(roa, "memberB", 64513, new_serial=2,
                             new_ee_pk=roa.ee_pk, rng=random.Random(run))
        payloads = [plan.crl_delta, plan.new_roa]
        token = sign_consent(keys.sk, "memberA", Action.TRANSFER, payloads,
                             expiry=1_600_000_600, rng=random.Random(run))
        cluster.submit_consent(token)
        point = injector.choice(points)
        request = SignRequest("memberA", Action.TRANSFER, payloads, token,
                              plan.transfer_id)
        crashed = False
        try:
            with crash_at(point) if point else nullcontext():
                cluster.handle_sign_request(request)
        except CrashError:
            crashed = True
        cluster.close()

        cluster2 = LocalCluster(
            ProtocolConfig.for_scheme(SchemeId.SHAMIR), data_dir=workdir,
            seed=7000 + run, policy=ConsentPolicy(),
            clock=lambda: 1_600_000_000.0,
        )
        for node in cluster2.nodes.values():
            has_new_roa = "roa-2.obj" in node.objects
            has_crl = any(name.startswith("crl-memberA") for name in node.objects)
            assert not (has_new_roa and not has_crl), (
                f"run {run}: party {node.party_id} published the ROA without the CRL"
            )
        if crashed:
            cluster2.submit_consent(token)
            retry = cluster2.handle_sign_request(request)
            assert retry.status == "published"
            for node in cluster2.nodes.values():
                assert "roa-2.obj" in node.objects
                assert any(n.startswith("crl-memberA") for n in node.objects)
        cluster2.close()
        shutil.rmtree(workdir)
    report(6, "consent scenarios pass; 100 aborted transfers never split the pair")


def test_criterion_07_online_phase_is_curve_free():
    """With R precomputed, the online step performs zero curve operations."""
    for scheme in ALL_SCHEMES:
        cluster = LocalCluster(
            ProtocolConfig.for_scheme(scheme, precompute_r=True), seed=700
        )
        cluster.keygen("m")
        cluster.preprocess_independent(2)
        cluster.preprocess_dependent("m", 2)
        with count_curve_ops() as ops:
            cluster.run_signing("m", b"curve free")
        assert ops == [], (scheme, ops)
        cluster.close()
    # contrast: without precomputation the R-open costs curve work
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR), seed=701)
    cluster.keygen("m")
    cluster.preprocess_independent(1)
    cluster.preprocess_dependent("m", 1)
    with count_curve_ops() as ops:
        cluster.run_signing("m", b"with r open")
    assert len(ops) > 0
    cluster.close()
    report(7, "precomputed-R online signing: exactly 0 curve ops at every party")


def test_criterion_08_capacity_reproduction():
    """Headroom arithmetic checks out at reference rates; LAN rate >= 1 sig/s."""
    # (i) 0.95 sig/s against 8000 required/day leaves roughly 10x headroom
    assert headroom(0.95, 8000) == pytest.approx(10.26, abs=0.01)
    # (ii) slowest scheme still comfortably over 1 signature/s online on LAN
    started = time.perf_counter()
    rates = {}
    for scheme in ALL_SCHEMES:
        row = bench_phase("online", scheme, "lan", signatures=10, seed=800)
        assert row.status == "ok"
        rates[scheme.name] = row.throughput_per_s
    elapsed = time.perf_counter() - started
    slowest = min(rates, key=rates.get)
    assert rates[slowest] >= 1.0
    assert rates[slowest] >= 8000 / 86400 * 10  # an order over the daily need
    assert elapsed < 600.0
    report(8, f"headroom 10.26 +/- 0.01 reproduced; slowest LAN online rate "
              f"{rates[slowest]:.1f} sig/s ({slowest})")


def test_criterion_09_wan_sim_latency_bounds():
    """Injected WAN matrix: online latency within [RTT, 3x RTT] for honest majority."""
    rtt = max(WAN_RTT_MS.values())
    assert rtt == pytest.approx(308.7)
    for scheme in HONEST_MAJORITY:
        cluster = LocalCluster(
            ProtocolConfig.for_scheme(scheme), seed=900,
            latency_ms=one_way_delays(WAN_RTT_MS), timeout=60.0,
        )
        cluster.keygen("m")
        cluster.preprocess_independent(3)
        cluster.preprocess_dependent("m", 3)
        for i in range(3):
            started = time.perf_counter()
            cluster.run_signing("m", b"wan %d" % i)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            assert elapsed_ms >= rtt
            assert elapsed_ms <= 3 * rtt
        cluster.close()
    report(9, "WAN-sim online latency within [308.7 ms, 926.1 ms] for Shamir variants")


def test_criterion_10_churn_analyzer_golden():
    """Fixture matches golden values exactly; diff identity holds on any input."""
    fixture = Path(__file__).parent / "data" / "churn_90d"
    golden = json.loads((Path(__file__).parent / "data" / "churn_90d_golden.json").read_text())
    churn = compute_churn(ingest(str(fixture)))
    for got, want in zip(churn.days, golden["days"]):
        assert got.day.isoformat() == want["date"]
        assert got.added == want["added"] and got.removed == want["removed"]
    for month, want in golden["monthly"].items():
        stats = churn.monthly[month]
        assert (stats.mean_added, stats.mean_removed) == (want["mean_added"], want["mean_removed"])
        assert (stats.max_added, stats.max_removed) == (want["max_added"], want["max_removed"])

    rng = random.Random(10_000)
    day = date(2021, 1, 1)
    snaps = []
    pool = [f"roa{i}".encode().ljust(32, b"\0") for i in range(400)]
    for i in range(60):
        snaps.append(SnapshotDay(date.fromordinal(day.toordinal() + i),
                                 set(rng.sample(pool, rng.randrange(0, 400)))))
    churn = compute_churn(snaps)
    prev = None
    for d in churn.days:
        if d.added is not None:
            assert d.size == prev + d.added - d.removed
        prev = d.size
    report(10, "90-day fixture equals golden; size identity holds on random archives")
