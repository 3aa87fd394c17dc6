"""Protocol-phase and tuple-store tests."""

import hashlib
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from drpki.algebra import FieldElement, GENERATOR, ecdsa_sign, ecdsa_verify, scalar_mul
from drpki.durable import RecordError
from drpki.preprocessing import Triple, TupleReuseError
from drpki.runtime import ConsentPolicy, LocalCluster, SessionAbort
from drpki.runtime.transport import PHASE_PREPROCESS_DEPENDENT
from drpki.sharing import BareShare, ProtocolAbort, SchemeId, Share, open_point_shares, open_shares
from drpki.tecdsa import (
    FinalTuple,
    InitialTuple,
    ProtocolConfig,
    StockDepletedError,
    TecdsaError,
    TupleStore,
    preprocess_independent,
)
from faults import inject_fault


ALL_SCHEMES = list(SchemeId)


def make_cluster(scheme, seed=100, **kwargs):
    test_mode = kwargs.pop("test_mode", False)
    precompute_r = kwargs.pop("precompute_r", False)
    cfg = ProtocolConfig.for_scheme(scheme, test_mode=test_mode,
                                    precompute_r=precompute_r)
    return LocalCluster(cfg, seed=seed, **kwargs)


# --- configuration ---------------------------------------------------------

def test_config_table_mapping():
    assert ProtocolConfig.for_scheme(SchemeId.SHAMIR).t == 2
    assert ProtocolConfig.for_scheme(SchemeId.ADDITIVE_MAC).t == 4
    assert ProtocolConfig.for_scheme(SchemeId.SHAMIR_CHECKED).quorum == 3
    assert ProtocolConfig.for_scheme(SchemeId.ADDITIVE).quorum == 5


# --- key generation ----------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_keygen_shares_reconstruct_to_published_pk(scheme):
    cluster = make_cluster(scheme, test_mode=True)
    pk = cluster.keygen("member-x")
    sk = cluster.test_reconstruct_sk("member-x")
    assert scalar_mul(sk, GENERATOR) == pk
    cluster.close()


# x-coordinates of members m1 and m2's keys, and the SHA-256 of the five
# parties' keys.jsonl files in party order, of a cluster seeded with 31
_M1_X = "a148f5095e0d53054c8810d7afd662b5626bd0459af0b97979b33ba7ba3b0e3a"
_KEYGEN_KNOWN_ANSWERS = {
    SchemeId.ADDITIVE: (
        _M1_X, "fa05bfdbe65ff509af0cba46b03109513c27cc3e278ee1276af241affe140d55",
        "3f8009214222ec688cc79ad67e73655a2e826218b77eb130adcf8896e238e200"),
    SchemeId.ADDITIVE_MAC: (
        _M1_X, "29cce3187a955e6e6e14d16f69d13c517604a12f26b3f4177fb6d143884343b1",
        "185103227edfa52135e5b29dbc33aec5ec7b3b768b1d7f245407b7d2e024ec7d"),
    SchemeId.SHAMIR: (
        _M1_X, "91c28dbd371ce62453f4080647945176224f7202aa9ee4489f46d8d40bba29e0",
        "cab754b396c64af339b8812c945570d1fc6a8a7446e1b9bc78321e331b3c9978"),
    SchemeId.SHAMIR_CHECKED: (
        _M1_X, "91c28dbd371ce62453f4080647945176224f7202aa9ee4489f46d8d40bba29e0",
        "8f76ccadc1341c469d0341162f91066378eed14741f30d57a15575f6c87237bd"),
}


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_seeded_keygen_writes_known_keys(scheme):
    # a change to keygen's rounds must leave the keys it makes, and every
    # byte of the key records, as they were
    cluster = make_cluster(scheme, seed=31)
    xs = [f"{cluster.keygen(member).x:064x}" for member in ("m1", "m2")]
    files = b"".join((cluster.data_dir / f"party{p}" / "keys.jsonl").read_bytes()
                     for p in cluster.participants)
    assert (*xs, hashlib.sha256(files).hexdigest()) == _KEYGEN_KNOWN_ANSWERS[scheme]
    cluster.close()


def test_keygen_distinct_members_distinct_keys():
    cluster = make_cluster(SchemeId.SHAMIR)
    pk_a = cluster.keygen("member-a")
    pk_b = cluster.keygen("member-b")
    assert pk_a != pk_b
    cluster.close()


def test_keygen_refuses_duplicate_member():
    cluster = make_cluster(SchemeId.SHAMIR)
    cluster.keygen("member-a")
    with pytest.raises(TecdsaError, match="already has a live key"):
        cluster.keygen("member-a")
    cluster.close()


def test_keygen_liveness_shamir_vs_additive():
    for offline in (5, 3):
        live = [p for p in range(1, 6) if p != offline]
        cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR),
                               seed=1, participants=live)
        cluster.keygen("m")
        cluster.close()
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.ADDITIVE),
                           seed=1, participants=[1, 2, 3, 4])
    with pytest.raises(SessionAbort, match="party unavailable"):
        cluster.keygen("m")
    cluster.close()


# --- member-independent preprocessing ---------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_initial_tuples_satisfy_instance_key_relation(scheme):
    # an initial tuple's b_i and [c] give k*G: phase 3 computes the shares
    # (b_i / c) * G once c is opened, and stores them in the final tuples
    cluster = make_cluster(scheme, test_mode=True)
    cluster.keygen("m")
    cluster.preprocess_independent(3)
    results = cluster._run_op({"op": "preprocess-dependent", "member": "m", "count": 3})
    node_ids = cluster.participants
    for i, final in enumerate(results[node_ids[0]]):
        k = cluster.test_reconstruct_k(final.tuple_id)
        point_shares = [BareShare(scheme, p, results[p][i].k_point_share) for p in node_ids]
        k_point = open_point_shares(point_shares, cluster.n_live, cluster.config.t)
        assert k_point == scalar_mul(k, GENERATOR)
    cluster.close()


def test_batch_produces_distinct_unconsumed_tuples():
    cluster = make_cluster(SchemeId.SHAMIR)
    cluster.preprocess_independent(1000)
    store = cluster.nodes[1].tuple_store
    ids = store.available_initial_ids(limit=2000)
    assert len(ids) == 1000
    assert len(set(ids)) == 1000
    assert all(not store.initial_record(tid).consumed for tid in ids)
    cluster.close()


def _rig_zero_triple(cluster, index=0):
    # a triple whose c opens to zero: a = 0, so c = 0; its id, 15 zero bytes
    # and `index`, sorts ahead of the dealer's, so phase 3 binds it first
    scheme = cluster.config.scheme
    from drpki.sharing import deal

    rng = random.Random(index)
    zero = FieldElement.zero()
    b = FieldElement.random(rng)
    a_shares = deal(scheme, zero, cluster.n_live, cluster.config.t, rng,
                    owners=cluster.participants)
    b_shares = deal(scheme, b, cluster.n_live, cluster.config.t, rng,
                    owners=cluster.participants)
    c_shares = deal(scheme, zero, cluster.n_live, cluster.config.t, rng,
                    owners=cluster.participants)
    # the mask pair: a fresh x, and x * a = 0
    x_shares = deal(scheme, FieldElement.random(rng), cluster.n_live, cluster.config.t, rng,
                    owners=cluster.participants)
    xa_shares = deal(scheme, zero, cluster.n_live, cluster.config.t, rng,
                     owners=cluster.participants)
    tid = bytes(15) + bytes([index])
    return [
        Triple(tid, a_shares[i], b_shares[i], c_shares[i], x_shares[i], xa_shares[i])
        for i in range(cluster.n_live)
    ]


class _RiggedSource:
    """Hands out queued triples before falling back to the dealer's."""

    def __init__(self, inner, queued: list[Triple]) -> None:
        self.inner = inner
        self.queued = queued

    def next_triple(self):
        return self.queued.pop(0) if self.queued else self.inner.next_triple()

    def next_mask(self):
        return self.inner.next_mask()


def _rig_next_triples(cluster, triple_sets):
    """Make every party's next triples the given per-party record sets."""
    for i, party in enumerate(cluster.participants):
        node = cluster.nodes[party]
        node.triple_source = _RiggedSource(node.triple_source,
                                           [records[i] for records in triple_sets])


@pytest.mark.parametrize("batches", [[3], [1, 2]], ids=["within-a-batch", "across-batches"])
def test_a_record_handed_out_twice_is_refused_by_the_store(batches):
    # a dealer queue that hands one record out twice, within one batch or in
    # two: phase 2 refuses the batch with the repeat, and the store keeps
    # none of its tuples, the fresh one beside the repeat included
    cluster = make_cluster(SchemeId.SHAMIR)
    node = cluster.nodes[cluster.participants[0]]
    record = node.triple_source.next_triple()
    node.triple_source = _RiggedSource(node.triple_source, [record, record])
    *first, last = batches
    for count in first:
        preprocess_independent(node, None, count)
    stored = node.tuple_store.available_initial_ids()
    with pytest.raises(TupleReuseError, match="duplicate initial tuple id"):
        preprocess_independent(node, None, last)
    assert node.tuple_store.available_initial_ids() == stored
    assert stored == ([record.triple_id] if first else [])
    cluster.close()


def _final_ids(cluster, member_id):
    return {tid for node in cluster.nodes.values()
            for tid in node.tuple_store.available_final_ids(member_id, limit=1000)}


def test_zero_product_triple_discarded_and_replaced():
    # phase 2 stores a zero-product triple's tuple unopened; phase 3 opens
    # c = 0, aborts and stores nothing; a refill's retry restocks without it
    cluster = make_cluster(SchemeId.SHAMIR, policy=ConsentPolicy(low_watermark=1, batch_size=1))
    cluster.keygen("m")
    rigged = _rig_zero_triple(cluster)
    _rig_next_triples(cluster, [rigged])
    cluster.preprocess_independent(1)
    with pytest.raises(SessionAbort, match=r"degenerate preprocessing triple \(c = 0\)"):
        cluster.preprocess_dependent("m", 1)
    assert cluster.final_stock("m") == 0 and cluster.initial_stock() == 0
    made = cluster.replenish("m")
    assert made == {"initial": 2, "final": 1}
    assert cluster.final_stock("m") == 1
    assert rigged[0].triple_id not in _final_ids(cluster, "m")
    for node in cluster.nodes.values():
        assert node.tuple_store.initial_record(rigged[0].triple_id).consumed
    cluster.close()


def test_refill_rebinds_after_a_degenerate_batch():
    # a watermark below the batch sizes the initial stock for one batch; the
    # rigged batch burns its ids, and the retry tops initial stock up first
    cluster = make_cluster(SchemeId.SHAMIR, policy=ConsentPolicy(low_watermark=1, batch_size=3))
    cluster.keygen("m")
    rigged = _rig_zero_triple(cluster)
    _rig_next_triples(cluster, [rigged])
    made = cluster.replenish("m")
    assert made == {"initial": 4 + 3, "final": 3}
    assert cluster.final_stock("m") == 3
    assert rigged[0].triple_id not in _final_ids(cluster, "m")
    cluster.close()


def test_persistent_zero_products_exhaust_retry_budget():
    # every triple has c = 0, the Beaver triples too (a = 0 is still a triple)
    cluster = make_cluster(SchemeId.SHAMIR, policy=ConsentPolicy(low_watermark=1, batch_size=1))
    cluster.keygen("m")
    _rig_next_triples(cluster, [_rig_zero_triple(cluster, i) for i in range(12)])
    with pytest.raises(TecdsaError, match="replenishment failed after 3 attempts"):
        cluster.replenish("m")
    assert cluster.final_stock("m") == 0
    cluster.close()


# --- member-dependent preprocessing -------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_final_tuples_satisfy_key_over_nonce_relation(scheme):
    cluster = make_cluster(scheme, test_mode=True)
    cluster.keygen("m")
    cluster.preprocess_independent(2)
    cluster.preprocess_dependent("m", 2)
    sk = cluster.test_reconstruct_sk("m")
    node_ids = cluster.participants
    store0 = cluster.nodes[node_ids[0]].tuple_store
    for tid in store0.available_final_ids("m"):
        k = cluster.test_reconstruct_k(tid)
        shares = [
            cluster.nodes[p].tuple_store._final[tid].sk_over_k_share for p in node_ids
        ]
        sk_over_k = open_shares(shares, cluster.n_live, cluster.config.t)
        assert sk_over_k * k == sk
    cluster.close()


def test_dependent_preprocessing_requires_stock():
    cluster = make_cluster(SchemeId.SHAMIR)
    cluster.keygen("m")
    cluster.preprocess_independent(2)
    with pytest.raises(StockDepletedError, match="initial preprocessing tuples depleted"):
        cluster.preprocess_dependent("m", 5)
    # nothing was consumed by the failed request
    assert cluster.initial_stock() == 2
    cluster.close()


def test_dependent_preprocessing_requires_key():
    cluster = make_cluster(SchemeId.SHAMIR)
    cluster.preprocess_independent(1)
    with pytest.raises(TecdsaError, match="no key shares"):
        cluster.preprocess_dependent("nobody", 1)
    cluster.close()


def test_final_tuples_bound_to_member():
    cluster = make_cluster(SchemeId.SHAMIR)
    cluster.keygen("alice")
    cluster.keygen("bob")
    cluster.preprocess_independent(1)
    cluster.preprocess_dependent("alice", 1)
    with pytest.raises(StockDepletedError, match="bob"):
        cluster.run_signing("bob", b"msg")
    cluster.close()


# --- online signing ---------------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_signatures_verify_and_nonces_never_repeat(scheme):
    cluster = make_cluster(scheme)
    pk = cluster.keygen("m")
    cluster.preprocess_independent(5)
    cluster.preprocess_dependent("m", 5)
    seen_r = set()
    for i in range(5):
        message = b"roa payload %d" % i
        result = cluster.run_signing("m", message)
        assert ecdsa_verify(pk, message, result.signature)
        assert result.signature.r_x.value not in seen_r
        seen_r.add(result.signature.r_x.value)
    cluster.close()


def test_oracle_equivalence_seeded():
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED, test_mode=True)
    cluster.keygen("m")
    cluster.preprocess_independent(1)
    cluster.preprocess_dependent("m", 1)
    result = cluster.run_signing("m", b"oracle check")
    sk = cluster.test_reconstruct_sk("m")
    k = cluster.test_reconstruct_k(result.tuple_id)
    reference = ecdsa_sign(sk, b"oracle check", k)
    assert reference == result.signature
    cluster.close()


def test_batch_signatures_match_oracle_with_distinct_nonces():
    cluster = make_cluster(SchemeId.ADDITIVE_MAC, test_mode=True)
    cluster.keygen("m")
    cluster.preprocess_independent(3)
    cluster.preprocess_dependent("m", 3)
    messages = [b"batch %d" % i for i in range(3)]
    results = cluster.run_signing("m", messages)
    assert len(results) == 3
    sk = cluster.test_reconstruct_sk("m")
    nonces = [cluster.test_reconstruct_k(res.tuple_id) for res in results]
    assert len({k.value for k in nonces}) == 3
    for message, res, k in zip(messages, results, nonces):
        assert ecdsa_sign(sk, message, k) == res.signature
    cluster.close()


def test_degenerate_r_aborts_and_journals_every_tuple(monkeypatch):
    # the R open yields the identity for the second message: the whole
    # session aborts, and the tuples of both messages stay consumed
    from drpki.algebra import GroupPoint
    from drpki.runtime.session import PartySession

    cluster = make_cluster(SchemeId.SHAMIR)
    cluster.keygen("m")
    cluster.preprocess_independent(3)
    cluster.preprocess_dependent("m", 3)
    ids = cluster.nodes[1].tuple_store.available_final_ids("m")
    open_points = PartySession.open_point_batch
    calls = {}

    def second_r_degenerate(self, points, *rest):
        opened = open_points(self, points, *rest)
        calls[self.party_id] = calls.get(self.party_id, 0) + 1
        opened[1] = GroupPoint.identity()
        return opened

    monkeypatch.setattr(PartySession, "open_point_batch", second_r_degenerate)
    with pytest.raises(SessionAbort, match="degenerate instance key"):
        cluster.run_signing("m", [b"kept", b"degenerate"])
    assert calls == {p: 1 for p in cluster.participants}
    for node in cluster.nodes.values():
        assert node.tuple_store.available_final_ids("m") == ids[2:]
    assert cluster.final_stock("m") == 1
    cluster.close()


def test_signing_depletes_then_errors():
    cluster = make_cluster(SchemeId.ADDITIVE)
    cluster.keygen("m")
    cluster.preprocess_independent(1)
    cluster.preprocess_dependent("m", 1)
    cluster.run_signing("m", b"1")
    with pytest.raises(StockDepletedError, match="depleted"):
        cluster.run_signing("m", b"2")
    cluster.close()


def test_reconstruction_requires_test_mode_and_taints():
    cluster = make_cluster(SchemeId.SHAMIR, test_mode=False)
    cluster.keygen("m")
    with pytest.raises(TecdsaError, match="test-mode"):
        cluster.test_reconstruct_sk("m")
    cluster.close()

    cluster = make_cluster(SchemeId.SHAMIR, test_mode=True)
    cluster.keygen("m")
    cluster.test_reconstruct_sk("m")
    assert cluster.epoch in cluster.nodes[1].tainted_epochs
    cluster.close()


def test_abort_leaves_keys_and_stock_intact():
    # a bottom outcome must not mutate pk or key shares; the consumed tuple is
    # the only state change (single-use by design)
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED)
    pk = cluster.keygen("m")
    cluster.preprocess_independent(2)
    cluster.preprocess_dependent("m", 2)
    before_records = {
        p: cluster.nodes[p].key_records["m"].sk_share.to_bytes()
        for p in cluster.participants
    }
    with pytest.raises(ProtocolAbort), inject_fault(2, opens_until_fault=0):
        cluster.run_signing("m", b"doomed")
    for p in cluster.participants:
        record = cluster.nodes[p].key_records["m"]
        assert record.pk == pk
        assert record.sk_share.to_bytes() == before_records[p]
    result = cluster.run_signing("m", b"retry")  # remaining stock still works
    assert ecdsa_verify(pk, b"retry", result.signature)
    cluster.close()


def test_mac_check_failure_retires_epoch():
    # the first value phase 3 opens after c is the Beaver diff d
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    cluster.keygen("m")
    cluster.preprocess_independent(1)
    with pytest.raises(ProtocolAbort, match="MAC check failed"), \
            inject_fault(3, opens_until_fault=1):
        cluster.preprocess_dependent("m", 1)
    assert cluster.epoch in cluster.nodes[1].retired_epochs
    with pytest.raises(TecdsaError, match="epoch retired"):
        cluster.preprocess_independent(1)
    cluster.close()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_phase_three_round_one_sends_c_and_d_per_tuple(scheme):
    # behind a 4-byte note length and the 20-byte tag, each tuple's c and
    # its Beaver diff d go out as bare 32-byte values: e = 1/k - 1/k is 0
    # and is not sent
    cluster = make_cluster(scheme)
    cluster.keygen("m")
    cluster.preprocess_independent(3)
    sizes = []
    send = cluster.hub.send

    def recording(sender, receiver, msg):
        if msg.phase == PHASE_PREPROCESS_DEPENDENT and msg.round == 1:
            sizes.append(len(msg.payload))
        send(sender, receiver, msg)

    with mock.patch.object(cluster.hub, "send", recording):
        assert cluster.preprocess_dependent("m", 3) == 3
    peers = len(cluster.participants)
    assert sizes == [4 + 20 + 64 * 3] * (peers * (peers - 1))
    cluster.close()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_phase_three_draws_no_dealer_record(scheme, monkeypatch):
    # a restock of 3 tuples takes 3 dealer records, all in phase 2; phase 3
    # forms each Beaver triple from its own initial tuple
    from drpki import preprocessing

    draws, real = [], preprocessing.dealer_generate

    def counted(*args, **kwargs):
        draws.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(preprocessing, "dealer_generate", counted)
    cluster = make_cluster(scheme)
    pk = cluster.keygen("m")
    cluster.preprocess_independent(3)
    assert draws == [1] * 3

    def refused(self):
        raise AssertionError("phase 3 drew a dealer record")

    with mock.patch.object(preprocessing.DealerQueue, "next_triple", refused):
        assert cluster.preprocess_dependent("m", 3) == 3
    assert draws == [1] * 3
    result = cluster.run_signing("m", b"one record per final tuple")
    assert ecdsa_verify(pk, b"one record per final tuple", result.signature)
    cluster.close()


def test_corrupt_d_share_fails_the_checked_open():
    # party 3's share of the first tuple's d = sk - x, the open after its c,
    # is off by one: the checked Shamir open refuses it, and no final tuple
    # is stored
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED)
    cluster.keygen("m")
    cluster.preprocess_independent(2)
    with pytest.raises(ProtocolAbort, match="corrupted share detected"), \
            inject_fault(3, opens_until_fault=1) as plan:
        cluster.preprocess_dependent("m", 2)
    assert plan.triggered
    for node in cluster.nodes.values():
        assert node.tuple_store.final_stock("m") == 0
        assert '"final"' not in Path(node.dir, "tuples.jsonl").read_text()
    cluster.close()


def test_corrupt_c_share_aborts_before_any_k_point_share():
    # party 3's c share of the first tuple is off by one in phase-3 round 1;
    # the shares (b_i / c) * G are computed while the MAC check runs, but
    # none leaves a party or reaches its store
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    cluster.keygen("m")
    cluster.preprocess_independent(2)
    frames = []
    send = cluster.hub.send

    def recording(sender, receiver, msg):
        if msg.phase == PHASE_PREPROCESS_DEPENDENT:
            frames.append((msg.round, len(msg.payload)))
        send(sender, receiver, msg)

    with pytest.raises(ProtocolAbort, match="MAC check failed"), \
            inject_fault(3, opens_until_fault=0) as plan, \
            mock.patch.object(cluster.hub, "send", recording):
        cluster.preprocess_dependent("m", 2)
    assert plan.triggered
    # after the open, only a 32-byte commit (round 2) or a 64-byte reveal
    # (round 3) goes out
    later = [(r, size) for r, size in frames if r > 1]
    assert later and all(size <= {2: 32, 3: 64}[r] for r, size in later)
    for node in cluster.nodes.values():
        agreed = [tid for kind, tid in node.tuple_store.consumed_ids() if kind == 0]
        assert len(agreed) == 2
        assert all(node.tuple_store.final_record(tid) is None for tid in agreed)
        assert '"final"' not in Path(node.dir, "tuples.jsonl").read_text()
    assert all(cluster.epoch in node.retired_epochs for node in cluster.nodes.values())
    assert all(node.tuple_store.final_stock("m") == 0
               for node in cluster.nodes.values())
    cluster.close()


# --- tuple store -------------------------------------------------------------------

def _sample_share(scheme=SchemeId.SHAMIR, owner=1):
    return Share(scheme, owner, FieldElement(12345))


def _sample_point():
    return scalar_mul(FieldElement(7), GENERATOR)


def _initials(ids, epoch=bytes(16), owner=1):
    share = _sample_share(owner=owner)
    return [InitialTuple(bytes([i]) * 16, epoch, share, FieldElement(5), share, share, share)
            for i in ids]


def test_tuple_store_roundtrip_and_journal(tmp_path):
    epoch = bytes(16)
    store = TupleStore(str(tmp_path), party=1, epoch=epoch)
    store.add_initial(_initials(range(3)))
    store.add_final([FinalTuple(b"\xaa" * 16, epoch, "alice", _sample_point(),
                                _sample_share(), _sample_share(),
                                r_point=_sample_point())])
    taken = store.checkout_initial()
    store.close()

    revived = TupleStore(str(tmp_path), party=1, epoch=epoch)
    assert revived.initial_stock() == 2
    assert revived.final_stock("alice") == 1
    record = revived.initial_record(taken.tuple_id)
    assert record is not None and record.consumed
    [final] = revived.checkout_final_by_id([b"\xaa" * 16], "alice")
    assert final.r_point == _sample_point()
    assert final.k_inv_share == _sample_share()
    revived.close()

    # consumption is durable across another restart
    third = TupleStore(str(tmp_path), party=1, epoch=epoch)
    with pytest.raises(StockDepletedError):
        third.checkout_final_by_id([b"\xaa" * 16], "alice")
    third.close()


def test_tuple_store_serves_only_its_epoch_of_a_two_epoch_file(tmp_path):
    # a file that holds tuples of two epochs, opened on the second: only that
    # epoch's tuples are offered, counted and checked out, and an id that a
    # line of the first epoch holds is still refused
    old, new = bytes(16), b"\x01" * 16

    def final(tid, epoch):
        return FinalTuple(tid, epoch, "alice", _sample_point(), _sample_share(), _sample_share())

    first = TupleStore(str(tmp_path), party=1, epoch=old)
    first.add_initial(_initials([1, 2], epoch=old))
    first.add_final([final(b"\xaa" * 16, old)])
    first.close()
    store = TupleStore(str(tmp_path), party=1, epoch=new)
    store.add_initial(_initials([3], epoch=new))
    store.add_final([final(b"\xbb" * 16, new)])
    assert store.available_initial_ids() == [b"\x03" * 16]
    assert store.available_final_ids("alice") == [b"\xbb" * 16]
    assert (store.initial_stock(), store.final_stock("alice")) == (1, 1)
    with pytest.raises(StockDepletedError):
        store.checkout_initial_by_id([b"\x01" * 16])
    with pytest.raises(StockDepletedError):
        store.checkout_final_by_id([b"\xaa" * 16], "alice")
    assert store.checkout_initial().tuple_id == b"\x03" * 16
    assert store.checkout_final("alice").tuple_id == b"\xbb" * 16
    with pytest.raises(StockDepletedError):
        store.checkout_initial()
    with pytest.raises(TupleReuseError):
        store.add_initial(_initials([1], epoch=new))
    with pytest.raises(TupleReuseError):
        store.add_final([final(b"\xaa" * 16, new)])
    store.close()
    # the first epoch's tuples stay unconsumed for a store on that epoch
    reopened = TupleStore(str(tmp_path), party=1, epoch=old)
    assert (reopened.initial_stock(), reopened.final_stock("alice")) == (2, 1)
    reopened.close()


def test_tuple_store_rejects_duplicates_and_reports_depletion(tmp_path):
    store = TupleStore(str(tmp_path), party=2, epoch=bytes(16))
    [tup] = _initials([1], owner=2)
    store.add_initial([tup])
    with pytest.raises(TupleReuseError):
        store.add_initial([tup])
    with pytest.raises(TupleReuseError):
        store.add_initial(_initials([2, 2], owner=2))  # twice within one batch
    assert store.initial_record(b"\x02" * 16) is None
    store.checkout_initial()
    with pytest.raises(StockDepletedError, match="initial preprocessing tuples depleted"):
        store.checkout_initial()
    with pytest.raises(StockDepletedError, match="member 'zed'"):
        store.checkout_final("zed")


def test_checkout_by_id_journals_all_the_ids_in_one_line_each_or_none(tmp_path):
    ids = [bytes([i]) * 16 for i in range(4)]
    store = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    store.add_initial(_initials(range(4)))
    store.checkout_initial_by_id([ids[0]])
    path = tmp_path / "tuples.jsonl"
    before = path.read_bytes()
    for refused in ([ids[1], ids[0]], [ids[1], b"\x09" * 16], [ids[1], ids[1]]):
        with pytest.raises(StockDepletedError):
            store.checkout_initial_by_id(refused)
        assert path.read_bytes() == before
        assert store.available_initial_ids() == ids[1:]
    assert store.checkout_initial_by_id([]) == []
    taken = store.checkout_initial_by_id([ids[3], ids[1]])
    assert [t.tuple_id for t in taken] == [ids[3], ids[1]]
    assert path.read_bytes().count(b"\n") == before.count(b"\n") + 2
    store.close()
    assert TupleStore(str(tmp_path), party=1, epoch=bytes(16)).available_initial_ids() == [ids[2]]


def test_closed_tuple_store_answers_reads_but_refuses_writes(tmp_path):
    store = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    store.add_initial(_initials([1]))
    store.close()
    size = (tmp_path / "tuples.jsonl").stat().st_size
    with pytest.raises(TecdsaError, match="closed"):
        store.add_initial(_initials([2]))
    with pytest.raises(TecdsaError, match="closed"):
        store.checkout_initial()
    assert store.initial_stock() == 1
    assert (tmp_path / "tuples.jsonl").stat().st_size == size


def test_tuple_store_tolerates_torn_tail_write(tmp_path):
    store = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    store.add_initial(_initials([1]))
    store.add_initial(_initials([2]))
    store.close()
    path = tmp_path / "tuples.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[:-7])  # torn tail: the second line loses its end
    revived = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    assert revived.initial_stock() == 1
    assert revived.initial_record(b"\x01" * 16) is not None
    revived.close()
    assert path.read_bytes() == data[:data.rstrip(b"\n").rfind(b"\n") + 1]


def test_tuple_store_journal_appends_after_a_torn_tail_survive_reopen(tmp_path):
    store = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    store.add_initial(_initials(range(3)))
    store.checkout_initial_by_id([b"\x00" * 16])
    store.close()
    path = tmp_path / "tuples.jsonl"
    path.write_bytes(path.read_bytes() + b'{"consume": "ini')  # torn append
    revived = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    assert revived.initial_stock() == 2
    revived.checkout_initial_by_id([b"\x01" * 16])
    revived.close()
    # the consumption journaled after the torn tail survives another restart
    third = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    assert third.initial_stock() == 1
    assert third.consumed_ids() == {(0, b"\x00" * 16), (0, b"\x01" * 16)}
    third.close()


def test_tuple_store_refuses_another_partys_file(tmp_path):
    # party 2's file in party 1's directory: the store refuses to open and
    # leaves the file as it found it, rather than load shares of owner 2
    epoch = bytes(16)
    for party in (1, 2):
        store = TupleStore(str(tmp_path / f"party{party}"), party=party, epoch=epoch)
        share = _sample_share(owner=party)
        store.add_initial(_initials([party], owner=party))
        store.add_final([FinalTuple(bytes([party]) * 16, epoch, "alice", _sample_point(),
                                    share, share)])
        store.checkout_initial()
        store.close()
    foreign = (tmp_path / "party2" / "tuples.jsonl").read_bytes()
    target = tmp_path / "party1" / "tuples.jsonl"
    target.write_bytes(foreign)
    with pytest.raises(TecdsaError, match="tuples.jsonl is not a tuple store of party 1"):
        TupleStore(str(tmp_path / "party1"), party=1, epoch=epoch)
    assert target.read_bytes() == foreign


def test_tuple_store_refuses_an_initial_line_without_the_mask_pair(tmp_path):
    # an earlier version's initial line holds no [x] and [x/k]: phase 3
    # could not bind it, so the open names the line and leaves the file
    store = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    store.add_initial(_initials([1, 2]))
    store.close()
    path = tmp_path / "tuples.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    old = json.loads(lines[2])
    del old["x"], old["xa"]
    lines[2] = json.dumps(old, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    data = path.read_bytes()
    with pytest.raises(RecordError, match=rf"{path} line 3 does not decode: KeyError"):
        TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    assert path.read_bytes() == data


@pytest.mark.parametrize("opener, bad_line, refusal", [
    (1, b"", (TecdsaError, "is not a tuple store of party 1")),
    (2, b"not json\n", (RecordError, "line 3 does not decode")),
], ids=["another-partys-file", "a-bad-whole-line"])
def test_a_refused_tuple_file_keeps_its_torn_tail(tmp_path, opener, bad_line, refusal):
    # the torn last line is cut only once the header and every whole line
    # have decoded, so a file the open refuses is left byte for byte
    store = TupleStore(str(tmp_path), party=2, epoch=bytes(16))
    store.add_initial(_initials([2], owner=2))
    store.close()
    path = tmp_path / "tuples.jsonl"
    data = path.read_bytes() + bad_line + b'{"consume": "ini'
    path.write_bytes(data)
    error, match = refusal
    with pytest.raises(error, match=match):
        TupleStore(str(tmp_path), party=opener, epoch=bytes(16))
    assert path.read_bytes() == data


def test_tuple_store_cuts_a_torn_header(tmp_path):
    # a crash while the header line was written leaves it without its newline
    (tmp_path / "tuples.jsonl").write_bytes(b'{"party": 1, "sto')
    store = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    store.close()
    assert (tmp_path / "tuples.jsonl").read_bytes() == b'{"party": 1, "store": "tuples"}\n'


@pytest.mark.parametrize("line", [
    b"not json",
    b'{"add": "initial", "id": "zz"}',
    b'{"add": "bogus", "id": "00"}',
    b'{"consume": "initial"}',
    b'{"add": "initial", "b": "00", "c": "00", "epoch": "00", "id": "03", "k_inv": "02"}',
    b"[1, 2]",
    b"\xff\xfe",
], ids=["not-json", "bad-hex", "unknown-kind", "no-id", "short-share", "not-an-object",
        "not-utf8"])
def test_tuple_store_refuses_a_whole_line_that_does_not_decode(tmp_path, line):
    # a whole line cut nothing after it before: now the open fails, and the
    # consumption lines behind the bad one stay on disk
    store = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    store.add_initial(_initials(range(2)))
    store.close()
    path = tmp_path / "tuples.jsonl"
    data = path.read_bytes() + line + b'\n{"consume": "initial", "id": "' \
        + (b"00" * 16) + b'"}\n'
    path.write_bytes(data)
    with pytest.raises(RecordError, match=rf"{path} line 4 does not decode"):
        TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    assert path.read_bytes() == data


def test_tuple_files_of_earlier_versions_are_left_unread(tmp_path):
    # the binary record files of earlier versions are neither read, moved
    # nor cut: their tuples are never offered, and the next refill restocks
    old = {"tuples_initial.dat": b"DTI2\x01" + bytes(40),
           "tuples_final.dat": b"DTS1\x01" + bytes(40),
           "tuples.journal": b"DTJ1\x01" + bytes(21)}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
    store = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    assert store.initial_stock() == 0 and store.consumed_ids() == set()
    store.close()
    assert {name: (tmp_path / name).read_bytes() for name in old} == old
