"""Transport, session, and node-workflow tests."""

import errno
import hashlib
import hmac
import json
import os
import random
import socket
import sys
import threading
import time
from dataclasses import replace

import pytest

from drpki import algebra as algebra_module
from drpki import durable as durable_module
from drpki.durable import RecordError
from drpki import rpki as rpki_module
from drpki.algebra import (
    GENERATOR, POINT_BYTES, SCALAR_BYTES, FieldElement, GroupPoint, KeyPair, Signature,
    ecdsa_sign, ecdsa_verify, scalar_mul,
)
from drpki.bench import WAN_RTT_MS, one_way_delays
from drpki.preprocessing import DealerQueue, TrustedDealer
from drpki.rpki import (
    Action, CrlRecord, IpPrefix, PayloadKind, RoaRecord, SignedObject, ValidationError,
    encode_canonical, frame_fields, plan_transfer, sign_consent, split_fields,
)
from drpki.runtime import (
    FRAME_OVERHEAD,
    ConsentPolicy,
    InProcessHub,
    InterventionTicket,
    LocalCluster,
    PartyNode,
    PartySession,
    SessionAbort,
    SignRequest,
    TcpNodeTransport,
    verify_audit_completeness,
)
from drpki.runtime import node as node_module
from drpki.runtime import session as session_module
from drpki.runtime.transport import (
    MAX_FRAME_BYTES,
    PHASE_ABORT,
    PHASE_CONTROL,
    PHASE_KEYGEN,
    PHASE_ONLINE,
    PHASE_PREPROCESS_DEPENDENT,
    PHASE_PREPROCESS_INDEPENDENT,
    TAG_BYTES,
    SessionMessage,
    TransportError,
    decode_frame,
    derive_pair_keys,
    encode_frame,
    pair_key,
)
from drpki.sharing import BareShare, ProtocolAbort, SchemeId, Share, open_shares
from drpki.tecdsa import (
    InitialTuple, KeyShareRecord, ProtocolConfig, StockDepletedError, TecdsaError, TupleStore,
    _id_tag,
)
from faults import (
    CrashError,
    before_each_round,
    count_curve_ops,
    count_rounds,
    crash_at,
    echo_round,
    inject_fault,
    rewrite_frames,
    rewrite_note,
    rushing_point_share,
)

rng = random.Random(0xD21_05)
EPOCH = bytes(16)


def make_cluster(scheme=SchemeId.SHAMIR, seed=55, **kwargs):
    return LocalCluster(ProtocolConfig.for_scheme(scheme), seed=seed, **kwargs)


# --- framing -------------------------------------------------------------------

def test_frame_roundtrip_and_auth():
    keys = derive_pair_keys(b"secret", 5, EPOCH)
    key = pair_key(keys, 1, 2)
    msg = SessionMessage(1, PHASE_KEYGEN, 3, 1, b"payload bytes")
    frame = encode_frame(msg, key)
    assert FRAME_OVERHEAD == 31
    assert len(frame) == FRAME_OVERHEAD + len(msg.payload)
    assert decode_frame(frame[4:], key, 1) == msg


# length | session counter | phase | round | payload | tag
GOLDEN_FRAME = ("00000022" "0102030405060708" "01" "0003" "7061796c6f6164"
                "db813e153141987c0b1156c654f928c0")


def test_frame_encoding_is_pinned():
    # a 4-byte length, the 8-byte session counter, phase and 2-byte round,
    # the payload and the first 16 bytes of HMAC-SHA-256 over the sender
    # byte, the header and the payload
    msg = SessionMessage(0x0102030405060708, PHASE_KEYGEN, 3, 1, b"payload")
    frame = encode_frame(msg, bytes(range(32)))
    assert frame.hex() == GOLDEN_FRAME
    full = hmac.new(bytes(range(32)), b"\x01" + frame[4:-16], hashlib.sha256).digest()
    assert frame[-16:] == full[:16]


def test_frame_carries_no_sender():
    # the frames two senders make of one message differ in the tag alone
    key = bytes(range(32))
    msg = SessionMessage(1, PHASE_KEYGEN, 3, 1, b"payload")
    one, three = encode_frame(msg, key), encode_frame(replace(msg, sender=3), key)
    assert one[:-TAG_BYTES] == three[:-TAG_BYTES] and one != three
    assert decode_frame(three[4:], key, 1) is None
    assert decode_frame(three[4:], key, 3) == replace(msg, sender=3)


def test_frame_rejects_flipped_bit_and_wrong_key():
    keys = derive_pair_keys(b"secret", 5, EPOCH)
    key = pair_key(keys, 1, 2)
    msg = SessionMessage(1, PHASE_KEYGEN, 3, 1, b"payload")
    frame = bytearray(encode_frame(msg, key))
    frame[30] ^= 0x01
    assert decode_frame(bytes(frame[4:]), key, 1) is None
    good = encode_frame(msg, key)
    assert decode_frame(good[4:], pair_key(keys, 1, 3), 1) is None


def _flipped_frame(keys, sender, receiver, msg):
    """An encoded frame with its first payload bit flipped after the MAC."""
    frame = bytearray(encode_frame(msg, pair_key(keys, sender, receiver)))
    frame[FRAME_OVERHEAD - TAG_BYTES] ^= 0x01
    return bytes(frame)


def _bad_frames(secret, n, sender, receiver, session_id):
    """Frames on the sender->receiver link that the receiver must drop, by
    what is wrong with each."""
    keys = derive_pair_keys(secret, n, EPOCH)
    msg = SessionMessage(session_id, PHASE_CONTROL, 1, sender, b"hello")
    good = encode_frame(msg, pair_key(keys, sender, receiver))
    flipped = bytearray(good)
    flipped[-1] ^= 0x80
    cut = good[4:-1]
    return {
        "wrong-key": encode_frame(msg, pair_key(derive_pair_keys(b"other", n, EPOCH),
                                                sender, receiver)),
        "wrong-epoch": encode_frame(msg, pair_key(derive_pair_keys(secret, n, b"\x01" * 16),
                                                  sender, receiver)),
        # the receiver's own frame to the sender, sent back to it
        "reflected": encode_frame(replace(msg, sender=receiver),
                                  pair_key(keys, sender, receiver)),
        "flipped-tag-bit": bytes(flipped),
        "cut-byte": len(cut).to_bytes(4, "big") + cut,
    }


def test_hub_drops_corrupted_frames():
    keys = derive_pair_keys(b"k", 5, EPOCH)
    hub = InProcessHub(keys)
    msg = SessionMessage(2, PHASE_CONTROL, 1, 1, b"hello")
    hub.deliver(1, 2, _flipped_frame(keys, 1, 2, msg))
    assert hub.dropped_frames == 1
    assert hub.recv(2, 2, timeout=0.05) is None


def test_hub_drops_frame_naming_another_sender():
    keys = derive_pair_keys(b"k", 5, EPOCH)
    hub = InProcessHub(keys)
    # under the 1-2 link's key, but tagged as party 3's frame, on the 1->2 link
    msg = SessionMessage(2, PHASE_CONTROL, 1, 3, b"hello")
    hub.deliver(1, 2, encode_frame(msg, pair_key(keys, 1, 2)))
    assert hub.dropped_frames == 1
    assert hub.recv(2, 2, timeout=0.05) is None


def test_hub_drops_and_counts_each_bad_frame_and_queues_none_of_them():
    # a frame of another epoch used to sit unread in a queue of its own
    hub = InProcessHub(derive_pair_keys(b"k", 5, EPOCH))
    bad = _bad_frames(b"k", 5, 1, 2, 2)
    for frame in bad.values():
        hub.deliver(1, 2, frame)
    assert hub.dropped_frames == len(bad)
    assert _session_queues(hub) == []


def test_every_flipped_tag_bit_and_a_cut_byte_drop_the_frame():
    keys = derive_pair_keys(b"k", 5, EPOCH)
    hub = InProcessHub(keys)
    frame = encode_frame(SessionMessage(2, PHASE_CONTROL, 1, 1, b"hello"), pair_key(keys, 1, 2))
    bad = [frame[:-1]]
    for bit in range(8 * TAG_BYTES):
        flipped = bytearray(frame)
        flipped[len(frame) - TAG_BYTES + bit // 8] ^= 1 << (bit % 8)
        bad.append(bytes(flipped))
    for forged in bad:
        hub.deliver(1, 2, forged)
    assert hub.dropped_frames == 1 + 8 * TAG_BYTES
    hub.deliver(1, 2, frame)
    assert hub.recv(2, 2, timeout=1.0).payload == b"hello"


def test_late_frames_for_a_dropped_session_build_no_queue():
    keys = derive_pair_keys(b"k", 5, EPOCH)
    hub = InProcessHub(keys, first_session=1)
    hub.send(1, 2, SessionMessage(1, PHASE_CONTROL, 1, 1, b"on time"))
    assert hub.recv(2, 1, timeout=1.0).payload == b"on time"
    hub.drop(1)
    queues, dropped = len(_session_queues(hub)), hub.dropped_frames
    for _ in range(1000):
        hub.send(1, 2, SessionMessage(1, PHASE_ABORT, 1, 1, b"late"))
    assert len(_session_queues(hub)) == queues
    assert hub.dropped_frames == dropped + 1000
    assert hub.recv(2, 1, timeout=0.05) is None
    # so is a frame for an id below the first the hub was told of
    hub.send(1, 2, SessionMessage(0, PHASE_CONTROL, 1, 1, b"early"))
    assert hub.dropped_frames == dropped + 1001
    # a session not yet open still queues
    hub.send(1, 2, SessionMessage(3, PHASE_CONTROL, 1, 1, b"ahead"))
    assert _session_queues(hub) == [(2, 3)]
    assert hub.recv(2, 3, timeout=1.0).payload == b"ahead"


def test_inbox_keeps_no_dropped_id_once_every_lower_session_is_dropped():
    # ids dropped out of order are held only until the ids below them are
    # dropped too; a session left open does not hold the watermark back
    hub = InProcessHub(derive_pair_keys(b"k", 3, EPOCH), first_session=10)
    inbox = hub._inboxes[1]
    hub.send(2, 1, SessionMessage(10, PHASE_CONTROL, 1, 2, b"open"))
    order = list(range(11, 61))
    random.Random(5).shuffle(order)
    for session_id in order:
        hub.drop(session_id)
    assert inbox._low == 61 and inbox._dropped == set()
    assert hub.recv(1, 10, timeout=1.0).payload == b"open"
    hub.drop(10)
    assert _session_queues(hub) == [] and inbox._dropped == set()


def test_frames_racing_drops_leave_no_queue_behind():
    # four senders flood sessions 1..40 while the sessions are dropped in
    # shuffled order, switching threads often: a queue built after its
    # session's drop would outlive it
    keys = derive_pair_keys(b"race", 5, EPOCH)
    hub = InProcessHub(keys, first_session=1)
    sessions = list(range(1, 41))

    def flood(sender):
        for session_id in sessions * 5:
            hub.send(sender, 1, SessionMessage(session_id, PHASE_CONTROL, 1, sender, b"x"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        senders = [threading.Thread(target=flood, args=(p,)) for p in range(2, 6)]
        for th in senders:
            th.start()
        for session_id in random.Random(7).sample(sessions, len(sessions)):
            hub.drop(session_id)
        for th in senders:
            th.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in senders)
    inbox = hub._inboxes[1]
    assert _session_queues(hub) == []
    assert inbox._low == 41 and inbox._dropped == set()


# --- rounds ---------------------------------------------------------------------

def test_echo_round_all_parties_hold_all_payloads():
    cluster = make_cluster()
    results = echo_round(cluster, b"ping")
    for party, got in results.items():
        peers = set(cluster.participants) - {party}
        assert set(got) == peers
        assert all(v == b"ping" for v in got.values())
    cluster.close()


def _session_queues(hub):
    """The (party, session id) of every session queue the hub still holds."""
    return [(party, sid) for party, inbox in hub._inboxes.items() for sid in inbox._sessions]


def test_silent_party_aborts_all_live_parties():
    cluster = make_cluster()
    started = time.perf_counter()
    with pytest.raises(SessionAbort, match="party unavailable"):
        echo_round(cluster, b"x", mute=[3], timeout=0.3)
    assert time.perf_counter() - started < 3.0
    assert _session_queues(cluster.hub) == []  # the aborted session left no mailbox
    cluster.close()


def test_wan_round_trip_meets_critical_path():
    cluster = make_cluster(latency_ms=one_way_delays(WAN_RTT_MS), timeout=30.0)
    started = time.perf_counter()
    echo_round(cluster, b"y", echo_back=True)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert elapsed_ms >= max(WAN_RTT_MS.values())  # 308.7 on Sao Paolo-Sydney
    cluster.close()


def test_finished_sessions_leave_no_mailbox():
    # every party's mailbox of a session is dropped once the session ends
    cluster = make_cluster()
    cluster.keygen("m")
    cluster.preprocess_independent(20)
    cluster.preprocess_dependent("m", 20)
    for i in range(20):
        cluster.run_signing("m", b"message %d" % i)
    assert _session_queues(cluster.hub) == []
    cluster.close()


def test_echo_round_byte_accounting_matches_frame_format():
    cluster = make_cluster()
    echo_round(cluster, b"z" * 32)
    sent = cluster.hub.counters.snapshot()
    for p in cluster.participants:
        assert sent[p] == 4 * (FRAME_OVERHEAD + 32)
    cluster.close()


def test_replayed_round_message_dropped():
    keys = derive_pair_keys(b"rk", 3, EPOCH)
    hub = InProcessHub(keys)
    sid = 3
    done = {}

    def party(pid, peers):
        session = PartySession(pid, [1, 2, 3], sid, PHASE_CONTROL,
                               hub.endpoint(pid), SchemeId.SHAMIR, t=1, timeout=2.0)
        done[pid] = session.run_round(b"m%d" % pid)
        return session

    threads = [threading.Thread(target=party, args=(p, None)) for p in (1, 2, 3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(len(v) == 2 for v in done.values())

    # replay an already-delivered round-1 frame: receiver counts and drops it
    session = PartySession(1, [1, 2, 3], sid, PHASE_CONTROL, hub.endpoint(1),
                           SchemeId.SHAMIR, t=1, timeout=0.2)
    session._high_water = {2: 1, 3: 1}
    session.round = 1
    replay = SessionMessage(sid, PHASE_CONTROL, 1, 2, b"stale")
    hub.send(2, 1, replay)
    with pytest.raises(SessionAbort):
        session.run_round(b"")
    assert session.dropped >= 1


def test_a_frame_of_a_later_round_waits_for_that_round():
    # party 2's round-2 frame arrives before party 3's round-1 frame: round 1
    # holds it, and round 2 returns it beside party 3's round-2 frame
    keys = derive_pair_keys(b"ahead", 3, EPOCH)
    hub = InProcessHub(keys)
    sid = 4
    for sender, round_ in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        hub.send(sender, 1, SessionMessage(sid, PHASE_CONTROL, round_, sender,
                                           b"r%d from %d" % (round_, sender)))
    session = PartySession(1, [1, 2, 3], sid, PHASE_CONTROL, hub.endpoint(1),
                           SchemeId.SHAMIR, t=1, timeout=2.0)
    assert session.run_round(b"") == {2: b"r1 from 2", 3: b"r1 from 3"}
    assert session.run_round(b"") == {2: b"r2 from 2", 3: b"r2 from 3"}
    assert session.dropped == 0


def test_a_frame_from_outside_the_session_is_dropped_and_the_round_completes():
    # party 4 holds a pair key, so its frame is authentic, but the session
    # runs among parties 1, 2 and 3 only
    keys = derive_pair_keys(b"stray", 4, EPOCH)
    hub = InProcessHub(keys)
    sid = 6
    for sender in (4, 2, 3):
        hub.send(sender, 1, SessionMessage(sid, PHASE_CONTROL, 1, sender, b"from %d" % sender))
    session = PartySession(1, [1, 2, 3], sid, PHASE_CONTROL, hub.endpoint(1),
                           SchemeId.SHAMIR, t=1, timeout=2.0)
    assert session.run_round(b"") == {2: b"from 2", 3: b"from 3"}
    assert session.dropped == 1
    assert hub.dropped_frames == 0


class _RecordingEndpoint:
    """Logs each send and receive in order; every peer answers a frame of
    this party's with one of the same round, as soon as it is sent."""

    def __init__(self):
        self.log = []
        self._inbox = []

    def send(self, peer, msg):
        self.log.append(("send", peer, msg.phase, msg.round))
        if msg.phase != PHASE_ABORT:
            self._inbox.append(replace(msg, sender=peer, payload=b"reply"))

    def recv(self, session_id, timeout):
        self.log.append(("recv",))
        return self._inbox.pop(0) if self._inbox else None


def _recording_session(scheme=SchemeId.SHAMIR):
    endpoint = _RecordingEndpoint()
    session = PartySession(1, [1, 2, 3], 4, PHASE_CONTROL, endpoint, scheme,
                           t=1, timeout=0.2)
    return session, endpoint.log


def test_round_work_runs_after_every_send_and_before_any_receive():
    session, log = _recording_session()
    got = session.run_round(b"a", work=lambda: log.append(("work",)))
    assert got == {2: b"reply", 3: b"reply"}
    assert log == [("send", 2, PHASE_CONTROL, 1), ("send", 3, PHASE_CONTROL, 1), ("work",),
                   ("recv",), ("recv",)]


def test_round_work_that_raises_aborts_the_session_for_every_peer():
    session, log = _recording_session()

    def work():
        raise ValueError("no inverse")

    with pytest.raises(SessionAbort, match="local work failed: no inverse"):
        session.run_round(b"a", work=work)
    assert log == [("send", 2, PHASE_CONTROL, 1), ("send", 3, PHASE_CONTROL, 1),
                   ("send", 2, PHASE_ABORT, 1), ("send", 3, PHASE_ABORT, 1)]


@pytest.mark.parametrize("scheme", [SchemeId.SHAMIR_CHECKED, SchemeId.ADDITIVE_MAC],
                         ids=["no-mac", "nothing-opened"])
def test_mac_check_with_nothing_to_check_runs_its_work_at_once(scheme):
    session, log = _recording_session(scheme)
    session.run_mac_check(lambda: log.append(("work",)))
    assert log == [("work",)] and session.round == 0
    with pytest.raises(SessionAbort, match="local work failed"):
        session.run_mac_check(lambda: 1 / 0)
    assert log[1:] == [("send", 2, PHASE_ABORT, 0), ("send", 3, PHASE_ABORT, 0)]


# --- TCP transport -----------------------------------------------------------------

def _free_ports(n):
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def test_full_pipeline_over_tcp_sockets(tmp_path):
    # five nodes, each on its own TCP transport, driven as `drpki serve`
    # drives one: open_session and run, one session per op
    n, t = 5, 2
    config = ProtocolConfig.for_scheme(SchemeId.SHAMIR)
    ports = _free_ports(n)
    addresses = {i + 1: ("127.0.0.1", ports[i]) for i in range(n)}
    epoch = bytes(16)
    keys = derive_pair_keys(b"tcp-test", n, epoch)
    dealer = TrustedDealer(config.scheme, n, t, random.Random(3))

    transports = {}

    def build(party):
        transports[party] = TcpNodeTransport(party, addresses, keys)

    builders = [threading.Thread(target=build, args=(p,)) for p in addresses]
    for th in builders:
        th.start()
    for th in builders:
        th.join()

    nodes = {}
    for p in addresses:
        nodes[p] = PartyNode(p, config, str(tmp_path / f"party{p}"), epoch)
        nodes[p].triple_source = dealer.queues[p]
        nodes[p].rng = random.Random(40 + p)
    results = {}
    messages = [b"tcp message", b"second tcp message"]
    ops = [
        {"op": "keygen", "member": "m"},
        {"op": "preprocess-independent", "count": 2},
        {"op": "preprocess-dependent", "member": "m", "count": 2},
        {"op": "sign", "member": "m", "messages": [m.hex() for m in messages]},
    ]

    def run_party(p):
        out = []
        for counter, op in enumerate(ops, start=1):
            phase = node_module.OP_PHASES[op["op"]]
            session = nodes[p].open_session(counter, phase, list(addresses),
                                            transports[p], timeout=10.0)
            try:
                out.append(nodes[p].run(op, session))
            finally:
                transports[p].drop(counter)
        results[p] = (out[0].pk, out[-1])

    workers = [threading.Thread(target=run_party, args=(p,)) for p in addresses]
    for th in workers:
        th.start()
    for th in workers:
        th.join()
    for tr in transports.values():
        tr.close()
    for node in nodes.values():
        node.close()

    assert len(results) == n
    pk = results[1][0]
    sigs = {tuple(r.signature.to_bytes() for r in batch) for _, batch in results.values()}
    assert len(sigs) == 1
    for message, res in zip(messages, results[1][1], strict=True):
        assert ecdsa_verify(pk, message, res.signature)


@pytest.mark.parametrize("party", [1, 2], ids=["dialer", "acceptor"])
def test_tcp_mesh_setup_fails_closed_when_a_peer_never_starts(party):
    # the other party of a two-party mesh never starts: `party` must give up
    # within its connect timeout and release its listening port
    ports = _free_ports(2)
    addresses = {1: ("127.0.0.1", ports[0]), 2: ("127.0.0.1", ports[1])}
    started = time.perf_counter()
    with pytest.raises(TransportError, match="mesh setup failed"):
        TcpNodeTransport(party, addresses, derive_pair_keys(b"mesh", 2, EPOCH),
                         connect_timeout=0.5)
    assert time.perf_counter() - started < 4.0
    probe = socket.socket()
    probe.bind(addresses[party])
    probe.close()


def test_tcp_dialed_connection_delivers_after_idle_time():
    # party 1 dials party 2 with a 1 s connect timeout; its reader must not
    # keep that timeout and give up on a link idle for longer
    ports = _free_ports(2)
    addresses = {1: ("127.0.0.1", ports[0]), 2: ("127.0.0.1", ports[1])}
    keys = derive_pair_keys(b"idle", 2, EPOCH)
    transports = {}

    def build(party):
        transports[party] = TcpNodeTransport(party, addresses, keys, connect_timeout=5.0)

    builders = [threading.Thread(target=build, args=(p,)) for p in addresses]
    for th in builders:
        th.start()
    for th in builders:
        th.join(10.0)
    assert set(transports) == {1, 2}
    time.sleep(1.5)
    msg = SessionMessage(5, PHASE_CONTROL, 1, 2, b"late")
    transports[2].send(1, msg)
    assert transports[1].recv(5, timeout=2.0) == msg
    for tr in transports.values():
        tr.close()


def _tcp_mesh(keys, n, order=None, stagger_s=0.0):
    """n TcpNodeTransports on free local ports, each built in its own thread;
    the parties start in `order`, `stagger_s` apart."""
    ports = _free_ports(n)
    addresses = {i + 1: ("127.0.0.1", ports[i]) for i in range(n)}
    transports = {}

    def build(party):
        transports[party] = TcpNodeTransport(party, addresses, keys, connect_timeout=10.0)

    builders = []
    for party in order or list(addresses):
        builders.append(threading.Thread(target=build, args=(party,)))
        builders[-1].start()
        time.sleep(stagger_s)
    for th in builders:
        th.join(15.0)
    assert set(transports) == set(addresses)
    return transports


def test_tcp_readers_drop_and_count_forged_frames_and_deliver_the_next():
    # four peers' readers count forged frames into party 1's inbox at once,
    # switching threads often: a lost update would show as a short count
    n, forged = 5, 200
    keys = derive_pair_keys(b"forged", n, EPOCH)
    transports = _tcp_mesh(keys, n)
    sid = 6

    def flood(sender):
        good = SessionMessage(sid, PHASE_CONTROL, 1, sender, b"hello")
        bad = _flipped_frame(keys, sender, 1, good)
        # written straight into the sender's link to party 1, past its send()
        transports[sender]._conns[1].sendall(bad * forged)
        transports[sender].send(1, good)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        senders = [threading.Thread(target=flood, args=(p,)) for p in range(2, n + 1)]
        for th in senders:
            th.start()
        for th in senders:
            th.join(10.0)
        got = [transports[1].recv(sid, timeout=5.0) for _ in range(n - 1)]
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in senders)
    assert sorted(msg.sender for msg in got) == list(range(2, n + 1))
    assert all(msg.payload == b"hello" for msg in got)
    assert transports[1].dropped_frames == (n - 1) * forged
    for tr in transports.values():
        tr.close()


def test_tcp_mesh_forms_from_a_reverse_staggered_start_and_closes_its_readers():
    # party 5 starts first and waits to accept; party 1, last, dials everyone
    # while each listener's backlog holds it until that party accepts
    n = 5
    transports = _tcp_mesh(derive_pair_keys(b"reverse", n, EPOCH), n,
                           order=list(range(n, 0, -1)), stagger_s=0.15)
    sid = 7
    for sender, tr in transports.items():
        for receiver in transports:
            if receiver != sender:
                tr.send(receiver, SessionMessage(sid, PHASE_CONTROL, 1, sender, b"hi"))
    for receiver, tr in transports.items():
        got = {tr.recv(sid, timeout=2.0).sender for _ in range(n - 1)}
        assert got == set(transports) - {receiver}
    readers = [r for tr in transports.values() for r in tr._readers]
    assert len(readers) == n * (n - 1)
    for tr in transports.values():
        tr.close()
    assert not any(r.is_alive() for r in readers)
    assert all(tr.dropped_frames == 0 for tr in transports.values())


def test_tcp_frame_cut_short_ends_the_reader_without_a_drop():
    keys = derive_pair_keys(b"cut", 2, EPOCH)
    transports = _tcp_mesh(keys, 2)
    frame = encode_frame(SessionMessage(8, PHASE_CONTROL, 1, 2, b"cut"),
                         pair_key(keys, 2, 1))
    link = transports[2]._conns[1]
    link.sendall(frame[:-5])
    link.shutdown(socket.SHUT_WR)
    reader = transports[1]._readers[0]
    reader.join(2.0)
    assert not reader.is_alive()
    assert transports[1].dropped_frames == 0
    for tr in transports.values():
        tr.close()


def test_tcp_reader_drops_and_counts_each_bad_frame_and_delivers_the_next():
    keys = derive_pair_keys(b"bad", 2, EPOCH)
    transports = _tcp_mesh(keys, 2)
    bad = _bad_frames(b"bad", 2, 2, 1, 4)
    transports[2]._conns[1].sendall(b"".join(bad.values()))
    good = SessionMessage(4, PHASE_CONTROL, 1, 2, b"good")
    transports[2].send(1, good)
    assert transports[1].recv(4, timeout=2.0) == good
    assert transports[1].dropped_frames == len(bad)
    assert transports[1]._inbox._sessions.keys() == {4}
    for tr in transports.values():
        tr.close()


def test_tcp_length_prefix_above_any_frame_drops_it_and_ends_the_reader():
    # a prefix claiming more than any frame is not waited for: the reader
    # counts one drop and stops, rather than stall its link on bytes that
    # may never come
    keys = derive_pair_keys(b"huge", 2, EPOCH)
    transports = _tcp_mesh(keys, 2)
    transports[2]._conns[1].sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
    reader = transports[1]._readers[0]
    reader.join(2.0)
    assert not reader.is_alive()
    assert transports[1].dropped_frames == 1
    for tr in transports.values():
        tr.close()


# --- consent-gated workflow ----------------------------------------------------------

def _issue_fixture(cluster, member="memberA", serial=1, stock=4):
    pk = cluster.keygen(member)
    cluster.preprocess_independent(stock)
    cluster.preprocess_dependent(member, stock)
    member_keys = KeyPair.generate(rng)
    cluster.register_member(member, member_keys.pk)
    roa = RoaRecord(serial=serial, member_id=member, asn=64512,
                    prefixes=(IpPrefix.parse("192.0.2.0/24", 24),),
                    not_before=1500000000, not_after=1600000000, ee_pk=pk)
    return pk, member_keys, roa


def test_issue_with_consent_publishes_at_all_parties():
    cluster = make_cluster()
    pk, member_keys, roa = _issue_fixture(cluster)
    token = sign_consent(member_keys.sk, "memberA", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    outcome = cluster.handle_sign_request(
        SignRequest("memberA", Action.ISSUE, [roa], token)
    )
    assert outcome.status == "published"
    assert outcome.objects[0].verify()
    for node in cluster.nodes.values():
        assert "roa-1.obj" in node.objects
    assert verify_audit_completeness(cluster)
    cluster.close()


def test_request_carries_its_own_consent():
    cluster = make_cluster()
    _, member_keys, roa = _issue_fixture(cluster)
    token = sign_consent(member_keys.sk, "memberA", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    outcome = cluster.handle_sign_request(
        SignRequest("memberA", Action.ISSUE, [roa], token)
    )
    assert outcome.status == "published", outcome.reason
    assert verify_audit_completeness(cluster)
    cluster.close()


def test_revoke_without_consent_aborts_by_default():
    cluster = make_cluster()
    _, _, roa = _issue_fixture(cluster)
    crl = CrlRecord("memberA", 1500000001, (1,))
    before_stock = cluster.final_stock("memberA")
    outcome = cluster.handle_sign_request(
        SignRequest("memberA", Action.REVOKE, [crl], None)
    )
    assert outcome.status == "aborted"
    assert outcome.reason == "consent-missing"
    # conservative policy: the failed attempt still consumed a tuple
    assert cluster.final_stock("memberA") == before_stock - 1
    lines = cluster.nodes[1].audit_lines()
    assert any(json.loads(l)["event"] == "sign_aborted" for l in lines)
    assert not any("crl" in name for name in cluster.nodes[1].objects)
    cluster.close()


def test_flag_policy_requires_quorum_approvals():
    cluster = make_cluster(policy=ConsentPolicy(flag_on_failed_consent=True))
    _, _, roa = _issue_fixture(cluster)
    crl = CrlRecord("memberA", 1500000001, (1,))
    outcome = cluster.handle_sign_request(
        SignRequest("memberA", Action.REVOKE, [crl], None)
    )
    assert outcome.status == "flagged"
    ticket = outcome.ticket_id
    cluster.approve_ticket(ticket, 1)
    cluster.approve_ticket(ticket, 2)
    with pytest.raises(Exception, match="needs 3"):
        cluster.complete_ticket(ticket)
    cluster.approve_ticket(ticket, 5)
    done = cluster.complete_ticket(ticket)
    assert done.status == "published"
    assert 1 in cluster.nodes[2].revoked_serials()
    assert verify_audit_completeness(cluster)
    cluster.close()


def _drop_audit_events(node, event):
    kept = [l for l in node.audit_lines() if json.loads(l)["event"] != event]
    (node.dir / "audit.jsonl").write_text("".join(l + "\n" for l in kept))


def test_audit_replay_rejects_ticket_never_completed():
    cluster = make_cluster(policy=ConsentPolicy(flag_on_failed_consent=True))
    _issue_fixture(cluster)
    crl = CrlRecord("memberA", 1500000001, (1,))
    ticket = cluster.handle_sign_request(
        SignRequest("memberA", Action.REVOKE, [crl], None)
    ).ticket_id
    for party in (1, 2, 5):
        cluster.approve_ticket(ticket, party)
    assert cluster.complete_ticket(ticket).status == "published"
    assert verify_audit_completeness(cluster)
    for node in cluster.nodes.values():
        _drop_audit_events(node, "ticket_completed")
    assert not verify_audit_completeness(cluster)
    cluster.close()


def test_audit_replay_rejects_consent_below_quorum():
    cluster = make_cluster()
    _, member_keys, roa = _issue_fixture(cluster)
    token = sign_consent(member_keys.sk, "memberA", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    outcome = cluster.handle_sign_request(SignRequest("memberA", Action.ISSUE, [roa], token))
    assert outcome.status == "published"
    parties = sorted(cluster.nodes)
    quorum = cluster.config.quorum
    for party in parties[quorum:]:
        _drop_audit_events(cluster.nodes[party], "consent_verdict")
    assert verify_audit_completeness(cluster)  # exactly a quorum still holds
    _drop_audit_events(cluster.nodes[parties[quorum - 1]], "consent_verdict")
    assert not verify_audit_completeness(cluster)
    cluster.close()


def test_issue_never_flag_eligible():
    cluster = make_cluster(policy=ConsentPolicy(flag_on_failed_consent=True))
    _, _, roa = _issue_fixture(cluster)
    outcome = cluster.handle_sign_request(
        SignRequest("memberA", Action.ISSUE, [roa], None)
    )
    assert outcome.status == "aborted"
    cluster.close()


def test_audit_replay_rejects_unconsented_object():
    from drpki.algebra import ecdsa_sign
    from drpki.rpki import PayloadKind, SignedObject, encode_canonical

    cluster = make_cluster()
    rogue = KeyPair.generate(rng)
    roa = RoaRecord(9, "rogue", 1, (IpPrefix.parse("10.0.0.0/8", 8),), 1, 2, rogue.pk)
    payload = encode_canonical(roa)
    obj = SignedObject(PayloadKind.ROA, payload,
                       ecdsa_sign(rogue.sk, payload, rng=rng), rogue.pk)
    for node in cluster.nodes.values():
        node.objects["roa-9.obj"] = obj  # bypasses the consent pipeline entirely
    assert not verify_audit_completeness(cluster)
    cluster.close()


def test_tampered_consent_token_rejected():
    cluster = make_cluster()
    pk, member_keys, roa = _issue_fixture(cluster)
    other = KeyPair.generate(rng)  # wrong member key signs the consent
    token = sign_consent(other.sk, "memberA", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    outcome = cluster.handle_sign_request(
        SignRequest("memberA", Action.ISSUE, [roa], token)
    )
    assert outcome.status == "aborted"
    assert outcome.reason == "consent-invalid"
    cluster.close()


def test_consent_cannot_cover_another_members_records():
    # memberA's valid consent for a CRL issued under memberB's name
    cluster = make_cluster()
    _, member_keys, _ = _issue_fixture(cluster)
    crl = CrlRecord("memberB", 1500000001, (7,))
    token = sign_consent(member_keys.sk, "memberA", Action.REVOKE, [crl],
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    outcome = cluster.handle_sign_request(
        SignRequest("memberA", Action.REVOKE, [crl], token)
    )
    assert outcome.status == "aborted"
    assert outcome.reason == "consent-invalid"
    assert all(not node.objects for node in cluster.nodes.values())
    cluster.close()


def _issue_request(cluster, member_keys, roa):
    token = sign_consent(member_keys.sk, roa.member_id, Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    return SignRequest(roa.member_id, Action.ISSUE, [roa], token)


@pytest.mark.parametrize("point", ["after_consent", "after_sign",
                                   "before_publish", "after_publish"])
def test_in_op_crash_point_raises_promptly(point):
    # every node raises at the crash point, so none waits out the timeout
    cluster = make_cluster(timeout=30)
    _, member_keys, roa = _issue_fixture(cluster)
    request = _issue_request(cluster, member_keys, roa)
    started = time.perf_counter()
    with pytest.raises(CrashError, match=point), crash_at(point):
        cluster.handle_sign_request(request)
    assert time.perf_counter() - started < 5.0
    published = {"roa-1.obj" in node.objects for node in cluster.nodes.values()}
    assert published == {point == "after_publish"}
    cluster.close()


def test_ticket_request_op_needs_quorum_of_node_approvals():
    # the cluster's approval count is bypassed: the nodes' own votes refuse
    cluster = make_cluster(policy=ConsentPolicy(flag_on_failed_consent=True))
    _issue_fixture(cluster)
    crl = CrlRecord("memberA", 1500000001, (1,))
    ticket = cluster.handle_sign_request(
        SignRequest("memberA", Action.REVOKE, [crl], None)
    ).ticket_id
    for party in (1, 2):
        cluster.approve_ticket(ticket, party)
    blobs = cluster.nodes[1].tickets[ticket].payload_blobs
    outcomes = cluster._run_op({
        "op": "request", "member": "memberA", "action": "REVOKE",
        "payloads": [b.hex() for b in blobs], "initiator": 1, "ticket": ticket,
    })
    assert {o.status for o in outcomes.values()} == {"aborted"}
    for node in cluster.nodes.values():
        assert not node.objects
        assert not node.tickets[ticket].completed
    cluster.close()


# --- replenishment --------------------------------------------------------------------

def test_replenish_restores_watermark():
    cluster = make_cluster(policy=ConsentPolicy(low_watermark=3, batch_size=6))
    cluster.keygen("m")
    made = cluster.replenish("m")
    assert cluster.initial_stock() >= 3
    assert cluster.final_stock("m") >= 3
    assert made["final"] >= 3
    cluster.close()


def test_flipped_payload_bit_ends_in_timeout_abort():
    # a forged frame is silently dropped; the waiting session sees nothing
    # from that peer and aborts on timeout instead of accepting forged data
    keys = derive_pair_keys(b"auth", 3, EPOCH)
    hub = InProcessHub(keys)
    sid = 9
    session = PartySession(1, [1, 2, 3], sid, PHASE_CONTROL, hub.endpoint(1),
                           SchemeId.SHAMIR, t=1, timeout=0.3)
    forged = SessionMessage(sid, PHASE_CONTROL, 1, 2, b"forged")
    hub.deliver(2, 1, _flipped_frame(keys, 2, 1, forged))
    hub.send(3, 1, SessionMessage(sid, PHASE_CONTROL, 1, 3, b"honest"))
    with pytest.raises(SessionAbort, match="party unavailable"):
        session.run_round(b"")
    assert hub.dropped_frames == 1


@pytest.mark.parametrize("phase, rewrite", [
    (PHASE_PREPROCESS_DEPENDENT, lambda p: p[:-1]),
    (PHASE_PREPROCESS_DEPENDENT, lambda p: p[:24] + b"\xff" * 32 + p[56:]),
    (PHASE_ONLINE, lambda p: p[:-65] + b"\x05" + p[-64:]),
    (PHASE_ONLINE, lambda p: p[:-1] + bytes([p[-1] ^ 1])),
    (PHASE_ONLINE, lambda p: p[:-65] + b"\x00" + p[-64:]),
], ids=["one-byte-short", "value-not-below-n", "bad-point-tag", "off-curve",
        "bytes-behind-identity-tag"])
def test_open_payload_that_does_not_decode_aborts(phase, rewrite):
    # round 1 of phase 3 opens c and the Beaver diffs, 32 bytes each, after
    # a 20-byte tag note behind its 4-byte length; round 1 of signing ends
    # with the 65-byte R share.  Party 2's payload loses its last byte, or
    # its first field value is at least n, or its R share has a bad tag,
    # lies off the curve, or has bytes behind the identity's 0x00 tag
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED)
    cluster.keygen("m")
    cluster.preprocess_independent(2)
    with rewrite_frames(cluster, 2, phase, 1, rewrite), \
            pytest.raises(SessionAbort, match="malformed open payload"):
        cluster.preprocess_dependent("m", 2)
        cluster.run_signing("m", b"never signed")
    # the notes are read, and so the signing tuple journaled, before any share
    assert cluster.final_stock("m") == (1 if phase == PHASE_ONLINE else 0)
    cluster.close()


def test_point_open_with_an_identity_share_reconstructs():
    # party 2's share is the identity, which goes out as 65 zero bytes
    keys = derive_pair_keys(b"identity", 3, EPOCH)
    hub = InProcessHub(keys)
    shares = {1: scalar_mul(FieldElement(5), GENERATOR), 2: GroupPoint.identity(),
              3: scalar_mul(FieldElement(7), GENERATOR)}
    opened = {}

    def party(pid):
        session = PartySession(pid, [1, 2, 3], 5, PHASE_KEYGEN, hub.endpoint(pid),
                               SchemeId.ADDITIVE, t=0, timeout=2.0)
        [opened[pid]] = session.open_point_batch([shares[pid]])

    threads = [threading.Thread(target=party, args=(p,)) for p in shares]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5.0)
        assert not t.is_alive()
    assert opened == {p: scalar_mul(FieldElement(12), GENERATOR) for p in shares}
    assert hub.counters.snapshot() == {p: 2 * (FRAME_OVERHEAD + 65) for p in shares}


def test_point_open_payload_with_trailing_bytes_aborts():
    # keygen's one round opens pk
    cluster = make_cluster()
    with rewrite_frames(cluster, 2, PHASE_KEYGEN, 1, lambda p: p + b"\x00"), \
            pytest.raises(SessionAbort, match="malformed open payload"):
        cluster.keygen("m")
    cluster.close()


def test_truncated_request_payload_aborts_promptly():
    # the initiator's round-1 payloads, at the end of its note, lose their
    # last 7 bytes
    cluster = make_cluster()
    _, member_keys, roa = _issue_fixture(cluster)
    request = _issue_request(cluster, member_keys, roa)
    started = time.perf_counter()
    with rewrite_frames(cluster, 1, PHASE_ONLINE, 1,
                        lambda p: rewrite_note(p, lambda note: note[:-7])):
        outcome = cluster.handle_sign_request(request)
    assert time.perf_counter() - started < 5.0
    assert outcome.status == "aborted"
    assert "malformed request payload" in outcome.reason
    assert all(not node.objects for node in cluster.nodes.values())
    cluster.close()


def test_initiator_crl_with_junk_after_its_serials_aborts_and_publishes_nothing():
    # the initiator sends the consented CRL non-canonically, 8 junk bytes
    # after the serials in its serial-list field: read leniently, every node
    # would publish bytes that no consent verdict covers
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED, seed=3)
    _, member_keys, _ = _issue_fixture(cluster)
    crl = CrlRecord("memberA", 1500000001, (1,))
    cluster.submit_consent(sign_consent(member_keys.sk, "memberA", Action.REVOKE, [crl],
                                        expiry=int(time.time()) + 600, rng=rng))
    blob = encode_canonical(crl)
    fields = split_fields(blob[2:])
    junk = blob[:2] + frame_fields(fields[:2] + [fields[2] + bytes(8)])
    outcome = cluster._request("memberA", Action.REVOKE, [junk])
    assert (outcome.status, outcome.reason) == ("aborted", "malformed request payload")
    for node in cluster.nodes.values():
        assert not node.objects
        last = json.loads(node.audit_lines()[-1])
        assert (last["event"], last["reason"]) == ("sign_aborted", "malformed request payload")
    assert verify_audit_completeness(cluster)
    cluster.close()


@pytest.mark.parametrize("round_, rewrite, reason", [
    (1, lambda p: rewrite_note(p, lambda note: note[:3]), "malformed tuple id payload"),
    (1, lambda p: b"\xff" + p[1:], "malformed open payload"),
], ids=["offer-count", "note-length"])
def test_request_frame_with_a_bad_length_field_aborts_promptly(round_, rewrite, reason):
    # party 2's round-1 note loses the end of its 20-byte tuple tag, or the
    # note's length claims more than 4 GB.  (A bad length in round 2, the
    # last round, stops every peer but not party 2 itself.)
    cluster = make_cluster()
    _, member_keys, roa = _issue_fixture(cluster)
    request = _issue_request(cluster, member_keys, roa)
    started = time.perf_counter()
    with rewrite_frames(cluster, 2, PHASE_ONLINE, round_, rewrite):
        outcome = cluster.handle_sign_request(request)
    assert time.perf_counter() - started < 5.0
    assert outcome.status == "aborted"
    assert reason in outcome.reason
    assert all(not node.objects for node in cluster.nodes.values())
    cluster.close()


def test_sign_request_completes_with_three_live_parties():
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR), seed=66,
                           participants=[1, 3, 5])
    pk, member_keys, roa = _issue_fixture(cluster, member="threeway")
    token = sign_consent(member_keys.sk, "threeway", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    outcome = cluster.handle_sign_request(
        SignRequest("threeway", Action.ISSUE, [roa], token)
    )
    assert outcome.status == "published"
    assert outcome.objects[0].verify()
    cluster.close()


def test_sign_request_triggers_replenishment_when_depleted():
    cluster = make_cluster(policy=ConsentPolicy(low_watermark=2, batch_size=4))
    pk, member_keys, roa = _issue_fixture(cluster)
    # drain all final tuples
    while cluster.final_stock("memberA") > 0:
        cluster.run_signing("memberA", b"drain")
    token = sign_consent(member_keys.sk, "memberA", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    outcome = cluster.handle_sign_request(
        SignRequest("memberA", Action.ISSUE, [roa], token)
    )
    assert outcome.status == "published"
    cluster.close()


def _transfer_request(cluster, member_keys, roa):
    plan = plan_transfer(roa, "memberB", 64513, new_serial=roa.serial + 1,
                         new_ee_pk=roa.ee_pk, rng=rng)
    payloads = [plan.crl_delta, plan.new_roa]
    token = sign_consent(member_keys.sk, roa.member_id, Action.TRANSFER, payloads,
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    return SignRequest(roa.member_id, Action.TRANSFER, payloads, token, plan.transfer_id)


def _final_stocks(cluster, member):
    return {p: n.tuple_store.final_stock(member)
            for p, n in cluster.nodes.items()}


@pytest.mark.parametrize("policy", [ConsentPolicy(low_watermark=1, batch_size=1)],
                         ids=["replenished"])
def test_transfer_stock_check_covers_both_payloads(policy):
    # one final tuple left: the transfer must not spend it on its CRL and
    # then stop short of the ROA; a refill must cover both payloads even
    # when the policy's watermark and batch are smaller than the request
    cluster = make_cluster(policy=policy)
    _, member_keys, roa = _issue_fixture(cluster)
    while cluster.final_stock("memberA") > 1:
        cluster.run_signing("memberA", b"drain")
    outcome = cluster.handle_sign_request(_transfer_request(cluster, member_keys, roa))
    assert outcome.status == "published"
    assert len(outcome.objects) == 2 and all(o.verify() for o in outcome.objects)
    cluster.close()


@pytest.mark.parametrize("scheme, op, precompute_r, rounds", [
    (SchemeId.ADDITIVE_MAC, "transfer", False, 2),
    (SchemeId.SHAMIR_CHECKED, "issue", False, 2),
    (SchemeId.ADDITIVE_MAC, "transfer", True, 2),
    (SchemeId.ADDITIVE_MAC, "sign", False, 2),
    (SchemeId.SHAMIR_CHECKED, "sign", True, 2),
], ids=["mascot-transfer", "mal-shamir-issue", "mascot-transfer-precompute-r",
        "mascot-sign", "mal-shamir-sign-precompute-r"])
def test_sign_request_round_count(scheme, op, precompute_r, rounds):
    # a request is one session of two rounds under every scheme: tuple tags,
    # targets, payloads and R shares (none when R was precomputed), then
    # votes and s shares; a plain sign op runs the same two rounds without
    # the consent step; no MAC check runs online
    cluster = LocalCluster(ProtocolConfig.for_scheme(scheme, precompute_r=precompute_r),
                           seed=55)
    _, member_keys, roa = _issue_fixture(cluster)
    if op == "transfer":
        request = _transfer_request(cluster, member_keys, roa)
    elif op == "issue":
        request = _issue_request(cluster, member_keys, roa)
    counts = {}
    sessions = {}

    def counting(session):
        counts[session.party_id] = counts.get(session.party_id, 0) + 1
        sessions.setdefault(session.party_id, set()).add(session.session_id)

    with before_each_round(counting):
        if op == "sign":
            assert len(cluster.run_signing("memberA", [b"one", b"two"])) == 2
        else:
            outcome = cluster.handle_sign_request(request)
            assert outcome.status == "published"
            assert len(outcome.objects) == len(request.payloads)
    assert counts == {p: rounds for p in cluster.participants}
    assert all(len(sessions[p]) == 1 for p in cluster.participants)
    cluster.close()


def test_request_at_full_stock_sends_a_twenty_byte_tag(monkeypatch):
    # a transfer at 17 final tuples, where an id list would carry 2 + 15 ids:
    # each round-1 frame is a note, behind its 4-byte length, of the 20-byte
    # tag, the 16-byte consent target and, from the initiator, the
    # length-prefixed payloads, then a 65-byte R share per payload
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED)
    _, member_keys, roa = _issue_fixture(cluster, stock=17)
    request = _transfer_request(cluster, member_keys, roa)
    lead = b"".join(len(blob).to_bytes(4, "big") + blob
                    for blob in map(encode_canonical, request.payloads))
    payloads = _online_payloads(cluster, monkeypatch, 1)
    outcome = cluster.handle_sign_request(request)
    assert outcome.status == "published"
    sent = {p: {len(blob) for blob in blobs} for p, blobs in payloads.items()}
    initiator = cluster.participants[0]
    shares = 2 * 65
    assert sent == {p: {4 + 20 + 16 + (len(lead) if p == initiator else 0) + shares}
                    for p in cluster.participants}
    cluster.close()


def test_refused_transfer_burns_its_tuples_before_any_s_share():
    # a token signed by a key the registry does not hold: the votes fail in
    # round 2, so no party sends an s share, and each has burned the two
    # tuples agreed in round 1
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    _, member_keys, roa = _issue_fixture(cluster)
    request = _transfer_request(cluster, KeyPair.generate(rng), roa)
    stocks = _final_stocks(cluster, "memberA")
    counts = {}

    def counting(session):
        counts[session.party_id] = counts.get(session.party_id, 0) + 1

    with before_each_round(counting):
        outcome = cluster.handle_sign_request(request)
    assert outcome.status == "aborted"
    assert outcome.reason == "consent-invalid"
    assert counts == {p: 2 for p in cluster.participants}
    assert _final_stocks(cluster, "memberA") == {p: s - 2 for p, s in stocks.items()}
    assert all(not node.objects for node in cluster.nodes.values())
    assert verify_audit_completeness(cluster)
    cluster.close()


def _online_payloads(cluster, monkeypatch, round):
    """Record each sender's payloads of an online round: sender -> set of payloads."""
    sent = {}
    send = cluster.hub.send

    def recording(sender, receiver, msg):
        if msg.phase == PHASE_ONLINE and msg.round == round:
            sent.setdefault(sender, set()).add(msg.payload)
        send(sender, receiver, msg)

    monkeypatch.setattr(cluster.hub, "send", recording)
    return sent


@pytest.mark.parametrize("scheme", [SchemeId.SHAMIR_CHECKED, SchemeId.ADDITIVE_MAC],
                         ids=["mal-shamir", "mascot"])
def test_dissenting_node_withholds_its_s_shares(monkeypatch, scheme):
    # party 5 holds another consent key for the member, so its verdict is
    # invalid and the other four are ok: party 5 sends its vote alone in
    # round 2.  Under mal-shamir four ok votes are a quorum and every node
    # makes s from the four ok voters' shares; under mascot they are not,
    # and no node reconstructs s
    cluster = make_cluster(scheme)
    _, member_keys, roa = _issue_fixture(cluster)
    cluster.nodes[5].register_member("memberA", KeyPair.generate(rng).pk)
    request = _issue_request(cluster, member_keys, roa)
    sent = _online_payloads(cluster, monkeypatch, 2)
    columns = []
    open_shares_ = session_module.open_shares

    def counting(shares, n, t):
        columns.append(len(shares))
        return open_shares_(shares, n, t)

    monkeypatch.setattr(session_module, "open_shares", counting)
    outcome = cluster.handle_sign_request(request)
    assert sent[5] == {(7).to_bytes(4, "big") + b"invalid"}
    assert all(sent[p] == {(2).to_bytes(4, "big") + b"ok" + payload[6:]}
               and len(payload) == 4 + 2 + 32
               for p in range(1, 5) for payload in sent[p])
    if scheme is SchemeId.SHAMIR_CHECKED:
        assert outcome.status == "published" and outcome.objects[0].verify()
        assert columns == [4] * len(cluster.participants)
    else:
        assert outcome.status == "aborted" and outcome.reason == "consent-invalid"
        assert columns == []
        assert all(not node.objects for node in cluster.nodes.values())
    assert verify_audit_completeness(cluster)
    cluster.close()


@pytest.mark.parametrize("scheme", [SchemeId.SHAMIR_CHECKED, SchemeId.ADDITIVE_MAC],
                         ids=["mal-shamir", "mascot"])
def test_divergent_consent_targets_send_no_s_share(monkeypatch, scheme):
    # parties 3-5 hold a token for another ROA than parties 1 and 2 do, and
    # the initiator, party 1, shows each group the payloads its token
    # covers (the leads are substituted where parties 3-5 read them).  Every
    # verdict is ok, but the consent targets differ, so no node sends an s
    # share: two s for one tuple and two messages would give away the key
    cluster = make_cluster(scheme)
    _, member_keys, roa = _issue_fixture(cluster)
    request = replace(_issue_request(cluster, member_keys, roa), consent=None)
    other = replace(roa, asn=64999)
    token = sign_consent(member_keys.sk, "memberA", Action.ISSUE, [other],
                         expiry=int(time.time()) + 600, rng=rng)
    for party in (3, 4, 5):
        cluster.nodes[party].submit_consent(token)
    other_blob = encode_canonical(other)
    other_lead = len(other_blob).to_bytes(4, "big") + other_blob
    read = node_module._RequestGate.read

    def equivocated(self, leads, *rest):
        if self.node.party_id in (3, 4, 5):
            leads = {**leads, self.op["initiator"]: other_lead}
        return read(self, leads, *rest)

    sent = []
    open_field = PartySession.open_field_batch

    def recording(self, shares, *rest):
        if self.phase == PHASE_ONLINE:
            sent.extend(shares)
        return open_field(self, shares, *rest)

    monkeypatch.setattr(node_module._RequestGate, "read", equivocated)
    monkeypatch.setattr(PartySession, "open_field_batch", recording)
    outcome = cluster.handle_sign_request(request)
    assert sent == []
    assert outcome.status == "aborted"
    assert outcome.reason == "consent targets differ"
    assert all(not node.objects for node in cluster.nodes.values())
    cluster.close()


def test_request_with_a_round_one_note_over_255_bytes_publishes():
    # a revocation of 40 serials: the round-1 note, of tag, target and the
    # initiator's framed CRL, is far longer than a 1-byte length can say
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED)
    _, member_keys, _ = _issue_fixture(cluster)
    crl = CrlRecord("memberA", 1_500_000_001, tuple(range(1, 41)))
    assert 20 + 16 + 4 + len(encode_canonical(crl)) > 255
    token = sign_consent(member_keys.sk, "memberA", Action.REVOKE, [crl],
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    outcome = cluster.handle_sign_request(SignRequest("memberA", Action.REVOKE, [crl], token))
    assert outcome.status == "published" and outcome.objects[0].verify()
    assert all(node.revoked_serials() == set(range(1, 41)) for node in cluster.nodes.values())
    cluster.close()


@pytest.mark.parametrize("scheme, reason", [
    (SchemeId.SHAMIR_CHECKED, "corrupted share detected"),
    (SchemeId.ADDITIVE_MAC, "signature invalid"),
], ids=["mal-shamir", "mascot"])
@pytest.mark.parametrize("position", [0, 1], ids=["r-share", "s-share"])
def test_faulted_r_or_s_share_aborts_the_request(scheme, reason, position):
    # an issue opens its R in round 1 and its s in round 2; party 3 sends
    # one of them off by one (R + G for the point)
    cluster = make_cluster(scheme)
    _, member_keys, roa = _issue_fixture(cluster)
    request = _issue_request(cluster, member_keys, roa)
    with inject_fault(3, opens_until_fault=position) as plan:
        outcome = cluster.handle_sign_request(request)
    assert plan.triggered
    assert outcome.status == "aborted" and reason in outcome.reason
    assert all(not node.objects for node in cluster.nodes.values())
    assert all(not node.retired_epochs for node in cluster.nodes.values())
    cluster.close()


@pytest.mark.parametrize("op", ["request", "sign"])
@pytest.mark.parametrize("scheme", [SchemeId.ADDITIVE_MAC, SchemeId.SHAMIR_CHECKED],
                         ids=["mascot", "mal-shamir"])
def test_agreed_tuples_are_journaled_before_round_two(scheme, op):
    # what each party had journaled when it sent round 2 of the signing session
    cluster = make_cluster(scheme)
    _, member_keys, roa = _issue_fixture(cluster)
    request = _transfer_request(cluster, member_keys, roa)
    journaled = {}

    def checking(session):
        if session.phase == PHASE_ONLINE and session.round == 1:
            journaled[session.party_id] = (
                cluster.nodes[session.party_id].tuple_store.consumed_ids())

    with before_each_round(checking):
        if op == "request":
            outcome = cluster.handle_sign_request(request)
            assert outcome.status == "published"
            results = outcome.sign_results
        else:
            results = cluster.run_signing("memberA", [b"one", b"two"])
    agreed = {(1, res.tuple_id) for res in results}
    assert len(agreed) == 2
    assert set(journaled) == set(cluster.participants)
    assert all(agreed <= ids for ids in journaled.values())
    cluster.close()


def test_batch_signs_from_common_ids_when_one_store_is_ahead():
    # party 2 already journaled the lowest final id (a crash after its
    # checkout): the batch must agree on ids every party still holds, and
    # the realign burns the lowest id at the parties that still held it
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    pk = cluster.keygen("m")
    cluster.preprocess_independent(4)
    cluster.preprocess_dependent("m", 4)
    store2 = cluster.nodes[2].tuple_store
    lowest = store2.available_final_ids("m")[0]
    store2.checkout_final_by_id([lowest], "m")
    before = {p: n.tuple_store.consumed_ids() for p, n in cluster.nodes.items()}
    messages = [b"first", b"second"]
    results = cluster.run_signing("m", messages)
    for message, res in zip(messages, results, strict=True):
        assert ecdsa_verify(pk, message, res.signature)
    used = {(1, res.tuple_id) for res in results}
    assert len(used) == 2 and (1, lowest) not in used
    for p, node in cluster.nodes.items():
        burned = set() if p == 2 else {(1, lowest)}
        assert node.tuple_store.consumed_ids() - before[p] == used | burned
    cluster.close()


def test_fault_on_second_s_share_aborts_whole_transfer():
    # opens in order: R of both payloads, then s of the CRL, then s of the
    # ROA; a corrupted ROA s share fails the verify against R, so neither
    # object is published and both tuples are burned, but no epoch retires:
    # the next request publishes
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    _, member_keys, roa = _issue_fixture(cluster)
    request = _transfer_request(cluster, member_keys, roa)
    stocks = _final_stocks(cluster, "memberA")
    with inject_fault(3, opens_until_fault=3) as plan:
        outcome = cluster.handle_sign_request(request)
    assert outcome.status == "aborted"
    assert "signature invalid" in outcome.reason
    assert plan.triggered
    assert all(not node.objects for node in cluster.nodes.values())
    assert _final_stocks(cluster, "memberA") == {p: s - 2 for p, s in stocks.items()}
    assert all(not node.retired_epochs for node in cluster.nodes.values())
    following = cluster.handle_sign_request(_issue_request(cluster, member_keys, roa))
    assert following.status == "published"
    assert following.objects[0].verify()
    assert _final_stocks(cluster, "memberA") == {p: s - 3 for p, s in stocks.items()}
    assert all("roa-1.obj" in node.objects for node in cluster.nodes.values())
    assert verify_audit_completeness(cluster)
    cluster.close()


def test_request_on_a_retired_epoch_with_no_stock_left_aborts():
    # the first request spends the member's one final tuple and fails its
    # signature check; a restock then fails its MAC check and retires the
    # epoch, burning its initial tuple.  The second request finds no stock,
    # and must not try to refill on the retired epoch but return every
    # node's refusal
    cluster = make_cluster(SchemeId.ADDITIVE_MAC, seed=5)
    _, member_keys, roa = _issue_fixture(cluster, stock=1)
    with inject_fault(3, opens_until_fault=1) as plan:
        first = cluster.handle_sign_request(_issue_request(cluster, member_keys, roa))
    assert plan.triggered
    assert first.status == "aborted" and "signature invalid" in first.reason
    assert cluster.final_stock("memberA") == 0
    cluster.preprocess_independent(1)
    with pytest.raises(ProtocolAbort, match="MAC check failed"), \
            inject_fault(3, opens_until_fault=1) as plan:
        cluster.preprocess_dependent("memberA", 1)
    assert plan.triggered
    assert all(cluster.epoch in node.retired_epochs for node in cluster.nodes.values())
    assert cluster.final_stock("memberA") == 0
    second = cluster.handle_sign_request(_issue_request(cluster, member_keys, roa))
    assert second.status == "aborted"
    assert second.reason == "epoch retired after a failed authentication check"
    assert _final_stocks(cluster, "memberA") == {p: 0 for p in cluster.participants}
    for node in cluster.nodes.values():
        entry = json.loads(node.audit_lines()[-1])
        assert (entry["event"], entry["reason"]) == ("sign_aborted", second.reason)
    cluster.close()


# --- mascot online signing: s is accepted by the verify against R --------------

def test_value_fault_on_any_s_share_aborts_and_retires_nothing():
    # a transfer opens R of both payloads, then s of both: a corrupted s
    # share, at either position and from any party, fails the verify
    # against R at every node; nothing is published and the epoch stays live
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    _, member_keys, roa = _issue_fixture(cluster, stock=20)
    for party in cluster.participants:
        for position in (2, 3):
            request = _transfer_request(cluster, member_keys, roa)
            with inject_fault(party, opens_until_fault=position) as plan:
                outcome = cluster.handle_sign_request(request)
            assert plan.triggered
            assert outcome.status == "aborted", (party, position)
            assert "signature invalid" in outcome.reason
            assert all(not node.objects for node in cluster.nodes.values())
            assert all(not node.retired_epochs for node in cluster.nodes.values())
            assert verify_audit_completeness(cluster)
    assert cluster.final_stock("memberA") == 0
    cluster.close()


def test_negated_s_aborts_and_publishes_nothing(monkeypatch):
    # a rushing party that has seen every honest s share can shift its own
    # by -2s, so that every party opens n - s.  (r, n - s) passes the plain
    # ECDSA check, which relying parties run, but its point is -R, so the
    # verify against the held R refuses it.  s is read off the fault-free
    # run of the same seed and request.
    def issue(cluster):
        _, member_keys, roa = _issue_fixture(cluster)
        return cluster.handle_sign_request(_issue_request(cluster, member_keys, roa))

    cluster = make_cluster(SchemeId.ADDITIVE_MAC, seed=62)
    published = issue(cluster).objects[0]
    cluster.close()
    honest = published.signature
    assert ecdsa_verify(published.signer_pk, published.payload,
                        Signature(honest.r_x, -honest.s))

    open_field = PartySession.open_field_batch
    opened = []

    def rushing(self, shares, note=None, read_notes=None):
        if self.phase != PHASE_ONLINE:
            return open_field(self, shares, note, read_notes)
        if self.party_id == 5:
            shares = [replace(shares[0], value=shares[0].value - honest.s - honest.s)]
        values = open_field(self, shares, note, read_notes)
        opened.extend(values)
        return values

    monkeypatch.setattr(PartySession, "open_field_batch", rushing)
    cluster = make_cluster(SchemeId.ADDITIVE_MAC, seed=62)
    outcome = issue(cluster)
    assert opened == [-honest.s] * len(cluster.participants)
    assert outcome.status == "aborted"
    assert "signature invalid" in outcome.reason
    assert all(not node.objects for node in cluster.nodes.values())
    assert all(not node.retired_epochs for node in cluster.nodes.values())
    cluster.close()


def test_mascot_opens_send_no_mac_share(monkeypatch):
    # the phase-3 round-1 frames party 1 receives: behind the tag note, each
    # c and d goes out as its bare 32-byte value, and the MAC share of no
    # sender's c, x or x/k is in its frame.  With MAC shares on the wire,
    # one open gave alpha = sum(mac) / sum(value) to every party
    cluster = make_cluster(SchemeId.ADDITIVE_MAC, seed=3)
    cluster.keygen("m")
    cluster.preprocess_independent(2)
    ids = cluster.nodes[1].tuple_store.available_initial_ids()
    frames = {}
    send = cluster.hub.send

    def spying(sender, receiver, msg):
        if receiver == 1 and msg.phase == PHASE_PREPROCESS_DEPENDENT and msg.round == 1:
            frames[sender] = msg.payload
        send(sender, receiver, msg)

    monkeypatch.setattr(cluster.hub, "send", spying)
    assert cluster.preprocess_dependent("m", 2) == 2
    assert sorted(frames) == [2, 3, 4, 5]
    for sender, payload in frames.items():
        assert len(payload) == 4 + 20 + 2 * 2 * 32
        store = cluster.nodes[sender].tuple_store
        for tid in ids:
            init = store.initial_record(tid)
            for share in (init.c_share, init.x_share, init.xa_share):
                assert share.mac.to_bytes() not in payload
    cluster.close()


def test_mac_fault_on_an_s_share_changes_no_signature():
    # the MAC of an s share is never checked, so corrupting it alone gives
    # the bytes of the fault-free run with the same seed
    signatures = []
    for faulted in (False, True):
        cluster = make_cluster(SchemeId.ADDITIVE_MAC, seed=61)
        pk = cluster.keygen("m")
        cluster.preprocess_independent(1)
        cluster.preprocess_dependent("m", 1)
        if faulted:
            with inject_fault(4, opens_until_fault=1, kind="mac") as plan:
                result = cluster.run_signing("m", b"same bytes")
            assert plan.triggered
        else:
            result = cluster.run_signing("m", b"same bytes")
        assert ecdsa_verify(pk, b"same bytes", result.signature)
        signatures.append(result.signature.to_bytes())
        cluster.close()
    assert signatures[0] == signatures[1]


def test_online_mascot_session_runs_no_mac_check(monkeypatch):
    # a phase-3 batch runs one MAC check per party; a request, and a plain
    # sign op, run none
    calls = []
    evaluate = session_module.mac_check_evaluate

    def counting(commitments, reveals):
        calls.append(len(commitments))
        return evaluate(commitments, reveals)

    monkeypatch.setattr(session_module, "mac_check_evaluate", counting)
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    _, member_keys, roa = _issue_fixture(cluster)
    assert len(calls) == len(cluster.participants)
    del calls[:]
    outcome = cluster.handle_sign_request(_transfer_request(cluster, member_keys, roa))
    assert outcome.status == "published"
    assert len(cluster.run_signing("memberA", [b"one", b"two"])) == 2
    assert calls == []
    cluster.close()


def test_concurrent_mascot_keygens_draw_dealer_masks_in_one_order(monkeypatch):
    # party 1 is steered to draw member a's mask before b's, every other
    # party b's before a's.  Run at once, the parties would pair the
    # dealer's masks differently and the first restock would fail its MAC
    # check and retire the epoch; serialized, the steering waits run out
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    first = {p: "a" if p == 1 else "b" for p in cluster.participants}
    drawn = {(p, m): threading.Event() for p in cluster.participants for m in "ab"}
    current = threading.local()
    real_keygen, real_mask = node_module.keygen, DealerQueue.next_mask

    def keygen(node, session, member_id, **kwargs):
        current.member = member_id
        return real_keygen(node, session, member_id, **kwargs)

    party_of = {queue: p for p, queue in cluster.dealer.queues.items()}

    def next_mask(queue):
        party = party_of[queue]
        if current.member != first[party]:
            drawn[party, first[party]].wait(1.0)
        mask = real_mask(queue)
        drawn[party, current.member].set()
        return mask

    monkeypatch.setattr(node_module, "keygen", keygen)
    monkeypatch.setattr(DealerQueue, "next_mask", next_mask)
    errors = []

    def run(member):
        try:
            cluster.keygen(member)
        except Exception as exc:  # collected for the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(m,)) for m in "ab"]
    for th in threads:
        th.start()
    for th in threads:
        th.join(30.0)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    cluster.preprocess_independent(4)
    for member in "ab":
        assert cluster.preprocess_dependent(member, 2) == 2
    assert all(node.refusal() is None for node in cluster.nodes.values())
    cluster.close()


def test_wrong_public_key_from_a_faulted_mascot_keygen_never_publishes():
    # a corrupted public-key share in mascot keygen stores a wrong key (a
    # known defect: point opens carry no MAC); signing for that member must
    # still end in "signature invalid", with nothing published
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.ADDITIVE_MAC, test_mode=True),
                           seed=21)
    with inject_fault(3, 0) as plan:
        pk = cluster.keygen("memberA")
    assert plan.triggered
    assert pk != scalar_mul(cluster.test_reconstruct_sk("memberA"), GENERATOR)
    cluster.preprocess_independent(2)
    cluster.preprocess_dependent("memberA", 2)
    member_keys = KeyPair.generate(rng)
    cluster.register_member("memberA", member_keys.pk)
    roa = RoaRecord(serial=1, member_id="memberA", asn=64512,
                    prefixes=(IpPrefix.parse("192.0.2.0/24", 24),),
                    not_before=1500000000, not_after=1600000000, ee_pk=pk)
    outcome = cluster.handle_sign_request(_issue_request(cluster, member_keys, roa))
    assert outcome.status == "aborted"
    assert "signature invalid" in outcome.reason
    with pytest.raises(ProtocolAbort, match="signature invalid"):
        cluster.run_signing("memberA", b"direct")
    assert all(not node.objects for node in cluster.nodes.values())
    assert all(not node.retired_epochs for node in cluster.nodes.values())
    cluster.close()


def test_rushing_party_picks_the_public_key_of_a_mascot_keygen():
    # a known defect: point opens carry no MAC, so a party that reads the
    # honest point shares before it sends its own picks the key that every
    # honest node stores, and can then sign for the member alone.  Only the
    # in-process cluster's cross-node comparison notices, because the
    # rushing party's own node kept its honest share; `drpki serve` has no
    # such comparison.  ROADMAP item 11's MAC-checked point open flips this
    # assertion: keygen must then abort, and no honest node store the key
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.ADDITIVE_MAC), seed=3)
    chosen = FieldElement.random(rng)
    target = scalar_mul(chosen, GENERATOR)
    with rushing_point_share(3, target), \
            pytest.raises(ProtocolAbort, match="public key disagreement"):
        cluster.keygen("memberA")
    honest = [p for p in cluster.participants if p != 3]
    assert {cluster.nodes[p].key_records["memberA"].pk for p in honest} == {target}
    assert cluster.nodes[3].key_records["memberA"].pk != target
    signature = ecdsa_sign(chosen, b"signed alone", rng=rng)
    assert ecdsa_verify(target, b"signed alone", signature)
    cluster.close()


@pytest.mark.parametrize("scheme,rounds,payloads", [
    (SchemeId.ADDITIVE, 1, [65]),
    (SchemeId.ADDITIVE_MAC, 1, [65]),
    (SchemeId.SHAMIR, 1, [65]),
    (SchemeId.SHAMIR_CHECKED, 1, [65]),
])
def test_keygen_rounds_and_bytes_per_scheme(scheme, rounds, payloads):
    # [sk] is a dealer mask under every scheme, so keygen is the one open
    # of pk: a 65-byte point share to each peer
    cluster = make_cluster(scheme)
    with count_rounds(PHASE_KEYGEN) as counts:
        cluster.keygen("m")
    assert counts == {p: rounds for p in cluster.participants}
    peers = len(cluster.participants) - 1
    assert cluster.hub.counters.snapshot() == {
        p: peers * sum(FRAME_OVERHEAD + size for size in payloads)
        for p in cluster.participants}
    cluster.close()


def _keygen_on_the_wire(cluster, member, monkeypatch):
    """Run one keygen and return its public key and the (sender, receiver,
    payload) of every keygen frame the hub carries, read from the encoded
    frames as an observer of a TCP link reads them: the payload sits in
    clear between the 4-byte length, 11-byte header and the 16-byte tag."""
    head = FRAME_OVERHEAD - TAG_BYTES  # the length prefix and the header
    seen = []
    deliver = cluster.hub.deliver

    def recording(sender, receiver, frame):
        if frame[head - 3] == PHASE_KEYGEN:  # header: counter, phase, round
            seen.append((sender, receiver, frame[head:-TAG_BYTES]))
        deliver(sender, receiver, frame)

    monkeypatch.setattr(cluster.hub, "deliver", recording)
    pk = cluster.keygen(member)
    monkeypatch.undo()
    return pk, seen


def _key_read_off_dealt_shares(seen, n, t):
    """The key a wire observer reads from Shamir deals: each sender's 32-byte
    sends, interpolated at 0 and summed over the senders; None unless every
    sender sent t + 1 of them."""
    dealt = {sender: [] for sender, _, _ in seen}
    for sender, receiver, payload in seen:
        if len(payload) == SCALAR_BYTES:
            dealt[sender].append(
                BareShare(SchemeId.SHAMIR, receiver, FieldElement.from_bytes(payload)))
    if not dealt or any(len(shares) < t + 1 for shares in dealt.values()):
        return None
    return sum((open_shares(shares, n, t) for shares in dealt.values()), FieldElement.zero())


@pytest.mark.parametrize("scheme", list(SchemeId),
                         ids=["semi", "mascot", "shamir", "mal-shamir"])
def test_a_link_observer_reads_no_member_key_off_keygen(scheme, monkeypatch):
    # frames go in clear (ROADMAP item 21), so keygen must send no private
    # value: a recorder of every keygen frame recovers no key from the
    # senders' 32-byte shares, and each payload is one 65-byte point share
    for seed in range(3):
        cluster = LocalCluster(ProtocolConfig.for_scheme(scheme), seed=seed)
        pk, seen = _keygen_on_the_wire(cluster, "m", monkeypatch)
        sk = _key_read_off_dealt_shares(seen, cluster.n_live, cluster.config.t)
        assert sk is None or scalar_mul(sk, GENERATOR) != pk, f"seed {seed}: key read"
        peers = len(cluster.participants) - 1
        assert len(seen) == len(cluster.participants) * peers
        assert all(len(payload) == POINT_BYTES for _, _, payload in seen)
        for _, _, payload in seen:
            GroupPoint.from_bytes(payload)
        cluster.close()


def test_request_on_a_tainted_epoch_with_no_stock_left_aborts(tmp_path):
    # a test-mode reconstruction taints the epoch; reopened without test
    # mode, a request with no final tuple must not try to refill on it
    config = ProtocolConfig.for_scheme(SchemeId.SHAMIR, test_mode=True)
    cluster = LocalCluster(config, data_dir=str(tmp_path), seed=9)
    _, member_keys, roa = _issue_fixture(cluster, stock=0)
    cluster.test_reconstruct_sk("memberA")
    cluster.close()
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR),
                           data_dir=str(tmp_path), seed=9)
    outcome = cluster.handle_sign_request(_issue_request(cluster, member_keys, roa))
    assert outcome.status == "aborted"
    assert outcome.reason == "epoch tainted by test-mode reconstruction"
    assert cluster.initial_stock() == 0
    cluster.close()


_DEAD_EPOCH_REASONS = {
    "retired": "epoch retired after a failed authentication check",
    "tainted": "epoch tainted by test-mode reconstruction",
}


@pytest.mark.parametrize("op_name", sorted(node_module.OP_PHASES))
@pytest.mark.parametrize("dead", sorted(_DEAD_EPOCH_REASONS))
def test_every_op_refuses_a_dead_epoch(tmp_path, dead, op_name):
    # an epoch retired, or tainted by a test-mode reconstruction and reopened
    # without test mode, refuses every op at every node before a frame is
    # sent: `request` with an audited aborted outcome, every other op raises
    config = ProtocolConfig.for_scheme(SchemeId.SHAMIR, test_mode=dead == "tainted")
    cluster = LocalCluster(config, data_dir=str(tmp_path), seed=13)
    _, _, roa = _issue_fixture(cluster, stock=2)
    if dead == "tainted":
        cluster.test_reconstruct_sk("memberA")
    else:
        for node in cluster.nodes.values():
            node.retired_epochs.add(cluster.epoch)
            node._save_state()
    cluster.close()
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR),
                           data_dir=str(tmp_path), seed=13)
    reason = _DEAD_EPOCH_REASONS[dead]
    ops = {
        "keygen": {"op": "keygen", "member": "memberB"},
        "preprocess-independent": {"op": "preprocess-independent", "count": 1},
        "preprocess-dependent": {"op": "preprocess-dependent", "member": "memberA",
                                 "count": 1},
        "sign": {"op": "sign", "member": "memberA", "messages": [b"m".hex()]},
        "request": {"op": "request", "member": "memberA", "action": Action.ISSUE.name,
                    "payloads": [encode_canonical(roa).hex()], "initiator": 1,
                    "ticket": None},
    }
    assert set(ops) == set(node_module.OP_PHASES)
    sent = cluster.hub.counters.snapshot()
    stocks = (cluster.initial_stock(), _final_stocks(cluster, "memberA"))
    audits = {p: len(node.audit_lines()) for p, node in cluster.nodes.items()}
    if op_name == "request":
        outcomes = cluster._run_op(ops[op_name])
        assert {(o.status, o.reason) for o in outcomes.values()} == {("aborted", reason)}
        for p, node in cluster.nodes.items():
            lines = node.audit_lines()
            assert len(lines) == audits[p] + 1
            entry = json.loads(lines[-1])
            assert (entry["event"], entry["reason"]) == ("sign_aborted", reason)
    else:
        with pytest.raises(TecdsaError) as refused:
            cluster._run_op(ops[op_name])
        assert str(refused.value) == reason
        assert {p: len(node.audit_lines()) for p, node in cluster.nodes.items()} == audits
    assert cluster.hub.counters.snapshot() == sent
    assert (cluster.initial_stock(), _final_stocks(cluster, "memberA")) == stocks
    assert not any("memberB" in node.key_records for node in cluster.nodes.values())
    cluster.close()


@pytest.mark.parametrize("scheme", [SchemeId.SHAMIR_CHECKED, SchemeId.ADDITIVE_MAC],
                         ids=["mal-shamir", "mascot"])
def test_degenerate_r_aborts_the_request(monkeypatch, scheme):
    # every R opens as the identity (a ~2^-256 event per key): the request
    # ends in an abort with its agreed tuples burned, and publishes nothing
    cluster = make_cluster(scheme)
    _, member_keys, roa = _issue_fixture(cluster)
    request = _issue_request(cluster, member_keys, roa)
    stocks = _final_stocks(cluster, "memberA")
    open_points = PartySession.open_point_batch

    def identities(self, points, note=None, read_notes=None):
        return [GroupPoint.identity() for _ in open_points(self, points, note, read_notes)]

    monkeypatch.setattr(PartySession, "open_point_batch", identities)
    outcome = cluster.handle_sign_request(request)
    assert outcome.status == "aborted"
    assert "degenerate instance key" in outcome.reason
    need = len(request.payloads)
    assert _final_stocks(cluster, "memberA") == {p: s - need for p, s in stocks.items()}
    assert all(not node.objects for node in cluster.nodes.values())
    for node in cluster.nodes.values():
        entry = json.loads(node.audit_lines()[-1])
        assert (entry["event"], entry["reason"]) == ("sign_aborted", outcome.reason)
    assert verify_audit_completeness(cluster)
    cluster.close()


@pytest.mark.parametrize("scheme", [SchemeId.ADDITIVE_MAC, SchemeId.SHAMIR_CHECKED],
                         ids=["mascot", "mal-shamir"])
def test_peer_abort_naming_a_failed_mac_check_retires_no_epoch(scheme):
    # party 2 aborts round 1 of a request with the text of a failed MAC
    # check; only a node's own failed check may retire its epoch
    cluster = make_cluster(scheme)
    _, member_keys, roa = _issue_fixture(cluster)
    fired = []

    def hostile(session):
        if session.party_id == 2 and session.phase == PHASE_ONLINE and not fired:
            fired.append(session.session_id)
            session.abort("MAC check failed")

    with before_each_round(hostile):
        outcome = cluster.handle_sign_request(_issue_request(cluster, member_keys, roa))
        assert outcome.status == "aborted" and "MAC check failed" in outcome.reason
        assert all(cluster.epoch not in node.retired_epochs
                   for node in cluster.nodes.values())
        outcome = cluster.handle_sign_request(_issue_request(cluster, member_keys, roa))
        assert outcome.status == "published"
    cluster.close()


def test_short_peer_offer_aborts_sign_promptly():
    # party 2's round-1 note arrives empty, then with a well-formed tag of
    # zero ids, while every store holds three tuples: a peer fault, not a
    # depleted stock, and no other party journals a tuple
    cluster = make_cluster(timeout=30)
    cluster.keygen("m")
    cluster.preprocess_independent(3)
    cluster.preprocess_dependent("m", 3)
    for note, reason in [(lambda n: b"", "malformed tuple id payload"),
                         (lambda n: _id_tag([]) + n[20:], "short tuple id offer")]:
        started = time.perf_counter()
        with rewrite_frames(cluster, 2, PHASE_ONLINE, 1,
                            lambda p: rewrite_note(p, note)), \
                pytest.raises(SessionAbort, match=reason):
            cluster.run_signing("m", b"msg")
        assert time.perf_counter() - started < 5.0
        stocks = _final_stocks(cluster, "m")
        assert all(stocks[p] == 3 for p in cluster.participants if p != 2)
    cluster.close()


@pytest.mark.parametrize("phase", [PHASE_PREPROCESS_DEPENDENT, PHASE_ONLINE],
                         ids=["phase-3", "signing"])
def test_a_tuple_tag_that_is_not_20_bytes_aborts(phase):
    # party 2's round-1 tag loses its last byte: phase 3 checks the length
    # of every tag, and signing the length of every note, whose first 20
    # bytes are the tag
    cluster = make_cluster(timeout=30)
    cluster.keygen("m")
    cluster.preprocess_independent(4)
    if phase == PHASE_ONLINE:
        cluster.preprocess_dependent("m", 2)
    with rewrite_frames(cluster, 2, phase, 1, lambda p: rewrite_note(p, lambda n: n[:19])), \
            pytest.raises(SessionAbort, match="malformed tuple id payload"):
        if phase == PHASE_ONLINE:
            cluster.run_signing("m", b"msg")
        else:
            cluster.preprocess_dependent("m", 2)
    cluster.close()


@pytest.mark.parametrize("rewrite", [lambda p: p[:-1], lambda p: p + bytes(16)],
                         ids=["not-a-multiple-of-16", "past-the-window"])
@pytest.mark.parametrize("phase", [PHASE_PREPROCESS_DEPENDENT, PHASE_ONLINE],
                         ids=["phase-3", "signing"])
def test_a_malformed_realign_list_aborts(phase, rewrite):
    # party 1's store is one id ahead, so the round-1 tags differ and round 2
    # realigns; party 2's realign list loses a byte, or runs one id past the
    # window of count + 15 ids
    cluster = make_cluster(timeout=30)
    cluster.keygen("m")
    cluster.preprocess_independent(20)
    store1 = cluster.nodes[1].tuple_store
    if phase == PHASE_ONLINE:
        cluster.preprocess_dependent("m", 18)
        store1.checkout_final_by_id(store1.available_final_ids("m")[:1], "m")
    else:
        store1.checkout_initial_by_id(store1.available_initial_ids()[:1])
    with rewrite_frames(cluster, 2, phase, 2, rewrite), \
            pytest.raises(SessionAbort, match="malformed tuple id payload"):
        if phase == PHASE_ONLINE:
            cluster.run_signing("m", b"msg")
        else:
            cluster.preprocess_dependent("m", 2)
    cluster.close()


def test_request_refuses_an_empty_request_and_an_unknown_member_before_any_op():
    cluster = make_cluster()
    ops = []
    node = cluster.nodes[1]
    outcome = node.request(ops.append, "m", Action.ISSUE, [])
    assert (outcome.status, outcome.reason) == ("aborted", "empty request")
    outcome = node.request(ops.append, "m", Action.ISSUE, [b"payload"])
    assert (outcome.status, outcome.reason) == ("aborted", "no signing key for member")
    assert ops == []
    cluster.close()


def test_short_peer_offer_aborts_request():
    # party 2, not the initiator, sends a well-formed round-1 tag of zero ids
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED, timeout=30)
    _, member_keys, roa = _issue_fixture(cluster)
    request = _issue_request(cluster, member_keys, roa)
    stocks = _final_stocks(cluster, "memberA")
    started = time.perf_counter()
    with rewrite_frames(cluster, 2, PHASE_ONLINE, 1,
                        lambda p: rewrite_note(p, lambda n: _id_tag([]) + n[20:])):
        outcome = cluster.handle_sign_request(request)
    assert time.perf_counter() - started < 5.0
    assert outcome.status == "aborted"
    assert "short tuple id offer" in outcome.reason
    assert all(not node.objects for node in cluster.nodes.values())
    after = _final_stocks(cluster, "memberA")
    assert all(after[p] == stocks[p] for p in cluster.participants if p != 2)
    assert verify_audit_completeness(cluster)
    cluster.close()


def test_a_short_peer_fails_requests_until_it_drives_and_refills():
    # party 3 alone journaled its final ids (a crash after its checkout).
    # A driver whose own stock covers the request does not refill: party 3
    # raises from its own tag check, the others abort on its short offer,
    # and nothing is journaled, added or published.  The first request
    # party 3 drives refills every party and publishes
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED, timeout=30,
                           policy=ConsentPolicy(low_watermark=2, batch_size=4))
    _, member_keys, roa = _issue_fixture(cluster, stock=2)
    store3 = cluster.nodes[3].tuple_store
    store3.checkout_final_by_id(store3.available_final_ids("memberA"), "memberA")
    request = _issue_request(cluster, member_keys, roa)
    for _driver in (1, 2):
        stores = {p: (n.dir / "tuples.jsonl").read_bytes() for p, n in cluster.nodes.items()}
        with pytest.raises(StockDepletedError, match="final tuples for member 'memberA'"):
            cluster.handle_sign_request(request)
        for p, node in cluster.nodes.items():
            assert (node.dir / "tuples.jsonl").read_bytes() == stores[p]
            assert not node.objects
            if p != 3:
                entry = json.loads(node.audit_lines()[-1])
                assert (entry["event"], entry["reason"]) == ("sign_aborted",
                                                             "short tuple id offer")
    outcome = cluster.handle_sign_request(request)
    assert outcome.status == "published", outcome.reason
    assert all("roa-1.obj" in node.objects for node in cluster.nodes.values())
    assert verify_audit_completeness(cluster)
    cluster.close()


def test_request_path_counts_only_the_driving_nodes_stock(monkeypatch):
    # a deployed node cannot read another node's store: with every other
    # store's stock counts raising, a request that fits the stock, one that
    # refills, and an explicit refill all complete
    cluster = make_cluster(policy=ConsentPolicy(low_watermark=5, batch_size=4))
    _, member_keys, roa = _issue_fixture(cluster, stock=1)

    def only_counts_at(patch, driver):
        def elsewhere(*args, **kwargs):
            raise AssertionError(f"a stock count read away from party {driver}")
        for party, node in cluster.nodes.items():
            if party != driver:
                patch.setattr(node.tuple_store, "final_stock", elsewhere)
                patch.setattr(node.tuple_store, "initial_stock", elsewhere)

    # the rotation has party 1 drive the first request and party 2 the
    # second, which finds the stock drained; party 1 drives a refill
    for driver, serial in [(1, 1), (2, 2)]:
        with monkeypatch.context() as patch:
            only_counts_at(patch, driver)
            outcome = cluster.handle_sign_request(
                _issue_request(cluster, member_keys, replace(roa, serial=serial)))
        assert outcome.status == "published", outcome.reason
    with monkeypatch.context() as patch:
        only_counts_at(patch, 1)
        made = cluster.replenish("memberA")
    assert made["final"] == 4
    assert set(_final_stocks(cluster, "memberA").values()) == {7}
    cluster.close()


# --- phase 3: speculative tuple agreement ---------------------------------------------

def _journal_records(node):
    """Every consumption line of a node's tuple store, in file order."""
    lines = map(json.loads, (node.dir / "tuples.jsonl").read_text().splitlines())
    return [(rec["consume"], rec["id"]) for rec in lines if "consume" in rec]


@pytest.mark.parametrize("precompute_r", [False, True], ids=["plain", "precompute-r"])
@pytest.mark.parametrize("scheme, rounds", [
    (SchemeId.ADDITIVE_MAC, 3),
    (SchemeId.SHAMIR_CHECKED, 1),
    (SchemeId.SHAMIR, 1),
    (SchemeId.ADDITIVE, 1),
], ids=["mascot", "mal-shamir", "shamir", "semi"])
def test_dependent_preprocessing_round_count(scheme, rounds, precompute_r):
    # tuple ids ride on the Beaver round as a tag, and each c with its diffs:
    # one round for the opens, two MAC-check rounds under mascot, and one R
    # open with precompute_r
    cluster = LocalCluster(ProtocolConfig.for_scheme(scheme, precompute_r=precompute_r),
                           seed=57)
    cluster.keygen("m")
    cluster.preprocess_independent(3)
    with count_rounds(PHASE_PREPROCESS_DEPENDENT) as counts:
        assert cluster.preprocess_dependent("m", 3) == 3
    assert counts == {p: rounds + precompute_r for p in cluster.participants}
    cluster.close()


@pytest.mark.parametrize("scheme, rounds", [
    (SchemeId.ADDITIVE_MAC, 3),
    (SchemeId.SHAMIR_CHECKED, 1),
    (SchemeId.SHAMIR, 1),
    (SchemeId.ADDITIVE, 1),
], ids=["mascot", "mal-shamir", "shamir", "semi"])
def test_restock_round_count(scheme, rounds):
    # phase 2 runs no round; phase 3 opens c with the Beaver diffs
    cluster = LocalCluster(ProtocolConfig.for_scheme(scheme), seed=58,
                           policy=ConsentPolicy(low_watermark=1, batch_size=3))
    cluster.keygen("m")
    with count_rounds(PHASE_PREPROCESS_INDEPENDENT) as independent, \
            count_rounds(PHASE_PREPROCESS_DEPENDENT) as dependent:
        assert cluster.replenish("m") == {
            "initial": 4, "final": 3}
    assert independent == {}
    assert dependent == {p: rounds for p in cluster.participants}
    cluster.close()


@pytest.mark.parametrize("scheme, per_party", [
    # round 1: a 4-byte note length, the 20-byte tag and 6 bare 32-byte
    # values (c and the Beaver diff d per tuple); then a 32-byte MAC commit
    # and a 64-byte reveal
    (SchemeId.ADDITIVE_MAC, 1620),
    (SchemeId.SHAMIR_CHECKED, 988),
], ids=["mascot", "mal-shamir"])
def test_restock_wire_bytes(scheme, per_party):
    cluster = LocalCluster(ProtocolConfig.for_scheme(scheme), seed=58,
                           policy=ConsentPolicy(low_watermark=1, batch_size=3))
    cluster.keygen("m")
    before = cluster.hub.counters.snapshot()
    assert cluster.replenish("m") == {"initial": 4, "final": 3}
    after = cluster.hub.counters.snapshot()
    sent = {key: n - before.get(key, 0) for key, n in after.items() if n != before.get(key, 0)}
    round_one = FRAME_OVERHEAD + 4 + 20 + 6 * 32
    mac_check = 2 * FRAME_OVERHEAD + 32 + 64 if scheme.has_mac else 0
    assert per_party == 4 * (round_one + mac_check)
    assert sent == {p: per_party for p in cluster.participants}
    cluster.close()


def test_mascot_restock_computes_k_points_while_the_mac_check_is_in_flight(monkeypatch):
    # each party's every k * G of the batch falls between its commit frames
    # (round 2) leaving and its reveal frames (round 3) leaving
    cluster = make_cluster(SchemeId.ADDITIVE_MAC,
                           policy=ConsentPolicy(low_watermark=1, batch_size=3))
    cluster.keygen("m")
    events = []
    g_mul, send = algebra_module._g_mul, cluster.hub.send

    def recording_g_mul(*args):
        events.append((threading.get_ident(), "g_mul"))
        return g_mul(*args)

    def recording_send(sender, receiver, msg):
        if msg.phase == PHASE_PREPROCESS_DEPENDENT:
            events.append((threading.get_ident(), msg.round))
        send(sender, receiver, msg)

    monkeypatch.setattr(algebra_module, "_g_mul", recording_g_mul)
    monkeypatch.setattr(cluster.hub, "send", recording_send)
    assert cluster.replenish("m") == {"initial": 4, "final": 3}
    threads = {thread for thread, _ in events}
    assert len(threads) == len(cluster.participants)
    for thread in threads:
        mine = [what for t, what in events if t == thread]
        assert mine.count("g_mul") == 3
        assert mine == [1] * 4 + [2] * 4 + ["g_mul"] * 3 + [3] * 4
    cluster.close()


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.name)
def test_independent_preprocessing_is_local(scheme):
    cluster = LocalCluster(ProtocolConfig.for_scheme(scheme), seed=59)
    before = cluster.hub.counters.snapshot()
    with count_curve_ops() as ops:
        assert cluster.preprocess_independent(4) == 4
    assert cluster.hub.counters.snapshot() == before
    assert ops == []
    assert cluster.initial_stock() == 4
    cluster.close()


def test_agreed_initial_tuples_are_journaled_before_round_one():
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    cluster.keygen("m")
    cluster.preprocess_independent(4)
    journaled = {}

    def checking(session):
        if session.phase == PHASE_PREPROCESS_DEPENDENT and session.round == 0:
            journaled[session.party_id] = (
                cluster.nodes[session.party_id].tuple_store.consumed_ids())

    with before_each_round(checking):
        cluster.preprocess_dependent("m", 3)
    agreed = {(0, tid) for tid in
              cluster.nodes[1].tuple_store.available_final_ids("m")}
    assert len(agreed) == 3
    assert set(journaled) == set(cluster.participants)
    assert all(ids == agreed for ids in journaled.values())
    cluster.close()


def test_asymmetric_initial_stores_bind_through_the_fallback():
    # party 2 already journaled the lowest initial id (a crash after its
    # checkout): the tags differ, the realign burns the id party 2 lacks,
    # and the batch binds ids all stores still hold with fresh triples
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.ADDITIVE_MAC, test_mode=True),
                           seed=55)
    cluster.keygen("m")
    cluster.preprocess_independent(8)
    store2 = cluster.nodes[2].tuple_store
    ids = store2.available_initial_ids()
    store2.checkout_initial_by_id([ids[0]])
    with count_rounds(PHASE_PREPROCESS_DEPENDENT) as counts:
        results = cluster._run_op({"op": "preprocess-dependent", "member": "m", "count": 3})
    # the failed round, the realign, the fresh Beaver round and the MAC check
    assert counts == {p: 5 for p in cluster.participants}
    bound = [f.tuple_id for f in results[1]]
    assert bound == ids[4:7]  # ids[0..3] were speculated, or burned by the realign
    for node in cluster.nodes.values():
        assert node.tuple_store.available_initial_ids() == ids[7:]
        records = _journal_records(node)
        assert len(records) == len(set(records)) == 7
    with count_rounds(PHASE_PREPROCESS_DEPENDENT) as counts:
        assert cluster.preprocess_dependent("m", 1) == 1
    assert counts == {p: 3 for p in cluster.participants}  # the stores agree again
    sk = cluster.test_reconstruct_sk("m")
    for i, tid in enumerate(bound):
        sk_over_k = open_shares([results[p][i].sk_over_k_share for p in cluster.participants],
                                cluster.n_live, cluster.config.t)
        assert sk_over_k * cluster.test_reconstruct_k(tid) == sk
    cluster.close()


def test_short_party_aborts_the_batch_promptly_and_keeps_the_dealer_in_step():
    # party 2 holds one live initial tuple where the others hold three
    cluster = make_cluster(SchemeId.ADDITIVE_MAC, timeout=30)
    pk = cluster.keygen("m")
    cluster.preprocess_independent(3)
    store2 = cluster.nodes[2].tuple_store
    for tid in store2.available_initial_ids()[:2]:
        store2.checkout_initial_by_id([tid])
    started = time.perf_counter()
    with pytest.raises((StockDepletedError, SessionAbort)):
        cluster.preprocess_dependent("m", 2)
    assert time.perf_counter() - started < 5.0
    assert cluster.final_stock("m") == 0
    cluster.preprocess_independent(2)
    assert cluster.preprocess_dependent("m", 2) == 2
    results = cluster.run_signing("m", [b"one", b"two"])
    for message, res in zip([b"one", b"two"], results, strict=True):
        assert ecdsa_verify(pk, message, res.signature)
    cluster.close()


def test_flipped_tag_bit_falls_back_and_retires_no_epoch(monkeypatch):
    # party 2's first tag has one bit flipped: one realign round, and the
    # Beaver round again, bind the batch
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    pk = cluster.keygen("m")
    cluster.preprocess_independent(8)
    open_field = PartySession.open_field_batch
    flipped = []

    def flipping(self, shares, note=None, read_notes=None):
        if self.party_id == 2 and note is not None and not flipped:
            flipped.append(note)
            note = note[:-1] + bytes([note[-1] ^ 0x01])
        return open_field(self, shares, note, read_notes)

    monkeypatch.setattr(PartySession, "open_field_batch", flipping)
    with count_rounds(PHASE_PREPROCESS_DEPENDENT) as counts:
        assert cluster.preprocess_dependent("m", 2) == 2
    assert counts == {p: 5 for p in cluster.participants}
    assert all(cluster.epoch not in node.retired_epochs for node in cluster.nodes.values())
    result = cluster.run_signing("m", b"after the fallback")
    assert ecdsa_verify(pk, b"after the fallback", result.signature)
    cluster.close()


@pytest.mark.parametrize("scheme", [SchemeId.ADDITIVE_MAC, SchemeId.SHAMIR_CHECKED],
                         ids=["mascot", "mal-shamir"])
def test_batch_binds_when_one_store_fell_a_batch_behind(scheme):
    # parties 1, 3, 4 and 5 journaled their lowest 20 initial ids (a crash
    # after their checkout) and party 2 did not: the realign burns the ids
    # party 2 speculated, and the same call binds all 20
    cluster = LocalCluster(ProtocolConfig.for_scheme(scheme), seed=100)
    pk = cluster.keygen("m")
    cluster.preprocess_independent(60)
    ids = cluster.nodes[1].tuple_store.available_initial_ids(limit=60)
    for party in (1, 3, 4, 5):
        for tid in ids[:20]:
            cluster.nodes[party].tuple_store.checkout_initial_by_id([tid])
    assert cluster.preprocess_dependent("m", 20) == 20
    for node in cluster.nodes.values():
        assert node.tuple_store.available_final_ids("m", limit=60) == ids[40:]
        assert node.tuple_store.available_initial_ids() == []
    result = cluster.run_signing("m", b"after the realign")
    assert ecdsa_verify(pk, b"after the realign", result.signature)
    cluster.close()


def test_tag_wrong_again_after_the_realign_aborts(monkeypatch):
    # party 2 flips a bit of its tag in both Beaver rounds, the one before
    # the realign and the one after it: the batch aborts rather than realign
    # again
    cluster = make_cluster(SchemeId.ADDITIVE_MAC)
    cluster.keygen("m")
    cluster.preprocess_independent(8)
    open_field = PartySession.open_field_batch

    def flipping(self, shares, note=None, read_notes=None):
        if self.party_id == 2 and note is not None:
            note = note[:-1] + bytes([note[-1] ^ 0x01])
        return open_field(self, shares, note, read_notes)

    monkeypatch.setattr(PartySession, "open_field_batch", flipping)
    with count_rounds(PHASE_PREPROCESS_DEPENDENT) as counts, \
            pytest.raises(SessionAbort, match="tuple ids out of step"):
        cluster.preprocess_dependent("m", 2)
    assert counts == {p: 3 for p in cluster.participants}
    assert cluster.final_stock("m") == 0
    assert all(cluster.epoch not in node.retired_epochs for node in cluster.nodes.values())
    cluster.close()


def _signing_cluster_with_one_store_ahead(ahead):
    """mal-shamir with 60 final tuples, of which party 1 alone has journaled
    its lowest `ahead`; returns the cluster, its member key and the ids."""
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.SHAMIR_CHECKED), seed=7)
    pk = cluster.keygen("m")
    cluster.preprocess_independent(60)
    cluster.preprocess_dependent("m", 60)
    store1 = cluster.nodes[1].tuple_store
    ids = store1.available_final_ids("m", limit=60)
    for tid in ids[:ahead]:
        store1.checkout_final_by_id([tid], "m")
    return cluster, pk, ids


def test_signing_realigns_a_store_sixteen_ids_ahead():
    # party 1's store is 16 final ids ahead, the whole window of a one-tuple
    # realign list: the others burn those 16 and the same call signs
    cluster, pk, ids = _signing_cluster_with_one_store_ahead(16)
    with count_rounds(PHASE_ONLINE) as counts:
        result = cluster.run_signing("m", b"sixteen ahead")
    assert ecdsa_verify(pk, b"sixteen ahead", result.signature)
    assert result.tuple_id == ids[16]
    # tags with R shares, the realign, tags with R shares again, and s
    assert counts == {p: 4 for p in cluster.participants}
    for node in cluster.nodes.values():
        assert node.tuple_store.available_final_ids("m", limit=60) == ids[17:]
    cluster.close()


def test_tag_mismatch_decodes_no_r_share(monkeypatch):
    # party 1's store is one final id ahead, so the round-1 tags differ: no
    # party decodes a peer's R share of that round, only those sent after
    # the realign, and the realign burns the id party 1 lacks
    cluster, pk, ids = _signing_cluster_with_one_store_ahead(1)
    decoded, rounds = [], {}  # each party runs on a thread of its own
    decode = session_module._decode_point

    def tracking(session):
        rounds[threading.get_ident()] = session.round + 1

    def recording(data):
        decoded.append(rounds[threading.get_ident()])
        return decode(data)

    monkeypatch.setattr(session_module, "_decode_point", recording)
    with before_each_round(tracking):
        result = cluster.run_signing("m", b"one ahead")
    assert ecdsa_verify(pk, b"one ahead", result.signature)
    assert result.tuple_id == ids[1]
    n = len(cluster.participants)
    assert decoded == [3] * n * (n - 1)
    for node in cluster.nodes.values():
        assert node.tuple_store.available_final_ids("m", limit=60) == ids[2:]
    cluster.close()


def test_signing_heals_a_store_further_ahead_than_one_window():
    # party 1 is 20 ids ahead: the first call burns the others' window of 16
    # and aborts on the tags that still differ; the next calls sign
    cluster, pk, ids = _signing_cluster_with_one_store_ahead(20)
    with pytest.raises(SessionAbort, match="tuple ids out of step"):
        cluster.run_signing("m", b"twenty ahead")
    for i in range(4):
        result = cluster.run_signing("m", b"healed %d" % i)
        assert ecdsa_verify(pk, b"healed %d" % i, result.signature)
        assert result.tuple_id == ids[20 + i]
    cluster.close()


@pytest.mark.parametrize("hostile_list", [b"", b"\xff" * 16 * 17],
                         ids=["empty", "all-high"])
def test_hostile_realign_list_burns_at_most_the_window(hostile_list):
    # party 2's store is one final id ahead, so the tags differ, and its
    # realign list claims it lacks every id: each honest party burns its own
    # list of count + 15 ids and no more, and the stores heal on the next call
    cluster = make_cluster(SchemeId.SHAMIR_CHECKED, timeout=30)
    pk = cluster.keygen("m")
    cluster.preprocess_independent(40)
    cluster.preprocess_dependent("m", 40)
    store2 = cluster.nodes[2].tuple_store
    store2.checkout_final_by_id(store2.available_final_ids("m")[:1], "m")
    stocks = _final_stocks(cluster, "m")
    with rewrite_frames(cluster, 2, PHASE_ONLINE, 2, lambda p: hostile_list), \
            pytest.raises(SessionAbort, match="tuple ids out of step"):
        cluster.run_signing("m", [b"one", b"two"])
    after = _final_stocks(cluster, "m")
    assert all(stocks[p] - after[p] == 2 + 15 for p in cluster.participants if p != 2)
    assert after[2] == stocks[2]
    results = cluster.run_signing("m", [b"one", b"two"])
    for message, res in zip([b"one", b"two"], results, strict=True):
        assert ecdsa_verify(pk, message, res.signature)
    cluster.close()


def test_refill_retries_a_batch_that_ran_short_after_a_realign():
    # parties 1, 3, 4 and 5 journaled all 20 initial ids and party 2 none:
    # after the realign the batch is short everywhere, and the refill's
    # retry tops up initial stock and binds the batch
    cluster = LocalCluster(ProtocolConfig.for_scheme(SchemeId.ADDITIVE_MAC), seed=3,
                           policy=ConsentPolicy(low_watermark=1, batch_size=20))
    cluster.keygen("m")
    cluster.preprocess_independent(20)
    ids = cluster.nodes[1].tuple_store.available_initial_ids()
    for party in (1, 3, 4, 5):
        for tid in ids:
            cluster.nodes[party].tuple_store.checkout_initial_by_id([tid])
    made = cluster.replenish("m")
    assert made["final"] == 20
    assert cluster.final_stock("m") == 20
    cluster.close()


def test_concurrent_phases_never_share_a_session_id():
    # eight threads start phases at once, switching often: each phase takes
    # its own id from the boot's block, the block after the first boot's
    cluster = make_cluster()
    ids = []

    def starter():
        for _ in range(20):
            ids.extend(cluster._run_phase(PHASE_CONTROL, lambda node, s: s.session_id)
                       .values())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=starter) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(ids) == 8 * 20 * len(cluster.participants)
    assert sorted(set(ids)) == list(range((1 << 32) + 1, (1 << 32) + 1 + 8 * 20))
    cluster.close()


def test_concurrent_signing_and_replenishment_complete():
    cluster = make_cluster(policy=ConsentPolicy(low_watermark=2, batch_size=4))
    members = ["m1", "m2", "m3"]
    for m in members:
        cluster.keygen(m)
    cluster.preprocess_independent(12)
    for m in members:
        cluster.preprocess_dependent(m, 4)

    errors = []
    results = []

    def sign_loop(member):
        try:
            for i in range(3):
                results.append(cluster.run_signing(member, b"%s %d" % (member.encode(), i)))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def replenish_loop():
        try:
            for _ in range(2):
                cluster.replenish()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=sign_loop, args=(m,)) for m in members]
    threads.append(threading.Thread(target=replenish_loop))
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors
    assert len(results) == 9
    cluster.close()


def test_closed_cluster_without_a_data_dir_leaves_no_directory():
    cluster = make_cluster()
    cluster.keygen("m")
    data_dir = cluster.data_dir
    assert (data_dir / "cluster.json").exists()
    cluster.close()
    assert not data_dir.exists()


def test_reopened_durable_cluster_never_reissues_session_ids(tmp_path):
    def boot():
        cluster = make_cluster(data_dir=str(tmp_path))
        ids = set()
        send = cluster.hub.send

        def record(sender, receiver, msg):
            ids.add(msg.session_id)
            send(sender, receiver, msg)

        cluster.hub.send = record
        echo_round(cluster, b"a")
        echo_round(cluster, b"b")
        cluster.close()
        return ids

    first, second = boot(), boot()
    assert len(first) == len(second) == 2
    assert not first & second


_SIGNER = KeyPair.generate(rng)
_ANY_SIGNATURE = ecdsa_sign(_SIGNER.sk, b"any", rng=rng)


def _roa_object(serial):
    """A ROA object with a placeholder signature, for publish-path tests."""
    blob = encode_canonical(RoaRecord(
        serial=serial, member_id="m", asn=64512,
        prefixes=(IpPrefix.parse("192.0.2.0/24", 24),),
        not_before=1500000000, not_after=1600000000, ee_pk=_SIGNER.pk))
    return SignedObject(PayloadKind(blob[0]), blob, _ANY_SIGNATURE, _SIGNER.pk)


def test_concurrent_batches_all_reach_the_manifest(tmp_path):
    node = PartyNode(1, ProtocolConfig.for_scheme(SchemeId.SHAMIR), str(tmp_path), bytes(16))
    stale = []

    def publisher(first):
        for serial in range(first, first + 40):
            node.publish_batch([_roa_object(serial)])
            if f"roa-{serial}.obj" not in manifest.read_text():
                stale.append(serial)

    manifest = tmp_path / "objects" / "manifest.txt"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=publisher, args=(100 * k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not stale  # each publish returned with its object in the manifest
    listed = [line.split()[0] for line in manifest.read_text().splitlines()]
    assert sorted(listed) == sorted(node.objects)
    assert len(node.objects) == 320
    assert not list((tmp_path / "objects").glob("*.tmp"))
    node.close()


def test_torn_two_object_manifest_line_publishes_neither_object(tmp_path):
    config = ProtocolConfig.for_scheme(SchemeId.SHAMIR)
    node = PartyNode(1, config, str(tmp_path), bytes(16))
    first, second, third = (_roa_object(serial) for serial in (1, 2, 3))
    node.publish_batch([first])
    node.publish_batch([second, third])
    node.close()
    manifest = tmp_path / "objects" / "manifest.txt"
    one_object_line = f"roa-1.obj {first.digest.hex()}\n"
    assert manifest.read_text() == one_object_line + (
        f"roa-2.obj {second.digest.hex()} roa-3.obj {third.digest.hex()}\n")
    # a crash tears the second batch's line in its middle
    manifest.write_bytes(manifest.read_bytes()[:len(one_object_line) + 50])
    reopened = PartyNode(1, config, str(tmp_path), bytes(16))
    assert set(reopened.objects) == {"roa-1.obj"}
    assert manifest.read_text() == one_object_line  # the torn tail is cut off
    reopened.publish_batch([third])  # the next batch starts a line of its own
    reopened.close()
    again = PartyNode(1, config, str(tmp_path), bytes(16))
    assert set(again.objects) == {"roa-1.obj", "roa-3.obj"}
    again.close()


def test_republished_object_is_listed_once_and_loads(tmp_path):
    config = ProtocolConfig.for_scheme(SchemeId.SHAMIR)
    node = PartyNode(1, config, str(tmp_path), bytes(16))
    node.publish_batch([_roa_object(1)])
    node.publish_batch([_roa_object(1), _roa_object(2)])
    node.close()
    reopened = PartyNode(1, config, str(tmp_path), bytes(16))
    assert sorted(reopened.objects) == ["roa-1.obj", "roa-2.obj"]
    reopened.close()


def test_identity_consent_key_is_refused_at_registration(tmp_path):
    cluster = make_cluster(data_dir=str(tmp_path))
    with pytest.raises(ValidationError, match="identity"):
        cluster.register_member("memberA", GroupPoint.identity())
    assert not any(node.member_registry for node in cluster.nodes.values())
    cluster.close()


def test_request_under_identity_consent_key_aborts_as_invalid(tmp_path):
    cluster = make_cluster(data_dir=str(tmp_path))
    _, member_keys, roa = _issue_fixture(cluster)
    cluster.close()
    # a registry line from before registration refused the identity
    for party in range(1, 6):
        with open(tmp_path / f"party{party}" / "members.jsonl", "a") as out:
            out.write(json.dumps({"member": "memberA", "pk": "00"}) + "\n")
    reopened = make_cluster(data_dir=str(tmp_path))
    token = sign_consent(member_keys.sk, "memberA", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    outcome = reopened.handle_sign_request(SignRequest("memberA", Action.ISSUE, [roa], token))
    assert (outcome.status, outcome.reason) == ("aborted", "consent-invalid")
    assert not any(node.objects for node in reopened.nodes.values())
    assert verify_audit_completeness(reopened)
    reopened.close()


def test_torn_key_record_tail_is_cut_on_reopen(tmp_path):
    cluster = make_cluster(data_dir=str(tmp_path))
    pk = cluster.keygen("m")
    cluster.preprocess_independent(2)
    cluster.preprocess_dependent("m", 2)
    cluster.close()
    keys = tmp_path / "party1" / "keys.jsonl"
    with open(keys, "a") as out:
        out.write('{"epoch": "00", "member": "to')  # a crash mid-append
    cluster = make_cluster(data_dir=str(tmp_path))
    assert cluster.nodes[1].key_records["m"].pk == pk
    assert keys.read_text().endswith("}\n")
    assert ecdsa_verify(pk, b"after", cluster.run_signing("m", b"after").signature)
    cluster.close()


_BAD_LOG_LINES = {
    f"{log}-{kind}": (log, bad)
    for log in ("keys.jsonl", "members.jsonl", "tickets.jsonl")
    for kind, bad in [("not-json", b"not json"), ("missing-key", b'{"member": "a"}'),
                      ("not-utf8", b'{"member": "\xff"}')]
}
# the manifest is text, "name digest" pairs: only a line that is not UTF-8
# fails to decode
_BAD_LOG_LINES["manifest.txt-not-utf8"] = ("objects/manifest.txt", b"roa-\xff.obj 00")


def _node_with_every_log(data_dir):
    """A closed node whose every line log holds one whole line."""
    config = ProtocolConfig.for_scheme(SchemeId.SHAMIR)
    node = PartyNode(1, config, str(data_dir), bytes(16))
    pk = scalar_mul(FieldElement(7), GENERATOR)
    node.register_member("a", pk)
    node.store_key_record(KeyShareRecord("a", Share(SchemeId.SHAMIR, 1, FieldElement(3)), pk,
                                         bytes(16)))
    node._store_ticket(InterventionTicket("t", "a", Action.ISSUE, "consent-missing", 0.0,
                                          [b"x"]))
    node.publish_batch([])  # one manifest line, one audit line
    node.close()
    return config


@pytest.mark.parametrize("log, bad", list(_BAD_LOG_LINES.values()), ids=list(_BAD_LOG_LINES))
def test_node_log_line_that_does_not_decode_names_its_file_and_line(tmp_path, log, bad):
    # a whole second line that does not decode stops the load with one
    # error naming the file and the line, and the file is left as it is
    config = _node_with_every_log(tmp_path)
    path = tmp_path / log
    data = path.read_bytes() + bad + b"\n"
    path.write_bytes(data)
    with pytest.raises(RecordError, match=rf"{log} line 2 does not decode"):
        PartyNode(1, config, str(tmp_path), bytes(16))
    assert path.read_bytes() == data


def test_audit_line_that_does_not_decode_names_its_file_and_line(tmp_path):
    # the load only counts audit lines; reading them back names the bad one
    config = _node_with_every_log(tmp_path)
    path = tmp_path / "audit.jsonl"
    data = path.read_bytes() + b'{"event": "\xff"}\n'
    path.write_bytes(data)
    node = PartyNode(1, config, str(tmp_path), bytes(16))
    with pytest.raises(RecordError, match=r"audit.jsonl line 2 does not decode"):
        node.audit_lines()
    node.close()
    assert path.read_bytes() == data


def test_node_state_file_that_does_not_decode_names_itself(tmp_path):
    config = _node_with_every_log(tmp_path)
    path = tmp_path / "state.json"
    path.write_bytes(b"not json")
    with pytest.raises(RecordError, match=r"state.json does not decode"):
        PartyNode(1, config, str(tmp_path), bytes(16))
    assert path.read_bytes() == b"not json"


@pytest.mark.parametrize("cut", [lambda b: b[:2], lambda b: b[:10], lambda b: b + b"\x00"],
                         ids=["2-bytes", "10-bytes", "trailing-byte"])
def test_object_file_that_does_not_decode_names_itself(tmp_path, monkeypatch, cut):
    config = _node_with_every_log(tmp_path)
    node = PartyNode(1, config, str(tmp_path), bytes(16))
    signer = KeyPair.generate(rng)
    payload = encode_canonical(RoaRecord(1, "a", 64512, (IpPrefix.parse("192.0.2.0/24", 24),),
                                         1, 2, signer.pk))
    node.publish_batch([SignedObject(PayloadKind.ROA, payload,
                                     ecdsa_sign(signer.sk, payload, rng=rng), signer.pk)])
    node.close()
    path = tmp_path / "objects" / "roa-1.obj"
    data = cut(path.read_bytes())
    path.write_bytes(data)
    calls = []
    monkeypatch.setattr(rpki_module, "decode_canonical", calls.append)
    monkeypatch.setattr(node_module, "decode_canonical", calls.append)
    with pytest.raises(RecordError, match=r"roa-1.obj does not decode"):
        PartyNode(1, config, str(tmp_path), bytes(16))
    assert path.read_bytes() == data
    assert calls == []


def test_torn_audit_tail_is_cut_on_reopen(tmp_path):
    cluster = make_cluster(data_dir=str(tmp_path))
    _, member_keys, roa = _issue_fixture(cluster)
    cluster.close()
    audit = tmp_path / "party1" / "audit.jsonl"
    before = len(audit.read_text().splitlines())
    with open(audit, "a") as out:
        out.write('{"event": "consent_ver')  # a crash mid-append
    cluster = make_cluster(data_dir=str(tmp_path))
    token = sign_consent(member_keys.sk, "memberA", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    cluster.submit_consent(token)
    outcome = cluster.handle_sign_request(
        SignRequest("memberA", Action.ISSUE, [roa], token)
    )
    assert outcome.status == "published"
    entries = [json.loads(line) for line in cluster.nodes[1].audit_lines()]
    assert len(entries) > before
    assert [e["seq"] for e in entries] == list(range(1, len(entries) + 1))
    assert verify_audit_completeness(cluster)
    cluster.close()


def test_reopened_cluster_rebuilds_revocations_from_crl_objects(tmp_path):
    cluster = make_cluster(data_dir=str(tmp_path))
    _, member_keys, _ = _issue_fixture(cluster)
    for this_update, serials in ((1500000001, (1, 3)), (1500000002, (5,))):
        crl = CrlRecord("memberA", this_update, serials)
        token = sign_consent(member_keys.sk, "memberA", Action.REVOKE, [crl],
                             expiry=int(time.time()) + 600, rng=rng)
        cluster.submit_consent(token)
        outcome = cluster.handle_sign_request(
            SignRequest("memberA", Action.REVOKE, [crl], token)
        )
        assert outcome.status == "published"
    revoked = {p: n.revoked_serials() for p, n in cluster.nodes.items()}
    assert revoked[1] == {1, 3, 5}
    cluster.close()
    reopened = make_cluster(data_dir=str(tmp_path))
    assert {p: n.revoked_serials() for p, n in reopened.nodes.items()} == revoked
    assert not list(tmp_path.glob("party*/crl.json"))
    reopened.close()


def test_crls_sharing_this_update_both_survive_reopen(tmp_path):
    cluster = make_cluster(data_dir=str(tmp_path))
    _, member_keys, _ = _issue_fixture(cluster)
    for serials in ((1,), (2,)):
        crl = CrlRecord("memberA", 1500000001, serials)
        token = sign_consent(member_keys.sk, "memberA", Action.REVOKE, [crl],
                             expiry=int(time.time()) + 600, rng=rng)
        outcome = cluster.handle_sign_request(
            SignRequest("memberA", Action.REVOKE, [crl], token)
        )
        assert outcome.status == "published"
    assert cluster.nodes[1].revoked_serials() == {1, 2}
    cluster.close()
    reopened = make_cluster(data_dir=str(tmp_path))
    for node in reopened.nodes.values():
        assert node.revoked_serials() == {1, 2}
        assert sum(name.startswith("crl-") for name in node.objects) == 2
    reopened.close()


def test_a_crl_file_in_a_node_directory_revokes_nothing(tmp_path):
    # only published, quorum-signed CRL objects revoke; a plain file does not
    make_cluster(data_dir=str(tmp_path)).close()
    (tmp_path / "party2" / "crl.json").write_text(json.dumps({"memberA": [4, 9]}))
    reopened = make_cluster(data_dir=str(tmp_path))
    assert reopened.nodes[2].revoked_serials() == set()
    reopened.close()


def test_reopen_decodes_no_object_payload(tmp_path, monkeypatch):
    # revocations are read off the CRL objects when asked, so loading the
    # object store decodes no payload
    cluster = make_cluster(data_dir=str(tmp_path))
    _, member_keys, roa = _issue_fixture(cluster)
    token = sign_consent(member_keys.sk, "memberA", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    assert cluster.handle_sign_request(
        SignRequest("memberA", Action.ISSUE, [roa], token)).status == "published"
    cluster.close()
    calls = []
    real_decode = rpki_module.decode_canonical

    def counting_decode(blob):
        calls.append(blob)
        return real_decode(blob)

    monkeypatch.setattr(rpki_module, "decode_canonical", counting_decode)
    monkeypatch.setattr(node_module, "decode_canonical", counting_decode)
    reopened = make_cluster(data_dir=str(tmp_path))
    assert all(set(node.objects) == {"roa-1.obj"} for node in reopened.nodes.values())
    assert len(calls) == 0
    reopened.close()


def test_transfer_cut_before_its_manifest_leaves_old_roa_valid(tmp_path, monkeypatch):
    cluster = make_cluster(data_dir=str(tmp_path))
    _, member_keys, roa = _issue_fixture(cluster)
    token = sign_consent(member_keys.sk, "memberA", Action.ISSUE, [roa],
                         expiry=int(time.time()) + 600, rng=rng)
    assert cluster.handle_sign_request(
        SignRequest("memberA", Action.ISSUE, [roa], token)).status == "published"
    request = _transfer_request(cluster, member_keys, roa)
    real_replace = os.replace

    def killed_at_new_roa(src, dst):
        if str(dst).endswith("roa-2.obj"):
            raise CrashError("killed before the replacement ROA")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", killed_at_new_roa)
    with pytest.raises(CrashError, match="replacement ROA"):
        cluster.handle_sign_request(request)
    monkeypatch.undo()
    cluster.close()
    # the CRL delta reached every node's disk, but no manifest lists it
    assert all(list((tmp_path / f"party{p}" / "objects").glob("crl-*.obj"))
               for p in range(1, 6))
    reopened = make_cluster(data_dir=str(tmp_path))
    for node in reopened.nodes.values():
        assert set(node.objects) == {"roa-1.obj"}
        assert node.revoked_serials() == set()
    reopened.close()


def _fill_disk_at(monkeypatch, target, room=0):
    """Appends to `target` through the line-log helpers take `room` more
    bytes, then the write that finds the disk full stops halfway."""
    class Full:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            nonlocal room
            if len(data) <= room:
                room -= len(data)
                return self.handle.write(data)
            self.handle.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    real_open = open

    def full_open(path, mode="r"):
        handle = real_open(path, mode)
        return Full(handle) if str(path) == str(target) else handle

    monkeypatch.setattr(durable_module, "open", full_open, raising=False)


def test_failed_registry_append_is_cut_back_and_not_registered(tmp_path, monkeypatch):
    # party 1's disk fills halfway through memberB's registry line: the
    # append raises, the file is cut back to its previous size and memory
    # keeps no memberB, so the next line and a reopen both stay whole
    cluster = make_cluster(data_dir=str(tmp_path))
    first = KeyPair.generate(rng).pk
    cluster.register_member("memberA", first)
    registry = tmp_path / "party1" / "members.jsonl"
    before = registry.read_bytes()
    _fill_disk_at(monkeypatch, registry)
    with pytest.raises(OSError):
        cluster.register_member("memberB", KeyPair.generate(rng).pk)
    monkeypatch.undo()
    assert registry.read_bytes() == before
    assert cluster.nodes[1].member_registry == {"memberA": first}
    third = KeyPair.generate(rng).pk
    cluster.register_member("memberC", third)
    live = {p: dict(node.member_registry) for p, node in cluster.nodes.items()}
    cluster.close()
    reopened = make_cluster(data_dir=str(tmp_path))
    assert {p: node.member_registry for p, node in reopened.nodes.items()} == live
    assert live[1] == {"memberA": first, "memberC": third}
    reopened.close()


def test_full_registry_disk_at_one_node_still_registers_at_the_others(tmp_path, monkeypatch):
    # party 3's disk is full: the other four still register memberB and the
    # call raises; once the disk has room, a second call brings party 3 in
    cluster = make_cluster(data_dir=str(tmp_path))
    cluster.register_member("memberA", KeyPair.generate(rng).pk)
    key = KeyPair.generate(rng).pk
    _fill_disk_at(monkeypatch, tmp_path / "party3" / "members.jsonl")
    with pytest.raises(OSError):
        cluster.register_member("memberB", key)
    monkeypatch.undo()
    holders = {p for p, node in cluster.nodes.items() if "memberB" in node.member_registry}
    assert holders == {1, 2, 4, 5}
    cluster.register_member("memberB", key)
    live = {p: dict(node.member_registry) for p, node in cluster.nodes.items()}
    assert all(registry["memberB"] == key for registry in live.values())
    cluster.close()
    reopened = make_cluster(data_dir=str(tmp_path))
    assert {p: node.member_registry for p, node in reopened.nodes.items()} == live
    reopened.close()


def test_failed_ticket_approval_append_leaves_the_ticket_unapproved(tmp_path, monkeypatch):
    # an approval whose line a full disk cuts short is not held in memory
    # either, so approving again writes it, and a reopen keeps it
    cluster = make_cluster(data_dir=str(tmp_path),
                           policy=ConsentPolicy(flag_on_failed_consent=True))
    _issue_fixture(cluster)
    ticket = cluster.handle_sign_request(SignRequest(
        "memberA", Action.REVOKE, [CrlRecord("memberA", 1500000001, (1,))], None)).ticket_id
    tickets = tmp_path / "party1" / "tickets.jsonl"
    before = tickets.read_bytes()
    _fill_disk_at(monkeypatch, tickets)
    with pytest.raises(OSError):
        cluster.approve_ticket(ticket, 1)
    monkeypatch.undo()
    assert tickets.read_bytes() == before
    assert cluster.ticket_approvals(ticket) == 0
    assert cluster.approve_ticket(ticket, 1) == 1
    cluster.close()
    reopened = make_cluster(data_dir=str(tmp_path),
                            policy=ConsentPolicy(flag_on_failed_consent=True))
    assert reopened.ticket_approvals(ticket) == 1
    reopened.close()


def _store_holding(directory, ids):
    store = TupleStore(str(directory), party=1, epoch=bytes(16))
    store.add_initial(_initial_tuples(ids))
    return store


def _initial_tuples(ids):
    share = Share(SchemeId.SHAMIR, 1, FieldElement(5))
    return [InitialTuple(tid, bytes(16), share, FieldElement(6), share, share, share)
            for tid in ids]


def test_failed_journal_append_is_cut_back_and_the_tuple_stays_live(tmp_path, monkeypatch):
    # a full disk lands half of tuple 0's consumption line: the checkout
    # raises, the file is cut back and memory keeps tuple 0 unconsumed; a
    # later checkout writes a whole line of its own, which a reopen reads as
    # consumed, so no tuple comes back to sign a second message
    ids = [bytes([i]) * 16 for i in range(3)]
    store = _store_holding(tmp_path, ids)
    path = tmp_path / "tuples.jsonl"
    before = path.read_bytes()
    _fill_disk_at(monkeypatch, path)
    with pytest.raises(OSError):
        store.checkout_initial_by_id([ids[0]])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not store.initial_record(ids[0]).consumed
    assert store.available_initial_ids() == ids
    assert store.checkout_initial_by_id([ids[1]]) == [store.initial_record(ids[1])]
    store.close()
    reopened = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    assert reopened.consumed_ids() == {(0, ids[1])}
    assert reopened.available_initial_ids() == [ids[0], ids[2]]
    reopened.close()


@pytest.mark.parametrize("size, room", [(2, 0), (40, 20)],
                         ids=["full-at-once", "full-after-20-lines"])
def test_failed_tuple_add_holds_no_tuple(tmp_path, monkeypatch, size, room):
    # a batch whose lines a full disk cuts short is cut back and not held,
    # so adding it again is no duplicate, and a reopen reads it whole; a
    # disk with room for 20 of 40 lines holds none of them either
    store = _store_holding(tmp_path, [bytes(16)])
    batch = _initial_tuples([i.to_bytes(16, "big") for i in range(1, size + 1)])
    path = tmp_path / "tuples.jsonl"
    before = path.read_bytes()
    line = len(before.splitlines(keepends=True)[-1])
    _fill_disk_at(monkeypatch, path, room * line)
    with pytest.raises(OSError):
        store.add_initial(batch)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert store.initial_stock() == 1
    assert store.initial_record(batch[0].tuple_id) is None
    store.add_initial(batch)
    store.close()
    reopened = TupleStore(str(tmp_path), party=1, epoch=bytes(16))
    assert reopened.initial_stock() == 1 + size
    reopened.close()


@pytest.mark.parametrize("member", ["ACME Corp", "rir/acme"], ids=["space", "slash"])
def test_crl_of_a_free_text_issuer_publishes_and_reopens(tmp_path, member):
    # the issuer id is percent-encoded into the CRL's file name, so a space
    # splits no manifest line and a slash names no directory
    cluster = make_cluster(data_dir=str(tmp_path))
    _, member_keys, _ = _issue_fixture(cluster, member=member)
    crl = CrlRecord(member, 1600000000, (1,))
    token = sign_consent(member_keys.sk, member, Action.REVOKE, [crl],
                         expiry=int(time.time()) + 600, rng=rng)
    outcome = cluster.handle_sign_request(SignRequest(member, Action.REVOKE, [crl], token))
    assert outcome.status == "published", outcome.reason
    held = {p: dict(node.objects) for p, node in cluster.nodes.items()}
    cluster.close()
    crl_files = [f for f in tmp_path.rglob("*") if f.is_file() and "crl" in f.name]
    assert len(crl_files) == len(held)
    assert all(f.parent.name == "objects" and f.parent.parent.parent == tmp_path
               for f in crl_files)
    reopened = make_cluster(data_dir=str(tmp_path))
    for p, node in reopened.nodes.items():
        assert node.objects.keys() == held[p].keys() and len(held[p]) == 1
        assert node.revoked_serials() == {1}
    reopened.close()


def test_failed_registry_write_keeps_previous_registry(tmp_path, monkeypatch):
    cluster = make_cluster(data_dir=str(tmp_path))
    first = KeyPair.generate(rng).pk
    cluster.register_member("memberA", first)

    class Torn:
        # a file whose write is killed halfway through its line
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            self.handle.write(data[:len(data) // 2])
            raise CrashError("killed mid-append")

    monkeypatch.setattr(durable_module, "open",
                        lambda path, mode="r": Torn(open(path, mode)), raising=False)
    with pytest.raises(CrashError):
        cluster.register_member("memberB", KeyPair.generate(rng).pk)
    monkeypatch.undo()
    cluster.close()
    # the torn write is a final line without its newline, which the reopen cuts
    registry = tmp_path / "party1" / "members.jsonl"
    assert not registry.read_text().endswith("\n")
    reopened = make_cluster(data_dir=str(tmp_path))
    for node in reopened.nodes.values():
        assert node.member_registry == {"memberA": first}
    assert registry.read_text().count("\n") == 1 and registry.read_text().endswith("\n")
    reopened.close()


# --- determinism ------------------------------------------------------------------------

_FIXED_CLOCK = 1_600_000_000.0

# SHA-256 of the `_tree_listing` a `_fixed_seed_scenario` leaves, per scheme
_GOLDEN_TREES = {
    SchemeId.ADDITIVE: "60751fbacf22d6aa2fe24fd6c395692e4a4201a7ea5dcd67d4522082239268f5",
    SchemeId.ADDITIVE_MAC: "b084cef348dd6cc79a16074fef5c229c2d73f6cb5a5e85be581c5e8b2b24d307",
    SchemeId.SHAMIR: "df5b0bdbb6e53afa2b84037af852a364d45fd35a8273290c2b09dda8fbb29e56",
    SchemeId.SHAMIR_CHECKED: "11d4d530b8182ae7ad39c0639862c0737419f1eb1a735ffa1d53c6736b436cf1",
}


def _fixed_seed_scenario(scheme, data_dir, refused=False):
    """Keygen, a consented issue, an issue that refills a drained stock, a
    transfer, and a flagged revoke approved at a quorum of parties and completed,
    on a seeded cluster under a fixed clock; with `refused`, then an issue whose
    token a key the registry does not hold signed, which the votes refuse.
    Returns the outcome statuses."""
    keys_rng = random.Random(0x601D)
    cluster = LocalCluster(
        ProtocolConfig.for_scheme(scheme), data_dir=str(data_dir), seed=77,
        clock=lambda: _FIXED_CLOCK,
        policy=ConsentPolicy(flag_on_failed_consent=True, low_watermark=2, batch_size=4),
    )
    pk = cluster.keygen("det")
    cluster.preprocess_independent(2)
    cluster.preprocess_dependent("det", 2)
    member_keys = KeyPair.generate(keys_rng)
    cluster.register_member("det", member_keys.pk)

    def consented(action, payloads, transfer_id=None):
        token = sign_consent(member_keys.sk, "det", action, payloads,
                             expiry=int(_FIXED_CLOCK) + 600, rng=keys_rng)
        return cluster.handle_sign_request(
            SignRequest("det", action, payloads, token, transfer_id)).status

    roa = RoaRecord(serial=1, member_id="det", asn=64512,
                    prefixes=(IpPrefix.parse("192.0.2.0/24", 24),),
                    not_before=1500000000, not_after=1600000000, ee_pk=pk)
    statuses = [consented(Action.ISSUE, [roa])]
    while cluster.final_stock("det") > 0:
        cluster.run_signing("det", b"drain")
    statuses.append(consented(Action.ISSUE, [replace(roa, serial=2)]))
    plan = plan_transfer(roa, "memberB", 64513, new_serial=3, new_ee_pk=pk, rng=keys_rng)
    statuses.append(consented(Action.TRANSFER, [plan.crl_delta, plan.new_roa],
                              plan.transfer_id))
    flagged = cluster.handle_sign_request(
        SignRequest("det", Action.REVOKE, [CrlRecord("det", 1500000001, (2,))]))
    for party in cluster.participants[:cluster.config.quorum]:
        cluster.approve_ticket(flagged.ticket_id, party)
    statuses += [flagged.status, cluster.complete_ticket(flagged.ticket_id).status]
    if refused:
        member_keys = KeyPair.generate(keys_rng)
        statuses.append(consented(Action.ISSUE, [replace(roa, serial=4)]))
    cluster.close()
    return statuses


def _tree_listing(root):
    """One "path sha256" line per file under root, in path order."""
    return "".join(f"{p.relative_to(root).as_posix()} "
                   f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                   for p in sorted(root.rglob("*")) if p.is_file())


@pytest.mark.parametrize("scheme", list(SchemeId),
                         ids=["semi", "mascot", "shamir", "mal-shamir"])
def test_fixed_seed_runs_are_byte_identical(tmp_path, scheme):
    # every file of every party and cluster.json: the same on a second run,
    # and the same as the recorded digest, so a refactor that claims to
    # change no byte on disk can be held to it
    runs = []
    for name in ("first", "second"):
        statuses = _fixed_seed_scenario(scheme, tmp_path / name)
        assert statuses == ["published"] * 3 + ["flagged", "published"]
        runs.append(_tree_listing(tmp_path / name))
    assert runs[0] == runs[1]
    assert {line.split()[0].split("/")[0] for line in runs[0].splitlines()} == {
        "cluster.json", "party1", "party2", "party3", "party4", "party5"}
    digest = hashlib.sha256(runs[0].encode()).hexdigest()
    assert digest == _GOLDEN_TREES[scheme], runs[0]


@pytest.mark.parametrize("scheme", list(SchemeId),
                         ids=["semi", "mascot", "shamir", "mal-shamir"])
def test_every_round_of_every_op_is_one_broadcast_under_fresh_headers(
        tmp_path, monkeypatch, scheme):
    # every frame of keygen, a refill, a consented issue, a transfer, a
    # flagged revoke approved and completed, and a request the votes refuse:
    # a sender's frames of one round carry one payload to every receiver, and
    # no link sees one (session, phase, round) header twice, so a per-frame
    # nonce drawn from that header would never repeat
    frames = []
    send = InProcessHub.send

    def recording(hub, sender, receiver, msg):
        frames.append((sender, receiver, msg.session_id, msg.phase, msg.round, msg.payload))
        send(hub, sender, receiver, msg)

    monkeypatch.setattr(InProcessHub, "send", recording)
    statuses = _fixed_seed_scenario(scheme, tmp_path, refused=True)
    assert statuses == ["published"] * 3 + ["flagged", "published", "aborted"]
    payloads = {}
    for sender, _, session, phase, round_, payload in frames:
        payloads.setdefault((sender, session, phase, round_), set()).add(payload)
    assert frames and all(len(sent) == 1 for sent in payloads.values())
    headers = [frame[:5] for frame in frames]
    assert len(set(headers)) == len(headers)


def test_keygen_refuses_member_with_live_key():
    cluster = make_cluster()
    pk = cluster.keygen("m")
    with pytest.raises(TecdsaError, match="already has a live key"):
        cluster.keygen("m")
    assert all(node.key_records["m"].pk == pk for node in cluster.nodes.values())
    cluster.close()


def test_keygen_refuses_long_member_id():
    cluster = make_cluster()
    with pytest.raises(TecdsaError, match="longer than 16 bytes"):
        cluster.keygen("x" * 20)
    assert all(not node.key_records for node in cluster.nodes.values())
    cluster.close()


def test_party_node_run_rejects_unknown_op(tmp_path):
    config = ProtocolConfig.for_scheme(SchemeId.SHAMIR)
    node = PartyNode(1, config, str(tmp_path), bytes(16))
    hub = InProcessHub(derive_pair_keys(b"op", config.n, EPOCH))
    session = node.open_session(10, PHASE_CONTROL, range(1, 6),
                                hub.endpoint(1), timeout=0.1)
    with pytest.raises(TecdsaError, match="unknown op 'reshare'"):
        node.run({"op": "reshare"}, session)
    node.close()
