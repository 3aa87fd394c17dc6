"""Crash points, share faults, rewritten frames, a rushing party, bare rounds
and probes of rounds and curve work for tests, patched in at function
boundaries the code already has, for one `with` block only."""

import threading
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

from drpki import algebra, tecdsa
from drpki.algebra import GENERATOR, FieldElement, GroupPoint, scalar_mul
from drpki.runtime import node as node_module
from drpki.runtime.node import LocalCluster, PartyNode, _RequestGate
from drpki.runtime.session import PartySession
from drpki.runtime.transport import PHASE_CONTROL, PHASE_KEYGEN, SessionMessage


class CrashError(Exception):
    """An injected crash; the message names its crash point."""


# point -> (owner, function, strikes after it returns rather than on entry);
# an in-op point strikes in every node's thread, so no node waits out a timeout
CRASH_POINTS = {
    "after_keygen": (LocalCluster, "keygen", True),
    "after_preprocess_independent": (LocalCluster, "preprocess_independent", True),
    "after_preprocess_dependent": (LocalCluster, "preprocess_dependent", True),
    "after_sign": (node_module, "sign_online", True),  # `sign` and `request` ops
    "before_consent": (LocalCluster, "_request", False),
    "after_consent": (_RequestGate, "tally", True),
    "before_publish": (PartyNode, "publish_batch", False),
    "after_publish": (PartyNode, "publish_batch", True),
}


@contextmanager
def crash_at(point):
    """Raise `CrashError(point)` whenever the named step is reached."""
    owner, name, after = CRASH_POINTS[point]
    original = getattr(owner, name)

    def crash(*args, **kwargs):
        if after:
            original(*args, **kwargs)
        raise CrashError(point)

    with mock.patch.object(owner, name, crash):
        yield


@contextmanager
def inject_fault(party, opens_until_fault, kind="value"):
    """Make `party` broadcast a corrupted share of the opens_until_fault-th
    value it opens (from 0, field and point opens together): value + 1, MAC + 1
    (kind 'mac', MAC'd shares only; its own MAC check uses it too) or point
    + G.  Yields the plan; `plan.triggered` tells whether the fault fired."""
    plan = SimpleNamespace(left=opens_until_fault, triggered=False)
    open_field, open_points = PartySession.open_field_batch, PartySession.open_point_batch

    def faulted(session, items, corrupt):
        items = list(items)
        if session.party_id == party and not plan.triggered:
            if plan.left < len(items):
                items[plan.left] = corrupt(items[plan.left])
                plan.triggered = True
            plan.left -= len(items)
        return items

    def corrupt_share(share):
        one = FieldElement.one()
        if kind == "mac" and share.mac is not None:
            return replace(share, mac=share.mac + one)
        return replace(share, value=share.value + one)

    with mock.patch.multiple(
            PartySession,
            open_field_batch=lambda s, shares, *rest: open_field(
                s, faulted(s, shares, corrupt_share), *rest),
            open_point_batch=lambda s, points, *rest: open_points(
                s, faulted(s, points, lambda p: p + GENERATOR), *rest)):
        yield plan


@contextmanager
def rewrite_frames(cluster, sender, phase, round_, rewrite):
    """Make `sender` send rewrite(payload) to every peer in one round of one
    phase; `hub.send` is restored when the block ends."""
    send = cluster.hub.send

    def hostile(s, receiver, msg):
        if s == sender and msg.phase == phase and msg.round == round_:
            msg = replace(msg, payload=rewrite(msg.payload))
        send(s, receiver, msg)

    with mock.patch.object(cluster.hub, "send", hostile):
        yield


def rewrite_note(payload, rewrite):
    """An open payload with its note, behind the note's 4-byte length,
    replaced by rewrite(note); the shares behind the note are kept."""
    end = 4 + int.from_bytes(payload[:4], "big")
    note = rewrite(payload[4:end])
    return len(note).to_bytes(4, "big") + note + payload[end:]


@contextmanager
def rushing_point_share(party, pk):
    """Make `party` read every peer's frame of a `mascot` keygen, whose one
    round opens the public key, before it sends its own; it then sends the
    point share that makes the key every peer opens `pk`:
    pk - (the peers' point shares)."""
    run_round = PartySession.run_round

    def rushing(session, payload, *, work=None):
        if session.party_id != party or session.phase != PHASE_KEYGEN:
            return run_round(session, payload, work=work)
        session.round += 1
        received = {}
        while len(received) < len(session.peers):
            msg = session.endpoint.recv(session.session_id, session.timeout)
            if msg is None:
                session.abort("party unavailable")
            received[msg.sender] = msg.payload
        shown = GroupPoint.identity()
        for blob in received.values():
            shown = shown + GroupPoint.from_bytes(blob)
        payload = (pk + scalar_mul(-FieldElement.one(), shown)).to_bytes()
        for peer in session.peers:
            session.endpoint.send(peer, SessionMessage(session.session_id, session.phase,
                                                       session.round, party, payload))
        return received

    with mock.patch.object(PartySession, "run_round", rushing):
        yield


def echo_round(cluster, payload, mute=(), timeout=None, echo_back=False):
    """One broadcast round on every live party, optionally followed by an
    echo of what each received; a muted party sends nothing."""
    def fn(node, session):
        if node.party_id in mute:
            return {}
        got = session.run_round(payload)
        if echo_back:
            got = session.run_round(b"".join(got[p] for p in sorted(got)))
        return got

    return cluster._run_phase(PHASE_CONTROL, fn, timeout=timeout)


@contextmanager
def before_each_round(hook):
    """Call hook(session) before each round any party runs inside the block,
    while the session's `round` is still that of the round before."""
    run_round = PartySession.run_round

    def hooked(session, payload, *, work=None):
        hook(session)
        return run_round(session, payload, work=work)

    with mock.patch.object(PartySession, "run_round", hooked):
        yield


@contextmanager
def count_rounds(phase):
    """Count each party's rounds in sessions of `phase` inside the block.
    Yields the dict party -> rounds; a party that ran none is absent."""
    counts = {}

    def count(session):
        if session.phase == phase:
            counts[session.party_id] = counts.get(session.party_id, 0) + 1

    with before_each_round(count):
        yield counts


@contextmanager
def count_curve_ops():
    """Record the curve operations made in any thread inside the block: each
    outermost call of `algebra._combine` (every multi-scalar combination and
    every k * P for P other than G), `algebra._g_mul` (k * G) and
    `GroupPoint.__add__`.  Calls made inside `tecdsa.ecdsa_verify` are not
    recorded.  Yields the list of recorded function names."""
    ops = []
    depth = threading.local()

    def nested(original, name=None):
        def wrapper(*args, **kwargs):
            level = getattr(depth, "level", 0)
            if name is not None and level == 0:
                ops.append(name)
            depth.level = level + 1
            try:
                return original(*args, **kwargs)
            finally:
                depth.level = level
        return wrapper

    with mock.patch.object(algebra, "_combine", nested(algebra._combine, "_combine")), \
            mock.patch.object(algebra, "_g_mul", nested(algebra._g_mul, "_g_mul")), \
            mock.patch.object(GroupPoint, "__add__", nested(GroupPoint.__add__, "__add__")), \
            mock.patch.object(tecdsa, "ecdsa_verify", nested(tecdsa.ecdsa_verify)):
        yield ops
