"""Point-to-point authenticated message transport.

Every message between a pair of parties is authenticated with HMAC-SHA-256
under a static pairwise key (the stand-in for TLS with authenticated
endpoints).  Frames with bad tags are dropped and counted, never surfaced.

Two providers:

  InProcessHub      deterministic in-memory delivery for a 5-node simulation,
                    with optional per-pair one-way latency injection.
  TcpNodeTransport  length-prefixed frames over real sockets, one node per
                    process (or per thread in tests).

Both deliver per-pair in order and demultiplex inbound messages by session id.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Optional

SESSION_ID_BYTES = 16
MAC_BYTES = 32
LENGTH_PREFIX_BYTES = 4
# length prefix | session id | phase | round | sender | payload length | hmac
FRAME_OVERHEAD = LENGTH_PREFIX_BYTES + SESSION_ID_BYTES + 1 + 4 + 1 + 4 + MAC_BYTES

PHASE_CONTROL = 0
PHASE_KEYGEN = 1
PHASE_PREPROCESS_INDEPENDENT = 2
PHASE_PREPROCESS_DEPENDENT = 3
PHASE_ONLINE = 4
PHASE_ABORT = 255

PHASE_TAGS = {
    PHASE_CONTROL: "control",
    PHASE_KEYGEN: "keygen",
    PHASE_PREPROCESS_INDEPENDENT: "preprocess_independent",
    PHASE_PREPROCESS_DEPENDENT: "preprocess_dependent",
    PHASE_ONLINE: "online",
    PHASE_ABORT: "control",
}


class TransportError(Exception):
    pass


@dataclass(frozen=True)
class SessionMessage:
    session_id: bytes
    phase: int
    round: int
    sender: int
    payload: bytes

    def signed_body(self) -> bytes:
        return (
            self.session_id
            + bytes([self.phase])
            + struct.pack(">I", self.round)
            + bytes([self.sender])
            + struct.pack(">I", len(self.payload))
            + self.payload
        )


def pair_key(keys: dict, a: int, b: int) -> bytes:
    return keys[(min(a, b), max(a, b))]


def derive_pair_keys(secret: bytes, n: int) -> dict:
    """Static per-pair keys from one shared setup secret (config plumbing)."""
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out[(i, j)] = hashlib.sha256(secret + bytes([i, j])).digest()
    return out


def encode_frame(msg: SessionMessage, key: bytes) -> bytes:
    body = msg.signed_body()
    tag = hmac_mod.new(key, body, hashlib.sha256).digest()
    frame = body + tag
    return struct.pack(">I", len(frame)) + frame


def decode_frame(frame_body: bytes, key: bytes) -> Optional[SessionMessage]:
    """Parse and authenticate one frame body (without the length prefix).

    Returns None when the tag (or structure) is invalid; callers drop and
    count.
    """
    if len(frame_body) < FRAME_OVERHEAD - LENGTH_PREFIX_BYTES:
        return None
    body, tag = frame_body[:-MAC_BYTES], frame_body[-MAC_BYTES:]
    expect = hmac_mod.new(key, body, hashlib.sha256).digest()
    if not hmac_mod.compare_digest(tag, expect):
        return None
    session_id = body[:16]
    phase = body[16]
    round_ = struct.unpack(">I", body[17:21])[0]
    sender = body[21]
    paylen = struct.unpack(">I", body[22:26])[0]
    payload = body[26:]
    if len(payload) != paylen:
        return None
    return SessionMessage(session_id, phase, round_, sender, payload)


class ByteCounters:
    """Per-party, per-phase sent-byte totals (whole frames, prefix included)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sent: dict[tuple[int, str], int] = {}

    def add(self, party: int, phase: int, nbytes: int) -> None:
        label = PHASE_TAGS.get(phase, "other")
        with self._lock:
            key = (party, label)
            self._sent[key] = self._sent.get(key, 0) + nbytes

    def snapshot(self) -> dict[tuple[int, str], int]:
        with self._lock:
            return dict(self._sent)


class InProcessHub:
    """In-memory point-to-point network between the parties of one cluster.

    `latency_ms[(i, j)]` injects a one-way delay on the i->j direction;
    absent pairs deliver immediately.  Delivery per pair is ordered and
    reliable.
    """

    def __init__(self, pair_keys: dict, latency_ms: Optional[dict] = None) -> None:
        self._pair_keys = pair_keys
        self.latency_ms = latency_ms or {}
        # per (receiver, session): (deliver_at, message) in delivery order
        self._boxes: dict[tuple[int, bytes], queue.Queue] = {}
        self._lock = threading.Lock()
        self.counters = ByteCounters()
        self.dropped_frames = 0

    def _box(self, receiver: int, session_id: bytes) -> queue.Queue:
        with self._lock:
            key = (receiver, session_id)
            if key not in self._boxes:
                self._boxes[key] = queue.Queue()
            return self._boxes[key]

    def send(self, sender: int, receiver: int, msg: SessionMessage) -> None:
        key = pair_key(self._pair_keys, sender, receiver)
        frame = encode_frame(msg, key)
        self.counters.add(sender, msg.phase, len(frame))
        self.deliver(sender, receiver, frame)

    def deliver(self, sender: int, receiver: int, frame: bytes) -> None:
        """Receive one encoded frame on the sender->receiver link.

        As in TcpNodeTransport's reader, a frame that fails authentication
        or names another sender is dropped and counted.
        """
        key = pair_key(self._pair_keys, sender, receiver)
        msg = decode_frame(frame[LENGTH_PREFIX_BYTES:], key)
        if msg is None or msg.sender != sender:
            with self._lock:
                self.dropped_frames += 1
            return
        delay = self.latency_ms.get((sender, receiver), 0.0) / 1000.0
        deliver_at = time.monotonic() + delay
        self._box(receiver, msg.session_id).put((deliver_at, msg))

    def recv(self, receiver: int, session_id: bytes,
             timeout: float) -> Optional[SessionMessage]:
        box = self._box(receiver, session_id)
        deadline = time.monotonic() + timeout
        try:
            remaining = max(0.0, deadline - time.monotonic())
            deliver_at, msg = box.get(timeout=remaining)
        except queue.Empty:
            return None
        now = time.monotonic()
        if deliver_at > now:
            time.sleep(deliver_at - now)
        return msg

    def drop(self, session_id: bytes) -> None:
        """Forget every mailbox of a session that has ended."""
        with self._lock:
            for key in [key for key in self._boxes if key[1] == session_id]:
                del self._boxes[key]

    def endpoint(self, party: int) -> "HubEndpoint":
        return HubEndpoint(self, party)


class HubEndpoint:
    """One party's view of the hub; satisfies the transport-endpoint protocol."""

    def __init__(self, hub: InProcessHub, party: int) -> None:
        self.hub = hub
        self.party = party

    def send(self, receiver: int, msg: SessionMessage) -> None:
        self.hub.send(self.party, receiver, msg)

    def recv(self, session_id: bytes, timeout: float) -> Optional[SessionMessage]:
        return self.hub.recv(self.party, session_id, timeout)


class TcpNodeTransport:
    """Socket transport for one party: full mesh, one connection per pair.

    Party i dials every peer with a larger index and accepts from smaller
    ones; a 1-byte hello names the dialing party.  A reader thread per
    connection demultiplexes authenticated frames into per-session queues.
    Frames failing authentication are dropped and counted.
    """

    def __init__(self, party: int, addresses: dict[int, tuple[str, int]],
                 pair_keys: dict, connect_timeout: float = 10.0) -> None:
        self.party = party
        self.addresses = addresses
        self._pair_keys = pair_keys
        self._conns: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._boxes: dict[bytes, "queue.Queue[SessionMessage]"] = {}
        self._boxes_lock = threading.Lock()
        self.counters = ByteCounters()
        self.dropped_frames = 0
        self._closing = False

        host, port = addresses[party]
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)

        accept_from = [p for p in addresses if p < party]
        dial_to = [p for p in addresses if p > party]
        deadline = time.monotonic() + connect_timeout
        errors: list[Exception] = []

        def do_accept() -> None:
            try:
                for _ in accept_from:
                    self._listener.settimeout(max(0.0, deadline - time.monotonic()))
                    conn, _addr = self._listener.accept()
                    conn.settimeout(max(0.0, deadline - time.monotonic()))
                    self._register(conn.recv(1)[0], conn)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        def do_dial() -> None:
            try:
                for peer in dial_to:
                    while True:
                        try:
                            s = socket.create_connection(self.addresses[peer], timeout=1.0)
                            break
                        except OSError:
                            if time.monotonic() > deadline:
                                raise
                            time.sleep(0.05)
                    s.sendall(bytes([party]))
                    self._register(peer, s)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=f, daemon=True) for f in (do_accept, do_dial)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(connect_timeout + 5)
        missing = sorted(set(addresses) - {party} - set(self._conns))
        if errors or missing:
            self.close()
            cause = errors[0] if errors else f"no connection to {missing}"
            raise TransportError(f"party {party} mesh setup failed: {cause}")

        for peer, conn in self._conns.items():
            reader = threading.Thread(target=self._read_loop, args=(peer, conn), daemon=True)
            reader.start()

    def _register(self, peer: int, conn: socket.socket) -> None:
        conn.settimeout(None)  # the reader blocks until a frame or close
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._conns[peer] = conn
        self._send_locks[peer] = threading.Lock()

    def _box(self, session_id: bytes) -> "queue.Queue[SessionMessage]":
        with self._boxes_lock:
            if session_id not in self._boxes:
                self._boxes[session_id] = queue.Queue()
            return self._boxes[session_id]

    def _read_loop(self, peer: int, conn: socket.socket) -> None:
        key = pair_key(self._pair_keys, self.party, peer)
        buf = b""
        while not self._closing:
            try:
                chunk = conn.recv(65536)
            except OSError:
                return
            if not chunk:
                return
            buf += chunk
            while len(buf) >= LENGTH_PREFIX_BYTES:
                frame_len = struct.unpack(">I", buf[:LENGTH_PREFIX_BYTES])[0]
                if len(buf) < LENGTH_PREFIX_BYTES + frame_len:
                    break
                body = buf[LENGTH_PREFIX_BYTES:LENGTH_PREFIX_BYTES + frame_len]
                buf = buf[LENGTH_PREFIX_BYTES + frame_len:]
                msg = decode_frame(body, key)
                if msg is None or msg.sender != peer:
                    self.dropped_frames += 1
                    continue
                self._box(msg.session_id).put(msg)

    def send(self, receiver: int, msg: SessionMessage) -> None:
        key = pair_key(self._pair_keys, self.party, receiver)
        frame = encode_frame(msg, key)
        self.counters.add(self.party, msg.phase, len(frame))
        conn = self._conns.get(receiver)
        if conn is None:
            raise TransportError(f"no connection to party {receiver}")
        with self._send_locks[receiver]:
            conn.sendall(frame)

    def recv(self, session_id: bytes, timeout: float) -> Optional[SessionMessage]:
        try:
            return self._box(session_id).get(timeout=timeout)
        except queue.Empty:
            return None

    def drop(self, session_id: bytes) -> None:
        """Forget the mailbox of a session that has ended."""
        with self._boxes_lock:
            self._boxes.pop(session_id, None)

    def close(self) -> None:
        self._closing = True
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
