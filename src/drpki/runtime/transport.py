"""Point-to-point authenticated message transport.

Every message between a pair of parties is authenticated with HMAC-SHA-256,
truncated to 16 bytes, under a per-epoch pairwise key.  Frames are
authenticated but sent in clear: unlike TLS, nothing is encrypted, so no
op may send a private value (ROADMAP item 21); keygen sends only its point
share of the public key.  A frame is a 4-byte length prefix, a fixed
11-byte header (8-byte session counter, phase, 2-byte round), the payload
and the tag, 31 bytes in all around the payload; the payload runs from the
header to the tag, so the prefix alone gives its length.  The sender is not
sent: the receiver knows it from the link, and the tag covers its byte
ahead of the header and the payload.  Pair keys are symmetric, so the
sender under the tag is what keeps a frame from being reflected back to
its sender; each pair key is a hash of the static pair key and the epoch,
so a frame of one epoch fails in every other.

Both providers receive through one `_Inbox` per party, which checks each
frame against its link's key and sender, drops and counts a frame whose tag
fails or whose session was already dropped, and queues the rest per session
in arrival order.

  InProcessHub      in-memory delivery between the parties of one cluster,
                    with optional per-pair one-way latency injection; its
                    `ByteCounters` counts the whole frames each party sends.
  TcpNodeTransport  frames over real sockets, one node per process (or per
                    thread in tests), a reader thread per connection.
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

TAG_BYTES = 16
_LENGTH = struct.Struct(">I")
# session counter | phase | round
_HEADER = struct.Struct(">QBH")
LENGTH_PREFIX_BYTES = _LENGTH.size
FRAME_OVERHEAD = LENGTH_PREFIX_BYTES + _HEADER.size + TAG_BYTES
MAX_ROUND = 0xFFFF
# a TCP length prefix above this is dropped and ends its link's reader; the
# largest payloads any op sends grow with its batch of N: a phase-3 batch
# sends 4 + 20 + 64*N bytes per peer, and a `precompute_r` R open 65*N
MAX_FRAME_BYTES = 16 << 20

PHASE_CONTROL = 0
PHASE_KEYGEN = 1
PHASE_PREPROCESS_INDEPENDENT = 2
PHASE_PREPROCESS_DEPENDENT = 3
PHASE_ONLINE = 4
PHASE_ABORT = 255


class TransportError(Exception):
    pass


@dataclass(frozen=True)
class SessionMessage:
    session_id: int
    phase: int
    round: int
    sender: int
    payload: bytes


def pair_key(keys: dict, a: int, b: int) -> bytes:
    return keys[(min(a, b), max(a, b))]


def derive_pair_keys(secret: bytes, n: int, epoch: bytes) -> dict:
    """Per-pair keys of one epoch from one shared setup secret (config
    plumbing): each is a hash of the static pair key and the epoch."""
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            static = hashlib.sha256(secret + bytes([i, j])).digest()
            out[(i, j)] = hashlib.sha256(static + epoch).digest()
    return out


def _tag(key: bytes, sender: int, body: bytes) -> bytes:
    """The first 16 bytes of HMAC-SHA-256 over the sender byte, then the
    header and the payload."""
    mac = hmac_mod.new(key, bytes([sender]), hashlib.sha256)
    mac.update(body)
    return mac.digest()[:TAG_BYTES]


def encode_frame(msg: SessionMessage, key: bytes) -> bytes:
    body = _HEADER.pack(msg.session_id, msg.phase, msg.round) + msg.payload
    return _LENGTH.pack(len(body) + TAG_BYTES) + body + _tag(key, msg.sender, body)


def decode_frame(frame_body: bytes, key: bytes, sender: int) -> Optional[SessionMessage]:
    """Parse and authenticate one frame body (without the length prefix)
    that arrived on `sender`'s link.

    Returns None when the tag (or structure) is invalid; callers drop and
    count.
    """
    if len(frame_body) < _HEADER.size + TAG_BYTES:
        return None
    body, tag = frame_body[:-TAG_BYTES], frame_body[-TAG_BYTES:]
    if not hmac_mod.compare_digest(tag, _tag(key, sender, body)):
        return None
    session_id, phase, round_ = _HEADER.unpack_from(body)
    return SessionMessage(session_id, phase, round_, sender, body[_HEADER.size:])


class ByteCounters:
    """Per-party sent-byte totals (whole frames, prefix included)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sent: dict[int, int] = {}

    def add(self, party: int, nbytes: int) -> None:
        with self._lock:
            self._sent[party] = self._sent.get(party, 0) + nbytes

    def snapshot(self) -> dict[int, int]:
        with self._lock:
            return dict(self._sent)


class _Inbox:
    """One party's receive side, shared by both transports: per-session
    queues of (deliver_at, message), and the count of frames dropped.

    Session ids are counters, issued from `first_session` up.  Every id
    below `_low` that holds no queue is dropped, and `_dropped` holds the
    dropped ids above it; `_low` moves up past each id that is dropped or
    open, so the two stay as small as the sessions open at once.  A frame
    for a dropped session is dropped and counted, and builds no queue.
    """

    def __init__(self, party: int, pair_keys: dict, first_session: int = 0) -> None:
        self.party = party
        self._pair_keys = pair_keys
        self._lock = threading.Lock()
        self._sessions: dict[int, queue.Queue] = {}
        self._low = first_session
        self._dropped: set[int] = set()
        self.dropped = 0

    def _queue(self, session_id: int) -> Optional[queue.Queue]:
        """The session's queue, built if need be; None once it is dropped."""
        with self._lock:
            box = self._sessions.get(session_id)
            if box is None:
                if session_id < self._low or session_id in self._dropped:
                    return None
                box = self._sessions[session_id] = queue.Queue()
            return box

    def put(self, sender: int, frame_body: bytes, delay_s: float = 0.0) -> None:
        """Take in one frame body from the sender's link, readable `delay_s`
        from now; a frame that fails authentication, or whose session is
        dropped, is dropped and counted."""
        msg = decode_frame(frame_body, pair_key(self._pair_keys, sender, self.party), sender)
        box = self._queue(msg.session_id) if msg is not None else None
        if box is None:
            self.count_dropped()
            return
        deliver_at = time.monotonic() + delay_s if delay_s else 0.0
        box.put((deliver_at, msg))

    def count_dropped(self) -> None:
        with self._lock:
            self.dropped += 1

    def recv(self, session_id: int, timeout: float) -> Optional[SessionMessage]:
        box = self._queue(session_id)
        if box is None:
            return None
        try:
            deliver_at, msg = box.get(timeout=timeout)
        except queue.Empty:
            return None
        wait = deliver_at - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        return msg

    def drop(self, session_id: int) -> None:
        """Forget the queue of a session that has ended, and refuse every
        later frame for it."""
        with self._lock:
            self._sessions.pop(session_id, None)
            if session_id >= self._low:
                self._dropped.add(session_id)
            while self._low in self._dropped or self._low in self._sessions:
                self._dropped.discard(self._low)
                self._low += 1


class InProcessHub:
    """In-memory point-to-point network between the parties of one cluster.

    `latency_ms[(i, j)]` injects a one-way delay on the i->j direction;
    absent pairs deliver immediately.  Delivery per pair is ordered and
    reliable.  `first_session` is the lowest session id the cluster will
    issue; a frame for any lower id is dropped.
    """

    def __init__(self, pair_keys: dict, latency_ms: Optional[dict] = None,
                 first_session: int = 0) -> None:
        self._pair_keys = pair_keys
        self.latency_ms = latency_ms or {}
        parties = {party for pair in pair_keys for party in pair}
        self._inboxes = {party: _Inbox(party, pair_keys, first_session) for party in parties}
        self.counters = ByteCounters()

    @property
    def dropped_frames(self) -> int:
        return sum(inbox.dropped for inbox in self._inboxes.values())

    def send(self, sender: int, receiver: int, msg: SessionMessage) -> None:
        frame = encode_frame(msg, pair_key(self._pair_keys, sender, receiver))
        self.counters.add(sender, len(frame))
        self.deliver(sender, receiver, frame)

    def deliver(self, sender: int, receiver: int, frame: bytes) -> None:
        """Receive one encoded frame on the sender->receiver link."""
        delay_s = self.latency_ms.get((sender, receiver), 0.0) / 1000.0
        self._inboxes[receiver].put(sender, frame[LENGTH_PREFIX_BYTES:], delay_s)

    def recv(self, receiver: int, session_id: int,
             timeout: float) -> Optional[SessionMessage]:
        return self._inboxes[receiver].recv(session_id, timeout)

    def drop(self, session_id: int) -> None:
        """Forget every party's queue of a session that has ended."""
        for inbox in self._inboxes.values():
            inbox.drop(session_id)

    def endpoint(self, party: int) -> "HubEndpoint":
        return HubEndpoint(self, party)


class HubEndpoint:
    """One party's view of the hub; satisfies the transport-endpoint protocol."""

    def __init__(self, hub: InProcessHub, party: int) -> None:
        self.hub = hub
        self.party = party

    def send(self, receiver: int, msg: SessionMessage) -> None:
        self.hub.send(self.party, receiver, msg)

    def recv(self, session_id: int, timeout: float) -> Optional[SessionMessage]:
        return self.hub.recv(self.party, session_id, timeout)


def _dial(address: tuple[str, int], deadline: float) -> socket.socket:
    """Connect to `address`, retrying until it listens or the deadline."""
    while True:
        try:
            return socket.create_connection(address, timeout=1.0)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


class TcpNodeTransport:
    """Socket transport for one party: full mesh, one connection per pair.

    Set-up runs in the constructor: party i dials every peer with a larger
    index, naming itself in a 1-byte hello, then accepts one connection from
    each smaller one; its listen backlog holds those that dial before it
    accepts.  A reader thread per connection feeds the party's inbox.
    """

    def __init__(self, party: int, addresses: dict[int, tuple[str, int]],
                 pair_keys: dict, connect_timeout: float = 10.0) -> None:
        self.party = party
        self._pair_keys = pair_keys
        self._inbox = _Inbox(party, pair_keys)
        self._conns: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._readers: list[threading.Thread] = []

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(addresses[party])
        self._listener.listen(len(addresses))
        deadline = time.monotonic() + connect_timeout
        try:
            for peer in sorted(p for p in addresses if p > party):
                conn = _dial(addresses[peer], deadline)
                conn.sendall(bytes([party]))
                self._register(peer, conn)
            for _ in range(sum(p < party for p in addresses)):
                self._listener.settimeout(max(0.0, deadline - time.monotonic()))
                conn, _addr = self._listener.accept()
                conn.settimeout(max(0.0, deadline - time.monotonic()))
                self._register(conn.recv(1)[0], conn)
            missing = sorted(set(addresses) - {party} - set(self._conns))
            if missing:
                raise TransportError(f"no connection to {missing}")
        except (OSError, IndexError, TransportError) as exc:
            self.close()
            raise TransportError(f"party {party} mesh setup failed: {exc}") from exc

        for peer, conn in self._conns.items():
            reader = threading.Thread(target=self._read_loop, args=(peer, conn), daemon=True)
            reader.start()
            self._readers.append(reader)

    def _register(self, peer: int, conn: socket.socket) -> None:
        conn.settimeout(None)  # the reader blocks until a frame or close
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._conns[peer] = conn
        self._send_locks[peer] = threading.Lock()

    def _read_loop(self, peer: int, conn: socket.socket) -> None:
        """Feed the inbox one length-prefixed frame at a time until the link
        ends; a frame cut short by the end is not counted.  A length above
        `MAX_FRAME_BYTES` counts one dropped frame and ends the link, whose
        framing can no longer be trusted."""
        try:
            with conn.makefile("rb") as stream:
                while True:
                    prefix = stream.read(LENGTH_PREFIX_BYTES)
                    if len(prefix) < LENGTH_PREFIX_BYTES:
                        return
                    (length,) = _LENGTH.unpack(prefix)
                    if length > MAX_FRAME_BYTES:
                        self._inbox.count_dropped()
                        return
                    body = stream.read(length)
                    if len(body) < length:
                        return
                    self._inbox.put(peer, body)
        except OSError:
            return

    @property
    def dropped_frames(self) -> int:
        return self._inbox.dropped

    def send(self, receiver: int, msg: SessionMessage) -> None:
        conn = self._conns.get(receiver)
        if conn is None:
            raise TransportError(f"no connection to party {receiver}")
        frame = encode_frame(msg, pair_key(self._pair_keys, self.party, receiver))
        with self._send_locks[receiver]:
            conn.sendall(frame)

    def recv(self, session_id: int, timeout: float) -> Optional[SessionMessage]:
        return self._inbox.recv(session_id, timeout)

    def drop(self, session_id: int) -> None:
        """Forget the queue of a session that has ended."""
        self._inbox.drop(session_id)

    def close(self) -> None:
        """Shut every connection down, which ends its reader, and wait for
        the readers; the reader's file keeps the socket open until then."""
        for conn in self._conns.values():
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self._listener.close()
        for reader in self._readers:
            reader.join()
