"""Synchronous round scheduling for one party within one protocol session.

A session is driven by a single activity per party.  Each round the party
sends one payload to every other participant, then blocks until all of their
round-r payloads arrive or the timeout elapses (security-with-abort: a silent
party aborts the session for everyone).

The session layer also implements the shared-value open primitives used by
every protocol phase, including the deferred MAC accounting for the
authenticated scheme.  An open sends each share as its bare value at a fixed
width, 32 bytes for a field value and 65 for a point (the identity as 65
zero bytes): the link an authenticated frame arrives on names the sender and
the session fixes the scheme, so neither goes on the wire.
"""

from __future__ import annotations

import secrets
from typing import Callable, Optional, Sequence

from ..algebra import POINT_BYTES, SCALAR_BYTES, AlgebraError, FieldElement, GroupPoint
from ..sharing import (
    BareShare,
    MacCheckAccumulator,
    MacKeyShare,
    ProtocolAbort,
    SchemeId,
    Share,
    mac_check_evaluate,
    mac_commit,
    open_point_shares,
    open_shares,
)
from .transport import PHASE_ABORT, SessionMessage


class SessionAbort(ProtocolAbort):
    """The session terminated without output (timeout, abort frame, failed check)."""


def _encode_point(point: GroupPoint) -> bytes:
    return point.to_bytes().ljust(POINT_BYTES, b"\0")


def _decode_point(data: bytes) -> GroupPoint:
    if data == bytes(POINT_BYTES):
        return GroupPoint.identity()
    return GroupPoint.from_bytes(data)


class PartySession:
    def __init__(
        self,
        party_id: int,
        participants: Sequence[int],
        session_id: int,
        phase: int,
        endpoint,
        scheme: SchemeId,
        t: int,
        timeout: float = 10.0,
        mac_key: Optional[MacKeyShare] = None,
        rng=None,
        epoch: bytes = b"",
    ) -> None:
        self.party_id = party_id
        self.participants = sorted(participants)
        self.session_id = session_id
        self.phase = phase
        self.endpoint = endpoint
        self.scheme = scheme
        self.t = t
        self.timeout = timeout
        self.mac_key = mac_key
        self.rng = rng
        self.round = 0
        self.dropped = 0
        # set when this party's own MAC check fails; a peer's abort never sets it
        self.mac_failed = False
        # the session counter is unique only within its epoch
        self.mac_accumulator = MacCheckAccumulator(epoch + session_id.to_bytes(8, "big"))
        self._buffered: dict[tuple[int, int], bytes] = {}
        self._high_water: dict[int, int] = {}

    @property
    def n_live(self) -> int:
        return len(self.participants)

    @property
    def peers(self) -> list[int]:
        return [p for p in self.participants if p != self.party_id]

    # --- rounds ---------------------------------------------------------

    def abort(self, reason: str) -> None:
        """Broadcast an abort frame (best effort) and raise."""
        msg = SessionMessage(self.session_id, PHASE_ABORT, self.round,
                             self.party_id, reason.encode())
        for peer in self.peers:
            try:
                self.endpoint.send(peer, msg)
            except Exception:
                pass
        raise SessionAbort(reason)

    def run_round(self, payload: bytes, *,
                  work: Optional[Callable[[], None]] = None) -> dict[int, bytes]:
        """Send `payload` to every peer; collect every peer's payload.

        A round sends the same bytes to every peer: every value a protocol
        phase sends is public to all of them, so no path sends a private
        one.  `work`, local computation that needs nothing of this round,
        runs once after every frame of the round has been sent and before
        any frame is read, so it overlaps the peers' frames in flight.
        """
        self.round += 1
        r = self.round
        msg = SessionMessage(self.session_id, self.phase, r, self.party_id, payload)
        for peer in self.peers:
            self.endpoint.send(peer, msg)
        if work is not None:
            self._run_work(work)

        received: dict[int, bytes] = {}
        for peer in list(self.peers):
            key = (peer, r)
            if key in self._buffered:
                received[peer] = self._buffered.pop(key)
        while len(received) < len(self.peers):
            msg = self.endpoint.recv(self.session_id, self.timeout)
            if msg is None:
                self.abort("party unavailable")
            if msg.phase == PHASE_ABORT:
                raise SessionAbort(
                    f"peer {msg.sender} aborted: {msg.payload.decode(errors='replace')}"
                )
            if msg.sender not in self.peers:
                self.dropped += 1
                continue
            if msg.round <= self._high_water.get(msg.sender, 0):
                self.dropped += 1  # replayed or stale round
                continue
            self._high_water[msg.sender] = msg.round
            if msg.round == r:
                received[msg.sender] = msg.payload
            else:
                self._buffered[(msg.sender, msg.round)] = msg.payload
        return received

    def _run_work(self, work: Callable[[], None]) -> None:
        """Run local work; if it raises, the session aborts for every peer."""
        try:
            work()
        except Exception as exc:
            self.abort(f"local work failed: {exc}")

    # --- opens ----------------------------------------------------------

    def _open_round(self, mine: Sequence, width: int, encode, decode, reconstruct,
                    note: Optional[bytes] = None, read_notes=None) -> list:
        """One broadcast round opening a batch of shared values, each of
        this party's share values `mine` going out as `encode(value)`, at
        `width` bytes.

        A `note` rides ahead of the shares behind its 4-byte length, and
        every party's note, this party's included, goes to `read_notes`
        before any share is decoded.  `read_notes` may return the senders:
        the parties whose shares the values are reconstructed from (by
        default every participant), which this party is among only if it
        sent shares; the payloads of the others are not read.  Every
        sender's payload must be exactly `width` bytes per value, each
        of which `decode` takes, or the session aborts; so does a failed
        reconstruction check.  A party that is not a sender takes the count
        of values from the first sender's payload.
        """
        payload = b"".join(encode(v) for v in mine)
        if note is not None:
            payload = len(note).to_bytes(4, "big") + note + payload
        replies = self.run_round(payload)
        senders = self.participants
        if note is not None:
            notes = {self.party_id: note}
            for peer, blob in replies.items():
                end = 4 + int.from_bytes(blob[:4], "big")
                if len(blob) < end:
                    self.abort("malformed open payload")
                notes[peer], replies[peer] = blob[4:end], blob[end:]
            chosen = read_notes(notes)
            if chosen is not None:
                senders = sorted(chosen)
        per_party, count = {}, None
        if self.party_id in senders:
            per_party[self.party_id], count = mine, len(mine)
        for peer in senders:
            if peer == self.party_id:
                continue
            blob = replies[peer]
            if count is None:
                count = len(blob) // width
            if len(blob) != width * count:
                self.abort("malformed open payload")
            try:
                per_party[peer] = [decode(blob[i:i + width]) for i in range(0, len(blob), width)]
            except AlgebraError:
                self.abort("malformed open payload")
        opened = []
        for i in range(count or 0):
            column = [BareShare(self.scheme, p, per_party[p][i]) for p in senders]
            try:
                opened.append(reconstruct(column, self.n_live, self.t))
            except ProtocolAbort as exc:
                self.abort(str(exc))
        return opened

    def open_field_batch(self, shares: Sequence[Share], note: Optional[bytes] = None,
                         read_notes=None) -> list[FieldElement]:
        """One broadcast round opening many values; MAC checks are deferred.

        Each share goes out as its bare 32-byte value: its MAC share stays
        here and enters the MAC accumulator beside the opened value.  For
        the checked Shamir scheme each reconstruction verifies polynomial
        consistency and aborts the session on a corrupted share.  A `note`
        and its reader ride on the round as in `_open_round`; an exception
        `read_notes` raises ends the open before any share is decoded, and
        nothing of it enters the MAC accumulator.
        """
        values = self._open_round([s.value for s in shares], SCALAR_BYTES,
                                  FieldElement.to_bytes, FieldElement.from_bytes,
                                  open_shares, note, read_notes)
        if self.scheme.has_mac:
            for value, share in zip(values, shares):
                self.mac_accumulator.record(value, share.mac)
        return values

    def open_point_batch(self, points: Sequence[GroupPoint], note: Optional[bytes] = None,
                         read_notes=None) -> list[GroupPoint]:
        """Open shares of curve points (one broadcast round, batched), each
        going out as its 65-byte encoding.

        A `note` and its reader ride on the round as in `_open_round`; an
        exception `read_notes` raises ends the open before any point is
        decoded or reconstructed.
        """
        return self._open_round(points, POINT_BYTES, _encode_point, _decode_point,
                                open_point_shares, note, read_notes)

    # --- deferred MAC check ----------------------------------------------

    def run_mac_check(self, work: Optional[Callable[[], None]] = None) -> None:
        """Commit/reveal check over every value opened since the last check.

        Must run before any opened value is stored or sent.  Values derived
        from unchecked opens may be computed while the check is in flight:
        `work` runs in the commit round, after this party's commit frames
        are sent, or at once when there is no check to run (a scheme
        without MACs, or nothing opened since the last check).  Whatever it
        computes is kept only once this returns.  A failed check sets
        `mac_failed` before the session aborts.
        """
        if not self.scheme.has_mac or len(self.mac_accumulator) == 0:
            if work is not None:
                self._run_work(work)
            return
        sigma = self.mac_accumulator.sigma(self.mac_key)
        if self.rng is not None:
            opening = self.rng.getrandbits(256).to_bytes(32, "big")
        else:
            opening = secrets.token_bytes(32)
        my_commit = mac_commit(sigma, opening)
        commit_replies = self.run_round(my_commit, work=work)
        commitments = {self.party_id: my_commit}
        for peer, blob in commit_replies.items():
            commitments[peer] = blob
        reveal_replies = self.run_round(sigma.value.to_bytes(32, "big") + opening)
        reveals = {self.party_id: (sigma, opening)}
        for peer, blob in reveal_replies.items():
            if len(blob) != 64:
                self.abort("malformed MAC reveal")
            reveals[peer] = (FieldElement(int.from_bytes(blob[:32], "big")), blob[32:])
        try:
            mac_check_evaluate(commitments, reveals)
        except ProtocolAbort as exc:
            self.mac_failed = str(exc) == "MAC check failed"
            self.abort(str(exc))
        self.mac_accumulator.clear()

