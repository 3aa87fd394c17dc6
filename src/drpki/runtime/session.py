"""Synchronous round scheduling for one party within one protocol session.

A session is driven by a single activity per party.  Each round the party
sends one payload to every other participant, then blocks until all of their
round-r payloads arrive or the timeout elapses (security-with-abort: a silent
party aborts the session for everyone).

The session layer also implements the shared-value open primitives used by
every protocol phase, including the deferred MAC accounting for the
authenticated scheme and a fault-injection hook used by the abort-soundness
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..algebra import FieldElement, GroupPoint
from ..sharing import (
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


@dataclass
class FaultPlan:
    """Test adversary: perturb this party's broadcast at the k-th opened value.

    kind 'value' adds 1 to the broadcast share (or G to a point share);
    kind 'mac' corrupts the MAC share fed into the deferred check instead.
    """

    opens_until_fault: int
    kind: str = "value"
    triggered: bool = False

    def take(self) -> bool:
        if self.triggered:
            return False
        if self.opens_until_fault == 0:
            self.triggered = True
            return True
        self.opens_until_fault -= 1
        return False


class PartySession:
    def __init__(
        self,
        party_id: int,
        participants: Sequence[int],
        session_id: bytes,
        phase: int,
        endpoint,
        scheme: SchemeId,
        t: int,
        timeout: float = 10.0,
        mac_key: Optional[MacKeyShare] = None,
        rng=None,
        fault_plan: Optional[FaultPlan] = None,
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
        self.fault_plan = fault_plan
        self.round = 0
        self.dropped = 0
        self.mac_accumulator = MacCheckAccumulator(session_id)
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

    def run_round(self, payloads: dict[int, bytes]) -> dict[int, bytes]:
        """Send this round's per-peer payloads; collect every peer's payload."""
        self.round += 1
        r = self.round
        for peer in self.peers:
            msg = SessionMessage(self.session_id, self.phase, r,
                                 self.party_id, payloads.get(peer, b""))
            self.endpoint.send(peer, msg)

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

    def broadcast(self, data: bytes) -> dict[int, bytes]:
        return self.run_round({peer: data for peer in self.peers})

    # --- opens ----------------------------------------------------------

    def _apply_fault_field(self, share: Share) -> Share:
        if self.fault_plan is None or not self.fault_plan.take():
            return share
        one = FieldElement.one(share.value.modulus)
        if self.fault_plan.kind == "mac" and share.mac is not None:
            return Share(share.scheme, share.owner, share.value,
                         share.mac + one, share.eval_point)
        return Share(share.scheme, share.owner, share.value + one,
                     share.mac, share.eval_point)

    def open_field_batch(self, shares: Sequence[Share]) -> list[FieldElement]:
        """One broadcast round opening many values; MAC checks are deferred.

        For the checked Shamir scheme each reconstruction verifies polynomial
        consistency and aborts the session on a corrupted share.
        """
        sent_shares = [self._apply_fault_field(s) for s in shares]
        width = 66 if self.scheme.has_mac else 34
        payload = b"".join(s.to_bytes() for s in sent_shares)
        replies = self.broadcast(payload)

        per_party: dict[int, list[Share]] = {self.party_id: list(sent_shares)}
        for peer, blob in replies.items():
            if len(blob) != width * len(shares):
                self.abort("malformed open payload")
            try:
                per_party[peer] = [
                    Share.from_bytes(blob[i * width:(i + 1) * width])
                    for i in range(len(shares))
                ]
            except Exception:
                self.abort("malformed open payload")
        values = []
        for i, original in enumerate(shares):
            column = [per_party[p][i] for p in self.participants]
            try:
                value = open_shares(column, self.n_live, self.t)
            except ProtocolAbort as exc:
                self.abort(str(exc))
            values.append(value)
            if self.scheme.has_mac:
                # authenticate with my true MAC share; a 'mac' fault corrupts it
                self.mac_accumulator.record(value, sent_shares[i].mac)
        return values

    def open_field(self, share: Share) -> FieldElement:
        return self.open_field_batch([share])[0]

    def open_point_batch(self, points: Sequence[GroupPoint]) -> list[GroupPoint]:
        """Open shares of curve points (one broadcast round, batched)."""
        from ..algebra import GENERATOR
        from ..sharing import PointShare

        sent = list(points)
        if self.fault_plan is not None:
            for i, p in enumerate(sent):
                if self.fault_plan.take():
                    sent[i] = p + GENERATOR
        blobs = []
        for p in sent:
            enc = p.to_bytes()
            blobs.append(bytes([len(enc)]) + enc)
        replies = self.broadcast(b"".join(blobs))

        per_party: dict[int, list[GroupPoint]] = {self.party_id: sent}
        for peer, blob in replies.items():
            out, off = [], 0
            try:
                for _ in range(len(points)):
                    ln = blob[off]
                    out.append(GroupPoint.from_bytes(blob[off + 1:off + 1 + ln]))
                    off += 1 + ln
            except Exception:
                self.abort("malformed point open payload")
            per_party[peer] = out
        opened = []
        for i in range(len(points)):
            column = [
                PointShare(self.scheme, p, per_party[p][i]) for p in self.participants
            ]
            try:
                opened.append(open_point_shares(column, self.n_live, self.t))
            except ProtocolAbort as exc:
                self.abort(str(exc))
        return opened

    def open_point(self, point: GroupPoint) -> GroupPoint:
        return self.open_point_batch([point])[0]

    # --- deferred MAC check ----------------------------------------------

    def run_mac_check(self) -> None:
        """Commit/reveal check over every value opened since the last check.

        Must run before any opened value is released to callers of the phase.
        """
        if not self.scheme.has_mac:
            return
        if len(self.mac_accumulator) == 0:
            return
        sigma = self.mac_accumulator.sigma(self.mac_key)
        if self.rng is not None:
            opening = self.rng.getrandbits(256).to_bytes(32, "big")
        else:
            import secrets

            opening = secrets.token_bytes(32)
        my_commit = mac_commit(sigma, opening)
        commit_replies = self.broadcast(my_commit)
        commitments = {self.party_id: my_commit}
        for peer, blob in commit_replies.items():
            commitments[peer] = blob
        reveal_replies = self.broadcast(sigma.value.to_bytes(32, "big") + opening)
        reveals = {self.party_id: (sigma, opening)}
        for peer, blob in reveal_replies.items():
            if len(blob) != 64:
                self.abort("malformed MAC reveal")
            reveals[peer] = (FieldElement(int.from_bytes(blob[:32], "big")), blob[32:])
        try:
            mac_check_evaluate(commitments, reveals)
        except ProtocolAbort as exc:
            self.abort(str(exc))
        self.mac_accumulator.clear()

