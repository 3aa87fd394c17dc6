"""Simplified RPKI object model: ROAs, EE-cert stand-ins, CRLs, TALs, consent.

Objects use one canonical, injective binary encoding (type tag, version, then
length-prefixed fields in declaration order) instead of DER templates; the
revocation semantics of the real formats are preserved by embedding each
object's end-entity serial and revoking serials through CRLs.  One layout
table per record type drives both `encode_canonical` and `decode_canonical`,
and decoding accepts only what encoding writes: any other input, cut short,
padded or with a field that does not decode, raises `ValidationError`.  The
length-prefixed field framing (`frame_fields` / `split_fields`) is also the
framing of consent bodies and of a request's payload list.

Consent tokens are the member-authorization artifact gating every signing
run: a member signs (member id, action, digest of the exact payloads,
expiry) with their registered single-party key, and the token carries that
signature's nonce point R for the nodes' known-R check.  An IP-space
transfer needs consent over BOTH the revoking CRL delta and the replacement
ROA, so its token digest covers the pair.
"""

from __future__ import annotations

import base64
import hashlib
import ipaddress
import secrets
import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .algebra import (
    SCALAR_BYTES,
    AlgebraError,
    FieldElement,
    GroupPoint,
    Signature,
    ecdsa_sign_with_r,
    ecdsa_verify,
)

ENCODING_VERSION = 1

TAG_ROA = 1
TAG_CRL = 2
TAG_CERT = 3
TAG_CONSENT = 4


class ValidationError(Exception):
    """An object violates a structural invariant; the message names the rule."""


class Action(Enum):
    ISSUE = 1
    REVOKE = 2
    TRANSFER = 3


class PayloadKind(Enum):
    ROA = TAG_ROA
    CRL = TAG_CRL
    CERT = TAG_CERT


class DeploymentMode(Enum):
    HIERARCHICAL = "hierarchical"  # two layers under a distributed trust anchor
    FLAT = "flat"                  # EE objects only, no CA certificates


class ConsentVerdict(Enum):
    OK = "ok"
    MISSING = "missing"
    INVALID = "invalid"


class ObjectVerdict(Enum):
    VALID = "valid"
    REVOKED = "revoked"
    BAD_SIGNATURE = "bad-signature"
    FORBIDDEN_KIND = "forbidden-kind"


@dataclass(frozen=True, order=True)
class IpPrefix:
    """(family, 16-byte-padded address, prefix length, max length)."""

    family: int
    address: bytes
    length: int
    max_length: int

    @classmethod
    def parse(cls, text: str, max_length: Optional[int] = None) -> "IpPrefix":
        net = ipaddress.ip_network(text)
        family = 4 if net.version == 4 else 6
        addr = net.network_address.packed
        addr = addr + b"\x00" * (16 - len(addr))
        return cls(family, addr, net.prefixlen,
                   max_length if max_length is not None else net.prefixlen)

    def __str__(self) -> str:
        width = 4 if self.family == 4 else 16
        ip = ipaddress.ip_address(self.address[:width])
        return f"{ip}/{self.length}-{self.max_length}"

    def check(self) -> None:
        width_bits = 32 if self.family == 4 else 128
        if self.family not in (4, 6):
            raise ValidationError(f"unknown address family {self.family}")
        if len(self.address) != 16:
            raise ValidationError("prefix address must be 16 bytes (zero padded)")
        if not (0 < self.length <= width_bits):
            raise ValidationError(f"prefix length {self.length} out of range")
        if not (self.length <= self.max_length <= width_bits):
            raise ValidationError(
                f"max-length {self.max_length} must lie in [{self.length}, {width_bits}]"
            )


def _check_u64(record, *names: str) -> None:
    """Each named field of `record` must fit its 64-bit wire field."""
    for name in names:
        if not 0 <= getattr(record, name) < 2**64:
            raise ValidationError(f"{name} must fit in 64 bits")


@dataclass(frozen=True)
class RoaRecord:
    """Authorization for exactly one AS to originate the listed prefixes."""

    serial: int
    member_id: str
    asn: int
    prefixes: tuple[IpPrefix, ...]
    not_before: int
    not_after: int
    ee_pk: GroupPoint

    def check(self) -> None:
        if not (0 <= self.asn < 2**32):
            raise ValidationError("ASN must fit in 32 bits")
        if not self.prefixes:
            raise ValidationError("ROA needs at least one prefix")
        for p in self.prefixes:
            p.check()
        if list(self.prefixes) != sorted(set(self.prefixes)):
            raise ValidationError("prefixes must be strictly sorted without duplicates")
        _check_u64(self, "serial", "not_before", "not_after")
        if not self.not_before < self.not_after:
            raise ValidationError("not_before must precede not_after")


@dataclass(frozen=True)
class CrlRecord:
    """Revocation delta or full list: strictly increasing EE serials."""

    issuer_id: str
    this_update: int
    revoked_serials: tuple[int, ...]

    def check(self) -> None:
        serials = list(self.revoked_serials)
        if serials != sorted(set(serials)):
            raise ValidationError("revoked serials must be strictly increasing")
        _check_u64(self, "this_update")
        for s in serials:
            if s < 0 or s >= 2**64:
                raise ValidationError("serial must fit in 64 bits")


@dataclass(frozen=True)
class EeCertRecord:
    """Stand-in for an end-entity certificate: (serial, subject key, validity)."""

    serial: int
    member_id: str
    subject_pk: GroupPoint
    not_before: int
    not_after: int

    def check(self) -> None:
        _check_u64(self, "serial", "not_before", "not_after")
        if not self.not_before < self.not_after:
            raise ValidationError("not_before must precede not_after")


PayloadRecord = Union[RoaRecord, CrlRecord, EeCertRecord]


@dataclass(frozen=True)
class ConsentToken:
    """A member's signed approval of one action on the exact payloads.

    `r_point` is the nonce point R that `member_signature` was made with.
    Carrying it lets every node check the token with the known-R equation
    (Antipa et al., SAC 2005), half the doublings of plain ECDSA.  That
    check is no weaker: R must have x = r (mod n) and equal exactly
    H/s * G + r/s * C, so plain ECDSA accepts every token it accepts, and R
    is fixed by (r, s, body, key), so carrying it adds no malleability.
    """

    member_id: str
    action: Action
    object_digest: bytes  # 32-byte digest over the exact payloads approved
    expiry: int
    member_signature: Signature
    r_point: GroupPoint


@dataclass(frozen=True)
class SignedObject:
    payload_kind: PayloadKind
    payload: bytes
    signature: Signature
    signer_pk: GroupPoint

    @property
    def digest(self) -> bytes:
        return hashlib.sha256(self.payload).digest()

    def verify(self) -> bool:
        return ecdsa_verify(self.signer_pk, self.payload, self.signature)

    def record(self) -> PayloadRecord:
        return decode_canonical(self.payload)

    def to_bytes(self) -> bytes:
        return (frame_fields((self.payload,)) + self.signature.to_bytes()
                + self.signer_pk.to_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SignedObject":
        """Undo `to_bytes`, leaving the payload undecoded; a blob that
        `to_bytes` could not have written raises ValidationError."""
        plen = _U32.unpack_from(blob)[0] if len(blob) >= _U32.size else 0
        end = _U32.size + plen
        if not plen or end + 2 * SCALAR_BYTES > len(blob):
            raise ValidationError("truncated signed object")
        try:
            return cls(PayloadKind(blob[_U32.size]), blob[_U32.size:end],
                       Signature.from_bytes(blob[end:end + 2 * SCALAR_BYTES]),
                       GroupPoint.from_bytes(blob[end + 2 * SCALAR_BYTES:]))
        except (ValueError, AlgebraError) as exc:
            raise ValidationError(f"malformed signed object: {exc}") from exc


@dataclass(frozen=True)
class TrustAnchorLocator:
    repository_uri: str
    subject_public_key: GroupPoint

    def to_text(self) -> str:
        key_b64 = base64.b64encode(self.subject_public_key.to_bytes()).decode()
        return f"{self.repository_uri}\n{key_b64}\n"

    @classmethod
    def from_text(cls, text: str) -> "TrustAnchorLocator":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValidationError("TAL must be a URI line and a base64 key line")
        try:
            key = GroupPoint.from_bytes(base64.b64decode(lines[1]))
        except (ValueError, AlgebraError) as exc:
            raise ValidationError(f"TAL key line: {exc}") from exc
        return cls(lines[0].strip(), key)


# --- canonical encoding -------------------------------------------------------

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def frame_fields(parts: Iterable[bytes]) -> bytes:
    """Each part behind its 4-byte big-endian length, in order: the one field
    framing of records, consent bodies and a request's payload list."""
    return b"".join(_U32.pack(len(part)) + part for part in parts)


def split_fields(data: bytes) -> list[bytes]:
    """Undo `frame_fields`; a length that runs past the end raises
    ValidationError."""
    parts, off, end = [], 0, len(data)
    while off < end:
        if end - off < _U32.size:
            raise ValidationError("truncated field length")
        start = off + _U32.size
        off = start + _U32.unpack_from(data, off)[0]
        if off > end:
            raise ValidationError("truncated field")
        parts.append(data[start:off])
    return parts


def _fixed(codec: struct.Struct):
    """An unsigned integer field, read at exactly its width."""
    def decode(data: bytes) -> int:
        if len(data) != codec.size:
            raise ValidationError(f"field must be {codec.size} bytes, got {len(data)}")
        return codec.unpack(data)[0]
    return codec.pack, decode


def _counted(count: struct.Struct, item: struct.Struct, to_fields, from_fields):
    """A list behind its count, each item at the fixed width of `item`; the
    field holds exactly the counted items."""
    def encode(values) -> bytes:
        return count.pack(len(values)) + b"".join(item.pack(*to_fields(v)) for v in values)

    def decode(data: bytes) -> tuple:
        if (len(data) < count.size
                or len(data) != count.size + item.size * count.unpack_from(data)[0]):
            raise ValidationError("list field does not hold its counted items")
        return tuple(from_fields(*fields) for fields in item.iter_unpack(data[count.size:]))
    return encode, decode


_UINT32, _UINT64 = _fixed(_U32), _fixed(_U64)
_TEXT = (str.encode, bytes.decode)
_POINT = (GroupPoint.to_bytes, GroupPoint.from_bytes)
_PREFIXES = _counted(struct.Struct(">H"), struct.Struct(">B16sBB"),
                     lambda p: (p.family, p.address, p.length, p.max_length), IpPrefix)
_SERIALS = _counted(_U32, _U64, lambda serial: (serial,), lambda serial: serial)

# One wire layout per record type: its tag, then (attribute, (encode,
# decode)) for each field, in encoding order.  An encoding is the tag, the
# version, then each field behind its length (`frame_fields`).  Both
# directions read this table and nothing else, so they cannot drift, and
# every decode takes exactly what its encode writes: fixed widths at their
# width, lists at their counted length, text as strict UTF-8, points on the
# curve.  A text or point decode raises its own error, which
# `decode_canonical` turns into ValidationError.
_LAYOUTS = {
    RoaRecord: (TAG_ROA, (
        ("serial", _UINT64), ("member_id", _TEXT), ("asn", _UINT32),
        ("prefixes", _PREFIXES), ("not_before", _UINT64), ("not_after", _UINT64),
        ("ee_pk", _POINT))),
    CrlRecord: (TAG_CRL, (
        ("issuer_id", _TEXT), ("this_update", _UINT64), ("revoked_serials", _SERIALS))),
    EeCertRecord: (TAG_CERT, (
        ("serial", _UINT64), ("member_id", _TEXT), ("subject_pk", _POINT),
        ("not_before", _UINT64), ("not_after", _UINT64))),
}
_BY_TAG = {tag: (cls, fields) for cls, (tag, fields) in _LAYOUTS.items()}


def encode_canonical(obj: PayloadRecord) -> bytes:
    """Deterministic, injective byte encoding; validates invariants first."""
    layout = _LAYOUTS.get(type(obj))
    if layout is None:
        raise ValidationError(f"unencodable object type {type(obj).__name__}")
    obj.check()
    tag, fields = layout
    return bytes((tag, ENCODING_VERSION)) + frame_fields(
        encode(getattr(obj, name)) for name, (encode, _) in fields)


def decode_canonical(blob: bytes) -> PayloadRecord:
    """The record whose encoding is exactly `blob`; any other input raises
    ValidationError."""
    if len(blob) < 2:
        raise ValidationError("truncated encoding")
    tag, version = blob[0], blob[1]
    if version != ENCODING_VERSION:
        raise ValidationError(f"unsupported encoding version {version}")
    if tag not in _BY_TAG:
        raise ValidationError(f"unknown object tag {tag}")
    cls, fields = _BY_TAG[tag]
    parts = split_fields(blob[2:])
    if len(parts) != len(fields):
        raise ValidationError(f"{cls.__name__} takes {len(fields)} fields, got {len(parts)}")
    try:
        obj = cls(**{name: decode(part) for (name, (_, decode)), part in zip(fields, parts)})
    except (UnicodeDecodeError, AlgebraError) as exc:  # text not UTF-8, point off the curve
        raise ValidationError(f"{cls.__name__} field does not decode: {exc}") from exc
    obj.check()
    return obj


def object_digest(obj: PayloadRecord) -> bytes:
    return hashlib.sha256(encode_canonical(obj)).digest()


def consent_digest(payloads: Sequence[PayloadRecord]) -> bytes:
    """Digest covering the exact ordered payload set a member approves."""
    acc = hashlib.sha256()
    for obj in payloads:
        acc.update(object_digest(obj))
    return acc.digest()


# --- consent -------------------------------------------------------------------

def _consent_body(member_id: str, action: Action, object_digest_: bytes,
                  expiry: int) -> bytes:
    return bytes((TAG_CONSENT, ENCODING_VERSION)) + frame_fields(
        (member_id.encode(), bytes((action.value,)), object_digest_, _U64.pack(expiry)))


def sign_consent(member_sk: FieldElement, member_id: str, action: Action,
                 payloads: Sequence[PayloadRecord], expiry: int,
                 rng=None) -> ConsentToken:
    digest = consent_digest(payloads)
    body = _consent_body(member_id, action, digest, expiry)
    sig, r_point = ecdsa_sign_with_r(member_sk, body, rng=rng)
    return ConsentToken(member_id, action, digest, expiry, sig, r_point)


def verify_consent(
    token: Optional[ConsentToken],
    action: Action,
    payloads: Sequence[PayloadRecord],
    member_registry: dict[str, GroupPoint],
    now: float,
) -> ConsentVerdict:
    """Three-valued verdict; 'missing' and 'invalid' drive different policies.

    The signature is checked against the token's R as one known-R
    combination, with no fallback to the full-length check: a token whose R
    is the identity, has x != r (mod n) or is not exactly the signature's
    point, the negated s with the original R among them, is invalid.
    """
    if token is None:
        return ConsentVerdict.MISSING
    member_pk = member_registry.get(token.member_id)
    if member_pk is None or member_pk.is_identity():
        return ConsentVerdict.INVALID
    if token.action is not action:
        return ConsentVerdict.INVALID
    for record in payloads:
        # a member consents for its own records only; a transfer's new ROA
        # names the transfer's target
        if isinstance(record, CrlRecord):
            owner = record.issuer_id
        elif action is Action.TRANSFER and isinstance(record, RoaRecord):
            continue
        else:
            owner = record.member_id
        if owner != token.member_id:
            return ConsentVerdict.INVALID
    if token.object_digest != consent_digest(payloads):
        return ConsentVerdict.INVALID
    if now >= token.expiry:
        return ConsentVerdict.INVALID
    body = _consent_body(token.member_id, token.action, token.object_digest, token.expiry)
    if not ecdsa_verify(member_pk, body, token.member_signature, r_point=token.r_point):
        return ConsentVerdict.INVALID
    return ConsentVerdict.OK


# --- transfers -------------------------------------------------------------------

@dataclass(frozen=True)
class TransferPlan:
    """The all-or-nothing pair of objects realizing one IP-space transfer."""

    transfer_id: bytes
    crl_delta: CrlRecord
    new_roa: RoaRecord


def plan_transfer(
    old_roa: RoaRecord,
    new_member: str,
    new_asn: int,
    *,
    new_serial: int,
    new_ee_pk: GroupPoint,
    revoked_serials: Sequence[int] = (),
    this_update: Optional[int] = None,
    rng=None,
) -> TransferPlan:
    """Revoking CRL delta plus the replacement ROA, bound by one transfer id.

    The delta lists exactly the newly revoked serial; the node's CRL state
    merges deltas at publication.
    """
    if old_roa.serial in revoked_serials:
        raise ValidationError("ROA already revoked")
    if new_serial == old_roa.serial:
        raise ValidationError("replacement ROA must use a fresh serial")
    transfer_id = (rng.getrandbits(128).to_bytes(16, "big")
                   if rng is not None else secrets.token_bytes(16))
    crl_delta = CrlRecord(
        issuer_id=old_roa.member_id,
        this_update=this_update if this_update is not None else old_roa.not_before,
        revoked_serials=(old_roa.serial,),
    )
    new_roa = replace(
        old_roa,
        serial=new_serial,
        member_id=new_member,
        asn=new_asn,
        ee_pk=new_ee_pk,
    )
    new_roa.check()
    return TransferPlan(transfer_id, crl_delta, new_roa)


# --- relying-party validation -----------------------------------------------------

def validate_object(
    obj: SignedObject,
    tal: TrustAnchorLocator,
    crl_state: Sequence[int],
    mode: DeploymentMode,
    issuer_cert: Optional[SignedObject] = None,
) -> ObjectVerdict:
    """Relying-party check of one signed object against a TAL and CRL state.

    One rule for every object: a payload that does not decode is a bad
    signature; flat mode forbids certificates, known by the decoded payload.  The expected signer is the
    TAL key, except for a non-certificate in hierarchical mode, whose signer
    is the subject key of `issuer_cert` once that certificate validates (a
    certificate that does not validate passes its verdict on).  The object
    must carry and verify under that key, and a record with an EE serial
    that the CRL state lists is revoked.
    """
    try:
        record = obj.record()
    except ValidationError:
        return ObjectVerdict.BAD_SIGNATURE
    is_cert = isinstance(record, EeCertRecord)  # the payload's kind, whatever the label
    if mode is DeploymentMode.FLAT and is_cert:
        return ObjectVerdict.FORBIDDEN_KIND
    if mode is DeploymentMode.FLAT or is_cert:
        signer = tal.subject_public_key
    elif issuer_cert is None:
        return ObjectVerdict.BAD_SIGNATURE
    else:
        cert_verdict = validate_object(issuer_cert, tal, crl_state, mode)
        if cert_verdict is not ObjectVerdict.VALID:
            return cert_verdict
        signer = issuer_cert.record().subject_pk
    if obj.signer_pk != signer or not obj.verify():
        return ObjectVerdict.BAD_SIGNATURE
    if getattr(record, "serial", None) in set(crl_state):
        return ObjectVerdict.REVOKED
    return ObjectVerdict.VALID
