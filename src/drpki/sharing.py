"""Secret sharing: additive and Shamir schemes, SPDZ-style MAC shares, Open.

Four scheme variants cover the 2x2 design space of adversary power and
corruption threshold:

  =============  ===================  ==================================
  scheme         parties to open      honesty check on Open
  =============  ===================  ==================================
  ADDITIVE       all n                none (honest-but-curious)
  ADDITIVE_MAC   all n                deferred batched MAC check
  SHAMIR         any t+1              none (honest-but-curious)
  SHAMIR_CHECKED any t+1              polynomial consistency, abort
  =============  ===================  ==================================

Shamir evaluation points are fixed as the party indices 1..n, so Lagrange
coefficients are deterministic and transcripts reproducible.  Share
arithmetic is linear: sums of shares and products with a public constant.

A `Share` is what a party holds and stores, its MAC share included.  A
`BareShare` is what an open reconstructs from: a field value without its MAC
share, or a share of a curve point, under one rule for both.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .algebra import (
    CURVE_ORDER,
    FieldElement,
    GroupPoint,
    lincomb,
    scalar_mul,  # noqa: F401 - perfbench/spans.py wraps sharing.scalar_mul by name
)


class SharingError(Exception):
    """Parameter or usage error in the sharing layer."""


class ProtocolAbort(Exception):
    """Security-with-abort signal: a check failed or a party is unavailable.

    The protocol terminates without output; it never emits a wrong result.
    """


class SchemeId(Enum):
    ADDITIVE = 0          # semi-honest additive: honest-but-curious, dishonest majority
    ADDITIVE_MAC = 1      # MASCOT-style: malicious, dishonest majority
    SHAMIR = 2            # honest-but-curious, honest majority
    SHAMIR_CHECKED = 3    # malicious Shamir: checked opens, honest majority

    @property
    def is_shamir(self) -> bool:
        return self in (SchemeId.SHAMIR, SchemeId.SHAMIR_CHECKED)

    @property
    def has_mac(self) -> bool:
        return self is SchemeId.ADDITIVE_MAC

    @property
    def share_bytes(self) -> int:
        """Width of a share's encoding: scheme, owner, value, and the MAC."""
        return 66 if self.has_mac else 34


# the scheme names used by configs, command-line flags and benchmark rows
SCHEME_NAMES = {
    "semi": SchemeId.ADDITIVE,
    "mascot": SchemeId.ADDITIVE_MAC,
    "shamir": SchemeId.SHAMIR,
    "mal-shamir": SchemeId.SHAMIR_CHECKED,
}


@dataclass(frozen=True)
class MacKeyShare:
    """One party's additive share alpha_i of the global MAC key alpha.

    alpha is fixed per key-material epoch and never reconstructed in normal
    operation.
    """

    owner: int
    alpha_i: FieldElement


@dataclass(frozen=True, slots=True)
class Share:
    """One party's piece of a shared field element.

    mac is present iff scheme is ADDITIVE_MAC.  A Shamir share's evaluation
    point is its owner's party index.
    """

    scheme: SchemeId
    owner: int
    value: FieldElement
    mac: Optional[FieldElement] = None

    def __post_init__(self) -> None:
        if self.scheme.has_mac and self.mac is None:
            raise SharingError("MAC scheme share without MAC")

    def to_bytes(self) -> bytes:
        out = bytes([self.scheme.value, self.owner]) + self.value.to_bytes()
        if self.mac is not None:
            out += self.mac.to_bytes()
        return out

    @classmethod
    def from_bytes(cls, data: bytes) -> "Share":
        if len(data) < 2:
            raise SharingError("share encoding too short")
        scheme = SchemeId(data[0])
        if len(data) != scheme.share_bytes:
            raise SharingError(f"{scheme.name} share encoding must be "
                               f"{scheme.share_bytes} bytes")
        mac = FieldElement.from_bytes(data[34:]) if scheme.has_mac else None
        return cls(scheme, data[1], FieldElement.from_bytes(data[2:34]), mac)


@dataclass(frozen=True)
class BareShare:
    """A party's share of a field element without its MAC share, or its
    share of a curve point: what an open reconstructs from.  A MAC share
    never leaves its party; the deferred MAC check reads it where it is
    held."""

    scheme: SchemeId
    owner: int
    value: FieldElement | GroupPoint


def generate_mac_keys(n: int, rng=None) -> list[MacKeyShare]:
    return [MacKeyShare(i, FieldElement.random(rng)) for i in range(1, n + 1)]


def _poly_eval(coeffs: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    acc = FieldElement.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _additive_split(secret: FieldElement, n: int, rng) -> list[FieldElement]:
    parts = [FieldElement.random(rng) for _ in range(n - 1)]
    last = secret
    for p in parts:
        last = last - p
    parts.append(last)
    return parts


def deal(
    scheme: SchemeId,
    secret: FieldElement,
    n: int,
    t: int = 0,
    rng=None,
    mac_keys: Optional[Sequence[MacKeyShare]] = None,
    owners: Optional[Sequence[int]] = None,
) -> list[Share]:
    """Dealer-style sharing of a known secret (test and setup plumbing).

    `owners` names the receiving party indices (default 1..n); Shamir
    evaluation points are those indices, so a sharing over a party subset
    reconstructs with the generic Lagrange rule.  Distributed generation of
    secrets nobody knows lives in the key generation protocol, not here.
    """
    owners = list(owners) if owners is not None else list(range(1, n + 1))
    if len(owners) != n or len(set(owners)) != n:
        raise SharingError("owners must be n distinct party indices")
    if n < 2:
        raise SharingError("need at least 2 parties")
    if scheme.is_shamir and not (0 < t < n):
        raise SharingError(f"Shamir threshold must satisfy 0 < t < n, got t={t} n={n}")
    if scheme.has_mac:
        if mac_keys is None or len(mac_keys) != n:
            raise SharingError("ADDITIVE_MAC dealing requires one MAC key share per party")
        if any(mk.owner != owner for mk, owner in zip(mac_keys, owners)):
            raise SharingError("MAC key shares misaligned with owners")
        alpha = FieldElement.zero()
        for mk in mac_keys:
            alpha = alpha + mk.alpha_i

    if scheme.is_shamir:
        coeffs = [secret] + [FieldElement.random(rng) for _ in range(t)]
        return [Share(scheme, i, _poly_eval(coeffs, FieldElement(i))) for i in owners]

    values = _additive_split(secret, n, rng)
    if scheme.has_mac:
        macs = _additive_split(alpha * secret, n, rng)
        return [Share(scheme, owner, values[i], mac=macs[i]) for i, owner in enumerate(owners)]
    return [Share(scheme, owner, values[i]) for i, owner in enumerate(owners)]


def share_add(x: Share, y: Share) -> Share:
    if x.scheme is not y.scheme or x.owner != y.owner:
        raise SharingError("scheme mismatch")
    mac = x.mac + y.mac if x.mac is not None else None
    return Share(x.scheme, x.owner, x.value + y.value, mac)


def share_scale(x: Share, public_c: FieldElement) -> Share:
    """Share of c*x for a public constant c: the value and, under a MAC
    scheme, the MAC share both scale by c."""
    mac = public_c * x.mac if x.scheme.has_mac else None
    return Share(x.scheme, x.owner, public_c * x.value, mac)


def lagrange_coeffs_at(eval_points: Sequence[FieldElement],
                      x: FieldElement | int) -> tuple[FieldElement, ...]:
    """Weights w_i with sum_i w_i * f(x_i) = f(x) for degree < len(points).

    `x` is a field element or a plain integer such as 0 or a party index.
    Every open interpolates at the same few party indices, so the weights
    are computed once per set of points and target.
    """
    x = x.value if isinstance(x, FieldElement) else x
    return _lagrange_weights(tuple(p.value for p in eval_points), x % CURVE_ORDER)


@functools.lru_cache(maxsize=1024)
def _lagrange_weights(xs: tuple[int, ...], x: int) -> tuple[FieldElement, ...]:
    coeffs = []
    for i, xi in enumerate(xs):
        num = den = 1
        for j, xj in enumerate(xs):
            if i != j:
                num = num * (x - xj) % CURVE_ORDER
                den = den * (xi - xj) % CURVE_ORDER
        coeffs.append(FieldElement(num) * FieldElement(den).inv())
    return tuple(coeffs)


def _reconstruct(shares, n: int, t: int, zero, combine):
    """The one open rule, over a group with neutral element `zero` and a
    public-weight combination `combine([(c, v), ...])` = sum of c * v: field
    elements under multiplication, curve points under `lincomb`.

    Additive schemes sum all n shares.  Shamir schemes interpolate at 0 from
    the t+1 lowest-indexed shares; SHAMIR_CHECKED also checks every further
    share against those t+1 (error detection, not correction): its
    interpolated value minus the share must come out as `zero`, and a
    mismatch aborts.
    """
    if not shares:
        raise SharingError("no shares")
    scheme = shares[0].scheme
    if any(s.scheme is not scheme for s in shares):
        raise SharingError("scheme mismatch")
    if len({s.owner for s in shares}) != len(shares):
        raise SharingError("duplicate share owners")

    if not scheme.is_shamir:
        if len(shares) != n:
            raise SharingError(f"additive open needs all {n} shares, got {len(shares)}")
        one = FieldElement.one()
        return combine([(one, s.value) for s in shares])

    if len(shares) < t + 1:
        raise SharingError(f"Shamir open needs at least {t + 1} shares, got {len(shares)}")
    ordered = sorted(shares, key=lambda s: s.owner)
    base, rest = ordered[: t + 1], ordered[t + 1:]
    xs = [FieldElement(s.owner) for s in base]
    values = [s.value for s in base]

    secret = combine(list(zip(lagrange_coeffs_at(xs, 0), values)))
    if scheme is SchemeId.SHAMIR_CHECKED:
        minus_one = -FieldElement.one()
        for extra in rest:
            weights = lagrange_coeffs_at(xs, extra.owner)
            if combine(list(zip(weights, values)) + [(minus_one, extra.value)]) != zero:
                raise ProtocolAbort("corrupted share detected")
    return secret


def _field_combine(pairs) -> FieldElement:
    return FieldElement(sum(c.value * v.value for c, v in pairs))


def open_shares(shares: Sequence[Share | BareShare], n: int, t: int) -> FieldElement:
    """Reconstruct the secret from a qualified set of shares.

    SHAMIR_CHECKED aborts on an inconsistent share.  ADDITIVE_MAC
    reconstruction is plain summation here; authentication is deferred to the
    batched MAC check.
    """
    return _reconstruct(shares, n, t, FieldElement.zero(), _field_combine)


def open_point_shares(shares: Sequence[BareShare], n: int, t: int) -> GroupPoint:
    """Reconstruct a shared point: open_shares with each weighted sum taken as
    one multi-scalar combination, so a check that comes out as the identity
    costs no inversion."""
    return _reconstruct(shares, n, t, GroupPoint.identity(), lincomb)


# --- Deferred SPDZ MAC check -------------------------------------------------
#
# After a batch of authenticated opens, each party computes
#     sigma_i = sum_j w_j * (mac_share_i(a_j) - alpha_i * a_j)
# with public weights w_j derived from the session transcript, commits to
# sigma_i (hash commitment), then reveals.  The batch is accepted iff the
# commitments check out and sum_i sigma_i = 0.


class MacCheckAccumulator:
    """Per-session batch of opened authenticated values awaiting the check.

    Mutated only by the session's single protocol-driver activity.
    """

    def __init__(self, session_id: bytes) -> None:
        self._entries: list[tuple[FieldElement, FieldElement]] = []
        self._transcript = hashlib.sha256(session_id)

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, opened: FieldElement, mac_share: FieldElement) -> None:
        self._entries.append((opened, mac_share))
        self._transcript.update(opened.value.to_bytes(32, "big"))

    def weights(self) -> list[FieldElement]:
        digest = self._transcript.digest()
        out = []
        for j in range(len(self._entries)):
            w = hashlib.sha256(digest + j.to_bytes(4, "big")).digest()
            out.append(FieldElement(int.from_bytes(w, "big")))
        return out

    def sigma(self, mac_key: MacKeyShare) -> FieldElement:
        acc = FieldElement.zero()
        for w, (value, mac_share) in zip(self.weights(), self._entries):
            acc = acc + w * (mac_share - mac_key.alpha_i * value)
        return acc

    def clear(self) -> None:
        self._entries = []


def mac_commit(sigma: FieldElement, opening: bytes) -> bytes:
    if len(opening) != 32:
        raise SharingError("commitment opening must be 32 bytes")
    return hashlib.sha256(sigma.value.to_bytes(32, "big") + opening).digest()


def mac_check_evaluate(
    commitments: dict[int, bytes],
    reveals: dict[int, tuple[FieldElement, bytes]],
) -> None:
    """Verify the commit/reveal transcript of one batched MAC check.

    Raises ProtocolAbort("equivocation detected") when a reveal does not match
    its commitment and ProtocolAbort("MAC check failed") when the sigmas do
    not cancel.
    """
    total: Optional[FieldElement] = None
    for party, (sigma, opening) in sorted(reveals.items()):
        if mac_commit(sigma, opening) != commitments.get(party):
            raise ProtocolAbort("equivocation detected")
        total = sigma if total is None else total + sigma
    if total is None or not total.is_zero():
        raise ProtocolAbort("MAC check failed")
