"""Prime-field and elliptic-curve arithmetic plus a reference single-party ECDSA.

Everything downstream (secret sharing, the joint signing protocol, the RPKI
object layer) computes in the scalar field of one fixed prime-order curve,
and `FieldElement` is an element of that field and no other.  The parameter
set is NIST P-256; only the "prime-order group with generator G" property is
relied upon elsewhere.

Arithmetic is plain Python big-int math and is NOT constant time.  This is a
research artifact for protocol evaluation, not a hardened signer; see the
security caveat in the README.
"""

from __future__ import annotations

import hashlib
import secrets
import threading
from dataclasses import dataclass
from typing import Optional

# NIST P-256 domain parameters (SEC 2 v2, secp256r1).
FIELD_PRIME = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
CURVE_A = FIELD_PRIME - 3
CURVE_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GEN_X = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GEN_Y = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
# Order of the group generated by G; scalars live mod this value.
CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

SCALAR_BYTES = 32
POINT_BYTES = 65  # 0x04 tag + x + y
IDENTITY_BYTES = b"\x00"


class AlgebraError(Exception):
    """Raised on invalid field/curve inputs (zero inverse, off-curve point...)."""


class FieldElement:
    """An element of Z_n, n = CURVE_ORDER, in canonical reduced form."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value % CURVE_ORDER

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.value + other.value)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.value - other.value)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.value * other.value)

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.value)

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise AlgebraError("non-invertible element")
        return FieldElement(pow(self.value, -1, CURVE_ORDER))

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldElement) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"FieldElement(0x{self.value:x})"

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(SCALAR_BYTES, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "FieldElement":
        if len(data) != SCALAR_BYTES:
            raise AlgebraError(f"field element must be {SCALAR_BYTES} bytes, got {len(data)}")
        value = int.from_bytes(data, "big")
        if value >= CURVE_ORDER:
            raise AlgebraError("field element not in canonical reduced form")
        return cls(value)

    @classmethod
    def random(cls, rng=None) -> "FieldElement":
        """Uniform element; `rng` is a seeded random.Random for tests, else os RNG."""
        if rng is not None:
            return cls(rng.randrange(CURVE_ORDER))
        return cls(secrets.randbelow(CURVE_ORDER))

    @classmethod
    def random_nonzero(cls, rng=None) -> "FieldElement":
        while True:
            x = cls.random(rng)
            if not x.is_zero():
                return x

    @classmethod
    def zero(cls) -> "FieldElement":
        return cls(0)

    @classmethod
    def one(cls) -> "FieldElement":
        return cls(1)


# --- Curve arithmetic ------------------------------------------------------
#
# Internals run on Jacobian-coordinate int tuples; (0, 1, 0) is the identity.
# Precomputed table points are affine (x, y) pairs that enter through the
# mixed addition.


def _jac_add(p, q):
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    m = FIELD_PRIME
    z1z1 = p[2] * p[2] % m
    z2z2 = q[2] * q[2] % m
    u1 = p[0] * z2z2 % m
    u2 = q[0] * z1z1 % m
    s1 = p[1] * z2z2 % m * q[2] % m
    s2 = q[1] * z1z1 % m * p[2] % m
    if u1 == u2:
        if s1 != s2:
            return (0, 1, 0)
        return _jac_double(p)
    h = (u2 - u1) % m
    hh = h * h % m
    hhh = h * hh % m
    r = (s2 - s1) % m
    v = u1 * hh % m
    x3 = (r * r - hhh - 2 * v) % m
    y3 = (r * (v - x3) - s1 * hhh) % m
    z3 = h * p[2] % m * q[2] % m
    return (x3, y3, z3)


def _jac_madd(p, q):
    """p + q for Jacobian p and affine non-identity q (EFD madd-2007-bl)."""
    x1, y1, z1 = p
    if z1 == 0:
        return (q[0], q[1], 1)
    m = FIELD_PRIME
    z1z1 = z1 * z1 % m
    h = (q[0] * z1z1 - x1) % m
    r = 2 * (q[1] * z1 % m * z1z1 - y1) % m
    if h == 0:
        if r == 0:
            return _jac_double(p)
        return (0, 1, 0)
    hh = h * h % m
    i = 4 * hh
    j = h * i % m
    v = x1 * i % m
    x3 = (r * r - j - 2 * v) % m
    y3 = (r * (v - x3) - 2 * y1 * j) % m
    z3 = ((z1 + h) * (z1 + h) - z1z1 - hh) % m
    return (x3, y3, z3)


def _jac_double(p):
    """2p by EFD dbl-2001-b, which holds because CURVE_A = -3."""
    x1, y1, z1 = p
    if z1 == 0 or y1 == 0:
        return (0, 1, 0)
    m = FIELD_PRIME
    delta = z1 * z1 % m
    gamma = y1 * y1 % m
    beta = x1 * gamma % m
    alpha = 3 * (x1 - delta) * (x1 + delta) % m
    x3 = (alpha * alpha - 8 * beta) % m
    z3 = ((y1 + z1) * (y1 + z1) - gamma - delta) % m
    y3 = (alpha * (4 * beta - x3) - 8 * gamma * gamma) % m
    return (x3, y3, z3)


def _batch_to_affine(points):
    """Affine (x, y) of non-identity Jacobian points, sharing one inversion."""
    m = FIELD_PRIME
    prefix = []
    acc = 1
    for p in points:
        prefix.append(acc)
        acc = acc * p[2] % m
    inv = pow(acc, -1, m)
    out = [None] * len(points)
    for idx in range(len(points) - 1, -1, -1):
        x, y, z = points[idx]
        zinv = inv * prefix[idx] % m
        inv = inv * z % m
        zinv2 = zinv * zinv % m
        out[idx] = (x * zinv2 % m, y * zinv2 % m * zinv % m)
    return out


def _to_affine(p) -> "GroupPoint":
    if p[2] == 0:
        return GroupPoint.identity()
    zinv = pow(p[2], -1, FIELD_PRIME)
    zinv2 = zinv * zinv % FIELD_PRIME
    x = p[0] * zinv2 % FIELD_PRIME
    y = p[1] * zinv2 % FIELD_PRIME * zinv % FIELD_PRIME
    return GroupPoint(x, y)


class GroupPoint:
    """A point on the curve (affine) or the group identity.

    Immutable; supports + for point addition and scalar * point.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: Optional[int], y: Optional[int]) -> None:
        self.x = x
        self.y = y
        if x is not None:
            if not (0 <= x < FIELD_PRIME and 0 <= y < FIELD_PRIME):
                raise AlgebraError("coordinate out of range")
            if (y * y - (x * x * x + CURVE_A * x + CURVE_B)) % FIELD_PRIME != 0:
                raise AlgebraError("point not on curve")

    @classmethod
    def identity(cls) -> "GroupPoint":
        pt = cls.__new__(cls)
        pt.x = None
        pt.y = None
        return pt

    def is_identity(self) -> bool:
        return self.x is None

    def __add__(self, other: "GroupPoint") -> "GroupPoint":
        return _to_affine(_jac_add(self._jac(), other._jac()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupPoint) and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        if self.is_identity():
            return "GroupPoint(identity)"
        return f"GroupPoint(x=0x{self.x:x})"

    def _jac(self):
        if self.x is None:
            return (0, 1, 0)
        return (self.x, self.y, 1)

    def to_bytes(self) -> bytes:
        if self.is_identity():
            return IDENTITY_BYTES
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "GroupPoint":
        if data == IDENTITY_BYTES:
            return cls.identity()
        if len(data) != POINT_BYTES or data[0] != 0x04:
            raise AlgebraError("malformed point encoding")
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:65], "big")
        return cls(x, y)  # constructor re-checks the curve equation


GENERATOR = GroupPoint(GEN_X, GEN_Y)

# Fixed-base comb for G with signed 8-bit digits: row i holds affine
# d * 256^i * G for d = 1..128.  A digit d above 128 becomes d - 256 with a
# carry into the next digit, and -P enters the addition as (x, p - y), so
# k * G is one mixed addition per nonzero digit of k and no doubling.  Built
# on first use: 33 rows of 128 points (the 33rd takes the last carry), about
# 0.7 MB.
_G_COMB: list = []
_G_COMB_LOCK = threading.Lock()
_COMB_ROWS = 33
_COMB_HALF = 128


def _g_comb():
    global _G_COMB
    if not _G_COMB:
        with _G_COMB_LOCK:
            if not _G_COMB:
                rows = []
                base = (GEN_X, GEN_Y)
                for _ in range(_COMB_ROWS):
                    multiples = [(base[0], base[1], 1)]
                    for _ in range(_COMB_HALF - 1):
                        multiples.append(_jac_madd(multiples[-1], base))
                    multiples.append(_jac_double(multiples[-1]))  # 256 * base
                    affine = _batch_to_affine(multiples[1:])  # 2..128, 256 * base
                    rows.append([base] + affine[:-1])
                    base = affine[-1]
                _G_COMB = rows
    return _G_COMB


def _g_mul(k: int):
    acc = (0, 1, 0)
    for row in _g_comb():
        if not k:
            break
        digit = k & 255
        k >>= 8
        if digit > _COMB_HALF:
            x, y = row[255 - digit]  # (256 - digit) * 256^i * G, negated
            acc = _jac_madd(acc, (x, FIELD_PRIME - y))
            k += 1
        elif digit:
            acc = _jac_madd(acc, row[digit - 1])
    return acc


def _wnaf(k: int, width: int) -> list:
    """The nonzero signed digits of k >= 0 as (position, digit) pairs, least
    significant first: each digit is odd with absolute value below
    2^(width-1), and the next nonzero digit sits at least `width` positions
    higher."""
    digits = []
    window, half = 1 << width, 1 << (width - 1)
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        digit = k & (window - 1)
        if digit >= half:
            digit -= window
        digits.append((pos, digit))
        k = (k - digit) >> width
        pos += width
    return digits


def _signed_table(odd, width: int) -> list:
    """Lookup table for width-`width` digits from the affine odd multiples
    P, 3P, 5P, ...: table[d] = d * P, and a negative digit d indexes
    table[2^width + d] through Python's negative indexing, holding -|d| * P."""
    table = [None] * (1 << width)
    for d, (x, y) in zip(range(1, 1 << width, 2), odd):
        table[d] = (x, y)
        table[-d] = (x, FIELD_PRIME - y)
    return table


def _odd_multiples(x: int, y: int, count: int) -> list:
    """Jacobian P, 3P, ..., (2 * count - 1) * P for an affine non-identity P."""
    p = (x, y, 1)
    two_p = _jac_double(p)
    odd = [p]
    for _ in range(count - 1):
        odd.append(_jac_add(odd[-1], two_p))
    return odd


_VAR_WIDTH = 5  # per-call tables: P, 3P, ..., 15P


def _combine(terms):
    """Sum of k * P over (k, P) terms with 0 <= k < CURVE_ORDER, as a Jacobian
    point.

    Straus interleaving: every term's signed digits share one run of
    doublings into one accumulator, and only mixed additions of affine table
    points enter it.  A weight above n/2 is replaced by n - k with the digits
    negated, so a small negative weight such as a Lagrange coefficient of -3
    stays short.  A weight below 2^16 adds the point itself; any other point
    but G gets a width-5 table of odd multiples, and all of a call's tables
    share one inversion.  The weights of G are summed and their product comes
    from the k * G comb, added once after the interleaved loop.
    """
    plan = []  # (sign, digits, table)
    full = []  # (sign, digits, point) still waiting for a table
    g = 0  # the summed weight of G
    for k, point in terms:
        if k == 0 or point.is_identity():
            continue
        if point.x == GEN_X and point.y == GEN_Y:
            g += k
            continue
        sign = 1
        if k > CURVE_ORDER // 2:
            k, sign = CURVE_ORDER - k, -1
        if k < 1 << 16:
            # a table of odd multiples costs more than it saves here
            plan.append((sign, _wnaf(k, 2), _signed_table([(point.x, point.y)], 2)))
        else:
            full.append((sign, _wnaf(k, _VAR_WIDTH), point))
    count = 1 << (_VAR_WIDTH - 2)
    odd = _batch_to_affine([q for _, _, p in full for q in _odd_multiples(p.x, p.y, count)])
    for i, (sign, digits, _) in enumerate(full):
        plan.append((sign, digits, _signed_table(odd[count * i:count * (i + 1)], _VAR_WIDTH)))
    length = max((digits[-1][0] + 1 for _, digits, _ in plan if digits), default=0)
    rows = [[] for _ in range(length)]
    for sign, digits, table in plan:
        for pos, digit in digits:
            rows[pos].append(table[sign * digit])
    acc = (0, 1, 0)
    for row in reversed(rows):
        acc = _jac_double(acc)
        for q in row:
            acc = _jac_madd(acc, q)
    return _jac_add(acc, _g_mul(g % CURVE_ORDER))


def lincomb(pairs) -> GroupPoint:
    """Sum of k * P over (FieldElement k, GroupPoint P) pairs, in one
    accumulator with one inversion at the end."""
    return _to_affine(_combine([(k.value, p) for k, p in pairs]))


def scalar_mul(k: FieldElement, point: GroupPoint) -> GroupPoint:
    """k * P.  scalar_mul(0, P) is the identity."""
    if point.x == GEN_X and point.y == GEN_Y:
        return _to_affine(_g_mul(k.value))
    return lincomb([(k, point)])


def hash_to_scalar(message: bytes) -> FieldElement:
    """SHA-256 of the message, interpreted big-endian and reduced mod the order."""
    digest = hashlib.sha256(message).digest()
    return FieldElement(int.from_bytes(digest, "big"))


@dataclass(frozen=True)
class Signature:
    r_x: FieldElement
    s: FieldElement

    def __post_init__(self) -> None:
        if self.r_x.is_zero() or self.s.is_zero():
            raise AlgebraError("degenerate signature component")

    def to_bytes(self) -> bytes:
        return self.r_x.to_bytes() + self.s.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 2 * SCALAR_BYTES:
            raise AlgebraError("signature must be 64 bytes")
        return cls(FieldElement.from_bytes(data[:32]), FieldElement.from_bytes(data[32:]))


@dataclass(frozen=True)
class KeyPair:
    sk: FieldElement
    pk: GroupPoint

    @classmethod
    def generate(cls, rng=None) -> "KeyPair":
        sk = FieldElement.random_nonzero(rng)
        return cls(sk, scalar_mul(sk, GENERATOR))


def ecdsa_sign(sk: FieldElement, message: bytes, k: Optional[FieldElement] = None,
               rng=None) -> Signature:
    """Plain single-party ECDSA; the oracle the joint protocol is checked against.

    Passing `k` explicitly is the deterministic test entry point and errors out
    on a degenerate instance key; without `k` a fresh nonce is sampled (and
    resampled on the ~2/p degenerate cases).
    """
    return ecdsa_sign_with_r(sk, message, k, rng)[0]


def ecdsa_sign_with_r(sk: FieldElement, message: bytes, k: Optional[FieldElement] = None,
                      rng=None) -> tuple[Signature, GroupPoint]:
    """`ecdsa_sign`, also returning the nonce point R = k * G the signature
    was made with, for a verifier's `ecdsa_verify(..., r_point=R)`.  It draws
    from `rng` exactly as `ecdsa_sign` does, so a seeded signature is the same
    by either name."""
    h = hash_to_scalar(message)
    explicit = k is not None
    while True:
        if not explicit:
            k = FieldElement.random_nonzero(rng)
        if k.is_zero():
            raise AlgebraError("degenerate instance key")
        r_point = scalar_mul(k, GENERATOR)
        r_x = FieldElement(r_point.x)  # reduce the x coordinate into the scalar field
        if r_x.is_zero():
            if explicit:
                raise AlgebraError("degenerate instance key")
            continue
        s = k.inv() * (h + sk * r_x)
        if s.is_zero():
            if explicit:
                raise AlgebraError("degenerate instance key")
            continue
        return Signature(r_x, s), r_point


_HALF_BITS = 128


def _half_gcd(u: int) -> tuple[int, int]:
    """(v, w) with v * u = w (mod CURVE_ORDER), |v| and w both below 2^128:
    the extended Euclidean algorithm on (CURVE_ORDER, u), stopped halfway."""
    r0, r1, t0, t1 = CURVE_ORDER, u, 0, 1
    while r1 >> _HALF_BITS:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return t1, r1


def ecdsa_verify(pk: GroupPoint, message: bytes, sig: Signature,
                 r_point: Optional[GroupPoint] = None) -> bool:
    """Check sig on message under pk: R = u1 * G + u2 * Q has x = r (mod n).

    A signer that holds R (the opened nonce point) passes it as `r_point`,
    and the check becomes the exact R = u1 * G + u2 * Q, tested as
    (v * u1) * G + w * Q - v * R = O for half-length v, w with
    v * u2 = w (mod n) (Antipa et al., SAC 2005).  That halves the
    doublings.  It is slightly stricter: it rejects the negated s, whose
    point is -R, which the plain check accepts.
    """
    if pk.is_identity():
        raise AlgebraError("identity public key")
    if sig.r_x.is_zero() or sig.s.is_zero():
        return False
    n, r = CURVE_ORDER, sig.r_x.value
    s_inv = pow(sig.s.value, -1, n)
    u1 = hash_to_scalar(message).value * s_inv % n
    u2 = r * s_inv % n
    if r_point is not None:
        if r_point.is_identity() or r_point.x % n != r:
            return False
        v, w = _half_gcd(u2)
        return _combine([(v * u1 % n, GENERATOR), (w, pk), (-v % n, r_point)])[2] == 0
    # compare x = X / Z^2 with r, or with r + n when that is still a field
    # element, without inverting Z
    x, _, z = _combine([(u1, GENERATOR), (u2, pk)])
    if z == 0:
        return False
    zz = z * z % FIELD_PRIME
    return x == r * zz % FIELD_PRIME or (r + n < FIELD_PRIME
                                         and x == (r + n) * zz % FIELD_PRIME)
