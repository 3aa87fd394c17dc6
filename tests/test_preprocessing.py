"""Triple dealer, replay files, and phase 3's masked product tests."""

import hashlib
import json
import random
import sys
import threading

import pytest

from drpki import preprocessing
from drpki.algebra import FieldElement
from drpki.durable import RecordError
from drpki.preprocessing import (
    FileReplay,
    PreprocessingError,
    TrustedDealer,
    beaver_combine,
    beaver_diffs,
    dealer_generate,
    dealer_generate_masks,
    encode_replay,
)
from drpki.sharing import (
    MacCheckAccumulator,
    ProtocolAbort,
    SchemeId,
    deal,
    generate_mac_keys,
    mac_check_evaluate,
    mac_commit,
    open_shares,
)

rng = random.Random(0xD21_03)

N, T = 5, 2
ALL_SCHEMES = list(SchemeId)


def _mac_keys_for(scheme):
    return generate_mac_keys(N, rng) if scheme.has_mac else None


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_generated_triples_open_to_products(scheme):
    mac_keys = _mac_keys_for(scheme)
    masks = set()
    for batch in dealer_generate(scheme, 25, N, T, rng, mac_keys):
        a, b, c, x, xa = (open_shares([getattr(t, f) for t in batch], N, T)
                          for f in ("a", "b", "c", "x", "xa"))
        assert c == a * b
        assert xa == x * a
        masks.add(x)
    assert len(masks) == 25  # a fresh mask per record


def test_triple_ids_never_repeat():
    first = dealer_generate(SchemeId.ADDITIVE, 50, N, T, rng)
    second = dealer_generate(SchemeId.ADDITIVE, 50, N, T, rng)
    ids = [batch[0].triple_id for batch in first + second]
    assert len(set(ids)) == len(ids)


def test_seeded_dealer_golden_transcript():
    # A seeded dealer must reproduce this frozen transcript digest, bit for bit.
    batches = dealer_generate(SchemeId.SHAMIR, 4, n=3, t=1, rng=random.Random(42))

    def digest(records, fields):
        return hashlib.sha256("\n".join(
            f"{rec.triple_id.hex()}:{rec.a.owner}:"
            + ",".join(str(getattr(rec, f).value.value) for f in fields)
            for rec in records).encode()).hexdigest()

    assert digest([rec for batch in batches for rec in batch], ("a", "b", "c", "x", "xa")) == (
        "82a357e47cb0323b52574c2ff621f994e3617dc134bc87c6e1ee0e06b6fe0c11")
    # each record draws its mask after its triple: the first record's
    # triple is the one a dealer without masks drew from this seed
    assert digest(batches[0], ("a", "b", "c")) == (
        "e5af204b4c0a8c567527a938a6ce5c8a6bbb09c687c9742806ea6905583f7e3c")


def _local_beaver(scheme, sk_val, a_val, mac_keys):
    """Multiply [sk] by [a] through a fresh mask pair ([x], [x*a]), with the
    open of d simulated locally."""
    x = FieldElement.random(rng)
    sks = deal(scheme, sk_val, N, T, rng, mac_keys)
    xs = deal(scheme, x, N, T, rng, mac_keys)
    a_shares = deal(scheme, a_val, N, T, rng, mac_keys)
    xa_shares = deal(scheme, x * a_val, N, T, rng, mac_keys)
    d = open_shares([beaver_diffs(s, m) for s, m in zip(sks, xs)], N, T)
    products = [beaver_combine(a, xa, d) for a, xa in zip(a_shares, xa_shares)]
    return open_shares(products, N, T)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_beaver_three_times_four(scheme):
    mac_keys = _mac_keys_for(scheme)
    assert _local_beaver(scheme, FieldElement(3), FieldElement(4), mac_keys) == FieldElement(12)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_beaver_zero_annihilates(scheme):
    mac_keys = _mac_keys_for(scheme)
    a = FieldElement.random(rng)
    assert _local_beaver(scheme, FieldElement.zero(), a, mac_keys).is_zero()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_beaver_random_instances(scheme):
    mac_keys = _mac_keys_for(scheme)
    for _ in range(200):
        sk = FieldElement.random(rng)
        a = FieldElement.random(rng)
        assert _local_beaver(scheme, sk, a, mac_keys) == sk * a


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_beaver_on_a_records_own_operand_opens_no_e(scheme):
    # phase 3's two steps: d = sk - x opens, and [x*a] + d*[a] opens to sk*a
    mac_keys = _mac_keys_for(scheme)
    sk = FieldElement.random(rng)
    sks = deal(scheme, sk, N, T, rng, mac_keys)
    records = dealer_generate(scheme, 1, N, T, rng, mac_keys)[0]
    d = open_shares([beaver_diffs(s, r.x) for s, r in zip(sks, records)], N, T)
    assert d == sk - open_shares([r.x for r in records], N, T)
    products = [beaver_combine(r.a, r.xa, d) for r in records]
    assert open_shares(products, N, T) == sk * open_shares([r.a for r in records], N, T)


def _mac_check(mac_keys, opened, shares):
    """Every party's commit and reveal over one opened value and its shares'
    MACs; raises as the session's MAC check does."""
    accs = [MacCheckAccumulator(b"beaver") for _ in range(N)]
    for acc, share in zip(accs, shares):
        acc.record(opened, share.mac)
    commitments, reveals = {}, {}
    for mk, acc in zip(mac_keys, accs):
        sigma = acc.sigma(mk)
        opening = rng.randbytes(32)
        commitments[mk.owner] = mac_commit(sigma, opening)
        reveals[mk.owner] = (sigma, opening)
    mac_check_evaluate(commitments, reveals)


def test_corrupted_beaver_broadcast_caught_by_mac_check():
    mac_keys = generate_mac_keys(N, rng)
    sks = deal(SchemeId.ADDITIVE_MAC, FieldElement(6), N, T, rng, mac_keys)
    records = dealer_generate(SchemeId.ADDITIVE_MAC, 1, N, T, rng, mac_keys)[0]
    d_shares = [beaver_diffs(s, r.x) for s, r in zip(sks, records)]
    # party 2 perturbs its broadcast share of d
    d = open_shares(d_shares, N, T) + FieldElement.one()
    with pytest.raises(ProtocolAbort, match="MAC check failed"):
        _mac_check(mac_keys, d, d_shares)


def test_trusted_dealer_views_stay_aligned():
    dealer = TrustedDealer(SchemeId.SHAMIR, N, T, random.Random(9))
    views = [dealer.queues[i] for i in range(1, N + 1)]
    for _ in range(10):
        records = [v.next_triple() for v in views]
        assert len({r.triple_id for r in records}) == 1
        c = open_shares([r.c for r in records], N, T)
        a = open_shares([r.a for r in records], N, T)
        b = open_shares([r.b for r in records], N, T)
        assert c == a * b


def test_trusted_dealer_queues_stay_aligned_under_concurrent_draws(monkeypatch):
    # five party threads draw at once with the interpreter switching as
    # often as it can: the first party to find its queue dry draws for all,
    # and a party whose queue a draw filled meanwhile draws nothing more
    draws, real = [], preprocessing.dealer_generate

    def counted(*args, **kwargs):
        draws.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(preprocessing, "dealer_generate", counted)
    dealer = TrustedDealer(SchemeId.SHAMIR, N, T, random.Random(11))
    drawn = {}

    def draw(party):
        queue = dealer.queues[party]
        drawn[party] = [queue.next_triple() for _ in range(200)]

    threads = [threading.Thread(target=draw, args=(p,)) for p in range(1, N + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert draws == [1] * 200
    for records in zip(*(drawn[p] for p in range(1, N + 1))):
        assert len({r.triple_id for r in records}) == 1
        a, b, c = (open_shares([getattr(r, x) for r in records], N, T) for x in "abc")
        assert c == a * b


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_trusted_dealer_mask_shares_open_to_one_value(scheme):
    # a mask is one random sharing that no party knows: the shares the five
    # parties pop from one draw open to one value, from any quorum under
    # the Shamir schemes, and pass the MAC check under mascot
    mac_keys = _mac_keys_for(scheme)
    dealer = TrustedDealer(scheme, N, T, random.Random(10), mac_keys)
    opened = []
    for _ in range(3):
        shares = [dealer.queues[p].next_mask() for p in range(1, N + 1)]
        assert [(s.scheme, s.owner) for s in shares] == [(scheme, p) for p in range(1, N + 1)]
        opened.append(open_shares(shares, N, T))
        if scheme.is_shamir:
            assert open_shares(shares[:T + 1], N, T) == opened[-1]
            assert open_shares(shares[-T - 1:], N, T) == opened[-1]
        if scheme.has_mac:
            _mac_check(mac_keys, opened[-1], shares)
            with pytest.raises(ProtocolAbort, match="MAC check failed"):
                _mac_check(mac_keys, opened[-1] + FieldElement.one(), shares)
    assert len(set(opened)) == 3


def _write_replays(tmp_path, scheme, mac_keys, batches, masks, epoch):
    for party in range(1, N + 1):
        (tmp_path / f"party{party}.triples").write_text(encode_replay(
            party, scheme, N, T, epoch,
            [batch[party - 1] for batch in batches],
            [mask[party - 1] for mask in masks],
            mac_keys[party - 1] if mac_keys else None,
        ))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_replay_file_roundtrip(tmp_path, scheme):
    mac_keys = _mac_keys_for(scheme)
    epoch = bytes(range(16))
    batches = dealer_generate(scheme, 5, N, T, rng, mac_keys)
    masks = [dealer_generate_masks(scheme, N, T, rng, mac_keys) for _ in range(2)]
    _write_replays(tmp_path, scheme, mac_keys, batches, masks, epoch)
    replays = [FileReplay(str(tmp_path / f"party{p}.triples"), p, scheme, N, T)
               for p in range(1, N + 1)]
    assert all(len(r.triples) == 5 for r in replays)
    assert all(r.epoch == epoch for r in replays)
    assert [r.mac_key for r in replays] == (mac_keys or [None] * N)
    for j in range(5):
        records = [r.next_triple() for r in replays]
        for rec, orig in zip(records, batches[j]):
            assert rec.triple_id == orig.triple_id
            assert rec.a == orig.a and rec.b == orig.b and rec.c == orig.c
            assert rec.x == orig.x and rec.xa == orig.xa
    for mask in masks:
        assert [r.next_mask() for r in replays] == mask
    with pytest.raises(PreprocessingError, match="depleted"):
        replays[0].next_triple()
    with pytest.raises(PreprocessingError, match="mask stock depleted"):
        replays[0].next_mask()


def _one_replay(tmp_path, scheme=SchemeId.ADDITIVE_MAC):
    """Party 2's dealer file, mascot by default: a header, two triples and a
    mask."""
    mac_keys = _mac_keys_for(scheme)
    epoch = bytes(16)
    batches = dealer_generate(scheme, 2, N, T, rng, mac_keys)
    masks = [dealer_generate_masks(scheme, N, T, rng, mac_keys)]
    _write_replays(tmp_path, scheme, mac_keys, batches, masks, epoch)
    return tmp_path / "party2.triples"


@pytest.mark.parametrize("party, scheme, n, t", [
    (1, SchemeId.ADDITIVE_MAC, N, T),
    (2, SchemeId.ADDITIVE, N, T),
    (2, SchemeId.ADDITIVE_MAC, 7, T),
    (2, SchemeId.ADDITIVE_MAC, N, 4),
], ids=["other-party", "other-scheme", "other-n", "other-t"])
def test_replay_file_refuses_a_header_of_another_node(tmp_path, party, scheme, n, t):
    # party 2's file, renamed for party 1 say, would hand party 1 shares
    # owned by party 2: the open refuses it and leaves the file as it is
    path = _one_replay(tmp_path)
    data = path.read_bytes()
    with pytest.raises(PreprocessingError, match="is not a dealer file of party"):
        FileReplay(str(path), party, scheme, n, t)
    assert path.read_bytes() == data


def test_replay_file_refuses_a_file_cut_short(tmp_path):
    path = _one_replay(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2]))  # the header and one of two triples
    with pytest.raises(PreprocessingError, match="does not hold the records"):
        FileReplay(str(path), 2, SchemeId.ADDITIVE_MAC, N, T)


def test_replay_file_refuses_a_torn_last_line_untouched(tmp_path):
    # a deal writes each file whole, so a last line without its newline is
    # damage: the line reader would cut it off and open the rest
    path = _one_replay(tmp_path)
    with open(path, "a") as out:
        out.write('{"triple": "ab')
    data = path.read_bytes()
    with pytest.raises(PreprocessingError, match="torn"):
        FileReplay(str(path), 2, SchemeId.ADDITIVE_MAC, N, T)
    assert path.read_bytes() == data


def test_replay_file_names_the_line_that_does_not_decode(tmp_path):
    path = _one_replay(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace('"a": "01', '"a": "01ff', 1)  # a share too long
    path.write_text("".join(lines))
    data = path.read_bytes()
    with pytest.raises(RecordError, match=rf"{path} line 3 does not decode"):
        FileReplay(str(path), 2, SchemeId.ADDITIVE_MAC, N, T)
    assert path.read_bytes() == data


@pytest.mark.parametrize("scheme, old, new", [
    (SchemeId.ADDITIVE_MAC, '"a": "0102', '"a": "0101'),  # party 1's share
    (SchemeId.SHAMIR, '"a": "0202', '"a": "0302'),  # a mal-shamir share
], ids=["other-owner", "other-scheme"])
def test_replay_file_refuses_a_share_of_another_party_or_scheme(tmp_path, scheme, old, new):
    # a share of another party or scheme than the header names is refused
    # like a line that does not decode, and the file is left as it is
    path = _one_replay(tmp_path, scheme)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace(old, new, 1)
    path.write_text("".join(lines))
    data = path.read_bytes()
    with pytest.raises(RecordError, match=rf"{path} line 3 does not decode"):
        FileReplay(str(path), 2, scheme, N, T)
    assert path.read_bytes() == data


@pytest.mark.parametrize("data", [b"DRT1" + bytes(20) + b"\n" + bytes(40), b"NOPE" + bytes(20),
                                  b""], ids=["earlier-version", "junk", "empty"])
def test_replay_file_refuses_a_file_of_another_format_untouched(tmp_path, data):
    # the binary files of earlier versions are refused before the line
    # reader would cut them back to their last newline byte
    path = tmp_path / "party1.triples"
    path.write_bytes(data)
    with pytest.raises(PreprocessingError, match="run `drpki deal`"):
        FileReplay(str(path), 1, SchemeId.ADDITIVE_MAC, N, T)
    assert path.read_bytes() == data


def _as_triples_file(lines):
    # the first version: records hold no mask pair
    lines[0]["dealer"] = "triples"
    for rec in lines[1:]:
        rec.pop("x", None), rec.pop("xa", None)


def _as_masked_triples_file(lines):
    # the second version: a mask names its input owner, and the owner's
    # line holds its cleartext
    lines[0]["dealer"] = "masked-triples"
    for rec in lines[1:]:
        if "mask" in rec:
            rec.update(mask=bytes(16).hex(), owner=2, share=rec["mask"], clear=bytes(32).hex())


@pytest.mark.parametrize("rewrite", [_as_triples_file, _as_masked_triples_file],
                         ids=["triples", "masked-triples"])
def test_replay_file_refuses_an_earlier_versions_file_untouched(tmp_path, rewrite):
    # an earlier version's dealer file, a "triples" file whose records hold
    # no mask pair or a "masked-triples" file whose masks have owners: its
    # header is refused before any record is read
    path = _one_replay(tmp_path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    rewrite(lines)
    path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in lines))
    data = path.read_bytes()
    with pytest.raises(PreprocessingError, match="not a dealer file of this version; "
                                                 "run `drpki deal` for a fresh one"):
        FileReplay(str(path), 2, SchemeId.ADDITIVE_MAC, N, T)
    assert path.read_bytes() == data


def test_dealer_generate_validates_count():
    with pytest.raises(PreprocessingError):
        dealer_generate(SchemeId.ADDITIVE, 0, N, T, rng)
