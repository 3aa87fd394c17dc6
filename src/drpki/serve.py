"""TCP node mode: one party per process, driven by authenticated control frames.

The in-process cluster is the primary simulation surface; `drpki serve` runs
the cryptographic phases (key generation, preprocessing, online signing)
between real processes over sockets instead.  Each process is one PartyNode
on one TcpNodeTransport, driven by the same `open_session` and `run` calls
as the in-process cluster, so keygen is checked and audited the same way.
Preprocessing material comes from dealer files written ahead of time by
`drpki deal`, matching the trusted-dealer model: one JSON-lines file per
party, `partyK.triples`, holding its dealer records (a triple and its
mask pair, one record per final tuple), its masks (one random sharing per
keygen, taken as the member's [sk]) and, under a MAC scheme, its MAC key
share, all under one fresh epoch per deal.  The deal draws
them through `dealer_generate` and `dealer_generate_masks`, and a node reads
its file whole into the `FileReplay` dealer queue it draws from.  Before it
binds a socket, serve refuses to start without the config's pair_secret or
data_dir, without its dealer file, or on one dealt for another party,
scheme, n or t, holding shares of another party or scheme than its header
names, lacking its MAC key share or torn.  A dealer file is single-use:
the first start leaves a `partyK.started` marker next to it, and serve
refuses to start again until a new deal replaces the file.  A deal writes
each file whole, in one `_write_file` call, and removes the markers only
once every file is in place, so a deal cut short leaves no started file
startable.

One party runs with --script and initiates each operation by broadcasting a
control frame; the others follow.  Script lines:

    keygen MEMBER
    preprocess-independent N
    preprocess-dependent MEMBER N
    sign MEMBER HEX-MESSAGE [HEX-MESSAGE ...]   (one session signs them all)
    shutdown

Each op is one round of the control session 0, whose 2-byte round field
caps a script at 65 535 ops; serve refuses a longer one, and one with a
line it cannot parse, before it opens the node.  The op itself runs in
session 1, 2, ... in script order.
"""

from __future__ import annotations

import json
import os
import secrets
import sys
from pathlib import Path

from .algebra import ecdsa_verify
from .cli import load_config, protocol_config
from .durable import RecordError, _write_file
from .preprocessing import (
    FileReplay,
    PreprocessingError,
    dealer_generate,
    dealer_generate_masks,
    encode_replay,
)
from .sharing import generate_mac_keys
from .tecdsa import TecdsaError
from .runtime.node import OP_PHASES, PartyNode
from .runtime.transport import (
    MAX_ROUND,
    PHASE_CONTROL,
    SessionMessage,
    TcpNodeTransport,
    derive_pair_keys,
)

# the control session numbers its rounds by op; the ops' own sessions count
# from 1
CONTROL_SESSION = 0


def _addresses(cfg) -> dict[int, tuple[str, int]]:
    out = {}
    for key, value in cfg["addresses"].items():
        party = int(key.removeprefix("party"))
        host, port = value.rsplit(":", 1)
        out[party] = (host, int(port))
    return out


def deal_to_files(config_path: str, count: int, out_dir: str, masks: int) -> int:
    """Write each party's dealer file under a fresh epoch: `count` dealer
    records, each of which serves one final tuple, `masks` masks, each of
    which serves one keygen, and the MAC key share."""
    proto = protocol_config(load_config(config_path))
    scheme = proto.scheme
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    epoch = secrets.token_bytes(16)
    mac_keys = generate_mac_keys(proto.n) if scheme.has_mac else None
    triples = dealer_generate(scheme, count, proto.n, proto.t, None, mac_keys) if count > 0 else []
    mask_records = [dealer_generate_masks(scheme, proto.n, proto.t, None, mac_keys)
                    for _ in range(masks)]
    for p in range(1, proto.n + 1):
        _write_file(out / f"party{p}.triples", encode_replay(
            p, scheme, proto.n, proto.t, epoch, [batch[p - 1] for batch in triples],
            [draw[p - 1] for draw in mask_records],
            mac_keys[p - 1] if mac_keys is not None else None))
    # only now, with every new file whole and in place: a deal cut short
    # leaves an old file that was started still refused
    for p in range(1, proto.n + 1):
        (out / f"party{p}.started").unlink(missing_ok=True)
    print(f"wrote dealer output for {proto.n} parties under {out_dir} "
          f"({count} records, each one final tuple, and {masks} masks each)")
    return 0


def _open_node(cfg, party: int) -> PartyNode:
    """This party's node, on the epoch and preprocessing of its dealer file."""
    section = cfg["cluster"]
    proto = protocol_config(cfg)
    data_dir = section["data_dir"]
    dealer_dir = Path(section.get("triple_dir", "") or data_dir)
    replay = dealer_dir / f"party{party}.triples"
    if not replay.exists():
        raise SystemExit(f"error: no dealer file {replay}; run `drpki deal` first")
    try:
        source = FileReplay(str(replay), party, proto.scheme, proto.n, proto.t)
    except (PreprocessingError, RecordError) as exc:
        raise SystemExit(f"error: {exc}") from None
    # a node state that does not load leaves the dealer file unstarted
    try:
        node = PartyNode(party, proto, str(Path(data_dir) / f"party{party}"), source.epoch)
    except (RecordError, TecdsaError) as exc:
        raise SystemExit(f"error: {exc}") from None
    # FileReplay reads from the top of the file on every start, and session
    # ids restart with the process: a second start would reuse both
    marker = dealer_dir / f"party{party}.started"
    try:
        os.close(os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        node.close()
        raise SystemExit(f"error: party {party} already started from {replay}; "
                         "run `drpki deal` for a fresh dealer file") from None
    node.triple_source = source
    node.mac_key = source.mac_key
    return node


def _report(node: PartyNode, op: dict, result) -> None:
    name = op["op"]
    if name == "keygen":
        print(f"[party {node.party_id}] keygen {op['member']}: "
              f"pk {result.pk.to_bytes().hex()}")
    elif name == "preprocess-independent":
        print(f"[party {node.party_id}] +{len(result)} initial tuples")
    elif name == "preprocess-dependent":
        print(f"[party {node.party_id}] +{len(result)} final tuples for {op['member']}")
    else:
        pk = node.key_records[op["member"]].pk
        for message, res in zip(op["messages"], result):
            ok = ecdsa_verify(pk, bytes.fromhex(message), res.signature)
            print(f"[party {node.party_id}] signature "
                  f"{res.signature.to_bytes().hex()} (verifies: {ok})")


def _count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(f"count below 1: {text}")
    return count


def _parse_script_line(line: str) -> dict | None:
    """A script line's op, or None for a blank or comment line.  An unknown
    op, a missing argument, a count that is not a positive integer and a
    message that is not hex are refused."""
    parts = line.split()
    if not parts or parts[0].startswith("#"):
        return None
    name, args = parts[0], parts[1:]
    try:
        if name == "shutdown":
            return {"op": "shutdown"}
        if name == "keygen":
            return {"op": "keygen", "member": args[0]}
        if name == "preprocess-independent":
            return {"op": "preprocess-independent", "count": _count(args[0])}
        if name == "preprocess-dependent":
            return {"op": "preprocess-dependent", "member": args[0], "count": _count(args[1])}
        if name == "sign" and len(args) > 1:
            for message in args[1:]:
                bytes.fromhex(message)
            return {"op": "sign", "member": args[0], "messages": args[1:]}
    except (IndexError, ValueError):
        pass
    raise SystemExit(f"error: bad script line: {line!r}")


def _read_script(path: str) -> list[dict]:
    """The script's ops; refused past the control session's last round."""
    ops = [
        parsed
        for line in Path(path).read_text().splitlines()
        if (parsed := _parse_script_line(line)) is not None
    ]
    if len(ops) > MAX_ROUND:
        raise SystemExit(f"error: the script has {len(ops)} ops; serve runs "
                         f"at most {MAX_ROUND}, one per control round")
    return ops


def serve_node(config_path: str, party: int, script: str | None) -> int:
    cfg = load_config(config_path)
    pair_secret = cfg["cluster"].get("pair_secret")
    if not pair_secret:
        raise SystemExit("error: the config has no pair_secret; serve refuses "
                         "to run channels without a shared secret")
    if not cfg["cluster"].get("data_dir"):
        raise SystemExit("error: the config has no data_dir; serve keeps the "
                         "node's state on disk and refuses to run without one")
    ops = _read_script(script) if script else None
    node = _open_node(cfg, party)
    addresses = _addresses(cfg)
    participants = sorted(addresses)
    timeout = cfg["cluster"].getfloat("timeout", 60.0)
    transport = None
    sessions = 0

    def execute(op: dict) -> None:
        nonlocal sessions
        sessions += 1
        phase = OP_PHASES[op["op"]]
        session = node.open_session(sessions, phase, participants, transport, timeout)
        try:
            _report(node, op, node.run(op, session))
        finally:
            transport.drop(sessions)

    try:
        keys = derive_pair_keys(bytes.fromhex(pair_secret), node.config.n, node.epoch)
        transport = TcpNodeTransport(party, addresses, keys, connect_timeout=30.0)
        if ops is not None:
            # the initiator reads no control frames
            transport.drop(CONTROL_SESSION)
            for round_no, op in enumerate(ops, start=1):
                frame = SessionMessage(CONTROL_SESSION, PHASE_CONTROL, round_no,
                                       party, json.dumps(op, sort_keys=True).encode())
                for peer in participants:
                    if peer != party:
                        transport.send(peer, frame)
                if op["op"] == "shutdown":
                    break
                execute(op)
            return 0
        # responder loop: follow the initiator's control frames
        while True:
            msg = transport.recv(CONTROL_SESSION, timeout=timeout * 10)
            if msg is None:
                print(f"[party {party}] idle timeout, exiting", file=sys.stderr)
                return 1
            op = json.loads(msg.payload.decode())
            if op["op"] == "shutdown":
                print(f"[party {party}] shutdown")
                return 0
            execute(op)
    finally:
        node.close()
        if transport is not None:
            transport.close()
