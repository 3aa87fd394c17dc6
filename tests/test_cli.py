"""Command-line surface tests, driving drpki.cli.main directly (plus one
multi-process serve run over real sockets)."""

import json
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from drpki import serve as serve_mod
from drpki.cli import cluster_from_config, load_config, main, protocol_config
from drpki.preprocessing import FileReplay, PreprocessingError
from drpki.runtime import ConsentPolicy

FIXTURE = Path(__file__).parent / "data" / "churn_90d"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def workspace(tmp_path):
    assert run_cli("init", "--dir", str(tmp_path), "--scheme", "shamir",
                   "--seed", "11") == 0
    return tmp_path


def _write_roa(path, serial=7, member="memberX"):
    path.write_text(json.dumps({
        "kind": "roa", "serial": serial, "member": member, "asn": 64512,
        "prefixes": [{"prefix": "192.0.2.0/24", "max_length": 24}],
        "not_before": 1_500_000_000, "not_after": 1_900_000_000,
    }))


def test_init_writes_config(workspace):
    cfg = (workspace / "drpki.ini").read_text()
    assert "scheme = shamir" in cfg
    assert "pair_secret" in cfg
    assert "party5" in cfg


def test_keygen_preprocess_sign_workflow(workspace, capsys):
    config = str(workspace / "drpki.ini")
    assert run_cli("keygen", "--config", config, "--member", "memberX") == 0
    assert run_cli("preprocess", "--config", config, "--independent", "3") == 0
    assert run_cli("preprocess", "--config", config, "--member", "memberX", "3") == 0

    key_file = workspace / "member.key"
    assert run_cli("member", "new-key", "--out", str(key_file)) == 0
    assert run_cli("member", "register", "--config", config,
                   "--member", "memberX", "--key", str(key_file)) == 0

    roa_file = workspace / "roa.json"
    _write_roa(roa_file)
    token_file = workspace / "token.json"
    assert run_cli("consent", "issue", "--key", str(key_file),
                   "--member", "memberX", "--action", "ISSUE",
                   "--payload", str(roa_file), "--config", config,
                   "--out", str(token_file)) == 0
    assert run_cli("consent", "show", str(token_file)) == 0

    assert run_cli("sign", "--config", config, "--member", "memberX",
                   "--in", str(roa_file), "--consent", str(token_file)) == 0
    out = capsys.readouterr().out
    assert "published roa-7.obj" in out
    assert (workspace / "data" / "party3" / "objects" / "roa-7.obj").exists()


def test_member_register_refuses_identity_key(workspace, capsys):
    config = str(workspace / "drpki.ini")
    key_file = workspace / "identity.key"
    key_file.write_text(json.dumps({"sk": "00" * 32, "pk": "00"}))
    with pytest.raises(SystemExit):
        run_cli("member", "register", "--config", config,
                "--member", "memberX", "--key", str(key_file))
    assert "identity" in capsys.readouterr().err
    assert not list((workspace / "data").glob("party*/members.jsonl"))


def test_test_mode_env_var_refuses_production_config(workspace, monkeypatch):
    monkeypatch.setenv("DRPKI_TEST_MODE", "1")
    with pytest.raises(SystemExit):
        run_cli("keygen", "--config", str(workspace / "drpki.ini"),
                "--member", "memberX")
    # a test-mode config is accepted under the env var
    config_path = workspace / "drpki.ini"
    config_path.write_text(
        config_path.read_text().replace("test_mode = false", "test_mode = true")
    )
    assert run_cli("keygen", "--config", str(config_path),
                   "--member", "memberX") == 0


def test_malformed_policy_boolean_is_rejected(workspace):
    config_path = workspace / "drpki.ini"
    config_path.write_text(
        config_path.read_text().replace("flag_on_failed_consent = false",
                                        "flag_on_failed_consent = maybe")
    )
    with pytest.raises(ValueError, match="Not a boolean"):
        cluster_from_config(load_config(str(config_path)))


def test_a_config_that_still_names_auto_replenish_loads(workspace):
    # the key of earlier versions is not read: a short request always refills
    config_path = workspace / "drpki.ini"
    config_path.write_text(
        config_path.read_text().replace("[policy]\n", "[policy]\nauto_replenish = false\n")
    )
    cluster = cluster_from_config(load_config(str(config_path)))
    assert cluster.policy == ConsentPolicy()
    cluster.close()


def test_sign_without_consent_aborts(workspace, capsys):
    config = str(workspace / "drpki.ini")
    run_cli("keygen", "--config", config, "--member", "memberX")
    run_cli("preprocess", "--config", config, "--independent", "2")
    run_cli("preprocess", "--config", config, "--member", "memberX", "2")
    roa_file = workspace / "roa.json"
    _write_roa(roa_file)
    assert run_cli("sign", "--config", config, "--member", "memberX",
                   "--in", str(roa_file)) == 1
    assert "aborted: consent-missing" in capsys.readouterr().out


def test_flagged_revoke_with_intervention(workspace, capsys):
    config_path = workspace / "drpki.ini"
    config_path.write_text(
        config_path.read_text().replace("flag_on_failed_consent = false",
                                        "flag_on_failed_consent = true")
    )
    config = str(config_path)
    run_cli("keygen", "--config", config, "--member", "memberX")
    run_cli("preprocess", "--config", config, "--independent", "4")
    run_cli("preprocess", "--config", config, "--member", "memberX", "4")
    crl_file = workspace / "crl.json"
    crl_file.write_text(json.dumps({
        "kind": "crl", "issuer": "memberX", "this_update": 1_600_000_000,
        "revoked_serials": [7],
    }))
    rc = run_cli("sign", "--config", config, "--member", "memberX",
                 "--action", "REVOKE", "--in", str(crl_file))
    assert rc == 2
    out = capsys.readouterr().out
    ticket = out.split("ticket ")[1].split()[0]

    run_cli("intervene", "approve", ticket, "--config", config, "--party", "1")
    run_cli("intervene", "approve", ticket, "--config", config, "--party", "2")
    assert run_cli("intervene", "approve", ticket, "--config", config,
                   "--party", "4", "--complete") == 0
    out = capsys.readouterr().out
    assert "completed: published" in out
    run_cli("intervene", "list", "--config", config)
    assert "completed" in capsys.readouterr().out


def test_bench_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run_cli("bench", "--scheme", "shamir", "--setting", "lan",
                   "--phases", "online", "--signatures", "2", "--reps", "2",
                   "--tuples", "2", "--out", str(out)) == 0
    assert "shamir" in capsys.readouterr().out
    body = out.read_text().splitlines()
    assert body[0].startswith("scheme,setting,phase")
    assert len(body) == 2


def test_analyze_command(tmp_path, capsys):
    bench_csv = tmp_path / "bench.csv"
    run_cli("bench", "--scheme", "semi", "--setting", "lan",
            "--phases", "online", "--signatures", "2", "--reps", "2",
            "--tuples", "2", "--out", str(bench_csv))
    capsys.readouterr()
    out = tmp_path / "capacity.json"
    plot = tmp_path / "per_day.csv"
    assert run_cli("analyze", "--archive", str(FIXTURE), "--bench",
                   str(bench_csv), "--out", str(out), "--plot-csv", str(plot)) == 0
    report = json.loads(out.read_text())
    assert report["window"]["days"] == 88  # 89 day files, first has no predecessor
    assert report["per_scheme"][0]["scheme"] == "semi"
    assert plot.exists()
    printed = capsys.readouterr().out
    assert "headroom" in printed


def _free_port_base():
    socks = []
    try:
        for _ in range(5):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        base = max(s.getsockname()[1] for s in socks) + 100
    finally:
        for s in socks:
            s.close()
    return min(base, 64000)


def _serve_pipeline(tmp_path, count, script_lines, exit_code=0):
    """Deal `count` records per party, run `script_lines` with party 1 as the
    initiator of five serve processes; returns the config and each party's
    output and error output, once every process exited `exit_code`."""
    base = _free_port_base()
    assert run_cli("init", "--dir", str(tmp_path), "--scheme", "shamir",
                   "--seed", "3", "--port-base", str(base)) == 0
    config = str(tmp_path / "drpki.ini")
    assert run_cli("deal", "--config", config, "--count", str(count), "--masks", "6",
                   "--out", str(tmp_path / "data" / "dealer")) == 0
    script = tmp_path / "script.txt"
    script.write_text("".join(line + "\n" for line in script_lines))
    responders = [
        subprocess.Popen(
            [sys.executable, "-m", "drpki.cli", "serve", "--config", config,
             "--party", str(p)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for p in (2, 3, 4, 5)
    ]
    time.sleep(0.6)
    initiator = subprocess.run(
        [sys.executable, "-m", "drpki.cli", "serve", "--config", config,
         "--party", "1", "--script", str(script)],
        capture_output=True, text=True, timeout=90,
    )
    outputs, errors = [initiator.stdout], [initiator.stderr]
    for proc in responders:
        out, err = proc.communicate(timeout=90)
        outputs.append(out)
        errors.append(err)
        assert proc.returncode == exit_code, err
    assert initiator.returncode == exit_code, initiator.stderr
    return config, outputs, errors


def _signature_lines(outputs, count):
    """Each party's `count` verified signature lines; all five the same bytes."""
    signatures = set()
    for out in outputs:
        lines = [l for l in out.splitlines() if "signature" in l]
        assert len(lines) == count and all("verifies: True" in l for l in lines)
        signatures.add(tuple(l.split("signature ")[1].split()[0] for l in lines))
    assert len(signatures) == 1  # all five processes assembled the same bytes


def test_serve_multiprocess_pipeline(tmp_path):
    config, outputs, _ = _serve_pipeline(tmp_path, 4, [
        "keygen tcp-member",
        "preprocess-independent 2",
        "preprocess-dependent tcp-member 2",
        "sign tcp-member " + b"over tcp".hex() + " " + b"again".hex(),
        "shutdown",
    ])
    _signature_lines(outputs, 2)
    data_dir = Path(load_config(config)["cluster"]["data_dir"])
    for p in range(1, 6):
        audit = (data_dir / f"party{p}" / "audit.jsonl").read_text().splitlines()
        keygens = [e for e in map(json.loads, audit) if e["event"] == "keygen"]
        assert [e["member"] for e in keygens] == ["tcp-member"]


def test_deal_of_n_records_serves_n_final_tuples(tmp_path, capsys):
    # phase 3 draws no dealer record, so a deal of 3 records per party
    # restocks 3 final tuples and signs with each
    _, outputs, _ = _serve_pipeline(tmp_path, 3, [
        "keygen tcp-member",
        "preprocess-independent 3",
        "preprocess-dependent tcp-member 3",
        "sign tcp-member " + " ".join((b"message %d" % i).hex() for i in range(3)),
        "shutdown",
    ])
    assert "(3 records, each one final tuple, and 6 masks each)" in capsys.readouterr().out
    assert all("+3 final tuples for tcp-member" in out for out in outputs)
    _signature_lines(outputs, 3)


def test_a_dealer_file_that_runs_dry_ends_serve_with_one_error_line(tmp_path):
    # one dealer record per party and a batch of two: each process draws
    # its second triple from an empty file and exits with one error line
    _, _, errors = _serve_pipeline(tmp_path, 1, ["preprocess-independent 2", "shutdown"],
                                   exit_code=1)
    assert errors == ["error: triple stock depleted\n"] * 5


def _replay(config, dealer_dir, party):
    proto = protocol_config(load_config(config))
    return FileReplay(str(dealer_dir / f"party{party}.triples"), party, proto.scheme,
                      proto.n, proto.t)


def test_deal_draws_a_fresh_epoch_each_run(workspace):
    config = str(workspace / "drpki.ini")
    epochs = set()
    for run in ("a", "b"):
        out = workspace / f"dealer-{run}"
        assert run_cli("deal", "--config", config, "--count", "1", "--masks", "0",
                       "--out", str(out)) == 0
        epochs.add(_replay(config, out, 1).epoch)
        assert _replay(config, out, 5).epoch in epochs
    assert len(epochs) == 2


def test_deal_with_count_0_writes_a_masks_only_file_per_party(workspace):
    config = str(workspace / "drpki.ini")
    out = workspace / "dealer"
    assert run_cli("deal", "--config", config, "--count", "0", "--masks", "5",
                   "--out", str(out)) == 0
    scheme = protocol_config(load_config(config)).scheme
    for party in range(1, 6):
        replay = _replay(config, out, party)
        assert (len(replay.triples), len(replay.masks)) == (0, 5)
        assert [(m.scheme, m.owner) for m in replay.masks] == [(scheme, party)] * 5
        with pytest.raises(PreprocessingError, match="triple stock depleted"):
            replay.next_triple()


def test_serve_refuses_config_without_pair_secret(workspace):
    config_path = workspace / "drpki.ini"
    assert run_cli("deal", "--config", str(config_path), "--count", "1",
                   "--out", str(workspace / "data" / "dealer")) == 0
    cfg = load_config(str(config_path))
    cfg.remove_option("cluster", "pair_secret")
    with open(config_path, "w") as out:
        cfg.write(out)
    with pytest.raises(SystemExit, match="pair_secret"):
        run_cli("serve", "--config", str(config_path), "--party", "1")


def test_serve_refuses_config_without_data_dir(workspace, monkeypatch):
    monkeypatch.setattr("drpki.serve.TcpNodeTransport", _NoMesh)
    config_path = workspace / "drpki.ini"
    assert run_cli("deal", "--config", str(config_path), "--count", "1",
                   "--out", str(workspace / "data" / "dealer")) == 0
    cfg = load_config(str(config_path))
    cfg.remove_option("cluster", "data_dir")
    with open(config_path, "w") as out:
        cfg.write(out)
    with pytest.raises(SystemExit, match="data_dir"):
        run_cli("serve", "--config", str(config_path), "--party", "1")


def test_deal_rejects_unknown_scheme(workspace, capsys):
    config_path = workspace / "drpki.ini"
    cfg = load_config(str(config_path))
    cfg["cluster"]["scheme"] = "bogus"
    with open(config_path, "w") as out:
        cfg.write(out)
    with pytest.raises(SystemExit):
        run_cli("deal", "--config", str(config_path), "--count", "1",
                "--out", str(workspace / "dealer"))
    assert "error: unknown scheme 'bogus'" in capsys.readouterr().err


def test_serve_refuses_to_start_without_dealer_file(workspace):
    with pytest.raises(SystemExit, match="no dealer file"):
        run_cli("serve", "--config", str(workspace / "drpki.ini"), "--party", "1")


class _NoMesh:
    """Stands in for the socket mesh of a serve whose script only shuts down."""

    def __init__(self, *args, **kwargs):
        pass

    def send(self, receiver, msg):
        pass

    def drop(self, session_id):
        pass

    def close(self):
        pass


class _NoSocket:
    """Stands in for the socket mesh of a serve that must refuse to start."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("serve went on to bind a socket")


@pytest.mark.parametrize("edit, message", [
    ("other-party", "is not a dealer file of party 1 under SHAMIR"),
    ("other-scheme", "is not a dealer file of party 1 under SHAMIR"),
    ("foreign-records", "party1.triples line 2 does not decode: "
                        r"SharingError\('a is not a share of party 1 under SHAMIR'\)"),
], ids=["other-party", "other-scheme", "foreign-records"])
def test_serve_refuses_a_dealer_file_of_another_node(workspace, monkeypatch, edit, message):
    # party 2's file renamed for party 1, a file dealt under another scheme,
    # or party 1's header over party 2's records, is refused with one error
    # line before the node binds a socket or marks the file
    monkeypatch.setattr("drpki.serve.TcpNodeTransport", _NoSocket)
    config = str(workspace / "drpki.ini")
    dealer = workspace / "data" / "dealer"
    if edit == "other-scheme":
        cfg = load_config(config)
        cfg["cluster"]["scheme"] = "semi"
        other = workspace / "semi.ini"
        with open(other, "w") as out:
            cfg.write(out)
        assert run_cli("deal", "--config", str(other), "--count", "1",
                       "--out", str(dealer)) == 0
    elif edit == "other-party":
        assert run_cli("deal", "--config", config, "--count", "1", "--out", str(dealer)) == 0
        (dealer / "party2.triples").replace(dealer / "party1.triples")
    else:
        assert run_cli("deal", "--config", config, "--count", "1", "--out", str(dealer)) == 0
        head = (dealer / "party1.triples").read_text().split("\n", 1)[0]
        records = (dealer / "party2.triples").read_text().split("\n", 1)[1]
        (dealer / "party1.triples").write_text(head + "\n" + records)
    with pytest.raises(SystemExit, match=rf"\Aerror: [^\n]*{message}[^\n]*\Z"):
        run_cli("serve", "--config", config, "--party", "1")
    assert not (dealer / "party1.started").exists()


def test_serve_refuses_a_mascot_dealer_file_without_its_mac_key(tmp_path, monkeypatch):
    # such a node would start with no MAC key and fail its first keygen
    # mid-session, its peers waiting out the timeout
    monkeypatch.setattr("drpki.serve.TcpNodeTransport", _NoSocket)
    assert run_cli("init", "--dir", str(tmp_path), "--scheme", "mascot", "--seed", "5") == 0
    config = str(tmp_path / "drpki.ini")
    dealer = tmp_path / "data" / "dealer"
    assert run_cli("deal", "--config", config, "--count", "1", "--out", str(dealer)) == 0
    path = dealer / "party1.triples"
    head, rest = path.read_text().split("\n", 1)
    header = json.loads(head)
    del header["mac_key"]
    path.write_text(json.dumps(header) + "\n" + rest)
    with pytest.raises(SystemExit, match="holds no MAC key share"):
        run_cli("serve", "--config", config, "--party", "1")
    assert not (dealer / "party1.started").exists()


@pytest.mark.parametrize("name, line, message", [
    ("keys.jsonl", b"not json", "keys.jsonl line 1 does not decode"),
    ("tuples.jsonl", b'{"party": 2, "store": "tuples"}', "is not a tuple store of party 1"),
], ids=["bad-line", "foreign-tuple-store"])
def test_serve_refuses_a_node_state_that_does_not_load(workspace, monkeypatch, name, line,
                                                        message):
    # the node's state is read before the dealer file is marked started, so
    # once the state is mended the same dealer file still starts
    monkeypatch.setattr("drpki.serve.TcpNodeTransport", _NoSocket)
    config = str(workspace / "drpki.ini")
    dealer = workspace / "data" / "dealer"
    assert run_cli("deal", "--config", config, "--count", "1", "--out", str(dealer)) == 0
    state = workspace / "data" / "party1" / name
    state.parent.mkdir(parents=True)
    state.write_bytes(line + b"\n")
    with pytest.raises(SystemExit, match=f"^error: .*{message}"):
        run_cli("serve", "--config", config, "--party", "1")
    assert not (dealer / "party1.started").exists()
    assert state.read_bytes() == line + b"\n"


def test_command_on_a_node_log_that_does_not_decode_exits_with_one_line(workspace, capsys):
    config = str(workspace / "drpki.ini")
    keys = workspace / "data" / "party1" / "keys.jsonl"
    keys.parent.mkdir(parents=True)
    keys.write_bytes(b"not json\n")
    with pytest.raises(SystemExit) as exited:
        run_cli("keygen", "--config", config, "--member", "memberX")
    assert exited.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "keys.jsonl line 1 does not decode" in err


@pytest.mark.parametrize("argv, message", [
    (["keygen", "--member", "x" * 24], "longer than 16 bytes"),
    (["preprocess", "--member", "nobody", "5"], "no key shares for member 'nobody'"),
    (["preprocess", "--independent", "-3"], "positive integer, got -3"),
    (["preprocess", "--member", "m", "-4"], "positive integer, got -4"),
    (["intervene", "approve", "deadbeef", "--party", "2"], "unknown ticket deadbeef"),
    (["intervene", "approve", "deadbeef", "--party", "9"], "party 9 is not a live party"),
], ids=["long-member-id", "member-without-key", "negative-independent-count",
        "negative-member-count", "unknown-ticket", "party-not-live"])
def test_refused_command_exits_with_one_error_line(workspace, capsys, argv, message):
    with pytest.raises(SystemExit) as exited:
        run_cli(*argv, "--config", str(workspace / "drpki.ini"))
    assert exited.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def _input_files(workspace):
    """A member key, a ROA description and a token for it, plus input files
    that cannot be read: missing, not JSON, a token file of the earlier
    format (no r_point, or an R off the curve) and a ROA without its ASN."""
    config = str(workspace / "drpki.ini")
    files = {"key": workspace / "member.key", "roa": workspace / "roa.json",
             "token": workspace / "token.json"}
    assert run_cli("member", "new-key", "--out", str(files["key"])) == 0
    _write_roa(files["roa"])
    blob = json.loads(files["key"].read_text())
    roa = json.loads(files["roa"].read_text())
    roa["ee_pk"] = blob["pk"]
    files["roa"].write_text(json.dumps(roa))
    assert run_cli("consent", "issue", "--key", str(files["key"]), "--member", "memberX",
                   "--action", "ISSUE", "--payload", str(files["roa"]),
                   "--out", str(files["token"])) == 0
    files["missing"] = workspace / "nope.json"
    files["not-json"] = Path(config)
    token = json.loads(files["token"].read_text())
    earlier = dict(token)
    del earlier["r_point"]
    files["no-r"] = workspace / "earlier.json"
    files["no-r"].write_text(json.dumps(earlier))
    off_curve = dict(token, r_point="04" + "00" * 31 + "01" + "00" * 31 + "02")
    files["r-off-curve"] = workspace / "off.json"
    files["r-off-curve"].write_text(json.dumps(off_curve))
    del roa["asn"]
    files["no-asn"] = workspace / "no-asn.json"
    files["no-asn"].write_text(json.dumps(roa))
    return config, files


_COMMANDS = {
    "sign --in": lambda c, f, bad: ["sign", "--config", c, "--member", "memberX",
                                    "--in", bad],
    "sign --consent": lambda c, f, bad: ["sign", "--config", c, "--member", "memberX",
                                         "--in", str(f["roa"]), "--consent", bad],
    "consent show": lambda c, f, bad: ["consent", "show", bad],
    "consent issue --key": lambda c, f, bad: [
        "consent", "issue", "--key", bad, "--member", "memberX", "--action", "ISSUE",
        "--payload", str(f["roa"]), "--out", str(f["token"])],
    "consent issue --payload": lambda c, f, bad: [
        "consent", "issue", "--key", str(f["key"]), "--member", "memberX",
        "--action", "ISSUE", "--payload", bad, "--out", str(f["token"])],
    "member register --key": lambda c, f, bad: ["member", "register", "--config", c,
                                                "--member", "memberX", "--key", bad],
}
_TOKEN_READERS = ("sign --consent", "consent show")


@pytest.mark.parametrize("command, case, message", [
    *[(command, "missing", "cannot read") for command in _COMMANDS],
    *[(command, "not-json", "is not JSON") for command in _COMMANDS],
    *[(command, "no-r", "holds no r_point") for command in _TOKEN_READERS],
    *[(command, "r-off-curve", "is not a consent token file") for command in _TOKEN_READERS],
    ("sign --in", "no-asn", "is not an object description"),
])
def test_unreadable_input_file_exits_with_one_error_line(workspace, capsys, command, case,
                                                         message):
    config, files = _input_files(workspace)
    capsys.readouterr()
    bad = str(files[case])
    with pytest.raises(SystemExit) as exited:
        run_cli(*_COMMANDS[command](config, files, bad))
    assert exited.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and bad in err
    assert err.count("\n") == 1


def test_serve_refuses_second_start_from_one_dealer_file(workspace, monkeypatch):
    monkeypatch.setattr("drpki.serve.TcpNodeTransport", _NoMesh)
    config = str(workspace / "drpki.ini")
    script = workspace / "script.txt"
    script.write_text("shutdown\n")

    def deal():
        return run_cli("deal", "--config", config, "--count", "1",
                       "--out", str(workspace / "data" / "dealer"))

    def serve():
        return run_cli("serve", "--config", config, "--party", "1",
                       "--script", str(script))

    assert deal() == 0
    assert serve() == 0
    with pytest.raises(SystemExit, match="already started"):
        serve()
    assert deal() == 0  # a fresh epoch lifts the refusal
    assert serve() == 0


def test_serve_refuses_a_script_of_more_ops_than_control_rounds(workspace, monkeypatch):
    # the control session numbers its 2-byte rounds by op
    monkeypatch.setattr("drpki.serve.TcpNodeTransport", _NoSocket)
    config = str(workspace / "drpki.ini")
    dealer = workspace / "data" / "dealer"
    assert run_cli("deal", "--config", config, "--count", "1", "--out", str(dealer)) == 0
    script = workspace / "script.txt"
    script.write_text("keygen m\n" * 65534 + "shutdown\n")
    assert len(serve_mod._read_script(str(script))) == 65535
    script.write_text("keygen m\n" * 65535 + "shutdown\n")
    with pytest.raises(SystemExit, match="65536 ops"):
        run_cli("serve", "--config", config, "--party", "1", "--script", str(script))
    assert not (dealer / "party1.started").exists()


@pytest.mark.parametrize("line", [
    "keygen", "preprocess-independent ten", "preprocess-dependent m", "sign m zz",
    "preprocess-independent -3", "preprocess-dependent m 0",
], ids=["keygen-no-member", "count-not-an-integer", "dependent-no-count", "message-not-hex",
        "negative-count", "zero-count"])
def test_serve_refuses_a_malformed_script_line(workspace, monkeypatch, line):
    # refused at parse, before the node opens, with one error line
    monkeypatch.setattr("drpki.serve.TcpNodeTransport", _NoSocket)
    config = str(workspace / "drpki.ini")
    dealer = workspace / "data" / "dealer"
    assert run_cli("deal", "--config", config, "--count", "1", "--out", str(dealer)) == 0
    script = workspace / "script.txt"
    script.write_text(f"keygen m\n{line}\nshutdown\n")
    with pytest.raises(SystemExit, match=rf"\Aerror: bad script line: '{line}'\Z"):
        run_cli("serve", "--config", config, "--party", "1", "--script", str(script))
    assert not (dealer / "party1.started").exists()


def test_deal_cut_short_keeps_every_started_file_refused(workspace, monkeypatch):
    monkeypatch.setattr("drpki.serve.TcpNodeTransport", _NoMesh)
    config = str(workspace / "drpki.ini")
    dealer = workspace / "data" / "dealer"
    script = workspace / "script.txt"
    script.write_text("shutdown\n")
    assert run_cli("deal", "--config", config, "--count", "1", "--out", str(dealer)) == 0
    old = {p: (dealer / f"party{p}.triples").read_bytes() for p in range(1, 6)}
    for p in range(1, 6):
        (dealer / f"party{p}.started").touch()  # every party has started
    real_write = serve_mod._write_file

    def failing_write(path, data):
        if path.name == "party3.triples":
            raise OSError("disk full")
        real_write(path, data)

    monkeypatch.setattr(serve_mod, "_write_file", failing_write)
    with pytest.raises(OSError, match="disk full"):
        run_cli("deal", "--config", config, "--count", "1", "--out", str(dealer))
    for p in range(1, 6):
        assert (dealer / f"party{p}.started").exists()
        _replay(config, dealer, p)  # parses whole: old or new
    for p in range(3, 6):
        assert (dealer / f"party{p}.triples").read_bytes() == old[p]
    with pytest.raises(SystemExit, match="already started"):
        run_cli("serve", "--config", config, "--party", "3", "--script", str(script))
