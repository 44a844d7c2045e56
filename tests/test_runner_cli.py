import copy
from pathlib import Path

import pytest
import yaml

from datamarket import cli, ledger as ledger_mod, runner
from datamarket.messages import DataResponse, PayloadDelivery, decode
from datamarket.runner import run_scenario
from datamarket.scenario import load_scenario, random_scenario, scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_doc(**overrides):
    doc = {
        "name": "unit",
        "network": {"seed": 0, "latency": [1, 1], "drop_rate": 0.0},
        "buyers": [{"name": "b", "seed": 1, "balance": 200}],
        "sellers": [
            {
                "name": "s1",
                "seed": 10,
                "attributes": {"country": "AR"},
                "data": {"records": "row-s1-aaaa"},
            },
            {
                "name": "s2",
                "seed": 11,
                "attributes": {"country": "AR"},
                "data": {"records": "row-s2-bbbb"},
            },
        ],
        "notaries": [{"name": "n", "seed": 2, "fee": 2, "policy": {"mode": "ALWAYS"}}],
        "orders": [
            {
                "buyer": "b",
                "audience": [{"attribute": "country", "op": "eq", "value": "AR"}],
                "schema": "records",
                "price": 10,
                "audit_budget": 10,
                "notaries": ["n"],
            }
        ],
    }
    doc.update(overrides)
    return doc


def run_doc(doc, **kwargs):
    return run_scenario(scenario_from_dict(copy.deepcopy(doc)), **kwargs)


# -- end-to-end behaviour -------------------------------------------------


def test_honest_two_sellers_both_paid():
    result = run_doc(base_doc())
    report = result.report
    assert report.ok and report.quiescent
    assert sorted((r.seller_name, r.verdict, r.outcome) for r in report.rows) == [
        ("s1", "b", "SELLER_PAID"),
        ("s2", "b", "SELLER_PAID"),
    ]
    assert report.balances["s1"] == 10 and report.balances["s2"] == 10
    assert report.balances["n"] == 4
    assert report.balances["b"] == 200 - 2 * 10 - 2 * 2


def test_tampering_seller_refunded():
    doc = base_doc()
    doc["sellers"][0]["mutation"] = "substitute_data"
    report = run_doc(doc).report
    rows = {r.seller_name: (r.verdict, r.outcome) for r in report.rows}
    assert rows["s1"] == ("c", "BUYER_REFUNDED")
    assert rows["s2"] == ("b", "SELLER_PAID")
    assert report.ok
    assert report.balances.get("s1", 0) == 0


def test_non_matching_seller_never_participates():
    doc = base_doc()
    doc["sellers"][1]["attributes"] = {"country": "UY"}
    report = run_doc(doc).report
    assert report.ok
    assert [r.seller_name for r in report.rows] == ["s1"]
    assert "s2" not in report.balances  # never earned, never minted


def test_unaudited_path_pays_seller_without_fee():
    doc = base_doc()
    doc["notaries"][0]["policy"] = {"mode": "NEVER"}
    report = run_doc(doc).report
    assert report.ok
    assert all(r.verdict == "a" and r.outcome == "SELLER_PAID" for r in report.rows)
    assert "n" not in report.balances  # unaudited trades pay no notary fee


def test_unselected_seller_never_uploads_payload():
    doc = base_doc()
    doc["buyers"][0]["selection"] = {"rule": "FIRST_K", "k": 1}
    result = run_doc(doc)
    assert result.report.ok
    assert len(result.report.rows) == 1
    winner = result.report.rows[0].seller_name
    loser = {"s1", "s2"} - {winner}

    offered, delivered = set(), set()
    digest_owner = {}
    for envelope in result.network.transcript:
        try:
            message = decode(envelope.message)
        except Exception:
            continue
        if isinstance(message, DataResponse):
            for seller in result.sellers:
                if message.payment_address == seller.address:
                    digest_owner[message.digest()] = seller.name
                    offered.add(seller.name)
        elif isinstance(message, PayloadDelivery):
            delivered.add(digest_owner[message.response_digest])
    assert offered == {"s1", "s2"}  # both responded...
    assert loser not in delivered  # ...but only the selected one uploaded


def test_wrong_notary_response_rejected_without_settlement():
    doc = base_doc()
    doc["sellers"][0]["mutation"] = "wrong_notary"
    report = run_doc(doc).report
    assert report.ok
    assert [r.seller_name for r in report.rows] == ["s2"]
    assert "s1" not in report.balances


def test_price_mismatch_response_rejected():
    doc = base_doc()
    doc["sellers"][0]["mutation"] = "price_mismatch"
    report = run_doc(doc).report
    assert report.ok
    assert [r.seller_name for r in report.rows] == ["s2"]


def test_forged_certificate_rejected_and_balance_neutral():
    doc = base_doc()
    doc["buyers"][0]["mutation"] = "forged_certificate"
    result = run_doc(doc)
    report = result.report
    assert report.ok
    buyer = result.buyers[0]
    assert len(buyer.rejected_submissions) >= 2  # one forgery per settlement attempt
    # Genuine certificates still settle afterwards, with honest arithmetic.
    assert report.balances["s1"] == 10 and report.balances["s2"] == 10


def test_certificate_replay_rejected():
    doc = base_doc()
    doc["buyers"][0]["mutation"] = "certificate_replay"
    result = run_doc(doc)
    assert result.report.ok
    assert len(result.buyers[0].rejected_submissions) >= 1
    assert result.report.balances["s1"] == 10 and result.report.balances["s2"] == 10


def test_oracle_mismatch_reported():
    doc = base_doc()
    doc["expected_settlements"] = [
        {"seller": "s1", "verdict": "c", "outcome": "BUYER_REFUNDED"},
        {"seller": "s2", "verdict": "b", "outcome": "SELLER_PAID"},
    ]
    report = run_doc(doc).report
    assert not report.ok and report.oracle_failures
    assert report.exit_code() == 1


def test_empty_scenario_is_quiet_pass():
    report = run_doc({"name": "empty"}).report
    assert report.ok and report.quiescent and not report.rows


def test_same_seed_reproduces_byte_identical_results():
    doc = base_doc()
    doc["network"]["drop_rate"] = 0.1
    doc["network"]["latency"] = [1, 3]
    a, b = run_doc(doc), run_doc(doc)
    assert a.report.render() == b.report.render()
    assert ledger_mod.journal_bytes(a.ledger) == ledger_mod.journal_bytes(b.ledger)


def test_different_seed_changes_network_schedule():
    doc = base_doc()
    doc["network"]["latency"] = [1, 5]
    doc["orders"][0]["response_window"] = 15
    doc["orders"][0]["countersign_window"] = 10
    a = run_doc(doc, seed=1)
    b = run_doc(doc, seed=2)
    assert a.report.ok and b.report.ok
    # Settlement outcomes agree even though timing differs.
    rows = lambda r: sorted((x.seller_name, x.verdict, x.outcome) for x in r.report.rows)
    assert rows(a) == rows(b)


def test_random_scenarios_always_pass_invariants():
    for seed in range(25):
        result = run_scenario(random_scenario(seed))
        assert result.report.ok, (seed, result.report.invariant_failures)


# -- command line ---------------------------------------------------------


def test_cli_run_bank_scenario(tmp_path, capsys):
    journal = tmp_path / "bank.journal"
    report = tmp_path / "bank.txt"
    code = cli.main(
        [
            "run",
            str(SCENARIOS / "bank.yaml"),
            "--journal-out",
            str(journal),
            "--report-out",
            str(report),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "invariants: PASS" in out
    assert report.read_text() == out
    assert journal.stat().st_size > 0
    assert cli.main(["verify", str(journal)]) == 0


def test_cli_verify_reports_event_count(tmp_path, capsys):
    result = run_scenario(load_scenario(SCENARIOS / "bank.yaml"))
    journal = tmp_path / "bank.journal"
    ledger_mod.write_journal(journal, result.ledger)
    assert cli.main(["verify", str(journal)]) == 0
    events = len(result.ledger.journal)
    assert events > 0
    assert f"events: {events}\n" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["bank.yaml", "telco.yaml"])
def test_verified_journal_reserializes_to_the_same_bytes(name):
    data = ledger_mod.journal_bytes(run_scenario(load_scenario(SCENARIOS / name)).ledger)
    assert ledger_mod.journal_bytes(ledger_mod.verify_journal(data)) == data


def test_cli_verify_rejects_tampered_journal(tmp_path, capsys):
    journal = tmp_path / "telco.journal"
    assert cli.main(["run", str(SCENARIOS / "telco.yaml"), "--journal-out", str(journal)]) == 0
    capsys.readouterr()
    data = bytearray(journal.read_bytes())
    data[len(data) // 2] ^= 0x01
    journal.write_bytes(bytes(data))
    assert cli.main(["verify", str(journal)]) == 1


def test_cli_verify_rejects_truncated_journal(tmp_path, capsys):
    journal = tmp_path / "short.journal"
    assert cli.main(["run", str(SCENARIOS / "bank.yaml"), "--journal-out", str(journal)]) == 0
    capsys.readouterr()
    journal.write_bytes(journal.read_bytes()[:-70])
    assert cli.main(["verify", str(journal)]) == 1


def test_cli_missing_scenario_is_input_error(capsys):
    assert cli.main(["run", "no-such-file.yaml"]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_bad_scenario_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("orders:\n  - buyer: ghost\n    schema: s\n    price: 1\n    notaries: [n]\n")
    assert cli.main(["run", str(bad)]) == 2


# One edit each to `bank.yaml`: (path to the edited value, new value).
BAD_BANK_EDITS = {
    "latency with one bound": (("network", "latency"), [1]),
    "network seed not a number": (("network", "seed"), "abc"),
    "drop rate above 1": (("network", "drop_rate"), 2),
    "negative balance": (("buyers", 0, "balance"), -5),
    "unknown selection rule": (("buyers", 0, "selection"), {"rule": "NOPE"}),
    "unknown notarization mode": (("notaries", 0, "policy"), {"mode": "NOPE"}),
    "zero price": (("orders", 0, "price"), 0),
    "negative audit budget": (("orders", 0, "audit_budget"), -3),
    "buyers not a list": (("buyers",), 5),
    "seller mutation on a buyer": (("buyers", 0, "mutation"), "bit_flip"),
    "negative notary fee": (("notaries", 0, "fee"), -1),
    "sampling rate above 1": (("notaries", 0, "policy"), {"mode": "SAMPLE", "rate": 2}),
}


@pytest.mark.parametrize("path, value", BAD_BANK_EDITS.values(), ids=BAD_BANK_EDITS.keys())
def test_cli_bad_scenario_value_is_input_error(tmp_path, capsys, path, value):
    doc = yaml.safe_load((SCENARIOS / "bank.yaml").read_text())
    *parents, key = path
    target = doc
    for part in parents:
        target = target[part]
    target[key] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert cli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


def test_cli_missing_journal_is_input_error(capsys):
    assert cli.main(["verify", "no-such.journal"]) == 2


def test_cli_seed_reproducibility(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        journal = tmp_path / f"{name}.journal"
        assert (
            cli.main(
                ["run", str(SCENARIOS / "bank.yaml"), "--seed", "7", "--journal-out", str(journal)]
            )
            == 0
        )
        outs.append((capsys.readouterr().out, journal.read_bytes()))
    assert outs[0] == outs[1]


def test_load_scenario_files_validate():
    for path in sorted(SCENARIOS.glob("*.yaml")):
        scenario = load_scenario(path)
        assert scenario.buyers and scenario.orders


# -- leak scans -------------------------------------------------------------


@pytest.mark.parametrize("one_pass", [True, False], ids=["one-pass", "per-secret"])
def test_leak_scans_report_every_secret_in_every_envelope(monkeypatch, one_pass):
    # Both ways of scanning must word the same failures.
    monkeypatch.setattr(runner, "_ONE_PASS_MIN_BYTES", 0 if one_pass else 1 << 62)
    doc = base_doc(secrets=["confidential-x"])
    # s1's data is a prefix of s2's; s3 never matches the audience but its
    # data is still a secret.
    doc["sellers"][1]["data"] = {"records": "row-s1-aaaa-plus"}
    doc["sellers"].append(
        {"name": "s3", "seed": 12, "attributes": {"country": "UY"}, "data": {"records": "zz-s3-cccc"}}
    )
    result = run_doc(doc)
    assert result.report.ok
    market, network = result.ledger, result.network
    sender = network.transcript[0].sender
    for endpoint, message in [
        ("ub:b", b"\x00row-s1-aaaa\x00"),
        ("notary:n", b"..row-s1-aaaa-plus.."),
        ("buyer:b", b"zz-s3-cccc and row-s1-aaaa"),
        ("ub:b", b"row-s1-aaa zz-s3-ccc confidential-x"),
    ]:
        network.send(sender, endpoint, message)
    real_journal_bytes = ledger_mod.journal_bytes
    monkeypatch.setattr(
        ledger_mod,
        "journal_bytes",
        lambda m: real_journal_bytes(m) + b"confidential-x|row-s1-aaaa-plus",
    )
    failures = runner.run_invariants(
        result.scenario, market, network, result.report.quiescent, result.report.unsettled
    )
    assert failures == [
        "journal leaks profile value b'confidential-x'",
        "journal leaks plaintext data b'row-s1-aaaa'",
        "journal leaks plaintext data b'row-s1-aaaa-plus'",
        "plaintext data left an actor unencrypted (to ub:b)",
        "plaintext data left an actor unencrypted (to notary:n)",
        "plaintext data left an actor unencrypted (to notary:n)",
        "plaintext data left an actor unencrypted (to buyer:b)",
        "plaintext data left an actor unencrypted (to buyer:b)",
    ]
