import contextlib
import copy
import dataclasses
import hashlib
import io
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket import actors, cli, ledger as ledger_mod, runner
from datamarket.actors import Mutation
from datamarket.errors import ScenarioError
from datamarket.ledger import LedgerEvent
from datamarket.messages import DataResponse, PayloadDelivery, decode
from datamarket.runner import run_scenario
from datamarket.scenario import (
    Scenario,
    SelectionPolicy,
    load_scenario,
    random_scenario,
    scenario_from_dict,
)

from test_crypto import python_output
from test_golden import GOLDEN

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


def test_oracle_counts_each_row():
    """A row expected twice but settled once is missing once, and a row
    settled twice but expected once is surplus once."""
    rows = run_doc(base_doc()).report.rows  # s1 and s2, both verdict b and paid
    s1 = {"seller": "s1", "verdict": "b", "outcome": "SELLER_PAID"}
    s2 = {**s1, "seller": "s2"}
    expected_twice = scenario_from_dict(base_doc(expected_settlements=[s1, s1, s2]))
    assert runner.check_oracle(expected_twice, rows) == [
        "expected settlements missing: [('s1', 'b', 'SELLER_PAID')]"
    ]
    settled_twice = [*rows, next(r for r in rows if r.seller_name == "s1")]
    expected_once = scenario_from_dict(base_doc(expected_settlements=[s1, s2]))
    assert runner.check_oracle(expected_once, settled_twice) == [
        "settlements not in oracle table: [('s1', 'b', 'SELLER_PAID')]"
    ]


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
    journal.write_bytes(ledger_mod.journal_bytes(result.ledger))
    assert cli.main(["verify", str(journal)]) == 0
    events = len(result.ledger.journal)
    assert events > 0
    out = capsys.readouterr().out
    assert f"events: {events}\n" in out
    kinds = "MINT=1 ORDER_CREATED=1 SELLERS_SELECTED=1 RESPONSE_CLOSED=2 ORDER_CLOSED=1"
    assert f"\nkinds: {kinds}\n" in out


@pytest.mark.parametrize("name", ["bank.yaml", "telco.yaml"])
def test_verified_journal_reserializes_to_the_same_bytes(name):
    data = ledger_mod.journal_bytes(run_scenario(load_scenario(SCENARIOS / name)).ledger)
    assert ledger_mod.journal_bytes(ledger_mod.verify_journal(data)) == data


def test_cli_verify_loads_no_yaml(tmp_path):
    journal = tmp_path / "bank.journal"
    journal.write_bytes(run_scenario(load_scenario(SCENARIOS / "bank.yaml")).report.journal)
    code = (
        "import sys; from datamarket import cli; code = cli.main(['verify', sys.argv[1]]);"
        " print(code, 'yaml' in sys.modules)"
    )
    assert python_output(code, str(journal)).endswith(b"\n0 False\n")


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


# One key each added to `bank.yaml` that names no field: (path to the key, value).
UNKNOWN_BANK_KEYS = {
    "top-level key": (("expected_setlements",), []),
    "network key": (("network", "drop_rat"), 0.9),
    "buyer key": (("buyers", 0, "force_audti"), True),
    "selection key": (("buyers", 0, "selection", "kk"), 2),
    "seller key": (("sellers", 0, "min_prize"), 3),
    "nested policy key": (("notaries", 0, "policy", "rat"), 0.5),
    "order key": (("orders", 0, "audit_budjet"), 3),
    "predicate key": (("orders", 0, "audience", 0, "vlaue"), "Argentina"),
    "expected settlement key": (("expected_settlements", 0, "verdikt"), "b"),
    "absent schemas": (("absent_schemas",), ["loan_history"]),
}


@pytest.mark.parametrize("path, value", UNKNOWN_BANK_KEYS.values(), ids=UNKNOWN_BANK_KEYS.keys())
def test_cli_unknown_scenario_key_is_input_error(tmp_path, capsys, path, value):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(edited_bank([(path, value)])))
    assert cli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err
    assert "unknown key " in err and path[-1] in err


# Scenario files that YAML cannot read: file bytes.
UNREADABLE_FILES = {
    "not UTF-8": b"name: caf\xe9\n",
    "nested 2,000 levels deep": b"[" * 2000 + b"]" * 2000,
    "an integer of 5,000 digits": b"name: " + b"1" * 5000 + b"\n",
}


@pytest.mark.parametrize("data", UNREADABLE_FILES.values(), ids=UNREADABLE_FILES.keys())
def test_cli_unreadable_scenario_is_input_error(tmp_path, capsys, data):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(data)
    assert cli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


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
    "buyer mutation on a seller": (("sellers", 0, "mutation"), "certificate_replay"),
    "negative notary fee": (("notaries", 0, "fee"), -1),
    "sampling rate above 1": (("notaries", 0, "policy"), {"mode": "SAMPLE", "rate": 2}),
    "balance above u64": (("buyers", 0, "balance"), 2**70),
    "price above u64": (("orders", 0, "price"), 2**70),
    "audit budget above u64": (("orders", 0, "audit_budget"), 2**70),
    "notary fee above u64": (("notaries", 0, "fee"), 2**70),
    "negative buyer seed": (("buyers", 0, "seed"), -1),
    "seller seed above 32 bytes": (("sellers", 0, "seed"), 2**300),
    "negative notary seed": (("notaries", 0, "seed"), -5),
    "notary named twice": (("orders", 0, "notaries"), ["bank", "bank"]),
    "negative FIRST_K k": (("buyers", 0, "selection"), {"rule": "FIRST_K", "k": -2}),
    "negative max_tokens": (("buyers", 0, "selection"), {"rule": "BUDGET_CAP", "max_tokens": -2}),
    "negative start tick": (("orders", 0, "start_tick"), -1),
    "negative response window": (("orders", 0, "response_window"), -3),
    "negative countersign window": (("orders", 0, "countersign_window"), -3),
    "negative min price": (("sellers", 0, "min_price"), -1),
    "force_audit a string": (("buyers", 0, "force_audit"), "no"),
    "declines a string": (("notaries", 0, "declines"), "false"),
    "float balance": (("buyers", 0, "balance"), 1.7),
    "boolean balance": (("buyers", 0, "balance"), True),
    "negative ge value": (
        ("orders", 0, "audience"),
        [{"attribute": "age", "op": "ge", "value": -1}],
    ),
    "ge value above u64": (
        ("orders", 0, "audience"),
        [{"attribute": "age", "op": "ge", "value": 2**70}],
    ),
    "empty predicate attribute": (
        ("orders", 0, "audience"),
        [{"attribute": "", "op": "eq", "value": "Argentina"}],
    ),
    "empty data value": (("sellers", 0, "data"), {"card_transactions": ""}),
    "seller seed of another seller": (("sellers", 1, "seed"), 201),
    "seller seed of the buyer": (("sellers", 0, "seed"), 101),
    "seller seed of the notary": (("sellers", 0, "seed"), 301),
    "balances above u64 in total": (
        ("buyers",),
        [
            {"name": "modelcorp", "seed": 101, "balance": 2**64 - 1},
            {"name": "other", "seed": 102, "balance": 1},
        ],
    ),
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


def test_cli_order_for_a_schema_no_one_holds_is_input_error(tmp_path, capsys):
    """An order's schema must be held by a seller or named in a notary's
    ground truth."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(edited_bank([(("orders", 0, "schema"), "loan_history")])))
    assert cli.main(["run", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "input error: schema 'loan_history' is neither held by any seller"
        " nor present in ground truth\n"
    )


def nested_list(levels):
    """Ten copies of the list one level down, `levels` deep. YAML writes
    each level once and then refers to it by alias, so the file stays short."""
    value = ["x"] * 10
    for _ in range(levels - 1):
        value = [value] * 10
    return value


# Seller attributes outside "text keys, string or integer values".
BAD_ATTRIBUTES = {
    "list value": {"country": ["Argentina"]},
    "mapping value": {"country": {"name": "Argentina"}},
    "null value": {"country": None},
    "float value": {"age": 34.5},
    "boolean value": {"age": True},
    "integer of 2**64": {"age": 2**64},
    "integer of -2**64": {"age": -(2**64)},
    "integer key": {7: "Argentina"},
    "aliased list 5 levels deep": {"country": nested_list(5)},
}


@pytest.mark.parametrize("attributes", BAD_ATTRIBUTES.values(), ids=BAD_ATTRIBUTES.keys())
def test_cli_seller_attribute_outside_its_kind_is_input_error(tmp_path, capsys, attributes):
    """An attribute is a string or an integer under a text key; any other is
    an input error, whose text stays short however large the value."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(edited_bank([(("sellers", 0, "attributes"), attributes)])))
    assert bad.stat().st_size < 4000
    assert cli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: sellers: item 0: attributes: must be ")
    assert len(err) < 500


# (scenario list, changes to its first spec) for a scenario built in code.
BAD_SPECS = {
    "buyer mutation on a seller": ("sellers", {"mutation": Mutation.CERTIFICATE_REPLAY}),
    "seller mutation on a buyer": ("buyers", {"mutation": Mutation.BIT_FLIP}),
    "unknown selection rule": ("buyers", {"selection": SelectionPolicy(rule="NOPE")}),
    "negative FIRST_K k": ("buyers", {"selection": SelectionPolicy(rule="FIRST_K", k=-1)}),
    "unknown notarization mode": ("notaries", {"mode": "NOPE"}),
    "attribute of 2**64": ("sellers", {"attributes": {"age": 2**64}}),
    "attribute of 5,001 digits": ("sellers", {"attributes": {"age": 10**5000}}),
    "balance of 5,001 digits": ("buyers", {"balance": -(10**5000)}),
}


@pytest.mark.parametrize("score", [2**64 - 1, -(2**64 - 1)])
def test_an_integer_attribute_below_2_64_in_magnitude_runs(score):
    """The attributes of largest magnitude a predicate can compare with are taken."""
    scenario = load_scenario(SCENARIOS / "bank.yaml")
    seller = scenario.sellers[0]
    attributes = {**seller.attributes, "score": score}
    scenario.sellers[0] = dataclasses.replace(seller, attributes=attributes)
    assert run_scenario(scenario).report.ok


@pytest.mark.parametrize("where, changes", BAD_SPECS.values(), ids=BAD_SPECS.keys())
def test_code_built_spec_outside_its_kind_is_refused(where, changes):
    """The scenario's kinds are the only check of a spec value; no actor
    checks it again, so `validate` refuses it before any actor is built."""
    scenario = load_scenario(SCENARIOS / "bank.yaml")
    specs = getattr(scenario, where)
    specs[0] = dataclasses.replace(specs[0], **changes)
    with pytest.raises(ScenarioError):
        scenario.validate()
    with pytest.raises(ScenarioError):
        run_scenario(scenario)


# Network settings the network's own range checks let through.
BAD_NETWORKS = {
    "fractional latency bound": {"latency_max": 2.5},
    "list seed": {"seed": [1]},
    "boolean latency bound": {"latency_min": True},
}


@pytest.mark.parametrize("changes", BAD_NETWORKS.values(), ids=BAD_NETWORKS.keys())
def test_code_built_network_outside_its_kind_is_refused(changes):
    """A network built in code is read through the kinds of its file form."""
    scenario = load_scenario(SCENARIOS / "bank.yaml")
    scenario.network = dataclasses.replace(scenario.network, **changes)
    with pytest.raises(ScenarioError, match="^network: "):
        scenario.validate()
    with pytest.raises(ScenarioError):
        run_scenario(scenario)


def edited_bank(edits) -> dict:
    """`bank.yaml` with each (path, value) edit applied."""
    doc = yaml.safe_load((SCENARIOS / "bank.yaml").read_text())
    for path, value in edits:
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = value
    return doc


def run_cli(doc) -> tuple:
    """`datamarket run` on `doc` written to a file: exit code and stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.yaml"
        path.write_text(yaml.safe_dump(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path)])
    return code, err.getvalue()


def test_a_negative_network_seed_runs():
    """The network seed is any integer: `bank.yaml` with its seed edited
    to -7 runs, and its run passes."""
    assert run_cli(edited_bank([(("network", "seed"), -7)])) == (0, "")


def test_refused_registration_aborts_the_order():
    """A balance too small for the order's escrow: the ledger refuses the
    registration, the buyer records why and aborts the order, and the run
    ends on the oracle table."""
    doc = edited_bank([(("buyers", 0, "balance"), 1)])
    assert run_cli(doc) == (1, "")
    buyer = run_doc(doc).buyers[0]
    assert len(buyer.rejected_submissions) == 1
    assert buyer.rejected_submissions[0].startswith("register: ")
    assert len(buyer.aborted_orders) == 1


# X25519 halves nothing can be sealed to: u = 0, u = 1 and a point of order 8.
SMALL_ORDER_HALVES = {
    "u=0": bytes(32),
    "u=1": b"\x01" + bytes(31),
    "order-8": bytes.fromhex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
}


@pytest.mark.parametrize("point", SMALL_ORDER_HALVES.values(), ids=SMALL_ORDER_HALVES.keys())
@pytest.mark.parametrize("seed", [101, 301], ids=["buyer", "notary"])
def test_a_small_order_encryption_key_is_refused_at_registration(monkeypatch, seed, point):
    """bank.yaml with the X25519 half of the buyer's (or the notary's) key
    replaced by a small-order point. Every signature still verifies, but
    nothing can be sealed to the key: the ledger refuses the order, the
    buyer records why and aborts it, and the run ends on the oracle table
    with its invariants passing."""
    real = actors.keys_from_seeds

    def keys_from_seeds(seeds):
        keys = real(seeds)
        for i, s in enumerate(seeds):
            if s == seed:
                keys[i] = dataclasses.replace(keys[i], public_key=keys[i].public_key[:32] + point)
        return keys

    monkeypatch.setattr(runner, "keys_from_seeds", keys_from_seeds)
    assert run_cli(edited_bank([])) == (1, "")
    result = run_scenario(load_scenario(SCENARIOS / "bank.yaml"))
    buyer = result.buyers[0]
    refusal = "register: a buyer or notary key has a small-order X25519 half"
    assert buyer.rejected_submissions == [refusal]
    assert len(buyer.aborted_orders) == 1 and not result.ledger.contracts
    report = result.report
    assert not report.invariant_failures and not report.rows and report.oracle_failures


def test_two_identical_orders_from_one_buyer_both_settle():
    """A copy of bank.yaml's order is an order of its own: the buyer's
    order nonce gives it its own digest, and both orders settle."""
    doc = edited_bank([])
    doc["orders"].append(copy.deepcopy(doc["orders"][0]))
    doc["expected_settlements"] *= 2
    assert run_cli(doc) == (0, "")
    result = run_doc(doc)
    assert len(result.ledger.contracts) == 2 and len(result.report.rows) == 4
    assert not result.buyers[0].aborted_orders


def test_order_that_never_starts_fails_liveness():
    """An order that starts past the tick limit is never sent: the run ends
    at the limit without quiescence, with nothing unsettled, and fails."""
    doc = edited_bank([(("orders", 0, "start_tick"), 500), (("expected_settlements",), None)])
    assert run_cli(doc) == (1, "")
    report = run_doc(doc).report
    assert not report.quiescent and not report.unsettled
    assert report.invariant_failures == ["liveness: tick limit reached before quiescence"]


def test_declining_notaries_are_left_off_the_contract():
    """A listed notary that declines sends no terms: the contract holds the
    other one's term and both sellers settle. When every listed notary
    declines, no contract is registered and the order is aborted."""
    doc = edited_bank([(("orders", 0, "notaries"), ["bank", "other"])])
    doc["notaries"].append({"name": "other", "seed": 302, "fee": 1, "declines": True})
    assert run_cli(doc) == (0, "")
    result = run_doc(doc)
    (contract,) = result.ledger.contracts.values()
    assert list(contract.notary_terms) == [result.notaries[0].address]
    assert len(result.report.rows) == 2
    doc["notaries"][0]["declines"] = True
    result = run_doc(doc)
    assert not result.ledger.contracts and len(result.buyers[0].aborted_orders) == 1


def test_selection_is_trimmed_to_what_the_buyer_can_afford():
    """After registration escrows the audit budget, a balance of 25 leaves
    15: enough for one offer at price 10, not two. The buyer selects the
    first offer only, and the audit budget left over is refunded."""
    doc = edited_bank([(("buyers", 0, "balance"), 25), (("expected_settlements",), None)])
    report = run_doc(doc).report
    assert report.ok and report.quiescent
    assert [(r.seller_name, r.verdict) for r in report.rows] == [("alice", "b")]
    assert report.balances == {"bank": 2, "alice": 10, "modelcorp": 13}


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


BANK_LEAVES = list(_leaf_paths(edited_bank([])))
ODD_VALUES = [2**70, 2**300, -1, 0, 1.5, True, None, "", "x", [], {}, float("nan"), float("inf")]
EDITS = st.tuples(st.sampled_from(BANK_LEAVES), st.sampled_from(ODD_VALUES))


@given(st.lists(EDITS, min_size=1, max_size=2))
@settings(max_examples=300, deadline=None)
def test_cli_run_survives_edited_bank_values(edits):
    """Any one or two `bank.yaml` values replaced by odd ones: `datamarket
    run` exits 0, 1 or 2 and never ends in a traceback."""
    code, err = run_cli(edited_bank(edits))
    assert code in (0, 1, 2)
    assert "Traceback" not in err


BANK_BYTES = (SCENARIOS / "bank.yaml").read_bytes()


@st.composite
def mutated_bank(draw):
    """`bank.yaml` with a few bytes overwritten, inserted or deleted."""
    data = bytearray(BANK_BYTES)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["overwrite", "insert", "delete"]))
        if op == "delete":
            del data[pos]
        else:
            data[pos : pos + (op == "overwrite")] = bytes([draw(st.integers(0, 255))])
    return bytes(data)


@given(st.one_of(st.binary(max_size=200), mutated_bank()))
@settings(max_examples=200, deadline=None)
def test_any_scenario_file_runs_or_is_refused(data):
    """Any file bytes: loading and running either succeed or raise
    `ScenarioError`, which `datamarket run` reports as an input error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.yaml"
        path.write_bytes(data)
        try:
            run_scenario(load_scenario(path), tick_limit=60)
        except ScenarioError:
            pass


# Options `datamarket run` must refuse: (options, start of the error text).
BAD_RUN_OPTIONS = {
    "journal under a missing directory": (
        ["--journal-out", "{tmp}/missing/bank.journal"],
        "input error: ",
    ),
    "report under a missing directory": (["--report-out", "{tmp}/missing/bank.txt"], "input error: "),
    "negative tick limit": (["--ticks", "-3"], "usage: "),
}


@pytest.mark.parametrize("options, error", BAD_RUN_OPTIONS.values(), ids=BAD_RUN_OPTIONS.keys())
def test_cli_bad_run_option_is_input_error(tmp_path, capsys, options, error):
    argv = ["run", str(SCENARIOS / "bank.yaml")] + [o.format(tmp=tmp_path) for o in options]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # how argparse refuses an option
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err


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


def test_cli_run_is_the_same_under_two_hash_seeds(tmp_path):
    """A run's journal, report and output do not depend on the order that
    Python's per-process hash seed gives sets and dicts of strings."""
    code = "import sys; from datamarket import cli; sys.exit(cli.main(sys.argv[1:]))"
    outs = []
    for hash_seed in ("0", "1"):
        journal, report = tmp_path / f"{hash_seed}.journal", tmp_path / f"{hash_seed}.report"
        args = ["run", str(SCENARIOS / "bank.yaml"), "--journal-out", str(journal)]
        out = python_output(code, *args, "--report-out", str(report), PYTHONHASHSEED=hash_seed)
        outs.append((out, journal.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_run_serializes_the_journal_once(tmp_path, monkeypatch, capsys):
    """`run --journal-out` writes the bytes the invariant suite verified:
    one `journal_bytes` call, and the file is the pinned bank.yaml journal."""
    calls, journal_bytes = [], ledger_mod.journal_bytes
    monkeypatch.setattr(ledger_mod, "journal_bytes", lambda m: calls.append(m) or journal_bytes(m))
    journal = tmp_path / "bank.journal"
    assert cli.main(["run", str(SCENARIOS / "bank.yaml"), "--journal-out", str(journal)]) == 0
    assert len(calls) == 1
    assert hashlib.sha256(journal.read_bytes()).hexdigest() == GOLDEN["bank.yaml"][0]


def test_cli_run_computes_the_state_digest_twice(monkeypatch, capsys):
    """`datamarket run` computes the state digest once for the live ledger,
    whose journal trailer the report reads it from, and once on replay."""
    calls, state_digest = [], ledger_mod.Ledger.state_digest
    monkeypatch.setattr(ledger_mod.Ledger, "state_digest", lambda m: calls.append(m) or state_digest(m))
    assert cli.main(["run", str(SCENARIOS / "bank.yaml")]) == 0
    assert len(calls) == 2


def test_cli_verify_computes_the_state_digest_once(tmp_path, monkeypatch, capsys):
    """`datamarket verify` computes the replayed state digest once, to check
    it against the trailer, and prints the trailer's digest it equals."""
    journal = tmp_path / "bank.journal"
    assert cli.main(["run", str(SCENARIOS / "bank.yaml"), "--journal-out", str(journal)]) == 0
    digest = ledger_mod.journal_state_digest(journal.read_bytes())
    capsys.readouterr()
    calls, state_digest = [], ledger_mod.Ledger.state_digest
    monkeypatch.setattr(ledger_mod.Ledger, "state_digest", lambda m: calls.append(m) or state_digest(m))
    assert cli.main(["verify", str(journal)]) == 0
    assert len(calls) == 1
    assert f"state_digest: {digest.hex()}\n" in capsys.readouterr().out


def test_cli_run_validates_the_scenario_once(monkeypatch, capsys):
    """Loading only builds the scenario; `run_scenario` validates it."""
    calls, validate = [], Scenario.validate
    monkeypatch.setattr(Scenario, "validate", lambda s: calls.append(s) or validate(s))
    assert cli.main(["run", str(SCENARIOS / "bank.yaml")]) == 0
    assert len(calls) == 1


def test_load_scenario_files_validate():
    for path in sorted(SCENARIOS.glob("*.yaml")):
        scenario = load_scenario(path)
        scenario.validate()
        assert scenario.buyers and scenario.orders


# -- leak scans -------------------------------------------------------------


@pytest.mark.parametrize("one_pass", [True, False], ids=["one-pass", "per-secret"])
def test_leak_scans_report_every_secret_in_every_envelope(monkeypatch, one_pass):
    # Both ways of scanning must word the same failures.
    monkeypatch.setattr(runner, "_ONE_PASS_MIN_BYTES", 0 if one_pass else 1 << 62)
    doc = base_doc(secrets=["confidential-x"])
    # s1's data is a prefix of s2's; s3 never matches the audience but its
    # data is still a secret. s1 and s2 share one attribute value, reported once.
    doc["sellers"][1]["data"] = {"records": "row-s1-aaaa-plus"}
    for seller in doc["sellers"]:
        seller["attributes"]["tier"] = "gold"
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
        ("ub:b", b"zz-s3-cccc and row-s1-aaaa"),
        ("ub:b", b"row-s1-aaa zz-s3-ccc confidential-x"),
    ]:
        network.send(sender, endpoint, message)
    journal = ledger_mod.journal_bytes(market) + b"confidential-x|row-s1-aaaa-plus|gold"
    failures = runner.run_invariants(
        result.scenario, journal, network, result.report.quiescent, result.report.unsettled
    )
    assert failures == [
        "journal replay failed: replay aborted at event 6: frames after the digest trailer",
        "journal leaks profile value b'gold'",
        "journal leaks profile value b'confidential-x'",
        "journal leaks plaintext data b'row-s1-aaaa'",
        "journal leaks plaintext data b'row-s1-aaaa-plus'",
        "plaintext data left an actor unencrypted (to ub:b)",
        "plaintext data left an actor unencrypted (to notary:n)",
        "plaintext data left an actor unencrypted (to notary:n)",
        "plaintext data left an actor unencrypted (to ub:b)",
        "plaintext data left an actor unencrypted (to ub:b)",
    ]


@pytest.mark.parametrize(
    "sent, leaks",
    [
        ([b"..row-s1", b"aaaa.."], 0),
        ([b"row-s1\naaaa", b"..row-s1\naaaa.."], 2),
    ],
    ids=["split-across-two", "inside-two"],
)
def test_the_joined_transcript_scan_words_one_failure_per_leaking_envelope(sent, leaks):
    """The transcript is scanned once, its messages joined by newlines. A
    secret that only the joining puts together is no leak; a secret inside
    two messages is two. A transcript of `_ONE_PASS_MIN_BYTES` makes the
    scan one pass."""
    doc = base_doc()
    doc["sellers"][0]["data"] = {"records": "row-s1\naaaa"}
    result = run_doc(doc)
    assert result.report.ok
    network = result.network
    sender = network.transcript[0].sender
    network.send(sender, "ub:b", bytes(runner._ONE_PASS_MIN_BYTES))
    for message in sent:
        network.send(sender, "ub:b", message)
    assert b"row-s1\naaaa" in b"\n".join(envelope.message for envelope in network.transcript)
    failures = runner.run_invariants(
        result.scenario,
        ledger_mod.journal_bytes(result.ledger),
        network,
        result.report.quiescent,
        result.report.unsettled,
    )
    assert failures == ["plaintext data left an actor unencrypted (to ub:b)"] * leaks


# A few bytes, regex metacharacters among them, so that needles often share
# their first byte and often do not, and often occur by chance.
_SCAN_BYTE = st.sampled_from(b"ab(|.\x00")


@given(
    needles=st.lists(st.lists(_SCAN_BYTE, min_size=1, max_size=6).map(bytes), min_size=1, max_size=8),
    filler=st.lists(_SCAN_BYTE, max_size=40).map(bytes),
    place=st.sampled_from(["start", "end", "inside", "nowhere"]),
    which=st.integers(0, 7),
    one_pass=st.booleans(),
)
@settings(max_examples=300)
def test_the_leak_prefilter_passes_every_haystack_a_needle_occurs_in(
    needles, filler, place, which, one_pass
):
    needle = needles[which % len(needles)]
    middle = len(filler) // 2
    haystack = {
        "start": needle + filler,
        "end": filler + needle,
        "inside": filler[:middle] + needle + filler[middle:],
        "nowhere": filler,
    }[place]
    # Just below the threshold of needle x haystack bytes the prefilter
    # passes every haystack on; from it on, it is the one-pass scan, which
    # must be exact.
    threshold = runner._ONE_PASS_MIN_BYTES
    haystack_bytes = -(-threshold // len(needles)) if one_pass else (threshold - 1) // len(needles)
    scan = runner._prefilter(needles, haystack_bytes)
    occurs = any(n in haystack for n in needles)
    if occurs:
        assert scan(haystack)
    if one_pass:
        assert scan(haystack) == occurs


def test_an_event_that_does_not_decode_fails_the_journal_invariant():
    """Each event of a finished bank.yaml run in turn is replaced by a frame
    of the same kind whose payload does not decode: the invariant suite's
    verify of the journal bytes aborts at exactly that event."""
    result = run_scenario(load_scenario(SCENARIOS / "bank.yaml"))
    market, report = result.ledger, result.report
    assert report.ok and len(market.journal) > 1
    for k, event in enumerate(list(market.journal)):
        market.journal[k] = LedgerEvent(event.kind, event.payload + b"\x00")
        failures = runner.run_invariants(
            result.scenario,
            ledger_mod.journal_bytes(market),
            result.network,
            report.quiescent,
            report.unsettled,
        )
        market.journal[k] = event
        assert len(failures) == 1, failures
        assert failures[0].startswith(f"journal replay failed: replay aborted at event {k}: ")
