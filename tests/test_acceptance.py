"""Top-level acceptance suite.

Each test checks one headline guarantee end to end, enforces its time
budget, and prints a single ``ACCEPTANCE n: PASS`` line (run with ``-s``
to see them as they complete).
"""

import copy
import random
import time
from pathlib import Path

import pytest

from datamarket import crypto, ledger as ledger_mod, messages
from datamarket.actors import Notary, keys_from_seed
from datamarket.errors import ReplayError
from datamarket.ledger import Outcome
from datamarket.messages import NotarizationRequest, Verdict
from datamarket.runner import run_scenario
from datamarket.scenario import NotarySpec, load_scenario, random_scenario, scenario_from_dict
from datamarket.transport import Network, NetworkConfig

from market_helpers import make_market, make_response
from sha256_ref import sha256_ref

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DATA = b"seller-data-0123"


class budget:
    """Assert the wrapped block stays inside its wall-clock allowance."""

    def __init__(self, number, seconds, detail):
        self.number, self.seconds, self.detail = number, seconds, detail

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"budget exceeded: {elapsed:.2f}s"
            print(f"ACCEPTANCE {self.number}: PASS — {self.detail} ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.number}: FAIL — {self.detail}")
        return False


def tamper_doc(seed, mutation):
    return {
        "name": f"tamper-{seed}",
        "network": {"seed": seed},
        "buyers": [{"name": "b", "seed": 1, "balance": 200}],
        "sellers": [
            {
                "name": "cheat",
                "seed": 10,
                "attributes": {"country": "AR"},
                "data": {"records": "genuine-row-data"},
                "mutation": mutation,
            }
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


def test_acceptance_1_settlement_truth_table():
    """Verdict x data-state x audit-state: money always lands per the
    settlement rule (seller for a/b, buyer for c)."""
    with budget(1, 1.0, "settlement truth table, 12 cells (5 reachable, 7 excluded)"):
        # audited == the notary actually examined the payload, i.e. verdicts
        # b/c; verdict a is by definition the unaudited verdict.  Verdict b
        # with tampered data is excluded by the commitment/ground-truth check.
        reachable = set()
        # (cell, policy mode, forced, delivered data, ground truth)
        cells = [
            (("a", "honest", False), "NEVER", False, DATA, DATA),
            (("a", "tampered", False), "NEVER", False, b"swapped-in-bytes", DATA),
            (("b", "honest", True), "ALWAYS", True, DATA, DATA),
            (("c", "tampered", True), "ALWAYS", True, b"swapped-in-bytes", DATA),
            (("c", "honest", True), "ALWAYS", True, DATA, b"notary-disagrees"),
        ]
        for cell, mode, forced, delivered, truth in cells:
            market = make_market(balance=100, m_a=10, price=5, fee=2)
            response, salt, _ = make_response(market, data=DATA)
            market.ledger.select_sellers(market.order_id, [response])
            notary = Notary(
                NotarySpec(name="n", seed=2, fee=2, mode=mode),
                keys_from_seed(2),
                market.ledger,
                Network(NetworkConfig()),
                records={("s", "records"): truth},
                enrollment={response.payment_address: "s"},
            )
            plaintext = messages.encode_payload_plaintext(salt, delivered)
            request = NotarizationRequest(
                market.order.digest(),
                response.digest(),
                forced,
                crypto.encrypt_for(market.notary_keys.public_key, plaintext, b"\x01" * 32),
            )
            verdict = notary.decide_verdict(request, response, "records")
            assert verdict.letter == cell[0], cell
            certificate = messages.issue_certificate(
                market.notary_keys, market.order.digest(), response, verdict
            )
            before = dict(market.ledger.accounts)
            settlement = market.ledger.close_response(certificate)
            after = market.ledger.accounts
            seller = response.payment_address
            if verdict.letter in ("a", "b"):
                assert settlement.outcome is Outcome.SELLER_PAID, cell
                assert after[seller] == before.get(seller, 0) + market.price, cell
            else:
                assert settlement.outcome is Outcome.BUYER_REFUNDED, cell
                assert seller not in after or after[seller] == before.get(seller, 0), cell
            # Audited verdicts (b/c) pay the notary fee; verdict a pays none.
            expected_fee = 2 if cell[2] else 0
            assert settlement.notary_fee == expected_fee, cell
            assert market.ledger.conservation_holds(), cell
            reachable.add(cell)
        assert len(reachable) == 5
        all_cells = {
            (v, d, a)
            for v in ("a", "b", "c")
            for d in ("honest", "tampered")
            for a in (True, False)
        }
        excluded = all_cells - reachable
        assert len(excluded) == 7
        # Every excluded cell contradicts the protocol by construction:
        # verdicts b/c only exist after an audit, verdict a never follows one,
        # and an audit of tampered data cannot yield verdict b.
        for verdict_letter, _, audited in excluded:
            assert (verdict_letter == "a") == audited or (verdict_letter, audited) == ("b", True)


def test_acceptance_2_token_conservation():
    with budget(2, 60.0, "token conservation across 1,000 randomized scenarios"):
        for seed in range(1000):
            result = run_scenario(random_scenario(seed))
            assert result.report.ok, (seed, result.report.invariant_failures)
            assert result.ledger.conservation_holds(), seed
            # replay() re-checks conservation after every journal event.
            replayed = ledger_mod.replay(result.ledger.journal)
            assert replayed.state_digest() == result.ledger.state_digest(), seed


def test_acceptance_3_tamper_detection():
    with budget(3, 30.0, "tampered payloads refunded in 256/256 audited runs"):
        for run in range(256):
            mutation = "substitute_data" if run % 2 == 0 else "bit_flip"
            result = run_scenario(scenario_from_dict(tamper_doc(run, mutation)))
            report = result.report
            assert report.ok, (run, report.invariant_failures)
            rows = [r for r in report.rows if r.seller_name == "cheat"]
            assert len(rows) == 1, run
            assert rows[0].verdict == "c" and rows[0].outcome == "BUYER_REFUNDED", run
            assert report.balances.get("cheat", 0) == 0, run


def test_acceptance_4_commitment_correctness():
    with budget(4, 1.0, "commitments agree with an independent SHA-256 reference"):
        # FIPS 180-4 known answer for the empty message.
        assert (
            sha256_ref(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        rng = random.Random(4)
        for _ in range(100):
            salt = rng.randbytes(crypto.SALT_LEN)
            data = rng.randbytes(rng.randint(1, 64))
            assert crypto.commit(salt, data) == sha256_ref(salt + data)
        salt = rng.randbytes(crypto.SALT_LEN)
        payload = b"\xa5" * 8
        commitment = crypto.commit(salt, payload)
        assert crypto.verify_commitment(salt, payload, commitment)
        for bit in range(64):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert not crypto.verify_commitment(salt, bytes(flipped), commitment)


def test_acceptance_5_replay_determinism():
    with budget(5, 30.0, "journal replay reproduces state; single-byte tamper detected"):
        rng = random.Random(5)
        for seed in range(50):
            result = run_scenario(random_scenario(seed + 5000))
            live = result.ledger
            replayed = ledger_mod.replay(live.journal)
            assert replayed.state_digest() == live.state_digest(), seed
            data = ledger_mod.journal_bytes(live)
            assert ledger_mod.verify_journal(data).state_digest() == live.state_digest()
            # Flip one byte inside the event stream (not the trailer).
            tampered = bytearray(data)
            offset = rng.randrange(0, len(data) - 65)
            tampered[offset] ^= 1 << rng.randrange(8)
            with pytest.raises(ReplayError):
                ledger_mod.verify_journal(bytes(tampered))


def test_acceptance_6_anonymity_scan():
    with budget(6, 5.0, "journals carry no profile values or plaintext data"):
        for name in ("bank.yaml", "telco.yaml"):
            scenario = load_scenario(SCENARIOS / name)
            result = run_scenario(scenario)
            assert result.report.ok, (name, result.report.invariant_failures)
            journal = ledger_mod.journal_bytes(result.ledger)
            secrets = list(scenario.profile_secrets()) + list(scenario.data_secrets())
            assert secrets, name  # the scan must actually have targets
            for secret in secrets:
                assert secret not in journal, (name, secret)


def test_acceptance_7_honest_path_liveness():
    with budget(7, 5.0, "bank scenario settles honest sellers and refunds escrow"):
        scenario = load_scenario(SCENARIOS / "bank.yaml")
        result = run_scenario(scenario)
        report = result.report
        assert report.ok and report.quiescent and not report.unsettled
        assert report.rows and all(r.outcome == "SELLER_PAID" for r in report.rows)
        order = scenario.orders[0]
        fee = scenario.notaries[0].fee
        assert all(r.notary_fee == fee for r in report.rows)
        contract = next(iter(result.ledger.contracts.values()))
        assert contract.audit_escrow == 0 and contract.payment_escrow == 0
        buyer_spec = scenario.buyers[0]
        expected = (
            buyer_spec.balance
            - order.price * len(report.rows)
            - fee * len(report.rows)
        )
        # Equality only holds because the residual audit escrow came back.
        assert report.balances[buyer_spec.name] == expected
