"""End-to-end scenario execution and the invariant suite.

The runner wires actors to a fresh ledger and simulated network, drives
the tick loop until quiescence or the tick limit, then checks every market
invariant: token conservation at each journal point, settlement
exclusivity, replay determinism, the journal anonymity scan, the
plaintext-leak scan over the transport transcript, and (when the scenario
declares one) the expected-settlement oracle table.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from . import ledger as ledger_mod
from . import messages
from .actors import Buyer, Notary, Seller, keys_from_seed
from .crypto import derive_address
from .ledger import Ledger, ReplayError
from .scenario import Scenario
from .transport import Network


@dataclass(frozen=True)
class SettlementRow:
    order_id: str
    response_digest: str
    seller_name: str
    seller_address: str
    verdict: str
    outcome: str
    seller_amount: int
    buyer_refund: int
    notary_fee: int


@dataclass
class RunReport:
    scenario_name: str
    ticks_used: int
    quiescent: bool
    rows: List[SettlementRow]
    balances: Dict[str, int]
    total_supply: int
    state_digest: str
    invariant_failures: List[str] = field(default_factory=list)
    oracle_failures: List[str] = field(default_factory=list)
    unsettled: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.invariant_failures and not self.oracle_failures

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        lines = [
            f"scenario: {self.scenario_name}",
            f"ticks: {self.ticks_used} quiescent: {'yes' if self.quiescent else 'no'}",
            "settlements:",
        ]
        for row in self.rows:
            lines.append(
                f"  order={row.order_id[:12]} seller={row.seller_name}"
                f" verdict={row.verdict} outcome={row.outcome}"
                f" paid={row.seller_amount} refund={row.buyer_refund}"
                f" fee={row.notary_fee}"
            )
        lines.append("balances:")
        for name in sorted(self.balances):
            lines.append(f"  {name}: {self.balances[name]}")
        lines.append(f"total_supply: {self.total_supply}")
        lines.append(f"state_digest: {self.state_digest}")
        lines.append(f"invariants: {'PASS' if self.ok else 'FAIL'}")
        for failure in self.invariant_failures:
            lines.append(f"  invariant-failure: {failure}")
        for failure in self.oracle_failures:
            lines.append(f"  oracle-failure: {failure}")
        lines.append("--- machine-readable ---")
        machine = {
            "scenario": self.scenario_name,
            "ticks": self.ticks_used,
            "quiescent": self.quiescent,
            "settlements": [vars(row) for row in self.rows],
            "balances": self.balances,
            "total_supply": self.total_supply,
            "state_digest": self.state_digest,
            "invariant_failures": self.invariant_failures,
            "oracle_failures": self.oracle_failures,
            "unsettled": self.unsettled,
        }
        lines.append(json.dumps(machine, sort_keys=True))
        return "\n".join(lines) + "\n"


@dataclass
class RunResult:
    scenario: Scenario
    ledger: Ledger
    network: Network
    buyers: List[Buyer]
    sellers: List[Seller]
    notaries: List[Notary]
    report: RunReport


def run_scenario(
    scenario: Scenario,
    seed: Optional[int] = None,
    tick_limit: int = 200,
) -> RunResult:
    scenario.validate()
    config = scenario.network
    network = Network(config if seed is None else dataclasses.replace(config, seed=seed))
    market = Ledger()

    seller_keys = {s.name: keys_from_seed(s.seed) for s in scenario.sellers}
    enrollment = {
        derive_address(keys.public_key): name for name, keys in seller_keys.items()
    }

    notaries = []
    for spec in scenario.notaries:
        truth = {}
        for seller in scenario.sellers:
            for schema, data in seller.dataset.items():
                truth[(seller.name, schema)] = data
        for seller_name, per_schema in spec.ground_truth.items():
            for schema, data in per_schema.items():
                truth[(seller_name, schema)] = data
        notary = Notary(
            name=spec.name,
            seed=spec.seed,
            fee=spec.fee,
            policy=spec.policy(),
            ledger=market,
            network=network,
            ground_truth=truth,
            enrollment=enrollment,
            declines=spec.declines,
            service_terms=messages.terms_link(f"service terms of {spec.name}"),
        )
        network.register(notary.endpoint)
        notaries.append(notary)
    notary_directory = {n.address: n.name for n in notaries}

    buyers = []
    for spec in scenario.buyers:
        buyer = Buyer(
            name=spec.name,
            seed=spec.seed,
            ledger=market,
            network=network,
            selection=spec.selection,
            force_audit=spec.force_audit,
            mutation=spec.mutation,
        )
        buyer.set_directory(notary_directory)
        network.register(buyer.control_endpoint)
        network.register(buyer.upload_url)
        buyers.append(buyer)
    buyer_by_name = {b.name: b for b in buyers}

    sellers = []
    for spec in scenario.sellers:
        sellers.append(
            Seller(
                name=spec.name,
                seed=spec.seed,
                attributes=spec.attributes,
                dataset=spec.dataset,
                ledger=market,
                network=network,
                mutation=spec.mutation,
                min_price=spec.min_price,
            )
        )

    for spec in scenario.buyers:
        if spec.balance > 0:
            market.mint(buyer_by_name[spec.name].address, spec.balance)

    last_start = max((order.start_tick for order in scenario.orders), default=0)

    endpoint_owner = {}
    for buyer in buyers:
        endpoint_owner[buyer.control_endpoint] = buyer
        endpoint_owner[buyer.upload_url] = buyer
    for notary in notaries:
        endpoint_owner[notary.endpoint] = notary

    quiescent = False
    while network.tick_now < tick_limit:
        t = network.tick_now
        for order in scenario.orders:
            if order.start_tick == t:
                buyer_by_name[order.buyer].start_order(order, t)
        delivered = network.tick()
        for endpoint in sorted(delivered):
            owner = endpoint_owner[endpoint]
            for envelope in delivered[endpoint]:
                owner.handle(envelope)
        now = network.tick_now
        for buyer in buyers:
            buyer.step(now)
        for seller in sellers:
            seller.step(now)
        if network.idle and t >= last_start and all(b.done for b in buyers):
            quiescent = True
            break

    report = build_report(scenario, market, network, buyers, sellers, notaries, quiescent)
    return RunResult(scenario, market, network, buyers, sellers, notaries, report)


def build_report(
    scenario: Scenario,
    market: Ledger,
    network: Network,
    buyers: List[Buyer],
    sellers: List[Seller],
    notaries: List[Notary],
    quiescent: bool,
) -> RunReport:
    names = {}
    for buyer in buyers:
        names[buyer.address] = buyer.name
    for seller in sellers:
        names[seller.address] = seller.name
    for notary in notaries:
        names[notary.address] = notary.name

    # Settlements come from the ledger, in (order id, response digest) order.
    rows, unsettled = [], []
    for order_id, contract in sorted(market.contracts.items()):
        for digest, state in sorted(contract.responses.items()):
            s = state.settlement
            if s is None:
                unsettled.append(f"{order_id}:{digest.hex()}")
                continue
            seller = state.response.payment_address
            rows.append(
                SettlementRow(
                    order_id=order_id,
                    response_digest=digest.hex(),
                    seller_name=names.get(seller, seller.hex),
                    seller_address=seller.hex,
                    verdict=s.verdict.letter,
                    outcome=s.outcome.name,
                    seller_amount=s.seller_amount,
                    buyer_refund=s.buyer_refund,
                    notary_fee=s.notary_fee,
                )
            )

    balances = {}
    for address in sorted(market.accounts):
        label = names.get(address, address.hex)
        balances[label] = market.accounts[address]

    report = RunReport(
        scenario_name=scenario.name,
        ticks_used=network.tick_now,
        quiescent=quiescent,
        rows=rows,
        balances=balances,
        total_supply=market.total_supply,
        state_digest=market.state_digest().hex(),
        unsettled=unsettled,
    )
    report.invariant_failures = run_invariants(scenario, market, network, quiescent, unsettled)
    report.oracle_failures = check_oracle(scenario, rows)
    return report


def run_invariants(
    scenario: Scenario,
    market: Ledger,
    network: Network,
    quiescent: bool,
    unsettled: List[str],
) -> List[str]:
    failures = []

    if not market.conservation_holds():
        failures.append("token conservation violated in final state")
    try:
        # Re-executes every journal event; conservation is checked after
        # each one inside replay().
        replayed = ledger_mod.replay(market.journal)
    except ReplayError as exc:
        failures.append(f"journal replay failed: {exc}")
    else:
        if replayed.state_digest() != market.state_digest():
            failures.append("replayed state digest differs from live state digest")

    # Each scan may first look for every secret at once (`_prefilter`); only
    # a hit runs the per-secret loop that words the failures.
    journal = ledger_mod.journal_bytes(market)
    profile_secrets = [s for s in scenario.profile_secrets() if s]
    data_secrets = [d for d in scenario.data_secrets() if d]
    journal_scan = _prefilter(profile_secrets + data_secrets, len(journal))
    if journal_scan(journal):
        for secret in profile_secrets:
            if secret in journal:
                failures.append(f"journal leaks profile value {secret!r}")
        for secret in data_secrets:
            if secret in journal:
                failures.append(f"journal leaks plaintext data {secret!r}")

    transcript_scan = _prefilter(
        data_secrets, sum(len(envelope.message) for envelope in network.transcript)
    )
    for envelope in network.transcript:
        if not transcript_scan(envelope.message):
            continue
        for secret in data_secrets:
            if secret in envelope.message:
                failures.append(
                    f"plaintext data left an actor unencrypted (to {envelope.endpoint})"
                )

    if unsettled and not quiescent:
        failures.append(
            f"liveness: tick limit reached with unsettled selected responses: {unsettled}"
        )
    return failures


# Compiling the one-pass pattern costs about a millisecond on a 2-vCPU
# x86_64 host, as much as a per-needle scan of this many needle x haystack
# bytes.
_ONE_PASS_MIN_BYTES = 1 << 20


def _prefilter(needles: List[bytes], haystack_bytes: int) -> Callable[[bytes], bool]:
    """A test that is true for every haystack in which one of the non-empty
    `needles` occurs. When the per-needle scan of `haystack_bytes` would
    cost more than compiling, it is one alternation of the escaped needles,
    a multi-pattern scan in the spirit of Aho & Corasick (CACM 1975);
    otherwise it passes every haystack on to that scan."""
    if not needles:
        return lambda haystack: False
    if len(needles) * haystack_bytes < _ONE_PASS_MIN_BYTES:
        return lambda haystack: True
    pattern = re.compile(b"|".join(re.escape(n) for n in needles))
    return lambda haystack: pattern.search(haystack) is not None


def check_oracle(scenario: Scenario, rows: List[SettlementRow]) -> List[str]:
    if scenario.expected is None:
        return []
    expected = sorted(
        (e.seller, e.verdict, e.outcome) for e in scenario.expected
    )
    actual = sorted((r.seller_name, r.verdict, r.outcome) for r in rows)
    if expected == actual:
        return []
    missing = [e for e in expected if e not in actual]
    surplus = [a for a in actual if a not in expected]
    out = []
    if missing:
        out.append(f"expected settlements missing: {missing}")
    if surplus:
        out.append(f"settlements not in oracle table: {surplus}")
    return out
