"""End-to-end scenario execution and the invariant suite.

The runner wires actors to a fresh ledger and simulated network, drives
the tick loop until quiescence or the tick limit, then checks every market
invariant. The invariant suite verifies the journal bytes that
`--journal-out` writes as `datamarket verify` does: replay checks token
conservation at each journal point and settlement exclusivity, and the
trailer binds the live state digest and the event frames. Then come the
journal anonymity scan, the plaintext-leak scan over the transport
transcript, liveness, and (when the scenario declares one) the
expected-settlement oracle table.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from . import ledger as ledger_mod
from .actors import Buyer, Notary, Seller, keys_from_seeds
from .ledger import Ledger, ReplayError
from .scenario import OrderSpec, Scenario
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
    journal: bytes = field(repr=False)  # as verified; `--journal-out` writes it, unrendered
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

    seeds = [spec.seed for spec in scenario.buyers + scenario.sellers + scenario.notaries]
    keys = dict(zip(seeds, keys_from_seeds(seeds)))  # `validate` made each seed one identity's
    sellers = [Seller(s, keys[s.seed], market, network) for s in scenario.sellers]
    enrollment = {seller.address: seller.name for seller in sellers}
    records = {
        (s.name, schema): data for s in scenario.sellers for schema, data in s.dataset.items()
    }
    notaries = [
        Notary(s, keys[s.seed], market, network, records, enrollment) for s in scenario.notaries
    ]
    notary_names = {notary.address: notary.name for notary in notaries}
    buyers = [Buyer(s, keys[s.seed], market, network, notary_names) for s in scenario.buyers]
    buyer_by_name = {buyer.name: buyer for buyer in buyers}
    for buyer in buyers:
        if buyer.spec.balance > 0:
            market.mint(buyer.address, buyer.spec.balance)

    starts: Dict[int, List[OrderSpec]] = {}  # start tick -> the orders started then
    for order in scenario.orders:
        starts.setdefault(order.start_tick, []).append(order)
    last_start = max(starts, default=0)

    endpoint_owner = {notary.endpoint: notary for notary in notaries}
    endpoint_owner.update((buyer.upload_url, buyer) for buyer in buyers)
    for endpoint in endpoint_owner:
        network.register(endpoint)

    quiescent = False
    while network.tick_now < tick_limit:
        t = network.tick_now
        for order in starts.get(t, ()):
            buyer_by_name[order.buyer].start_order(order, t)
        delivered = network.tick()
        for endpoint in sorted(delivered):
            endpoint_owner[endpoint].handle(delivered[endpoint])
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

    # Settlements come from the ledger, in (order digest, response digest) order.
    rows, unsettled = [], []
    for order_digest, contract in sorted(market.contracts.items()):
        order_id = order_digest.hex()
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
                    seller_name=names.get(seller, seller.hex()),
                    seller_address=seller.hex(),
                    verdict=s.verdict.letter,
                    outcome=s.outcome.name,
                    seller_amount=s.seller_amount,
                    buyer_refund=s.buyer_refund,
                    notary_fee=s.notary_fee,
                )
            )

    balances = {}
    for address in sorted(market.accounts):
        label = names.get(address, address.hex())
        balances[label] = market.accounts[address]

    journal = ledger_mod.journal_bytes(market)
    report = RunReport(
        scenario_name=scenario.name,
        ticks_used=network.tick_now,
        quiescent=quiescent,
        rows=rows,
        balances=balances,
        total_supply=market.total_supply,
        state_digest=ledger_mod.journal_state_digest(journal).hex(),
        unsettled=unsettled,
        journal=journal,
    )
    report.invariant_failures = run_invariants(
        scenario, report.journal, network, quiescent, unsettled
    )
    report.oracle_failures = check_oracle(scenario, rows)
    return report


def run_invariants(
    scenario: Scenario,
    journal: bytes,
    network: Network,
    quiescent: bool,
    unsettled: List[str],
) -> List[str]:
    failures = []

    # The trailer holds the live state digest, so verifying the bytes also
    # checks that replay reaches the live state.
    try:
        ledger_mod.verify_journal(journal)
    except ReplayError as exc:
        failures.append(f"journal replay failed: {exc}")

    # Each scan may first look for every secret at once (`_prefilter`), in
    # the journal and in the transcript's messages joined into one haystack;
    # only a hit runs the per-secret loop that words the failures. Joining
    # keeps every message whole, so it can only add hits, which the loop drops.
    profile_secrets = [s for s in scenario.profile_secrets() if s]
    data_secrets = [d for d in scenario.data_secrets() if d]
    if _prefilter(profile_secrets + data_secrets, len(journal))(journal):
        failures += [f"journal leaks profile value {s!r}" for s in profile_secrets if s in journal]
        failures += [f"journal leaks plaintext data {d!r}" for d in data_secrets if d in journal]

    transcript = b"\n".join(envelope.message for envelope in network.transcript)
    if _prefilter(data_secrets, len(transcript))(transcript):
        for envelope in network.transcript:
            for secret in data_secrets:
                if secret in envelope.message:
                    failures.append(
                        f"plaintext data left an actor unencrypted (to {envelope.endpoint})"
                    )

    if unsettled and not quiescent:
        failures.append(
            f"liveness: tick limit reached with unsettled selected responses: {unsettled}"
        )
    elif not quiescent:
        failures.append("liveness: tick limit reached before quiescence")
    return failures


# Compiling the one-pass pattern costs about a millisecond on a 2-vCPU
# x86_64 host, as much as a per-needle scan of this many needle x haystack
# bytes.
_ONE_PASS_MIN_BYTES = 1 << 20


def _prefilter(needles: List[bytes], haystack_bytes: int) -> Callable[[bytes], bool]:
    """A test that is true for every haystack in which one of the non-empty
    `needles` occurs, and perhaps for others, which the caller's exact scan
    drops. When that scan of `haystack_bytes` would cost more than
    compiling, it is one alternation of the escaped needles per first byte, a
    multi-pattern scan in the spirit of Aho & Corasick (CACM 1975), so that
    `re` searches for each one's literal prefix rather than trying every
    branch at every byte; otherwise it passes every haystack on to that scan."""
    if not needles:
        return lambda haystack: False
    if len(needles) * haystack_bytes < _ONE_PASS_MIN_BYTES:
        return lambda haystack: True
    by_first = collections.defaultdict(list)
    for needle in needles:
        by_first[needle[:1]].append(re.escape(needle))
    patterns = [re.compile(b"|".join(group)) for group in by_first.values()]
    return lambda haystack: any(pattern.search(haystack) for pattern in patterns)


def check_oracle(scenario: Scenario, rows: List[SettlementRow]) -> List[str]:
    """Oracle rows not settled, and settlements not in the table, each as often as it is."""
    if scenario.expected is None:
        return []
    expected = collections.Counter((e.seller, e.verdict, e.outcome) for e in scenario.expected)
    actual = collections.Counter((r.seller_name, r.verdict, r.outcome) for r in rows)
    missing = sorted((expected - actual).elements())
    surplus = sorted((actual - expected).elements())
    out = []
    if missing:
        out.append(f"expected settlements missing: {missing}")
    if surplus:
        out.append(f"settlements not in oracle table: {surplus}")
    return out
