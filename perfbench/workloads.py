"""Seeded workload generators.

Each workload is a list of `Scenario` objects built from the workload seed
through the package's public scenario types; the program under test only
ever sees the scenarios. Importing this module imports `datamarket`, so
callers put the checkout's `src/` on `sys.path` first.

A "ladder N x M" is one market with 4 honest buyers, 3 SAMPLE(0.5) notaries
with fees 1/2/3, N honest sellers that all match a one-predicate audience,
and M orders assigned to buyers round-robin, one new order per tick, price
5, all three notaries listed, latency [1, 2] and no drops. Each order gets
its own terms text: two orders with identical content from one buyer share a
digest and the ledger rejects the second as a duplicate, a defect tracked
separately from this benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from datamarket import scenario as dm_scenario
from datamarket.messages import Comparator, Predicate
from datamarket.scenario import (
    BuyerSpec,
    NetworkSpec,
    NotarySpec,
    OrderSpec,
    Scenario,
    SellerSpec,
)

BUYERS = 4
NOTARY_FEES = (1, 2, 3)
PRICE = 5
SCHEMA = "records"
AUDIENCE = (Predicate("segment", Comparator.EQ, "target"),)


@dataclass(frozen=True)
class Ladder:
    """One ladder market of `sellers` x `orders`; the workload seed is its
    network seed."""

    sellers: int
    orders: int

    def scenarios(self, seed: int) -> List[Scenario]:
        return [ladder_market(self.sellers, self.orders, seed)]

    def seeds(self, seed: int) -> dict:
        return {"network_seed": seed}

    def expected_settlements(self) -> int:
        return self.sellers * self.orders

    def expected_events(self) -> int:
        # One mint per buyer; order created, sellers selected and order
        # closed per order; one response closed per settlement. The audit
        # budget covers the worst-case fees, so no top-up event occurs.
        return BUYERS + 3 * self.orders + self.sellers * self.orders


@dataclass(frozen=True)
class Sweep:
    """`random_scenario` for `count` consecutive seeds from `seed * count`."""

    count: int

    def scenarios(self, seed: int) -> List[Scenario]:
        base = seed * self.count
        # Looked up on the module so that a traced run sees the call.
        return [dm_scenario.random_scenario(base + i) for i in range(self.count)]

    def seeds(self, seed: int) -> dict:
        base = seed * self.count
        return {"random_scenario_seeds": [base, base + self.count - 1]}

    def expected_settlements(self) -> None:
        return None

    def expected_events(self) -> None:
        return None


WORKLOADS = {
    "ladder-160x40": Ladder(160, 40),
    "random-sweep": Sweep(1000),
    # The smallest rung; the smoke test runs it, BENCHMARK.json does not.
    "ladder-10x10": Ladder(10, 10),
}


def ladder_market(sellers: int, orders: int, seed: int) -> Scenario:
    """One ladder market. `seed` is the network seed and also seeds the
    actors' keys and the sellers' data."""
    rng = random.Random(seed)
    notaries = [
        NotarySpec(
            name=f"notary{j}",
            seed=rng.randint(1, 2**31),
            fee=fee,
            mode="SAMPLE",
            rate=0.5,
        )
        for j, fee in enumerate(NOTARY_FEES)
    ]
    audit_budget = max(NOTARY_FEES) * sellers
    orders_per_buyer = -(-orders // BUYERS)
    buyers = [
        BuyerSpec(
            name=f"buyer{b}",
            seed=rng.randint(1, 2**31),
            balance=orders_per_buyer * (PRICE * sellers + audit_budget),
        )
        for b in range(BUYERS)
    ]
    seller_specs = [
        SellerSpec(
            name=f"seller{i}",
            seed=rng.randint(1, 2**31),
            attributes={"segment": "target"},
            dataset={SCHEMA: f"payload-{rng.getrandbits(64):016x}-seller{i}".encode()},
        )
        for i in range(sellers)
    ]
    order_specs = [
        OrderSpec(
            buyer=f"buyer{k % BUYERS}",
            audience=AUDIENCE,
            schema_id=SCHEMA,
            fields=("value",),
            price=PRICE,
            audit_budget=audit_budget,
            notaries=tuple(n.name for n in notaries),
            terms=f"ladder order {k}",
            start_tick=k,
        )
        for k in range(orders)
    ]
    scenario = Scenario(
        name=f"ladder-{sellers}x{orders}-{seed}",
        network=NetworkSpec(seed=seed, latency_min=1, latency_max=2, drop_rate=0.0),
        buyers=buyers,
        sellers=seller_specs,
        notaries=notaries,
        orders=order_specs,
    )
    scenario.validate()
    return scenario
