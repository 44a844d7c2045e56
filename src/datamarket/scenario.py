"""Declarative market scenarios: the dataclasses, the YAML file loader with
cross-reference validation, and a seeded random generator used by the
property suites.

File grammar (YAML, all keys lowercase):

    name: bank
    network: {seed: 7, latency: [1, 2], drop_rate: 0.0}
    buyers:
      - {name: buyer1, seed: 101, balance: 500,
         selection: {rule: ALL_VALID}, force_audit: false, mutation: none}
    sellers:
      - {name: alice, seed: 201, attributes: {country: AR, age: 34},
         data: {card_transactions: "..."}, mutation: none}
    notaries:
      - {name: bank, seed: 301, fee: 2, policy: {mode: ALWAYS},
         declines: false, ground_truth: {alice: {card_transactions: "..."}}}
    orders:
      - {buyer: buyer1, audience: [{attribute: country, op: eq, value: AR}],
         schema: card_transactions, fields: [amount], price: 10,
         audit_budget: 10, notaries: [bank], response_window: 6,
         terms: "model training only"}
    expected_settlements:
      - {seller: alice, verdict: b, outcome: SELLER_PAID}
    secrets: []        # extra strings that must never reach the journal

Notary ground truth defaults to each seller's own dataset; an explicit
`ground_truth` entry overrides it (modelling a seller whose offered data
disagrees with the notary's records). Selection rules: ALL_VALID,
FIRST_K (k), BUDGET_CAP (max_tokens). Notarization modes: ALWAYS, NEVER,
SAMPLE (rate). Mutations: none, substitute_data, bit_flip, wrong_notary,
price_mismatch (sellers); none, certificate_replay, forged_certificate
(buyers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import yaml

from .actors import Mutation, NotarizationPolicy, SelectionPolicy, check_mutation
from .errors import MarketError, ScenarioError, TransportError
from .messages import Comparator, Predicate
from .transport import NetworkConfig

_COMPARATORS = {
    "eq": Comparator.EQ,
    "ne": Comparator.NE,
    "ge": Comparator.GE,
    "le": Comparator.LE,
    "in": Comparator.IN,
}


# A scenario's network is the simulated network's own configuration.
NetworkSpec = NetworkConfig


@dataclass(frozen=True)
class BuyerSpec:
    name: str
    seed: int
    balance: int
    selection: SelectionPolicy = SelectionPolicy()
    force_audit: bool = False
    mutation: Mutation = Mutation.NONE


@dataclass(frozen=True)
class SellerSpec:
    name: str
    seed: int
    attributes: Dict[str, object] = field(default_factory=dict)
    dataset: Dict[str, bytes] = field(default_factory=dict)
    mutation: Mutation = Mutation.NONE
    min_price: int = 0


@dataclass(frozen=True)
class NotarySpec:
    name: str
    seed: int
    fee: int
    mode: str = "ALWAYS"
    rate: float = 0.0
    declines: bool = False
    ground_truth: Dict[str, Dict[str, bytes]] = field(default_factory=dict)

    def policy(self) -> NotarizationPolicy:
        return NotarizationPolicy(mode=self.mode, rate=self.rate, seed=self.seed)


@dataclass(frozen=True)
class OrderSpec:
    buyer: str
    audience: Tuple[Predicate, ...]
    schema_id: str
    fields: Tuple[str, ...]
    price: int
    audit_budget: int
    notaries: Tuple[str, ...]
    terms: str = "standard terms"
    response_window: int = 6
    countersign_window: int = 4
    start_tick: int = 0


@dataclass(frozen=True)
class ExpectedSettlement:
    seller: str
    verdict: str  # a | b | c
    outcome: str  # SELLER_PAID | BUYER_REFUNDED


@dataclass
class Scenario:
    name: str
    network: NetworkSpec = NetworkSpec()
    buyers: List[BuyerSpec] = field(default_factory=list)
    sellers: List[SellerSpec] = field(default_factory=list)
    notaries: List[NotarySpec] = field(default_factory=list)
    orders: List[OrderSpec] = field(default_factory=list)
    expected: Optional[List[ExpectedSettlement]] = None
    secrets: List[str] = field(default_factory=list)
    absent_schemas: List[str] = field(default_factory=list)

    def profile_secrets(self) -> List[bytes]:
        """Attribute values and seller identities that must never reach the
        journal bytes. Values under 3 bytes are skipped: they are
        indistinguishable from random digest/signature bytes."""
        out = []
        for seller in self.sellers:
            out.append(seller.name.encode())
            for value in seller.attributes.values():
                out.append(str(value).encode())
        for extra in self.secrets:
            out.append(extra.encode())
        return [s for s in out if len(s) >= 3]

    def data_secrets(self) -> List[bytes]:
        """Plaintext data values that may travel only inside ciphertext."""
        out = []
        for seller in self.sellers:
            out.extend(seller.dataset.values())
        for notary in self.notaries:
            for per_schema in notary.ground_truth.values():
                out.extend(per_schema.values())
        return out

    def validate(self) -> None:
        buyer_names = {b.name for b in self.buyers}
        seller_names = {s.name for s in self.sellers}
        notary_names = {n.name for n in self.notaries}
        if len(buyer_names) != len(self.buyers):
            raise ScenarioError("duplicate buyer names")
        if len(seller_names) != len(self.sellers):
            raise ScenarioError("duplicate seller names")
        if len(notary_names) != len(self.notaries):
            raise ScenarioError("duplicate notary names")
        for buyer in self.buyers:
            if buyer.balance < 0:
                raise ScenarioError(f"buyer {buyer.name} has a negative balance")
        for notary in self.notaries:
            if notary.fee < 0:
                raise ScenarioError(f"notary {notary.name} has a negative fee")
        try:
            for buyer in self.buyers:
                check_mutation(buyer.mutation, "buyer")
            for seller in self.sellers:
                check_mutation(seller.mutation, "seller")
            for notary in self.notaries:
                notary.policy()
        except MarketError as exc:
            raise ScenarioError(str(exc)) from None
        known_schemas = set(self.absent_schemas)
        for seller in self.sellers:
            known_schemas.update(seller.dataset)
        for notary in self.notaries:
            for seller_name, per_schema in notary.ground_truth.items():
                if seller_name not in seller_names:
                    raise ScenarioError(
                        f"notary {notary.name} has ground truth for unknown seller "
                        f"{seller_name}"
                    )
                known_schemas.update(per_schema)
        for order in self.orders:
            if order.buyer not in buyer_names:
                raise ScenarioError(f"order references unknown buyer {order.buyer}")
            for notary in order.notaries:
                if notary not in notary_names:
                    raise ScenarioError(f"order references unknown notary {notary}")
            if not order.notaries:
                raise ScenarioError("order has an empty notary list")
            if order.price <= 0 or order.audit_budget < 0:
                raise ScenarioError("order price must be positive and its audit budget >= 0")
            if order.schema_id not in known_schemas:
                raise ScenarioError(
                    f"schema {order.schema_id!r} is neither held by any seller, "
                    "present in ground truth, nor declared absent"
                )
        for expected in self.expected or []:
            if expected.seller not in seller_names:
                raise ScenarioError(
                    f"expected settlement references unknown seller {expected.seller}"
                )
            if expected.verdict not in ("a", "b", "c"):
                raise ScenarioError(f"unknown verdict {expected.verdict!r}")
            if expected.outcome not in ("SELLER_PAID", "BUYER_REFUNDED"):
                raise ScenarioError(f"unknown outcome {expected.outcome!r}")


# -- YAML loading ---------------------------------------------------------


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"missing {key!r} in {where}")
    return mapping[key]


def _number(kind, value, what: str):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} must be a number, not {value!r}") from None


def _mapping(value, what: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a mapping, not {value!r}")
    return value


def _list(value, what: str) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list, not {value!r}")
    return value


def _entries(value, what: str) -> List[dict]:
    """A list of mappings; absent means empty."""
    return [_mapping(entry, what) for entry in _list(value, what)]


def _names(value, what: str) -> Tuple[str, ...]:
    """A list of strings; absent means empty."""
    return tuple(str(v) for v in _list(value, what))


def _mutation(raw, where: str) -> Mutation:
    try:
        return Mutation(raw or "none")
    except ValueError:
        raise ScenarioError(f"unknown mutation {raw!r} in {where}") from None


def _selection(raw: dict) -> SelectionPolicy:
    k = _number(int, raw.get("k", 0), "selection k")
    max_tokens = _number(int, raw.get("max_tokens", 0), "selection max_tokens")
    try:
        return SelectionPolicy(raw.get("rule", "ALL_VALID"), k, max_tokens)
    except MarketError as exc:
        raise ScenarioError(str(exc)) from None


def _predicate(raw) -> Predicate:
    attr = _need(raw, "attribute", "audience predicate")
    op = _COMPARATORS.get(str(_need(raw, "op", "audience predicate")).lower())
    if op is None:
        raise ScenarioError(f"unknown comparator {raw.get('op')!r}")
    value = _need(raw, "value", "audience predicate")
    if op is Comparator.IN:
        value = frozenset(_names(value, "audience 'in' value"))
    elif isinstance(value, bool):
        raise ScenarioError("boolean predicate values are not supported")
    elif not isinstance(value, int):
        value = str(value)
    return Predicate(attr, op, value)


def _dataset(raw) -> Dict[str, bytes]:
    return {str(schema): str(value).encode() for schema, value in _mapping(raw, "data").items()}


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario does not parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be a mapping")
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict) -> Scenario:
    net_raw = _mapping(doc.get("network"), "network")
    latency = net_raw.get("latency", [1, 1])
    if not isinstance(latency, list) or len(latency) != 2:
        raise ScenarioError(f"network latency must be [min, max], not {latency!r}")
    try:
        network = NetworkSpec(
            seed=_number(int, net_raw.get("seed", 0), "network seed"),
            latency_min=_number(int, latency[0], "network latency"),
            latency_max=_number(int, latency[1], "network latency"),
            drop_rate=_number(float, net_raw.get("drop_rate", 0.0), "network drop_rate"),
        )
    except TransportError as exc:
        raise ScenarioError(f"network: {exc}") from None
    buyers = [
        BuyerSpec(
            name=str(_need(raw, "name", "buyer")),
            seed=_number(int, _need(raw, "seed", "buyer"), "buyer seed"),
            balance=_number(int, raw.get("balance", 0), "buyer balance"),
            selection=_selection(_mapping(raw.get("selection"), "buyer selection")),
            force_audit=bool(raw.get("force_audit", False)),
            mutation=_mutation(raw.get("mutation"), "buyer"),
        )
        for raw in _entries(doc.get("buyers"), "buyers")
    ]
    sellers = [
        SellerSpec(
            name=str(_need(raw, "name", "seller")),
            seed=_number(int, _need(raw, "seed", "seller"), "seller seed"),
            attributes=_mapping(raw.get("attributes"), "seller attributes"),
            dataset=_dataset(raw.get("data")),
            mutation=_mutation(raw.get("mutation"), "seller"),
            min_price=_number(int, raw.get("min_price", 0), "seller min_price"),
        )
        for raw in _entries(doc.get("sellers"), "sellers")
    ]
    notaries = []
    for raw in _entries(doc.get("notaries"), "notaries"):
        policy = _mapping(raw.get("policy"), "notary policy")
        ground_truth = _mapping(raw.get("ground_truth"), "notary ground_truth")
        notaries.append(
            NotarySpec(
                name=str(_need(raw, "name", "notary")),
                seed=_number(int, _need(raw, "seed", "notary"), "notary seed"),
                fee=_number(int, raw.get("fee", 0), "notary fee"),
                mode=str(policy.get("mode", "ALWAYS")),
                rate=_number(float, policy.get("rate", 0.0), "notary rate"),
                declines=bool(raw.get("declines", False)),
                ground_truth={str(k): _dataset(v) for k, v in ground_truth.items()},
            )
        )
    orders = [
        OrderSpec(
            buyer=str(_need(raw, "buyer", "order")),
            audience=tuple(_predicate(p) for p in _entries(raw.get("audience"), "audience")),
            schema_id=str(_need(raw, "schema", "order")),
            fields=_names(raw.get("fields"), "order fields"),
            price=_number(int, _need(raw, "price", "order"), "order price"),
            audit_budget=_number(int, raw.get("audit_budget", 0), "order audit_budget"),
            notaries=_names(_need(raw, "notaries", "order"), "order notaries"),
            terms=str(raw.get("terms", "standard terms")),
            response_window=_number(int, raw.get("response_window", 6), "response_window"),
            countersign_window=_number(
                int, raw.get("countersign_window", 4), "countersign_window"
            ),
            start_tick=_number(int, raw.get("start_tick", 0), "order start_tick"),
        )
        for raw in _entries(doc.get("orders"), "orders")
    ]
    expected_raw = doc.get("expected_settlements")
    expected = None
    if expected_raw is not None:
        expected = [
            ExpectedSettlement(
                seller=str(_need(raw, "seller", "expected settlement")),
                verdict=str(_need(raw, "verdict", "expected settlement")),
                outcome=str(_need(raw, "outcome", "expected settlement")),
            )
            for raw in _entries(expected_raw, "expected_settlements")
        ]
    scenario = Scenario(
        name=str(doc.get("name", "scenario")),
        network=network,
        buyers=buyers,
        sellers=sellers,
        notaries=notaries,
        orders=orders,
        expected=expected,
        secrets=list(_names(doc.get("secrets"), "secrets")),
        absent_schemas=list(_names(doc.get("absent_schemas"), "absent_schemas")),
    )
    scenario.validate()
    return scenario


# -- random scenario generation -------------------------------------------

_SELLER_MUTS = [
    Mutation.NONE,
    Mutation.NONE,
    Mutation.NONE,
    Mutation.SUBSTITUTE_DATA,
    Mutation.BIT_FLIP,
    Mutation.WRONG_NOTARY,
    Mutation.PRICE_MISMATCH,
]
_BUYER_MUTS = [
    Mutation.NONE,
    Mutation.NONE,
    Mutation.CERTIFICATE_REPLAY,
    Mutation.FORGED_CERTIFICATE,
]


def random_scenario(seed: int) -> Scenario:
    """A seeded one-order market with 1-10 sellers, random policies,
    random mutations, and optionally disagreeing ground truth."""
    rng = random.Random(seed)
    schema = "records"
    n_sellers = rng.randint(1, 10)
    n_notaries = rng.randint(1, 2)
    price = rng.randint(1, 20)

    notaries = []
    gt_overrides: Dict[str, Dict[str, bytes]] = {}
    sellers = []
    for i in range(n_sellers):
        name = f"seller{i}"
        data = f"payload-{rng.getrandbits(64):016x}-{name}"
        matches = rng.random() < 0.8
        sellers.append(
            SellerSpec(
                name=name,
                seed=rng.randint(1, 2**31),
                attributes={
                    "segment": "target" if matches else "other",
                    "tier": f"tier-{rng.randint(1, 5)}",
                },
                dataset={schema: data.encode()},
                mutation=rng.choice(_SELLER_MUTS),
            )
        )
        if rng.random() < 0.15:
            # Notary's records disagree with what the seller offers.
            gt_overrides[name] = {schema: f"truth-{rng.getrandbits(64):016x}".encode()}
    for j in range(n_notaries):
        mode = rng.choice(["ALWAYS", "NEVER", "SAMPLE"])
        notaries.append(
            NotarySpec(
                name=f"notary{j}",
                seed=rng.randint(1, 2**31),
                fee=rng.randint(0, 3),
                mode=mode,
                rate=round(rng.random(), 3) if mode == "SAMPLE" else 0.0,
                ground_truth=gt_overrides if j == 0 else {},
            )
        )
    selection = rng.choice(
        [
            SelectionPolicy(),
            SelectionPolicy(rule="FIRST_K", k=rng.randint(1, n_sellers)),
            SelectionPolicy(rule="BUDGET_CAP", max_tokens=price * rng.randint(1, n_sellers)),
        ]
    )
    buyer = BuyerSpec(
        name="buyer",
        seed=rng.randint(1, 2**31),
        balance=price * n_sellers + 200,
        selection=selection,
        force_audit=rng.random() < 0.3,
        mutation=rng.choice(_BUYER_MUTS),
    )
    order = OrderSpec(
        buyer="buyer",
        audience=(Predicate("segment", Comparator.EQ, "target"),),
        schema_id=schema,
        fields=("value",),
        price=price,
        audit_budget=rng.randint(0, 6),
        notaries=tuple(n.name for n in notaries),
        response_window=4,
        countersign_window=3,
    )
    scenario = Scenario(
        name=f"random-{seed}",
        network=NetworkSpec(
            seed=rng.randint(0, 2**31),
            latency_min=1,
            latency_max=rng.randint(1, 3),
            drop_rate=rng.choice([0.0, 0.0, 0.05]),
        ),
        buyers=[buyer],
        sellers=sellers,
        notaries=notaries,
        orders=[order],
    )
    scenario.validate()
    return scenario
