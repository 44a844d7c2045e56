"""Declarative market scenarios: the dataclasses, their validation, the YAML
file loader and a seeded random generator used by the property suites.

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

Each spec field declares its kind: a function that takes the field's file
form, or the value a spec built in code holds, and returns the field's value
or raises `ScenarioError`. The loader reads every field through its kind, and
`Scenario.validate` checks every spec against the same kinds and the
cross-references. Loading only builds a scenario: `run_scenario` calls
`validate` before it builds an actor, so a scenario is validated once per
run and no actor checks a spec value again.
Each buyer, seller and notary spec is its actor's constructor input: the
actor keeps the spec and reads its options from it. A buyer's
`SelectionPolicy` is declared here, as a spec of its own.

Notary ground truth defaults to each seller's own dataset; an explicit
`ground_truth` entry overrides it (modelling a seller whose offered data
disagrees with the notary's records). Selection rules: ALL_VALID,
FIRST_K (k), BUDGET_CAP (max_tokens). Notarization modes: ALWAYS, NEVER,
SAMPLE (rate). Mutations: none, substitute_data, bit_flip, wrong_notary,
price_mismatch (sellers); none, certificate_replay, forged_certificate
(buyers).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import reprlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import actors
from .actors import Mutation
from .crypto import SEED_LEN
from .encoding import UINT_MAX
from .errors import MarketError, ScenarioError
from .ledger import Outcome
from .messages import Comparator, DataResponse, Predicate, Verdict
from .transport import NetworkConfig

# A scenario's network is the simulated network's own configuration.
NetworkSpec = NetworkConfig


# -- field kinds ----------------------------------------------------------


class _Shown(reprlib.Repr):
    """Error text shows a value cut short: YAML aliases can nest a list whose
    full text is gigabytes in a file of ten lines, and a spec built in code
    can hold an integer with more digits than `repr` converts."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<an integer of {x.bit_length()} bits>"


_shown = _Shown()
_shown.maxlevel = 2


def _kind_of(test: Callable, expected: str) -> Callable:
    """A kind that takes the values `test` accepts, as they are. Every run
    validates its scenario, so error text is built only on failure."""

    def kind(value):
        if test(value):
            return value
        raise ScenarioError(f"must be {expected}, not {_shown.repr(value)}")

    return kind


# An integer kind takes an int, not a bool, a float or a numeric string.
# Amounts fit the u64 the journal writes; seeds, the SEED_LEN bytes keys
# are derived from.
AMOUNT = _kind_of(lambda v: type(v) is int and 0 <= v <= UINT_MAX, "an integer in [0, 2**64)")
PRICE = _kind_of(lambda v: type(v) is int and 1 <= v <= UINT_MAX, "an integer in [1, 2**64)")
SEED = _kind_of(lambda v: type(v) is int and 0 <= v < 256**SEED_LEN, "an integer in [0, 2**256)")
INTEGER = _kind_of(lambda v: type(v) is int, "an integer")
RATE = _kind_of(lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number from 0 to 1")
FLAG = _kind_of(lambda v: type(v) is bool, "true or false")
TEXT = _kind_of(lambda v: isinstance(v, str) and v != "", "a non-empty string")
# An integer attribute is bounded as the amounts predicates compare it with are.
ATTRIBUTE = _kind_of(
    lambda v: type(v) is str or (type(v) is int and abs(v) <= UINT_MAX),
    "a string or an integer in (-2**64, 2**64)",
)
PAIR = _kind_of(lambda v: isinstance(v, list) and len(v) == 2, "a [min, max] pair")


def _choice(options: dict) -> Callable:
    """One of a closed set: a file form (a key of `options`) or the value it maps to."""
    values = set(options.values())

    def kind(value):
        # A list or a mapping from the file has no hash, so no member.
        member = options.get(value, value) if type(value).__hash__ else None
        if member in values:
            return member
        shown = _shown.repr(value)
        raise ScenarioError(f"must be one of {', '.join(sorted(options))}, not {shown}")

    return kind


MODE = _choice({mode: mode for mode in ("ALWAYS", "NEVER", "SAMPLE")})
RULE = _choice({rule: rule for rule in ("ALL_VALID", "FIRST_K", "BUDGET_CAP")})
VERDICT = _choice({v.letter: v.letter for v in Verdict})
OUTCOME = _choice({o.name: o.name for o in Outcome})
COMPARATOR = _choice({c.name.lower(): c for c in Comparator})
SELLER_MUTATION = _choice({m.value: m for m in {Mutation.NONE, *actors.SELLER_MUTATIONS}})
BUYER_MUTATION = _choice({m.value: m for m in {Mutation.NONE, *actors.BUYER_MUTATIONS}})


_mapping = _kind_of(lambda v: isinstance(v, dict), "a mapping")
_list = _kind_of(lambda v: isinstance(v, (list, tuple)), "a list")


def _tuple_of(item: Callable) -> Callable:
    return lambda value: tuple(item(entry) for entry in _list(value))


def _dict_of(item: Callable) -> Callable:
    """A mapping from names to values of kind `item`."""
    return lambda value: {TEXT(key): item(entry) for key, entry in _mapping(value).items()}


TEXTS = _tuple_of(TEXT)


# Schema -> data: non-empty bytes in code, a non-empty string in a file.
DATASET = _dict_of(lambda v: v if isinstance(v, bytes) and v else TEXT(v).encode())
GROUND_TRUTH = _dict_of(DATASET)  # seller -> schema -> data


def _predicate(value) -> Predicate:
    """A predicate; its value is a string, an amount, or for `in` a set of
    strings."""
    if not isinstance(value, Predicate):
        raw = _known_keys(_mapping(value), ("attribute", "op", "value"))
        op, operand = _read("op", COMPARATOR, raw.get("op")), raw.get("value")
        if op is Comparator.IN:
            operand = frozenset(_read("value", TEXTS, operand))
        value = Predicate(_read("attribute", TEXT, raw.get("attribute")), op, operand)
    if not isinstance(value.value, (str, frozenset)):
        _read("value", AMOUNT, value.value)
    return value


AUDIENCE = _tuple_of(_predicate)


def NETWORK(value) -> NetworkSpec:
    """The one section not read key by key: `latency` is a pair. A spec
    built in code is read as its file form, through the same kinds."""
    if isinstance(value, NetworkSpec):
        latency = [value.latency_min, value.latency_max]
        value = {"seed": value.seed, "latency": latency, "drop_rate": value.drop_rate}
    raw = _known_keys(_mapping(value), ("seed", "latency", "drop_rate"))
    latency = _read("latency", PAIR, raw.get("latency", [1, 1]))
    return NetworkSpec(
        seed=_read("seed", INTEGER, raw.get("seed", 0)),
        latency_min=_read("latency", INTEGER, latency[0]),
        latency_max=_read("latency", INTEGER, latency[1]),
        drop_rate=_read("drop_rate", RATE, raw.get("drop_rate", 0.0)),
    )


def _known_keys(raw: dict, keys: Sequence[str], where: str = "") -> dict:
    """`raw`, refused if it holds a key that names no field in `keys`. A
    key before a dot (`policy` of `policy.mode`) holds a mapping of them."""
    names = {k[len(where) :].split(".")[0] for k in keys if k.startswith(where)}
    for key, entry in raw.items():
        if key not in names:
            raise ScenarioError(f"unknown key {where + str(key)!r}")
        if isinstance(entry, dict) and where + key not in keys:
            _known_keys(entry, keys, f"{where}{key}.")
    return raw


def _read(where: str, kind: Callable, *args):
    """`kind(*args)`, with `where` in front of the text of its error. A kind
    raises `ScenarioError`, or the error of a class it builds."""
    try:
        return kind(*args)
    except MarketError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


# -- specs ----------------------------------------------------------------
_spec = dataclasses.dataclass(frozen=True, kw_only=True)


def _kind(kind: Callable, default=dataclasses.MISSING, *, key=None, factory=dataclasses.MISSING):
    """A field of `kind`, read from the file key `key`, a dotted path into
    nested mappings; from the key named as the field when not given."""
    metadata = {"kind": kind, "key": key}
    return dataclasses.field(default=default, default_factory=factory, metadata=metadata)


@functools.cache
def _kinds(cls) -> tuple:
    """Each field's name and kind, for the walk over specs built in code."""
    return tuple((f.name, f.metadata["kind"]) for f in dataclasses.fields(cls))


def _build(cls, value):
    """The one reader of declared classes. A file mapping gives a `cls`,
    each field read through its kind; a `cls` built in code has each field
    checked against its kind, and is returned as it is."""
    if isinstance(value, cls):
        try:
            for name, kind in _kinds(cls):
                kind(getattr(value, name))
        except MarketError as exc:
            raise ScenarioError(f"{name}: {exc}") from None
        return value
    fields, values = dataclasses.fields(cls), {}
    raw = _known_keys(_mapping(value), [f.metadata["key"] or f.name for f in fields])
    for f in fields:
        *parents, key = (f.metadata["key"] or f.name).split(".")
        source = raw
        for part in parents:
            source = _read(part, _mapping, source.get(part, {}))
        if key in source:
            values[f.name] = _read(".".join([*parents, key]), f.metadata["kind"], source[key])
        elif f.default is f.default_factory is dataclasses.MISSING:
            raise ScenarioError(f"missing {key!r}")
    return cls(**values)


def _specs(cls) -> Callable:
    """A list of `cls` specs."""
    return lambda value: [_read(f"item {i}", _build, cls, v) for i, v in enumerate(_list(value))]


@_spec
class SelectionPolicy:
    """Which of an order's valid responses, in arrival order, the buyer
    selects: all of them, the first `k`, or as many as `max_tokens` pays for."""

    rule: str = _kind(RULE, "ALL_VALID")
    k: int = _kind(AMOUNT, 0)
    max_tokens: int = _kind(AMOUNT, 0)

    def limit(self, price: int) -> Optional[int]:
        """How many responses at `price` the rule can select; None for any number."""
        if self.rule == "ALL_VALID":
            return None
        if self.rule == "FIRST_K":
            return self.k
        # BUDGET_CAP; `PRICE` makes every order's price at least 1.
        return self.max_tokens // price

    def select(self, responses: Iterable[DataResponse], price: int) -> List[DataResponse]:
        """Takes from `responses` only as many as the rule can select."""
        return list(itertools.islice(responses, self.limit(price)))


@_spec
class BuyerSpec:
    name: str = _kind(TEXT)
    seed: int = _kind(SEED)
    balance: int = _kind(AMOUNT, 0)
    selection: SelectionPolicy = _kind(lambda v: _build(SelectionPolicy, v), SelectionPolicy())
    force_audit: bool = _kind(FLAG, False)
    mutation: Mutation = _kind(BUYER_MUTATION, Mutation.NONE)


@_spec
class SellerSpec:
    name: str = _kind(TEXT)
    seed: int = _kind(SEED)
    attributes: Dict[str, object] = _kind(_dict_of(ATTRIBUTE), factory=dict)
    dataset: Dict[str, bytes] = _kind(DATASET, key="data", factory=dict)
    mutation: Mutation = _kind(SELLER_MUTATION, Mutation.NONE)
    min_price: int = _kind(AMOUNT, 0)


@_spec
class NotarySpec:
    name: str = _kind(TEXT)
    seed: int = _kind(SEED)
    fee: int = _kind(AMOUNT, 0)
    mode: str = _kind(MODE, "ALWAYS", key="policy.mode")
    rate: float = _kind(RATE, 0.0, key="policy.rate")
    declines: bool = _kind(FLAG, False)
    ground_truth: Dict[str, Dict[str, bytes]] = _kind(GROUND_TRUTH, factory=dict)


@_spec
class OrderSpec:
    buyer: str = _kind(TEXT)
    audience: Tuple[Predicate, ...] = _kind(AUDIENCE, ())
    schema_id: str = _kind(TEXT, key="schema")
    fields: Tuple[str, ...] = _kind(TEXTS, ())
    price: int = _kind(PRICE)
    audit_budget: int = _kind(AMOUNT, 0)
    notaries: Tuple[str, ...] = _kind(TEXTS)
    terms: str = _kind(TEXT, "standard terms")
    response_window: int = _kind(AMOUNT, 6)
    countersign_window: int = _kind(AMOUNT, 4)
    start_tick: int = _kind(AMOUNT, 0)


@_spec
class ExpectedSettlement:
    seller: str = _kind(TEXT)
    verdict: str = _kind(VERDICT)
    outcome: str = _kind(OUTCOME)


@dataclasses.dataclass
class Scenario:
    name: str = _kind(TEXT, "scenario")
    network: NetworkSpec = _kind(NETWORK, NetworkSpec())
    buyers: List[BuyerSpec] = _kind(_specs(BuyerSpec), factory=list)
    sellers: List[SellerSpec] = _kind(_specs(SellerSpec), factory=list)
    notaries: List[NotarySpec] = _kind(_specs(NotarySpec), factory=list)
    orders: List[OrderSpec] = _kind(_specs(OrderSpec), factory=list)
    expected: Optional[List[ExpectedSettlement]] = _kind(  # None: no oracle table
        lambda v: None if v is None else _specs(ExpectedSettlement)(v),
        None,
        key="expected_settlements",
    )
    secrets: Tuple[str, ...] = _kind(TEXTS, ())

    def profile_secrets(self) -> List[bytes]:
        """Attribute values and seller identities that must never reach the
        journal bytes, each listed once, in first-seen order. Values under 3
        bytes are skipped: they are indistinguishable from random
        digest/signature bytes."""
        out = []
        for seller in self.sellers:
            out.append(seller.name.encode())
            for value in seller.attributes.values():
                out.append(str(value).encode())
        for extra in self.secrets:
            out.append(extra.encode())
        return list(dict.fromkeys(s for s in out if len(s) >= 3))

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
        """Check every field against its kind, then the cross-references."""
        _build(Scenario, self)
        names = {}
        for where in ("buyers", "sellers", "notaries"):
            specs = getattr(self, where)
            names[where] = {spec.name for spec in specs}
            if len(names[where]) != len(specs):
                raise ScenarioError(f"duplicate names in {where}")
        # One seed is one key pair, so one account: two identities would merge.
        seeds = set()
        for spec in self.buyers + self.sellers + self.notaries:
            if spec.seed in seeds:
                raise ScenarioError(f"{spec.name} has the seed of another identity")
            seeds.add(spec.seed)
        if sum(buyer.balance for buyer in self.buyers) > UINT_MAX:
            raise ScenarioError("buyer balances total more than 2**64 - 1")  # total supply
        known_schemas = set()
        for seller in self.sellers:
            known_schemas.update(seller.dataset)
        for notary in self.notaries:
            for seller_name, per_schema in notary.ground_truth.items():
                if seller_name not in names["sellers"]:
                    raise ScenarioError(
                        f"notary {notary.name} has ground truth for unknown seller "
                        f"{seller_name}"
                    )
                known_schemas.update(per_schema)
        for order in self.orders:
            if order.buyer not in names["buyers"]:
                raise ScenarioError(f"order references unknown buyer {order.buyer}")
            for notary in order.notaries:
                if notary not in names["notaries"]:
                    raise ScenarioError(f"order references unknown notary {notary}")
            if not order.notaries:
                raise ScenarioError("order has an empty notary list")
            if len(set(order.notaries)) != len(order.notaries):
                raise ScenarioError("order names a notary twice")
            if order.schema_id not in known_schemas:
                raise ScenarioError(
                    f"schema {order.schema_id!r} is neither held by any seller "
                    "nor present in ground truth"
                )
        for expected in self.expected or []:
            if expected.seller not in names["sellers"]:
                raise ScenarioError(
                    f"expected settlement references unknown seller {expected.seller}"
                )


# -- YAML loading ---------------------------------------------------------


def load_scenario(path) -> Scenario:
    import yaml  # here, not at the top: only a file read needs it

    try:
        # As bytes: YAML detects the encoding, and bytes it cannot decode raise a YAMLError.
        with open(path, "rb") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    # An integer of more than 4,300 digits raises ValueError.
    except (yaml.YAMLError, RecursionError, ValueError) as exc:
        raise ScenarioError(f"scenario does not parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be a mapping")
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a scenario from its file form; `Scenario.validate` checks it."""
    return _build(Scenario, doc)


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
    return Scenario(
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
