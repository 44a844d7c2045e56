import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket import ledger as ledger_mod, messages, transport
from datamarket.actors import Buyer, keys_from_seed
from datamarket.errors import TransportError
from datamarket.ledger import Ledger
from datamarket.messages import NotarizationRequest, PayloadDelivery, Verdict
from datamarket.runner import run_scenario
from datamarket.scenario import BuyerSpec, OrderSpec, load_scenario
from datamarket.transport import Envelope, Network, NetworkConfig

from market_helpers import BANK, TERMS, ladder_10x10, make_market, make_response

A = b"\x01" * 20  # an address
B = b"\x02" * 20


def run_transcript(config, sends):
    net = Network(config)
    net.register("x")
    log = []
    for tick_sends in sends:
        for payload in tick_sends:
            net.send(A, "x", payload)
        for endpoint, envs in net.tick().items():
            for env in envs:
                log.append((net.tick_now, env.message))
    return log


def test_unit_latency_delivery():
    net = Network(NetworkConfig(latency_min=1, latency_max=1))
    net.register("x")
    net.send(A, "x", b"hello")
    delivered = net.tick()
    assert delivered == {"x": delivered["x"]}
    assert delivered["x"][0].message == b"hello"
    assert net.idle


def test_drop_rate_one_delivers_nothing():
    net = Network(NetworkConfig(drop_rate=1.0))
    net.register("x")
    for i in range(20):
        net.send(A, "x", bytes([i]))
    for _ in range(10):
        assert net.tick() == {}
    assert net.idle


def test_fixed_seed_identical_transcripts():
    config = NetworkConfig(latency_min=1, latency_max=5, drop_rate=0.3, seed=99)
    sends = [[bytes([i]), bytes([i + 100])] for i in range(10)] + [[]] * 10
    assert run_transcript(config, sends) == run_transcript(config, sends)


def test_exactly_once_without_drops():
    net = Network(NetworkConfig(latency_min=1, latency_max=4, drop_rate=0.0, seed=5))
    net.register("x")
    for i in range(30):
        net.send(A, "x", bytes([i]))
    seen = []
    for _ in range(20):
        for envs in net.tick().values():
            seen.extend(e.message for e in envs)
    assert sorted(seen) == [bytes([i]) for i in range(30)]


def fates(config, schedule):
    """Each envelope's delivery tick (None if dropped) when `schedule`, one
    list of (sender, endpoint, message) sends per tick, runs on a network of
    `config`."""
    net = Network(config)
    net.register("x")
    net.register("y")
    for sends in schedule:
        for sender, endpoint, message in sends:
            net.send(sender, endpoint, message)
        net.tick()
    return [env.delivery_tick for env in net.transcript]


SCHEDULES = st.lists(
    st.lists(st.tuples(st.sampled_from([A, B]), st.sampled_from("xy"), st.binary(max_size=3)), max_size=4),
    max_size=6,
)


@given(
    rates=st.lists(st.floats(0, 1), min_size=2, max_size=2).map(sorted),
    latency_min=st.integers(1, 3),
    spread=st.integers(0, 2),
    seed=st.integers(),
    schedule=SCHEDULES,
)
@settings(max_examples=200, deadline=None)
def test_a_higher_drop_rate_only_removes_envelopes(rates, latency_min, spread, seed, schedule):
    """Every envelope dropped at drop rate p is dropped at q >= p too, and
    every envelope delivered at q arrives at the same tick at p."""
    configs = [NetworkConfig(latency_min, latency_min + spread, rate, seed) for rate in rates]
    at_p, at_q = (fates(config, schedule) for config in configs)
    assert all(q is None for p, q in zip(at_p, at_q) if p is None)
    assert all(p == q for p, q in zip(at_p, at_q) if q is not None)


@given(
    rate=st.floats(0, 1),
    latency_min=st.integers(1, 3),
    spread=st.integers(0, 3),
    seed=st.integers(),
    schedule=SCHEDULES,
)
@settings(max_examples=200, deadline=None)
def test_each_fate_is_the_fate_of_the_envelope_sent_alone(
    rate, latency_min, spread, seed, schedule
):
    """Every envelope of a schedule is dropped, or delivered at a tick,
    exactly as it is when sent alone at the same tick on a fresh network:
    its fate depends on no other send."""
    config = NetworkConfig(latency_min, latency_min + spread, rate, seed)
    alone = [
        fates(config, [[]] * tick + [[send]])[0]
        for tick, sends in enumerate(schedule)
        for send in sends
    ]
    assert fates(config, schedule) == alone


def test_removing_repeated_sends_moves_no_other_fate(monkeypatch):
    """`ladder-10x10` at drop 0.05, run again with every byte-identical
    repeat (same sender, endpoint and message) swallowed before it reaches
    the network: each envelope sent in both runs, matched by sender,
    endpoint, send tick and message, has the same fate in both."""
    def fates_by_send(result):
        return {
            (e.sender, e.endpoint, e.send_tick, e.message): e.delivery_tick
            for e in result.network.transcript
        }

    full = fates_by_send(run_scenario(ladder_10x10(0.05)))
    send, sent = Network.send, set()

    def send_once(network, sender, endpoint, message):
        if (sender, endpoint, message) not in sent:
            sent.add((sender, endpoint, message))
            send(network, sender, endpoint, message)

    monkeypatch.setattr(Network, "send", send_once)
    once = fates_by_send(run_scenario(ladder_10x10(0.05)))
    assert len(once) < len(full)
    both = full.keys() & once.keys()
    assert len(both) > len(once) // 2
    moved = [(key[2], key[1], full[key], once[key]) for key in both if full[key] != once[key]]
    assert moved == []  # (send tick, endpoint, fate in the full run, fate without repeats)


@pytest.mark.parametrize("seed", [-7, 2**256, 10**4999], ids=["negative", "2**256", "5000 digits"])
def test_any_integer_is_a_network_seed(seed):
    """The network seed is any integer: a negative one, one past 32 bytes
    and one of 5,000 digits (more than `str` converts) each run `bank.yaml`
    to the same journal and report every time."""
    scenario = load_scenario(BANK)
    scenario = dataclasses.replace(scenario, network=dataclasses.replace(scenario.network, seed=seed))
    outputs = []
    for _ in range(2):
        result = run_scenario(scenario)
        assert result.report.ok
        outputs.append((ledger_mod.journal_bytes(result.ledger), result.report.render()))
    assert outputs[0] == outputs[1]


def test_unknown_endpoint_rejected():
    net = Network(NetworkConfig())
    with pytest.raises(TransportError):
        net.send(A, "nowhere", b"x")


def test_transport_neutrality():
    net = Network(NetworkConfig(latency_min=1, latency_max=3, seed=8))
    net.register("x")
    payloads = [bytes([i]) * 5 for i in range(10)]
    for p in payloads:
        net.send(A, "x", p)
    assert [e.message for e in net.transcript] == payloads


# -- the buyer's upload endpoint ------------------------------------------
# The network only routes bytes; the buyer's `handle` decides what it accepts
# on its upload URL, and records a refusal as an `upload: ...` rejection.


def make_buyer():
    spec = BuyerSpec(name="b", seed=1)
    return Buyer(spec, keys_from_seed(spec.seed), Ledger(), Network(NetworkConfig()), {})


def upload(buyer, data, sender=None):
    """Hand `data` from `sender` to the buyer's upload URL; the refusals
    this recorded."""
    before = len(buyer.rejected_submissions)
    buyer.handle([Envelope(sender, buyer.upload_url, data, 0)])
    return buyer.rejected_submissions[before:]


def test_endpoint_deduplicates_responses():
    market = make_market()
    response, _, _ = make_response(market)
    buyer = make_buyer()
    assert upload(buyer, response.encode()) == []
    assert upload(buyer, response.encode()) == []
    assert list(buyer._offers) == [response.digest()]


def test_endpoint_rejects_garbage():
    (reason,) = upload(make_buyer(), b"\xde\xad\xbe\xef")
    assert reason.startswith("upload: parse: ")


def test_endpoint_rejects_payload_for_unknown_response():
    buyer = make_buyer()
    delivery = PayloadDelivery(b"\x00" * 32, b"\x01" * 50)
    assert upload(buyer, delivery.encode()) == ["upload: unknown-response"]
    assert buyer.network.transcript == []


def open_order():
    """A buyer whose order, listing notary "n", is registered and takes
    offers until tick 10, and an offer for it from seller seed 10."""
    market = make_market()  # only for the notary's keys and address
    ledger, network = Ledger(), Network(NetworkConfig())
    spec = BuyerSpec(name="b", seed=1)
    buyer = Buyer(spec, keys_from_seed(spec.seed), ledger, network, {market.notary: "n"})
    for endpoint in (buyer.upload_url, "notary:n"):
        network.register(endpoint)
    ledger.mint(buyer.address, 100)
    wanted = OrderSpec(buyer="b", schema_id="records", price=5, notaries=("n",))
    order = buyer.start_order(wanted, 0)
    terms = messages.countersign_order(market.notary_keys, order, 2, TERMS)
    upload(buyer, terms.encode(), market.notary)
    buyer.step(4)  # the countersign window closes: the order is registered
    seller = keys_from_seed(10)
    return buyer, messages.build_data_response(seller, order, 5, b"data", market.notary, b"s" * 32)


def requested(buyer):
    """The response digest of each notarization request the buyer sent."""
    sent = [messages.decode(e.message) for e in buyer.network.transcript]
    return [m.response_digest for m in sent if isinstance(m, NotarizationRequest)]


def test_endpoint_accepts_payload_after_response():
    buyer, response = open_order()
    seller = response.payment_address
    upload(buyer, response.encode(), seller)
    buyer.step(10)  # the response window closes: the response is selected
    delivery = PayloadDelivery(response.digest(), b"\x01" * 50)
    assert upload(buyer, delivery.encode(), seller) == []
    assert upload(buyer, delivery.encode(), seller) == []  # idempotent
    assert requested(buyer) == [response.digest()]


def test_endpoint_accepts_a_byte_identical_repeat_without_decoding(monkeypatch):
    response, _, _ = make_response(make_market())
    buyer = make_buyer()
    assert upload(buyer, response.encode()) == []
    decoded, decode = [], messages.decode
    monkeypatch.setattr(messages, "decode", lambda data: decoded.append(data) or decode(data))
    assert upload(buyer, response.encode()) == []
    assert decoded == []


def test_endpoint_accepts_a_refused_delivery_once_its_offer_arrives():
    """A delivery before its offer is refused as unknown, and one before its
    offer is selected as unselected; neither is kept, so it is accepted and
    answered once it comes after the selection."""
    buyer, response = open_order()
    seller = response.payment_address
    delivery = PayloadDelivery(response.digest(), b"\x01" * 50)
    assert upload(buyer, delivery.encode(), seller) == ["upload: unknown-response"]
    assert upload(buyer, response.encode(), seller) == []
    assert upload(buyer, delivery.encode(), seller) == ["upload: unselected-response"]
    buyer.step(10)  # the response window closes: the response is selected
    assert requested(buyer) == []
    assert upload(buyer, delivery.encode(), seller) == []
    assert requested(buyer) == [response.digest()]


def test_endpoint_refuses_a_garbled_message_every_time():
    buyer = make_buyer()
    for _ in range(3):
        (reason,) = upload(buyer, b"\xde\xad\xbe\xef")
        assert reason.startswith("upload: parse:")
    assert len(buyer.rejected_submissions) == 3


@pytest.mark.parametrize("kind", ["DataOrder", "NotarizationRequest", "NotaryCertificate"])
def test_endpoint_rejects_unsupported_type(kind):
    market = make_market()
    response, _, _ = make_response(market)
    message = {
        "DataOrder": market.order,
        "NotarizationRequest": NotarizationRequest(market.order_id, response.digest(), True, b""),
        "NotaryCertificate": messages.issue_certificate(
            market.notary_keys, market.order_id, response, Verdict.NOTARIZED_VALID
        ),
    }[kind]
    buyer = make_buyer()
    assert upload(buyer, message.encode()) == [f"upload: unsupported message type {kind}"]
    assert buyer._offers == {} and buyer.network.transcript == []


# -- layering ----------------------------------------------------------------


def transport_imports() -> set:
    """The last name of every module `transport.py` imports."""
    tree = ast.parse(Path(transport.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            imported.add(module)
            if not node.module or module == "datamarket":  # `from . import messages`
                imported.update(alias.name for alias in node.names)
    return imported


def test_transport_imports_no_protocol_module():
    """The network routes opaque bytes, so it must not import the modules
    that give them meaning."""
    assert transport_imports() & {"messages", "ledger", "actors"} == set()


def test_transport_imports_no_random():
    """Each send's fate is a hash of the envelope, so the network keeps no
    random stream."""
    assert "random" not in transport_imports()
