import ast
from pathlib import Path

import pytest

from datamarket import messages, transport
from datamarket.actors import Buyer, keys_from_seed
from datamarket.errors import TransportError
from datamarket.ledger import Ledger
from datamarket.messages import NotarizationRequest, PayloadDelivery, Verdict
from datamarket.scenario import BuyerSpec
from datamarket.transport import Envelope, Network, NetworkConfig

from market_helpers import make_market, make_response

A = b"\x01" * 20  # an address


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


def test_per_pair_fifo():
    net = Network(NetworkConfig(latency_min=1, latency_max=8, drop_rate=0.0, seed=3))
    net.register("x")
    for i in range(50):
        net.send(A, "x", i.to_bytes(2, "big"))
    received = []
    for _ in range(80):
        for envs in net.tick().values():
            received.extend(int.from_bytes(e.message, "big") for e in envs)
    assert received == sorted(received)
    assert len(received) == 50


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
    assert buyer._deliveries == []


def test_endpoint_accepts_payload_after_response():
    market = make_market()
    response, _, _ = make_response(market)
    buyer = make_buyer()
    seller = response.payment_address
    upload(buyer, response.encode(), seller)
    delivery = PayloadDelivery(response.digest(), b"\x01" * 50)
    assert upload(buyer, delivery.encode(), seller) == []
    assert upload(buyer, delivery.encode(), seller) == []  # idempotent
    assert buyer._deliveries == [delivery]


def test_endpoint_accepts_a_byte_identical_repeat_without_decoding(monkeypatch):
    response, _, _ = make_response(make_market())
    buyer = make_buyer()
    assert upload(buyer, response.encode()) == []
    decoded, decode = [], messages.decode
    monkeypatch.setattr(messages, "decode", lambda data: decoded.append(data) or decode(data))
    assert upload(buyer, response.encode()) == []
    assert decoded == []


def test_endpoint_accepts_a_refused_delivery_once_its_offer_arrives():
    response, _, _ = make_response(make_market())
    buyer = make_buyer()
    seller = response.payment_address
    delivery = PayloadDelivery(response.digest(), b"\x01" * 50)
    assert upload(buyer, delivery.encode(), seller) == ["upload: unknown-response"]
    assert upload(buyer, response.encode(), seller) == []
    assert upload(buyer, delivery.encode(), seller) == []
    assert buyer._deliveries == [delivery]


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
    assert buyer._offers == {} and buyer._deliveries == []


# -- layering ----------------------------------------------------------------


def test_transport_imports_no_protocol_module():
    """The network routes opaque bytes, so it must not import the modules
    that give them meaning."""
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
    assert imported & {"messages", "ledger", "actors"} == set()
