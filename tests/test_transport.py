import pytest

from datamarket import messages
from datamarket.crypto import Address
from datamarket.errors import TransportError
from datamarket.messages import PayloadDelivery
from datamarket.transport import BuyerEndpoint, Network, NetworkConfig, PostResult

from market_helpers import make_market, make_response

A = Address(b"\x01" * 20)


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


# -- buyer upload endpoint -----------------------------------------------


def test_endpoint_deduplicates_responses():
    market = make_market()
    response, _, _ = make_response(market)
    inbox = BuyerEndpoint()
    assert inbox.post(response.encode()).ok
    assert inbox.post(response.encode()).ok
    assert len(inbox.responses) == 1


def test_endpoint_rejects_garbage():
    result = BuyerEndpoint().post(b"\xde\xad\xbe\xef")
    assert not result.ok and "parse" in result.reason


def test_endpoint_rejects_payload_for_unknown_response():
    inbox = BuyerEndpoint()
    delivery = PayloadDelivery(b"\x00" * 32, b"\x01" * 50)
    result = inbox.post(delivery.encode())
    assert not result.ok and result.reason == "unknown-response"


def test_endpoint_accepts_payload_after_response():
    market = make_market()
    response, _, _ = make_response(market)
    inbox = BuyerEndpoint()
    inbox.post(response.encode())
    delivery = PayloadDelivery(response.digest(), b"\x01" * 50)
    assert inbox.post(delivery.encode()).ok
    assert inbox.post(delivery.encode()).ok  # idempotent
    assert len(inbox.deliveries) == 1


def test_endpoint_accepts_a_byte_identical_repeat_without_decoding(monkeypatch):
    response, _, _ = make_response(make_market())
    inbox = BuyerEndpoint()
    assert inbox.post(response.encode()).ok
    decoded, decode = [], messages.decode
    monkeypatch.setattr(messages, "decode", lambda data: decoded.append(data) or decode(data))
    assert inbox.post(response.encode()).ok
    assert decoded == []


def test_endpoint_accepts_a_refused_delivery_once_its_offer_arrives():
    response, _, _ = make_response(make_market())
    inbox = BuyerEndpoint()
    delivery = PayloadDelivery(response.digest(), b"\x01" * 50).encode()
    assert inbox.post(delivery) == PostResult(False, "unknown-response")
    assert inbox.post(response.encode()).ok
    assert inbox.post(delivery).ok
    assert len(inbox.deliveries) == 1


def test_endpoint_refuses_a_garbled_message_every_time():
    inbox = BuyerEndpoint()
    for _ in range(3):
        result = inbox.post(b"\xde\xad\xbe\xef")
        assert not result.ok and result.reason.startswith("parse:")


def test_endpoint_rejects_unsupported_type():
    market = make_market()
    result = BuyerEndpoint().post(market.order.encode())
    assert not result.ok
