"""Simulated off-chain network.

A discrete-tick scheduler routes opaque message bytes between registered
endpoints with seeded random latency and loss. With drop_rate=0 every
message is delivered exactly once; per (sender, endpoint) pair FIFO order
is preserved among delivered messages. The full transcript of sent
envelopes is retained for the leak-scan invariants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import messages
from .crypto import Address
from .errors import EncodingError, TransportError
from .messages import DataResponse, PayloadDelivery


@dataclass(frozen=True)
class NetworkConfig:
    latency_min: int = 1
    latency_max: int = 1
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.latency_min < 1 or self.latency_max < self.latency_min:
            raise TransportError("latency range must satisfy 1 <= min <= max")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise TransportError("drop_rate must be in [0, 1]")


@dataclass
class Envelope:
    sender: Address
    endpoint: str
    message: bytes
    send_tick: int
    delivery_tick: Optional[int] = None  # None = dropped
    sequence: int = 0


class Network:
    """Seeded lossy channel between named endpoints."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self._endpoints: Dict[str, List[Envelope]] = {}
        self._in_flight: List[Envelope] = []
        self.transcript: List[Envelope] = []
        self.tick_now = 0
        self._sent = 0
        self._last_delivery: Dict[tuple, int] = {}

    def register(self, endpoint: str) -> None:
        if endpoint in self._endpoints:
            raise TransportError(f"endpoint {endpoint!r} already registered")
        self._endpoints[endpoint] = []

    def send(self, sender: Address, endpoint: str, message: bytes) -> None:
        if endpoint not in self._endpoints:
            raise TransportError(f"unknown endpoint {endpoint!r}")
        env = Envelope(sender, endpoint, message, self.tick_now, sequence=self._sent)
        self._sent += 1
        if self._rng.random() < self.config.drop_rate:
            env.delivery_tick = None
        else:
            latency = self._rng.randint(self.config.latency_min, self.config.latency_max)
            due = self.tick_now + latency
            # Clamp so per-pair FIFO order survives variable latency.
            pair = (sender, endpoint)
            due = max(due, self._last_delivery.get(pair, 0))
            self._last_delivery[pair] = due
            env.delivery_tick = due
            self._in_flight.append(env)
        self.transcript.append(env)

    def tick(self) -> Dict[str, List[Envelope]]:
        """Advance the clock one tick and deliver due envelopes per endpoint."""
        self.tick_now += 1
        due = [e for e in self._in_flight if e.delivery_tick <= self.tick_now]
        self._in_flight = [e for e in self._in_flight if e.delivery_tick > self.tick_now]
        due.sort(key=lambda e: (e.delivery_tick, e.sequence))
        delivered: Dict[str, List[Envelope]] = {}
        for env in due:
            delivered.setdefault(env.endpoint, []).append(env)
        return delivered

    @property
    def idle(self) -> bool:
        return not self._in_flight


@dataclass
class PostResult:
    ok: bool
    reason: str = ""


@dataclass
class BuyerEndpoint:
    """The buyer's public upload inbox: accepts seller offers and encrypted
    payload deliveries, deduplicating by digest."""

    # Response digest -> response, in arrival order.
    responses: Dict[bytes, DataResponse] = field(default_factory=dict)
    deliveries: List[PayloadDelivery] = field(default_factory=list)
    _delivery_digests: set = field(default_factory=set)

    def post(self, message_bytes: bytes) -> PostResult:
        try:
            msg = messages.decode(message_bytes)
        except EncodingError as exc:
            return PostResult(False, f"parse: {exc}")
        if isinstance(msg, DataResponse):
            self.responses.setdefault(msg.digest(), msg)
            return PostResult(True)
        if isinstance(msg, PayloadDelivery):
            if msg.response_digest not in self.responses:
                return PostResult(False, "unknown-response")
            if msg.response_digest not in self._delivery_digests:
                self._delivery_digests.add(msg.response_digest)
                self.deliveries.append(msg)
            return PostResult(True)
        return PostResult(False, f"unsupported message type {type(msg).__name__}")
