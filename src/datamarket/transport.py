"""Simulated off-chain network.

A discrete-tick scheduler routes opaque message bytes between registered
endpoints with seeded random latency and loss. With drop_rate=0 every
message is delivered exactly once; per (sender, endpoint) pair FIFO order
is preserved among delivered messages. The full transcript of sent
envelopes is retained for the leak-scan invariants. The network never
reads a message: what an endpoint accepts is its owner's decision (the
buyer's upload intake is `actors.Buyer.handle`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .errors import TransportError


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


@dataclass(slots=True)
class Envelope:
    sender: bytes  # an address
    endpoint: str
    message: bytes
    send_tick: int
    delivery_tick: Optional[int] = None  # None = dropped


class Network:
    """Seeded lossy channel between named endpoints."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self._endpoints: Set[str] = set()
        # Delivery tick -> the envelopes due then, in send order. A send is
        # due `latency_min` >= 1 ticks later or more, and the clock advances
        # one tick at a time, so each list is delivered at exactly its tick.
        self._in_flight: Dict[int, List[Envelope]] = {}
        self.transcript: List[Envelope] = []
        self.tick_now = 0
        self._last_delivery: Dict[tuple, int] = {}

    def register(self, endpoint: str) -> None:
        if endpoint in self._endpoints:
            raise TransportError(f"endpoint {endpoint!r} already registered")
        self._endpoints.add(endpoint)

    def send(self, sender: bytes, endpoint: str, message: bytes) -> None:
        if endpoint not in self._endpoints:
            raise TransportError(f"unknown endpoint {endpoint!r}")
        env = Envelope(sender, endpoint, message, self.tick_now)
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
            self._in_flight.setdefault(due, []).append(env)
        self.transcript.append(env)

    def tick(self) -> Dict[str, List[Envelope]]:
        """Advance the clock one tick and deliver due envelopes per endpoint."""
        self.tick_now += 1
        delivered: Dict[str, List[Envelope]] = {}
        for env in self._in_flight.pop(self.tick_now, ()):
            delivered.setdefault(env.endpoint, []).append(env)
        return delivered

    @property
    def idle(self) -> bool:
        return not self._in_flight

