"""Simulated off-chain network.

A discrete-tick scheduler routes opaque message bytes between registered
endpoints. A send's fate is the SHA-256 of the network seed (signed,
big-endian), the send tick (u64), the sender, the endpoint (each but the
tick length-prefixed) and the message. Its first 8 bytes, big-endian, drop
the envelope when below drop_rate * 2**64; its next 8 pick the latency. So
identical sends in one tick share a fate, no send moves another's, raising
drop_rate only removes envelopes, and without drops every message arrives
once. There is no per-pair order: an envelope can overtake an earlier one
of the same sender and endpoint. The transcript of sent envelopes is kept
for the leak-scan invariants. The network never reads a message: its owner
decides what an endpoint accepts (`actors.Buyer.handle`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from . import crypto
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
        seed = config.seed.to_bytes(config.seed.bit_length() // 8 + 1, "big", signed=True)
        self._seed = struct.pack(">I", len(seed)) + seed
        self._endpoints: Set[str] = set()
        # Delivery tick -> the envelopes due then, in send order. A send is
        # due `latency_min` >= 1 ticks later or more, and the clock advances
        # one tick at a time, so each list is delivered at exactly its tick.
        self._in_flight: Dict[int, List[Envelope]] = {}
        self.transcript: List[Envelope] = []
        self.tick_now = 0

    def register(self, endpoint: str) -> None:
        if endpoint in self._endpoints:
            raise TransportError(f"endpoint {endpoint!r} already registered")
        self._endpoints.add(endpoint)

    def send(self, sender: bytes, endpoint: str, message: bytes) -> None:
        if endpoint not in self._endpoints:
            raise TransportError(f"unknown endpoint {endpoint!r}")
        config, name = self.config, endpoint.encode()
        head = struct.pack(">QI", self.tick_now, len(sender)) + sender + struct.pack(">I", len(name))
        drop, pick = struct.unpack_from(">QQ", crypto.sha256(self._seed + head + name + message))
        env = Envelope(sender, endpoint, message, self.tick_now)
        if drop >= config.drop_rate * 2**64:  # else dropped
            spread = config.latency_max - config.latency_min + 1
            env.delivery_tick = self.tick_now + config.latency_min + pick % spread
            self._in_flight.setdefault(env.delivery_tick, []).append(env)
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

