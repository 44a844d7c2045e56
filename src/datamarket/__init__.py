"""Simulated decentralized data marketplace: an escrow token ledger,
notarized buyer/seller exchange over a lossy simulated network, and a
scenario runner that checks the market's economic and privacy invariants.
"""

from .crypto import (
    KeyPair,
    commit,
    decrypt,
    derive_address,
    encrypt_for,
    generate_keypair,
    sign,
    verify,
    verify_commitment,
)
from .ledger import Ledger, Outcome, replay, verify_journal
from .messages import (
    Audience,
    Comparator,
    DataOrder,
    DataRequest,
    DataResponse,
    NotaryCertificate,
    NotaryTerms,
    PayloadDelivery,
    Predicate,
    Verdict,
    decode,
)
from .runner import run_scenario
from .scenario import Scenario, load_scenario, random_scenario

__version__ = "0.1.0"

__all__ = [
    "Audience",
    "Comparator",
    "DataOrder",
    "DataRequest",
    "DataResponse",
    "KeyPair",
    "Ledger",
    "NotaryCertificate",
    "NotaryTerms",
    "Outcome",
    "PayloadDelivery",
    "Predicate",
    "Scenario",
    "Verdict",
    "commit",
    "decode",
    "decrypt",
    "derive_address",
    "encrypt_for",
    "generate_keypair",
    "load_scenario",
    "random_scenario",
    "replay",
    "run_scenario",
    "sign",
    "verify",
    "verify_commitment",
    "verify_journal",
]
