"""Exception hierarchy shared across the package."""


class MarketError(Exception):
    """Base class for all package errors."""


class CryptoError(MarketError):
    """Malformed key material or seed."""


class DecryptionError(CryptoError):
    """Envelope failed to authenticate or decrypt."""


class EncodingError(MarketError):
    """Canonical byte stream is malformed or truncated."""


class MessageError(MarketError):
    """Protocol message construction violated a precondition."""


class LedgerError(MarketError):
    """Base class for ledger operation failures."""


class InsufficientFunds(LedgerError):
    pass


class InvalidSignature(LedgerError):
    pass


class OrderClosed(LedgerError):
    pass


class DuplicateResponse(LedgerError):
    pass


class UnknownOrder(LedgerError):
    pass


class UnknownResponse(LedgerError):
    pass


class AlreadySettled(LedgerError):
    """Certificate replay: the response is already settled."""


class AuditEscrowDepleted(LedgerError):
    """Notary fee exceeds the audit escrow, which each selection's top-up prevents."""


class GenesisClosed(LedgerError):
    """Mint attempted after the first order was registered."""


class ReplayError(MarketError):
    """Journal replay aborted; `sequence` is the offending event."""

    def __init__(self, sequence: int, reason: str):
        super().__init__(f"replay aborted at event {sequence}: {reason}")
        self.sequence = sequence
        self.reason = reason


class TransportError(MarketError):
    """Unknown endpoint or malformed envelope."""


class ScenarioError(MarketError):
    """Scenario file does not parse or its references do not resolve."""
