"""Exception hierarchy shared by every fssa module."""


class FssaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(FssaError, ValueError):
    """A precondition on an argument was violated."""


class MalformedPlaintext(InvalidArgument):
    """One plaintext of a batch failed to decode; `index` is its position."""

    def __init__(self, index: int, why: str):
        super().__init__(why)
        self.index = index


class ProtocolOrderViolation(FssaError):
    """A state machine was driven out of its round order."""


class ClientAborted(FssaError):
    """A client-side protocol check failed and the client aborted."""


class RoundAborted(FssaError):
    """The server could not close a round with at least t participants."""


class Rejected(FssaError):
    """Authenticated decryption failed (wrong key or tampered ciphertext)."""
