"""Exception hierarchy shared by every module.

Each error's class name doubles as its machine-readable identifier (the CLI
prints it and exits nonzero).  File-level I/O failures are not wrapped: plain
``OSError`` propagates and is reported as ``Io``.
"""


class RestCipherError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


# key validation and parsing


class OutOfRange(RestCipherError):
    """A key element lies outside its allowed range."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class CapacityExceeded(RestCipherError):
    """The character set cannot fit the table, or the code space is too small."""


class WidthTooSmall(RestCipherError):
    """Some header pair yields a value with more digits than the code width."""


class Malformed(RestCipherError):
    """Text is not a serialized key."""


class NoValidKeyInBounds(RestCipherError):
    """Random generation found no valid key within the given bounds."""


# table construction


class CodeSpaceExhausted(RestCipherError):
    """Collision resolution cycled through the entire code space."""


# document model


class MalformedXml(RestCipherError):
    """Input is not well-formed XML within the supported subset."""


class MixedContentUnsupported(RestCipherError):
    """An element mixes text content with child elements."""


class MalformedJson(RestCipherError):
    """Input is not valid JSON."""


class UnsupportedShape(RestCipherError):
    """The document shape cannot be represented by the word grammar."""


class UnsupportedCharacter(RestCipherError):
    """A character falls outside the printable range or the key's charset."""


class MalformedStream(RestCipherError, ValueError):
    """A word stream is not one document: a token out of place, an invalid
    name, or elements left open or after the root."""


# codec


class MalformedWord(RestCipherError):
    """A ciphertext word cannot be decoded (bad width or stray content)."""


class UnknownCode(RestCipherError):
    """A character code has no symbol-table entry."""


class UnbalancedClosers(RestCipherError):
    """Closing words do not match the opened tags."""


class UnknownTatCode(RestCipherError):
    """A tag-table lookup failed and the word is no character encoding either."""


class Unclassifiable(RestCipherError):
    """A ciphertext word matches no word class of the wire grammar."""


class MalformedMessage(RestCipherError):
    """A serialized message violates the wire grammar."""


# composition


class MissingKey(RestCipherError):
    """The policy references a key absent from the ring."""


# key exchange and harness


class Transport(RestCipherError):
    """An HTTP exchange failed at the transport level."""


class Corrupt(RestCipherError):
    """A persisted store file is damaged."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line


class Bind(RestCipherError):
    """The demonstration server could not bind its address."""


class BadRequest(RestCipherError):
    """A request to the demonstration server is invalid."""


class VerificationFailed(RestCipherError):
    """A digest check rejected a message segment."""


class EditNotApplied(RestCipherError):
    """A provider reads no variable text of a tag it was asked to edit."""


class AccessNotGranted(RestCipherError):
    """A provider's reply names other tags than the ones it was granted."""


class KeptWordsChanged(RestCipherError):
    """A provider's reply changes the words of a subtree it was to send back
    as it received it: one its recipient rule leaves foreign, so that it
    copied it whole."""
