"""Lossless floating-point codecs (Gorilla, Chimp)."""

from .chimp import ChimpCodec
from .gorilla import GorillaCodec

__all__ = [
    "GorillaCodec",
    "ChimpCodec",
]
