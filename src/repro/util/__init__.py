"""Small shared utilities (bit-level I/O)."""

from .bitstream import BitReader, BitWriter

__all__ = ["BitReader", "BitWriter"]
