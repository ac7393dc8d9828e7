"""ROI marker injection (paper §II-B5, "Marker Support").

``pinball2elf --roi-start [TYPE:]TAG`` inserts a special marker
instruction just before the startup code jumps to application code, so
analysis tools and simulators can skip the startup.  The paper supports
three marker dialects — Sniper, SSC (Pintools), and Simics magic
instructions.  On PX all three map onto the architectural ``MARKER
imm32`` instruction with a per-dialect tag namespace (x86 uses
different nop/cpuid encodings for the same purpose):

- sniper: tag used as-is (must fit 24 bits),
- ssc:    ``0x55000000 | tag`` (24-bit tag),
- simics: ``0x51340000 | tag`` (16-bit tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

_SSC_PREFIX = 0x55000000
_SIMICS_PREFIX = 0x51340000

MARKER_TYPES = ("sniper", "ssc", "simics")

#: Default ROI-start tag used when callers don't pick one.
DEFAULT_ROI_TAG = 0xBEEF


@dataclass(frozen=True)
class MarkerSpec:
    """A parsed ``--roi-start [TYPE:]TAG`` option."""

    marker_type: str = "sniper"
    tag: int = DEFAULT_ROI_TAG

    def __post_init__(self) -> None:
        if self.marker_type not in MARKER_TYPES:
            raise ValueError("unknown marker type %r (one of %s)"
                             % (self.marker_type, ", ".join(MARKER_TYPES)))
        limit = 0xFFFF if self.marker_type == "simics" else 0xFFFFFF
        if not 0 <= self.tag <= limit:
            raise ValueError("marker tag 0x%x out of range for %s"
                             % (self.tag, self.marker_type))

    @classmethod
    def parse(cls, text: str) -> "MarkerSpec":
        """Parse "TYPE:TAG" or bare "TAG" (type defaults to sniper)."""
        if ":" in text:
            type_text, tag_text = text.split(":", 1)
            return cls(marker_type=type_text.strip(),
                       tag=int(tag_text.strip(), 0))
        return cls(tag=int(text.strip(), 0))

    def encoded_tag(self) -> int:
        """The imm32 value carried by the MARKER instruction."""
        return marker_tag(self.marker_type, self.tag)

    def assembly(self) -> str:
        """The marker as one line of PX assembly."""
        return "marker 0x%x" % self.encoded_tag()


def marker_tag(marker_type: str, tag: int) -> int:
    """Encode (type, tag) into the MARKER imm32 namespace."""
    if marker_type == "sniper":
        return tag
    if marker_type == "ssc":
        return _SSC_PREFIX | (tag & 0xFFFFFF)
    if marker_type == "simics":
        return _SIMICS_PREFIX | (tag & 0xFFFF)
    raise ValueError("unknown marker type %r" % marker_type)


def decode_marker(value: int) -> Tuple[str, int]:
    """Inverse of :func:`marker_tag`: (type, tag) from an imm32 value."""
    value &= 0xFFFFFFFF
    if value & 0xFF000000 == _SSC_PREFIX:
        return "ssc", value & 0xFFFFFF
    if value & 0xFFFF0000 == _SIMICS_PREFIX:
        return "simics", value & 0xFFFF
    return "sniper", value
