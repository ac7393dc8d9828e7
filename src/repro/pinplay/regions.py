"""Region-of-interest specifications.

A region is a window of whole-program execution measured in *global*
retired instructions (summed over threads), matching how PinPoints
slices programs.  The warmup length is carried as metadata for
simulators that warm caches before the measured region.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RegionSpec:
    """A region of interest: ``[start, start + length)`` global icount."""

    start: int
    length: int
    warmup: int = 0
    #: Identifier, e.g. "502.gcc_r.r3" or a SimPoint cluster tag.
    name: str = "region"
    #: SimPoint weight of this region (fraction of whole execution).
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("region start must be >= 0")
        if self.length <= 0:
            raise ValueError("region length must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must be in [0, 1]")

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def warmup_start(self) -> int:
        """Where warmup execution begins (clamped at program start)."""
        return max(0, self.start - self.warmup)
