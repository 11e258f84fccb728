"""Deterministic descriptions of where a closed-form solution blows up
or stops being real-valued.

Every Solution carries one of these, and ``keeps`` alone decides which xi
may be sampled, so verification grids, CSV emission and figures skip
singular neighbourhoods without probing for overflow.
Kinds:

  none             finite everywhere
  isolated         finitely many singular points
  lattice          singular points offset + n * period
  half_line        valid only on one side of a boundary point (which is
                   itself singular), e.g. arctanh(exp(...)) branches
  lattice_windows  valid only inside periodic windows
                   (center + n*period - half_width, ... + half_width),
                   singular at the window edges
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Singularities:
    kind: str = "none"
    points: tuple[float, ...] = ()
    offset: float = math.nan
    period: float = math.nan
    half_width: float = math.nan
    valid_side: int = 0  # half_line: +1 valid for xi > point, -1 for xi < point

    @classmethod
    def none(cls) -> "Singularities":
        return cls()

    @classmethod
    def isolated(cls, *points: float) -> "Singularities":
        return cls(kind="isolated", points=tuple(points))

    @classmethod
    def lattice(cls, offset: float, period: float) -> "Singularities":
        return cls(kind="lattice", offset=offset, period=period)

    @classmethod
    def half_line(cls, point: float, valid_side: int) -> "Singularities":
        return cls(kind="half_line", points=(point,), valid_side=valid_side)

    @classmethod
    def lattice_windows(cls, offset: float, period: float,
                        half_width: float) -> "Singularities":
        return cls(kind="lattice_windows", offset=offset, period=period,
                   half_width=half_width)

    # -- geometry ---------------------------------------------------------

    def distance(self, xi: float) -> float:
        """Distance to the nearest singular point (inf when none)."""
        if self.kind == "none":
            return math.inf
        if self.kind in ("isolated", "half_line"):
            return min(abs(xi - p) for p in self.points)
        if self.kind == "lattice":
            u = xi - self.offset
            return abs(u - self.period * round(u / self.period))
        # lattice_windows: singular at window edges offset + n p +/- hw
        u = xi - self.offset
        n = round(u / self.period)
        local = u - n * self.period
        return min(abs(local - self.half_width), abs(local + self.half_width))

    def is_valid(self, xi: float) -> bool:
        """True where the evaluator is defined (ignoring pole proximity)."""
        if self.kind == "half_line":
            return (xi - self.points[0]) * self.valid_side > 0.0
        if self.kind == "lattice_windows":
            u = xi - self.offset
            local = abs(u - self.period * round(u / self.period))
            return local < self.half_width
        return True

    def keeps(self, xi: float, pad: float) -> bool:
        """True where xi may be sampled: on the valid side and farther than
        ``pad`` from the singular set."""
        return self.is_valid(xi) and self.distance(xi) > pad

    # no caller in the package; perfbench/tracer.py wraps it by this name
    def exclusions(self, lo: float, hi: float, pad: float) -> list[tuple[float, float]]:
        """(center, radius) pairs covering everything a grid on [lo, hi]
        must avoid: singular points padded by ``pad`` plus any regions
        where the solution is not defined at all."""
        out: list[tuple[float, float]] = []
        if self.kind == "none":
            return out
        if self.kind == "isolated":
            return [(p, pad) for p in self.points if lo - pad <= p <= hi + pad]
        if self.kind == "half_line":
            p = self.points[0]
            if self.valid_side > 0:
                # invalid (-inf, p]; cover the part that meets [lo, hi]
                if lo <= p + pad:
                    c = (lo + p + pad) / 2.0
                    out.append((c, (p + pad - lo) / 2.0 + pad))
            else:
                if hi >= p - pad:
                    c = (hi + p - pad) / 2.0
                    out.append((c, (hi - (p - pad)) / 2.0 + pad))
            return out
        if self.kind == "lattice":
            n0 = math.floor((lo - pad - self.offset) / self.period)
            n1 = math.ceil((hi + pad - self.offset) / self.period)
            for n in range(n0, n1 + 1):
                p = self.offset + n * self.period
                if lo - pad <= p <= hi + pad:
                    out.append((p, pad))
            return out
        # lattice_windows: exclude the forbidden bands between windows,
        # each extended by pad into the windows
        n0 = math.floor((lo - self.offset) / self.period) - 1
        n1 = math.ceil((hi - self.offset) / self.period) + 1
        for n in range(n0, n1 + 1):
            band_lo = self.offset + n * self.period + self.half_width - pad
            band_hi = self.offset + (n + 1) * self.period - self.half_width + pad
            if band_hi >= lo and band_lo <= hi:
                out.append(((band_lo + band_hi) / 2.0, (band_hi - band_lo) / 2.0))
        return out

    def reflected(self) -> "Singularities":
        """Image under xi -> -xi (used by the reflection-map families)."""
        if self.kind == "none":
            return self
        if self.kind in ("isolated",):
            return Singularities.isolated(*(-p for p in self.points))
        if self.kind == "half_line":
            return Singularities.half_line(-self.points[0], -self.valid_side)
        if self.kind == "lattice":
            return Singularities.lattice(-self.offset, self.period)
        return Singularities.lattice_windows(-self.offset, self.period,
                                             self.half_width)

    def to_json(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind in ("isolated", "half_line"):
            d["points"] = list(self.points)
        if self.kind == "half_line":
            d["valid_side"] = self.valid_side
        if self.kind in ("lattice", "lattice_windows"):
            d["offset"] = self.offset
            d["period"] = self.period
        if self.kind == "lattice_windows":
            d["half_width"] = self.half_width
        return d

    def default_pad(self) -> float:
        """Default exclusion radius: 5% of the local period for periodic
        structures, 0.05 absolute for isolated points and boundaries."""
        if self.kind in ("lattice", "lattice_windows"):
            return 0.05 * self.period
        if self.kind == "none":
            return 0.0
        return 0.05
