"""Deterministic descriptions of where a closed-form solution blows up
or stops being real-valued.

Every Solution carries one of these, and ``clearances`` is the one
measure of which xi may be sampled: one pass over a list of xi gives each
one's distance to the singular set where it is valid, else -inf, and a
point is kept where that exceeds a pad.  No list of excluded intervals is
built.  So verification grids, CSV emission and figures skip singular
neighbourhoods without probing for overflow.
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

#: the fields each kind uses, in the order ``to_json`` writes them; the
#: unused ones keep their defaults, which compare equal
_FIELDS = {
    "none": (),
    "isolated": ("points",),
    "lattice": ("offset", "period"),
    "half_line": ("points", "valid_side"),
    "lattice_windows": ("offset", "period", "half_width"),
}


@dataclass(frozen=True)
class Singularities:
    """One singular set.  The fields its kind does not use keep their
    defaults (no points, offset 0, an infinite period, half-width 0), so
    two are equal, and hash alike, when their kind and the fields that
    kind uses are equal."""

    kind: str = "none"
    points: tuple[float, ...] = ()
    offset: float = 0.0
    period: float = math.inf
    half_width: float = 0.0
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
        kind = self.kind
        if kind == "lattice":
            u = xi - self.offset
            return abs(u - self.period * round(u / self.period))
        if kind == "none":
            return math.inf
        if kind == "lattice_windows":
            # singular at window edges offset + n p +/- hw
            u = xi - self.offset
            n = round(u / self.period)
            local = u - n * self.period
            return min(abs(local - self.half_width), abs(local + self.half_width))
        points = self.points  # isolated, half_line
        if len(points) == 1:
            return abs(xi - points[0])
        return min(abs(xi - p) for p in points)

    def is_valid(self, xi: float) -> bool:
        """True where the evaluator is defined (ignoring pole proximity)."""
        if self.kind == "half_line":
            return (xi - self.points[0]) * self.valid_side > 0.0
        if self.kind == "lattice_windows":
            u = xi - self.offset
            local = abs(u - self.period * round(u / self.period))
            return local < self.half_width
        return True

    def clearances(self, xs: list[float]) -> list[float]:
        """``distance(x) if is_valid(x) else -inf`` for each x, bit for bit,
        in one pass per kind: a point may be sampled where its clearance
        exceeds the pad."""
        kind = self.kind
        if kind == "lattice":
            o, p = self.offset, self.period
            return [abs((u := x - o) - p * round(u / p)) for x in xs]
        if kind == "none":
            return [math.inf] * len(xs)
        if kind == "lattice_windows":
            o, p, hw = self.offset, self.period, self.half_width
            return [min(abs(local - hw), abs(local + hw))
                    if abs(local := (u := x - o) - round(u / p) * p) < hw
                    else -math.inf for x in xs]
        points = self.points
        if kind == "half_line":
            (p0,), side = points, self.valid_side
            return [abs(x - p0) if (x - p0) * side > 0.0 else -math.inf
                    for x in xs]
        if len(points) == 1:  # isolated
            (p0,) = points
            return [abs(x - p0) for x in xs]
        return [min(abs(x - p) for p in points) for x in xs]

    # the sampling rule is ``clearances`` alone, and no form reflects a
    # singular set; perfbench/tracer.py still wraps class attributes of
    # these names, so they stay bound until ROADMAP item 1 drops the
    # bindings and the tracer's entries together
    exclusions = None
    reflected = None

    def to_json(self) -> dict:
        d: dict = {"kind": self.kind}
        for f in _FIELDS[self.kind]:
            v = getattr(self, f)
            d[f] = list(v) if f == "points" else v
        return d

    def default_pad(self) -> float:
        """Default exclusion radius: 5% of the local period for periodic
        structures, 0.05 absolute for isolated points and boundaries."""
        if self.kind in ("lattice", "lattice_windows"):
            return 0.05 * self.period
        if self.kind == "none":
            return 0.0
        return 0.05
