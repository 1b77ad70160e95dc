"""Greedy maximum error-bounded piecewise linear representation.

Fits a sequence of (x, y) points, with strictly increasing x, by a set of
linear segments such that every point's vertical distance to its segment
is at most ``gamma``.  The greedy algorithm maintains a slope corridor
[``slope_low``, ``slope_high``] anchored at the first point of the current
segment; a new point is accepted if some slope in the corridor passes
within ``gamma`` of it, otherwise the segment is emitted and a new one
starts.

This is the classic FSW/"Greedy PLR" construction used by the paper's
skewness metric (§2.1).  It is a streaming, O(1)-per-point algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PLRSegment:
    """One linear model ``y = slope * (x - x_start) + y_start``.

    ``x_end`` is the x of the last point covered by the segment
    (inclusive); it is informational and not needed for prediction.
    """

    x_start: float
    y_start: float
    slope: float
    x_end: float

    def predict(self, x: float) -> float:
        """Predicted y for ``x`` under this segment's linear model."""
        return self.y_start + self.slope * (x - self.x_start)


class GreedyPLR:
    """Streaming greedy PLR builder with maximum error bound ``gamma``.

    Feed points via :meth:`add`, or a run of them via :meth:`extend`;
    each call may emit completed :class:`PLRSegment` objects.  Call
    :meth:`finish` to flush the trailing segment.  x values must be
    non-decreasing; points with duplicate x are rejected because the
    fitted function must stay a function.
    """

    def __init__(self, gamma: float):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        self._x0: Optional[float] = None
        self._y0 = 0.0
        self._last_x = 0.0
        self._last_y = 0.0
        self._slope_low = float("-inf")
        self._slope_high = float("inf")
        self._count = 0

    def add(self, x: float, y: float) -> Optional[PLRSegment]:
        """Add a point; return a finished segment if one was closed."""
        closed = self.extend(((x, y),))
        return closed[0] if closed else None

    def extend(self, points: Iterable[Tuple[float, float]]) -> List[PLRSegment]:
        """Add ``points`` in order; return the segments they closed.

        The corridor state lives in locals for the whole run and is
        stored back once at the end (a rejected point raises before
        any of this call's points are committed).
        """
        gamma = self.gamma
        x0, y0 = self._x0, self._y0
        last_x, last_y = self._last_x, self._last_y
        low, high = self._slope_low, self._slope_high
        count = self._count
        closed: List[PLRSegment] = []
        for x, y in points:
            if x0 is None:
                x0 = last_x = x
                y0 = last_y = y
                low, high, count = _NEG_INF, _POS_INF, 1
                continue
            if x <= last_x and count > 0 and x == last_x:
                raise ValueError(f"duplicate x value {x!r}")
            if x < last_x:
                raise ValueError("x values must be non-decreasing")
            if count == 1:
                # Second point of the segment: corridor from the +/- gamma
                # window around it, anchored at the first point.
                low = (y - gamma - y0) / (x - x0)
                high = (y + gamma - y0) / (x - x0)
                last_x, last_y, count = x, y, 2
                continue
            low_needed = (y - gamma - y0) / (x - x0)
            high_needed = (y + gamma - y0) / (x - x0)
            if low_needed > high or high_needed < low:
                closed.append(
                    _segment(x0, y0, last_x, last_y, low, high, count)
                )
                x0 = last_x = x
                y0 = last_y = y
                low, high, count = _NEG_INF, _POS_INF, 1
                continue
            if low_needed > low:
                low = low_needed
            if high_needed < high:
                high = high_needed
            last_x, last_y = x, y
            count += 1
        self._x0, self._y0 = x0, y0
        self._last_x, self._last_y = last_x, last_y
        self._slope_low, self._slope_high = low, high
        self._count = count
        return closed

    def finish(self) -> Optional[PLRSegment]:
        """Flush and return the final open segment, if any."""
        if self._x0 is None:
            return None
        segment = _segment(
            self._x0, self._y0, self._last_x, self._last_y,
            self._slope_low, self._slope_high, self._count,
        )
        self._x0 = None
        self._count = 0
        return segment


_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _segment(x0, y0, last_x, last_y, low, high, count) -> PLRSegment:
    """The segment a corridor closes: the corridor's mid slope (the
    chord for a two-point corridor never narrowed, 0 for one point)."""
    if count == 1:
        slope = 0.0
    elif low == _NEG_INF:
        slope = (last_y - y0) / (last_x - x0)
    else:
        slope = (low + high) / 2.0
    return PLRSegment(x0, y0, slope, last_x)


def _iter_points(
    xs: Sequence[float], ys: Optional[Sequence[float]]
) -> Iterator[Tuple[float, float]]:
    if ys is None:
        for i, x in enumerate(xs):
            yield float(x), float(i)
    else:
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have the same length")
        for x, y in zip(xs, ys):
            yield float(x), float(y)


def fit_plr(
    xs: Sequence[float],
    gamma: float,
    ys: Optional[Sequence[float]] = None,
) -> List[PLRSegment]:
    """Fit an error-bounded PLR to ``(xs, ys)``.

    When ``ys`` is omitted the points are ``(xs[i], i)``, i.e. the
    empirical CDF of sorted keys -- exactly what the skewness metric
    fits.  Duplicate x values are collapsed to their last y, mirroring
    how a CDF treats repeated keys.
    """
    deduped: List[Tuple[float, float]] = []
    for x, y in _iter_points(xs, ys):
        if deduped and deduped[-1][0] == x:
            deduped[-1] = (x, y)
        else:
            deduped.append((x, y))
    plr = GreedyPLR(gamma)
    segments = plr.extend(deduped)
    tail = plr.finish()
    if tail is not None:
        segments.append(tail)
    return segments


def count_models(keys: Iterable[float], gamma: float) -> int:
    """Number of linear models an error-bounded PLR of the CDF needs.

    ``keys`` are sorted ascending before fitting; y is the key's rank.
    This is the quantity averaged per 0.1M-key window by the paper's
    variance-of-skewness metric.
    """
    ordered = sorted(set(float(k) for k in keys))
    if not ordered:
        return 0
    return len(fit_plr(ordered, gamma))
