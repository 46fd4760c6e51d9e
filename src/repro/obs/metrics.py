"""Time-series metrics for the message path.

Where the tracer (:mod:`repro.obs.tracer`) records *what happened*, this
module records *how loaded the machine was while it happened*: per-cycle
sampled queue depths, link utilization, in-flight message counts, and
the timeline of almost-full threshold crossings (the paper's ``iafull``
/ ``oafull`` conditions, Section 2.2.4).  Samples aggregate into
histograms and percentiles so a whole run summarises to a handful of
numbers, while the raw series stay available for the Chrome-trace
counter tracks and the JSON artifact.

The recorder is an :class:`~repro.obs.observer.Observer` that uses one
event: at the end of every fabric cycle (``on_step``) it samples the
series and detects the threshold edges.  It reads the fabric's queue
depths and thresholds in one pass and walks the almost-full states
only on a cycle where one of them changed.  A series stores its cycles
and values only; its histogram is built from the values when a summary
is read.  Like every observer it is opt-in and costs an unobserved
fabric one identity check per cycle.
"""

from __future__ import annotations

import math
from operator import attrgetter, gt
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.observer import Observer
from repro.utils.rng import SplitMix64


class Histogram:
    """An exact value-count histogram over integer-ish samples.

    Queue depths and in-flight counts are small non-negative integers, so
    counting exact values is both cheaper and more faithful than binning.
    Float samples (e.g. link utilization) are quantised to three decimal
    places.

    **Bounded-memory mode.**  The multi-tenant study keeps thousands of
    per-tenant latency series alive at once; an exact value-count map per
    tenant would retain every distinct sample.  Constructing with
    ``reservoir=k`` caps memory at ``k`` retained values using Vitter's
    Algorithm R over a seeded :class:`~repro.utils.rng.SplitMix64` (so
    runs stay deterministic): count, min, max, and mean remain *exact*;
    percentiles come from the uniform reservoir and are exact whenever
    the sample count has not exceeded ``k``.
    """

    __slots__ = ("counts", "total", "reservoir_size",
                 "_reservoir", "_rng", "_min", "_max", "_sum")

    def __init__(
        self, reservoir: Optional[int] = None, seed: int = 0
    ) -> None:
        if reservoir is not None and reservoir <= 0:
            raise ValueError(
                f"reservoir size must be positive, got {reservoir}"
            )
        self.counts: Dict[float, int] = {}
        self.total = 0
        self.reservoir_size = reservoir
        self._reservoir: Optional[List[float]] = (
            [] if reservoir is not None else None
        )
        self._rng = SplitMix64(seed) if reservoir is not None else None
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0

    def add(self, value: float) -> None:
        key = round(float(value), 3)
        self.total += 1
        if self._reservoir is None:
            self.counts[key] = self.counts.get(key, 0) + 1
            return
        # Bounded mode: exact moments, Algorithm R for the value sample.
        if key < self._min:
            self._min = key
        if key > self._max:
            self._max = key
        self._sum += key
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(key)
        else:
            slot = self._rng.next_below(self.total)
            if slot < self.reservoir_size:
                self._reservoir[slot] = key

    def percentile(self, p: float) -> float:
        """The smallest sample value covering fraction ``p`` of the mass.

        In bounded-memory mode the mass is the reservoir's: exact until
        the sample count first exceeds the reservoir size, an unbiased
        estimate after.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile {p} outside [0, 1]")
        if self.total == 0:
            return 0.0
        if self._reservoir is not None:
            held = sorted(self._reservoir)
            index = max(0, math.ceil(p * len(held)) - 1)
            return held[index]
        target = p * self.total
        seen = 0
        value = 0.0
        for value, count in sorted(self.counts.items()):
            seen += count
            if seen >= target:
                return value
        return value

    @property
    def mean(self) -> float:
        if self.total == 0:
            return 0.0
        if self._reservoir is not None:
            return self._sum / self.total
        return sum(v * c for v, c in self.counts.items()) / self.total

    def summary(self) -> Dict[str, float]:
        if self.total == 0:
            return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.total,
            "min": self._min if self._reservoir is not None else min(self.counts),
            "max": self._max if self._reservoir is not None else max(self.counts),
            "mean": round(self.mean, 4),
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class TimeSeries:
    """One named per-cycle series: the cycles and values sampled."""

    __slots__ = ("name", "cycles", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.cycles: List[int] = []
        self.values: List[float] = []

    def sample(self, cycle: int, value: float) -> None:
        self.cycles.append(cycle)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def summary(self) -> Dict[str, float]:
        """Summary statistics of the values, from a histogram built now."""
        histogram = Histogram()
        for value in self.values:
            histogram.add(value)
        return histogram.summary()


class ThresholdCrossing(NamedTuple):
    """One edge of an almost-full condition (``iafull`` / ``oafull``)."""

    cycle: int
    node: int
    queue: str
    """``"iq"`` or ``"oq"``."""
    asserted: bool
    """True for a rising edge (condition asserted), False for falling."""


#: The series ``on_step`` samples, in the order it creates them.
_STEP_SERIES = (
    "in_flight",
    "input_queue_depth",
    "output_queue_depth",
    "deliveries",
    "link_utilization",
)

_threshold = attrgetter("threshold")


class MetricsRecorder(Observer):
    """Collects named time series and the threshold-crossing timeline."""

    __slots__ = (
        "series",
        "crossings",
        "_almost_full_state",
        "_fabric",
        "_queues",
        "_items",
        "_keys",
        "_asserted",
        "_n_links",
        "_steps",
    )

    def __init__(self) -> None:
        self.series: Dict[str, TimeSeries] = {}
        self.crossings: List[ThresholdCrossing] = []
        self._almost_full_state: Dict[Tuple[int, str], bool] = {}
        self._fabric: Any = None

    def _bind(self, fabric: Any) -> None:
        """Bind ``fabric``'s queues and links, in interface-then-iq/oq
        order, and the step series.  An almost-full state carries over
        from an earlier fabric by (node, queue)."""
        self._fabric = fabric
        self._queues = []
        self._keys = []
        for interface in fabric.interfaces:
            self._queues += (interface.input_queue, interface.output_queue)
            self._keys += ((interface.node, "iq"), (interface.node, "oq"))
        # A queue's depth is the length of its deque, read without a
        # Python-level call per queue.
        self._items = [queue._items for queue in self._queues]
        state = self._almost_full_state
        self._asserted = [state.get(key, False) for key in self._keys]
        self._n_links = sum(len(r.neighbors) for r in fabric.routers)
        self._steps = [self._series(name) for name in _STEP_SERIES]

    def on_step(self, ts: int, fabric: Any, delivered: int, link_moves: int) -> None:
        """Record one fabric cycle's time-series samples and threshold edges."""
        if fabric is not self._fabric:
            self._bind(fabric)
        depths = list(map(len, self._items))
        asserted = list(map(gt, depths, map(_threshold, self._queues)))
        n_links = self._n_links
        values = (
            fabric.in_flight(),
            sum(depths[0::2]),
            sum(depths[1::2]),
            delivered,
            link_moves / n_links if n_links else 0.0,
        )
        for series, value in zip(self._steps, values):
            series.sample(ts, value)
        if asserted != self._asserted:
            state = self._almost_full_state
            for key, now, before in zip(self._keys, asserted, self._asserted):
                if now != before:
                    state[key] = now
                    self.crossing(ts, *key, now)
            self._asserted = asserted

    def _series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(name)
        return series

    def sample(self, name: str, cycle: int, value: float) -> None:
        """Append one sample to series ``name`` (created on first use)."""
        self._series(name).sample(cycle, value)

    def crossing(self, cycle: int, node: int, queue: str, asserted: bool) -> None:
        """Record one almost-full edge."""
        self.crossings.append(ThresholdCrossing(cycle, node, queue, asserted))

    def first_crossing(
        self, queue: str, node: Optional[int] = None, asserted: bool = True
    ) -> Optional[int]:
        """Cycle of the first matching edge, or None."""
        for event in self.crossings:
            if event.queue != queue or event.asserted != asserted:
                continue
            if node is not None and event.node != node:
                continue
            return event.cycle
        return None

    def to_dict(self, include_samples: bool = True) -> Dict[str, Any]:
        """The whole recording as plain JSON types (artifact body)."""
        out: Dict[str, Any] = {
            "series": {},
            "crossings": [
                {
                    "cycle": c.cycle,
                    "node": c.node,
                    "queue": c.queue,
                    "asserted": c.asserted,
                }
                for c in self.crossings
            ],
        }
        for name, series in self.series.items():
            entry: Dict[str, Any] = {"summary": series.summary()}
            if include_samples:
                entry["cycles"] = list(series.cycles)
                entry["values"] = list(series.values)
            out["series"][name] = entry
        return out
