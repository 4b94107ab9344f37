"""Stdlib-only metrics registry with Prometheus text exposition.

Counters, gauges, and fixed-bucket histograms.  Rendering is fully
deterministic: families are sorted by name, samples by label values, and
histogram bucket bounds are fixed at declaration time, so the same
sequence of observations always yields byte-identical ``/metrics`` text.

One process-global registry (:func:`global_registry`) collects
cross-cutting tallies — retry attempts, journal records — that have no
natural owner object; the broker keeps its own registry and everything
is merged at render time by
:func:`render_metrics`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

# Fixed bounds for request-latency histograms; changing them changes the
# exposition format, so treat as part of the metrics contract.
REQUEST_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
)


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        '{}="{}"'.format(name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in key
    )
    return "{" + inner + "}"


def format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class Metric:
    """Base family: a name, a type string, help text, and labeled samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._samples: Dict[LabelKey, float] = {}

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        with self._lock:
            return [(self.name, key, value) for key, value in sorted(self._samples.items())]


class Counter(Metric):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def set(self, value: float, **labels: str) -> None:
        """Overwrite a sample — for counters mirrored from ``/stats`` dicts."""

        with self._lock:
            self._samples[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._samples.get(_label_key(labels), 0.0)


class Gauge(Metric):
    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._samples[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._samples.get(_label_key(labels), 0.0)


class Histogram(Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = REQUEST_SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * len(self.bounds))
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._totals[key] = self._totals.get(key, 0) + 1

    def samples(self) -> List[Tuple[str, LabelKey, float]]:
        out: List[Tuple[str, LabelKey, float]] = []
        with self._lock:
            keys = sorted(self._totals)
            for key in keys:
                counts = self._counts[key]
                for bound, count in zip(self.bounds, counts):
                    bucket_key = key + (("le", format_value(bound)),)
                    out.append((self.name + "_bucket", bucket_key, float(count)))
                out.append(
                    (self.name + "_bucket", key + (("le", "+Inf"),), float(self._totals[key]))
                )
                out.append((self.name + "_sum", key, self._sums.get(key, 0.0)))
                out.append((self.name + "_count", key, float(self._totals[key])))
        return out


class MetricsRegistry:
    """A named collection of metric families with get-or-create accessors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = REQUEST_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def metrics(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render(self) -> str:
        return render_metrics(self)


def render_metrics(*registries: MetricsRegistry) -> str:
    """Merge registries into one Prometheus text document.

    Families are deduplicated by name (first registry wins on metadata;
    samples from later registries with the same family name are appended)
    and sorted, so output is stable regardless of registration order.
    """

    families: Dict[str, List[Metric]] = {}
    for registry in registries:
        for metric in registry.metrics():
            families.setdefault(metric.name, []).append(metric)
    lines: List[str] = []
    for name in sorted(families):
        group = families[name]
        head = group[0]
        if head.help:
            lines.append(f"# HELP {name} {head.help}")
        lines.append(f"# TYPE {name} {head.kind}")
        for metric in group:
            for sample_name, key, value in metric.samples():
                lines.append(f"{sample_name}{_format_labels(key)} {format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_metrics(text: str) -> Dict[str, Dict[LabelKey, float]]:
    """Parse Prometheus text back into ``{family: {labels: value}}``.

    Deliberately minimal — enough for tests and the CI smoke job to
    compare scraped values; not a general exposition-format parser.
    """

    out: Dict[str, Dict[LabelKey, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            continue
        if "{" in name_part:
            name, _, label_part = name_part.partition("{")
            label_part = label_part.rstrip("}")
            labels: List[Tuple[str, str]] = []
            for chunk in label_part.split(","):
                if not chunk:
                    continue
                label_name, _, label_value = chunk.partition("=")
                labels.append((label_name, label_value.strip('"')))
            key = tuple(sorted(labels))
        else:
            name, key = name_part, ()
        try:
            value = float(value_part)
        except ValueError:
            continue
        out.setdefault(name, {})[key] = value
    return out


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """Process-wide registry for cross-cutting counters (retries, journal)."""

    return _GLOBAL


def note_retry(amount: int = 1) -> None:
    """Count a retry attempt; called from ``RetryPolicy.call``."""

    _GLOBAL.counter(
        "repro_retries_total", "Retry attempts across all retry policies"
    ).inc(amount)


def note_journal_record(amount: int = 1) -> None:
    """Count a journal completion record; called from ``RunJournal``."""

    _GLOBAL.counter(
        "repro_journal_records_total", "Job completions recorded to run journals"
    ).inc(amount)
