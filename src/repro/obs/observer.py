"""One instrumentation bundle, attached once where the clock lives.

An :class:`Observer` carries every optional instrument a run can take:
the span tracer, the metrics registry, the continuous-telemetry
collector, and the race sanitizer.  Components that own a clock (the
network executor, probing and inference engines, the fleet engines, the
serving loop) take one ``observer=``; schedulers read their executor's.
Each component binds the members it uses once, in ``__init__``, so with
instrumentation off a hot path still pays one ``enabled`` check.

:data:`NULL_OBSERVER` is the default everywhere: the three null
instruments and no sanitizer, which leaves a run byte-identical to an
uninstrumented one (:func:`repro.perf.harness.verify_noop` proves it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Any, List, Optional, Union

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    TelemetryCollector,
    telemetry_jsonl_lines,
    write_telemetry_jsonl,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


@dataclass(frozen=True)
class Observer:
    """The instruments attached to one run.

    Args:
        tracer: span/event tracer (defaults to the disabled tracer).
        metrics: metrics registry (defaults to the disabled registry).
        telemetry: continuous-telemetry collector (defaults to the
            disabled collector).
        sanitizer: a :class:`~repro.analysis.racecheck.RaceSanitizer`,
            or any object with its ``make_simulator``/``set_owner``/
            ``wrap_*`` seam; ``None`` runs unsanitized.
    """

    tracer: Union[Tracer, NullTracer] = NULL_TRACER
    metrics: MetricsRegistry = NULL_METRICS
    telemetry: TelemetryCollector = NULL_TELEMETRY
    sanitizer: Any = None

    @classmethod
    def from_flags(
        cls, trace: Any = False, telemetry: Any = False, sanitize: bool = False
    ) -> "Observer":
        """The observer a command line asks for.

        A truthy ``trace`` attaches a tracer and a metrics registry; a
        truthy ``telemetry`` attaches a collector sampling every 5 ms
        over 50 ms windows with the default SLO burn-rate policy and a
        drift feed; ``sanitize`` attaches a fresh race sanitizer.
        """
        tracer: Union[Tracer, NullTracer] = NULL_TRACER
        metrics: MetricsRegistry = NULL_METRICS
        if trace:
            tracer, metrics = Tracer(), MetricsRegistry()
        collector: TelemetryCollector = NULL_TELEMETRY
        if telemetry:
            from repro.obs.slo import DriftFeed, SloPolicy, default_slo_targets

            collector = TelemetryCollector(interval_ms=5.0, window_ms=50.0)
            collector.add_policy(SloPolicy(default_slo_targets()))
            collector.add_policy(DriftFeed())
        sanitizer = None
        if sanitize:
            from repro.analysis.racecheck import RaceSanitizer

            sanitizer = RaceSanitizer()
        return cls(tracer=tracer, metrics=metrics, telemetry=collector, sanitizer=sanitizer)

    @property
    def live(self) -> List[str]:
        """Names of the attached instruments (null ones count as absent)."""
        names = ["sanitizer"] if self.sanitizer is not None else []
        return names + [
            name
            for name in ("tracer", "metrics", "telemetry")
            if getattr(self, name).enabled
        ]

    def telemetry_lines(self) -> List[str]:
        """The collector's samples, then its alerts, as JSONL lines: what
        two same-seed runs must agree on byte for byte."""
        from repro.obs.slo import alerts_jsonl_lines

        return telemetry_jsonl_lines(self.telemetry.samples) + alerts_jsonl_lines(
            self.telemetry.alerts
        )

    def write(
        self, base: Optional[str], out: Optional[IO[str]], telemetry_base: Optional[str] = None
    ) -> None:
        """Write every live instrument's artifacts; report each to ``out``.

        A collector writes ``.telemetry.jsonl`` and ``.alerts.jsonl``
        next to ``telemetry_base`` (default ``base``); a tracer writes
        ``.jsonl``, ``.chrome.json`` (Perfetto / ``chrome://tracing``)
        and the metrics registry's ``.prom`` next to ``base``.  With
        ``out=None`` nothing is printed.
        """
        if self.telemetry.enabled:
            from repro.obs.slo import write_alerts_jsonl

            prefix = telemetry_base if telemetry_base is not None else base
            write_telemetry_jsonl(self.telemetry.samples, f"{prefix}.telemetry.jsonl")
            write_alerts_jsonl(self.telemetry.alerts, f"{prefix}.alerts.jsonl")
            if out is not None:
                print(f"telemetry samples written to {prefix}.telemetry.jsonl", file=out)
                print(f"telemetry alerts written to {prefix}.alerts.jsonl", file=out)
        if self.tracer.enabled:
            from repro.obs.export import prometheus_text, write_chrome_trace, write_jsonl

            events = self.tracer.events
            write_jsonl(events, f"{base}.jsonl")
            write_chrome_trace(events, f"{base}.chrome.json")
            with open(f"{base}.prom", "w", encoding="utf-8") as handle:
                handle.write(prometheus_text(self.metrics))
            if out is not None:
                print(
                    f"trace: {len(events)} events -> {base}.jsonl, "
                    f"{base}.chrome.json, {base}.prom",
                    file=out,
                )


#: No instruments: the default for every ``observer=`` parameter.
NULL_OBSERVER = Observer()
