"""``tango-serve``: the long-running controller service CLI.

Examples::

    # 100k flows against switch3's real TCAM budget, with telemetry:
    python -m repro.serve.cli --profile switch3 --arrivals 100000 \\
        --churn-interval 400 --telemetry out/serve

    # Infer the cache policy first (Algorithm 2) and serve with it:
    python -m repro.serve.cli --profile switch1 --arrivals 20000 --infer

    # Replay-check: two same-seed runs must be byte-identical:
    python -m repro.serve.cli --arrivals 5000 --verify-determinism

Exit codes: 0 success, 1 race findings under ``--sanitize``, 2
determinism divergence under ``--verify-determinism``, an invalid option
value, or an unwritable ``--telemetry``/``--report`` path.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.obs.observer import Observer
from repro.serve.loop import ServeConfig, ServeLoop, policy_from_model
from repro.serve.stream import StreamConfig
from repro.switches.profiles import VENDOR_PROFILES
from repro.tools.report import (
    cannot_write,
    non_negative_int,
    render_collector,
    render_races,
    render_serve,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-serve",
        description="serve a sustained flow-request stream against finite TCAM",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(VENDOR_PROFILES),
        default="switch3",
        help="switch profile to serve against (default: switch3)",
    )
    parser.add_argument(
        "--arrivals", type=int, default=100_000, help="flow requests to serve"
    )
    parser.add_argument("--seed", type=non_negative_int, default=0, help="workload seed")
    parser.add_argument("--tenants", type=int, default=32, help="tenant count")
    parser.add_argument(
        "--destinations",
        type=int,
        default=128,
        help="destinations per tenant (max 4096)",
    )
    parser.add_argument(
        "--rate", type=float, default=2.0, help="mean arrivals per virtual ms"
    )
    parser.add_argument(
        "--zipf", type=float, default=1.1, help="destination popularity skew"
    )
    parser.add_argument(
        "--tenant-skew", type=float, default=0.6, help="tenant mix skew"
    )
    parser.add_argument(
        "--churn-interval",
        type=float,
        default=0.0,
        help="rotate tenant working sets every N virtual ms (0 = no churn)",
    )
    parser.add_argument(
        "--batch", type=int, default=32, help="install batch size"
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="rule-budget override (default: the profile's bounded capacity)",
    )
    parser.add_argument(
        "--admission-threshold",
        type=int,
        default=1,
        help="packet-ins before a rule is installed (FDRC admission)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=2000.0,
        help="expire rules idle this many virtual ms",
    )
    parser.add_argument(
        "--aggregate-min",
        type=int,
        default=4,
        help="minimum compatible /32 siblings before wildcard aggregation",
    )
    parser.add_argument(
        "--infer",
        action="store_true",
        help="run switch inference first and evict with the inferred policy "
        "(Algorithm 2 output) and inferred fast-table budget",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run maintenance events under the race sanitizer (exit 1 on findings)",
    )
    parser.add_argument(
        "--verify-determinism",
        action="store_true",
        help="run twice with the same seed; exit 2 unless results, telemetry, "
        "and final table state are byte-identical",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="collect continuous telemetry; writes PATH.telemetry.jsonl "
        "and PATH.alerts.jsonl",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a markdown serving report to PATH",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON document instead of text"
    )
    return parser


def _config(args) -> ServeConfig:
    """The run configuration; its validation errors are usage errors."""
    return ServeConfig(
        stream=StreamConfig(
            arrivals=args.arrivals,
            tenants=args.tenants,
            destinations_per_tenant=args.destinations,
            rate_per_ms=args.rate,
            zipf_skew=args.zipf,
            tenant_skew=args.tenant_skew,
            churn_interval_ms=args.churn_interval,
            seed=args.seed,
        ),
        batch_size=args.batch,
        capacity=args.capacity,
        admission_threshold=args.admission_threshold,
        idle_timeout_ms=args.idle_timeout,
        aggregate_min_rules=args.aggregate_min,
    )


def _run_once(args, profile, config: ServeConfig):
    """One full serving run; returns (result, observer, races)."""
    policy = None
    if args.infer:
        from repro.core.inference import SwitchInferenceEngine

        model = SwitchInferenceEngine(profile, seed=args.seed).infer()
        policy = policy_from_model(model)
        if config.capacity is None:
            config = replace(config, capacity=model.fast_table_size)
    observer = Observer.from_flags(telemetry=args.telemetry, sanitize=args.sanitize)
    result = ServeLoop(config, profile, policy=policy, observer=observer).run()
    races = observer.sanitizer.check() if args.sanitize else None
    return result, observer, races


def _signature(result, observer):
    """Everything two same-seed runs must agree on, as comparable bytes."""
    parts = [
        json.dumps(result.to_dict(), sort_keys=True),
        repr(result.table_signature),
    ]
    parts.extend(observer.telemetry_lines())
    return "\x00".join(parts)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    profile = VENDOR_PROFILES[args.profile]
    try:
        config = _config(args)
    except ValueError as error:
        parser.error(str(error))

    try:
        return _serve(args, profile, config, out)
    except OSError as error:
        if error.filename is None:
            raise
        return cannot_write(error)


def _serve(args, profile, config: ServeConfig, out) -> int:
    result, observer, races = _run_once(args, profile, config)

    if args.verify_determinism:
        second, reobserver, _ = _run_once(args, profile, config)
        if _signature(result, observer) != _signature(second, reobserver):
            print("determinism FAILED: two same-seed runs diverged", file=out)
            return 2
        if not args.json:
            print(
                "determinism ok: two same-seed runs produced identical "
                "results, telemetry, and final table state",
                file=out,
            )

    payload = {"serve": result.to_dict()}
    if observer.telemetry.enabled:
        payload["telemetry"] = observer.telemetry.stats()
    if races is not None:
        payload["races"] = races.summary()
    if args.json:
        print(json.dumps(payload, indent=2), file=out)
    else:
        lines = render_serve(payload["serve"], heading=f"serve [{args.profile}] seed {args.seed}")
        if "telemetry" in payload:
            lines += render_collector(payload["telemetry"])
        if "races" in payload:
            lines += render_races(payload["races"])
        print("\n".join(lines), file=out)

    observer.write(args.telemetry, None if args.json else out)

    if args.report:
        lines = ["# Tango serving report", ""]
        lines.extend(render_serve(payload["serve"], heading="## Sustained serving"))
        lines.append("")
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        if not args.json:
            print(f"serving report written to {args.report}", file=out)

    return 1 if races is not None and races.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
