"""The ``repro`` command line: reproduce the paper through the pipeline.

Subcommands:

* ``list-scenarios`` — every registered workload scenario;
* ``run <target>`` — run an experiment preset (``motivational``, ``table1``,
  ``table2``, ``table2-small``, ``ablations``) or any registry scenario as a
  sharded pipeline sweep;
* ``report <file>`` — re-render the tables of a saved run result;
* ``serve`` — start the optimization service (async JSON-over-HTTP layer
  with request coalescing, batching and tiered caching);
* ``submit <target>`` — send a run request to a running service and render
  the result exactly like ``run`` would;
* ``trace show <trace-id>`` — render a recorded request trace (span tree +
  self-time table) from a live service or a store-side span sink.

Observability: ``run --profile`` / ``submit --profile`` trace the work end
to end and print a profile (plus a ``trace-<id>.json`` Chrome-trace
artifact, written under ``<store>/traces/`` when the command has
``--store`` and to the current directory otherwise); ``serve --metrics``
prints a periodic one-line digest, and the server exposes Prometheus text
on ``GET /metrics``.

Examples::

    python -m repro list-scenarios
    python -m repro run motivational
    python -m repro run table2-small --shards 2 --store .repro-store
    python -m repro run table2 --names s27 s382 --scale 0.25 --shards 4
    python -m repro run figure1a --param alpha=0.9
    python -m repro run large-scale --size small --optimizer portfolio --time-budget 20
    python -m repro run table1 --output table1.json
    python -m repro report table1.json
    python -m repro serve --store .repro-store
    python -m repro submit table2-small --names s27

Every ``run`` accepts ``--shards`` (process-parallel sweep), ``--store``
(persistent artifact cache: a second identical run is pure disk hits) and
``--seed`` (the root seed all per-job seeds derive from, so serial and
sharded runs print identical tables).  A ``run`` interrupted with Ctrl-C
finishes its in-flight jobs, publishes their artifacts and exits 130; a
second Ctrl-C aborts immediately.

Resilience knobs (see :mod:`repro.resilience`)::

    python -m repro run table2-small --store .s --run-id nightly --shards 2
    python -m repro run --resume nightly --store .s --shards 2
    python -m repro run table2-small --inject store_write:0.1,stage:0.05 \\
        --fault-seed 7
    python -m repro run table2-small --deadline 30
    python -m repro submit table2-small --deadline 30

``--run-id`` journals every completed job next to the store so ``--resume``
can skip it without recomputing (a killed run loses only unjournaled work).
``--inject`` installs a seeded, deterministic fault plan — the same spec and
``--fault-seed`` reproduce the same failure schedule exactly.  ``--deadline``
bounds the whole run; an exact MILP that would overshoot degrades to the
heuristic portfolio and the result is marked ``degraded`` instead of cached.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.presets import RunOptions, run_preset
from repro.experiments.reporting import event_printer, format_table
from repro.pipeline.events import EventLog
from repro.pipeline.runner import PipelineAborted, graceful_interrupts
from repro.workloads.registry import ScenarioError, list_scenarios


def _parse_param(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError:
        return text


def _scenario_params(items: Sequence[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        params[key] = _parse_param(value)
    return params


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _events(args: argparse.Namespace, log: EventLog):
    printer = event_printer(fmt=getattr(args, "events", None) or "text")

    def observe(event) -> None:
        log(event)
        if not args.quiet:
            printer(event)

    return observe


def _run_options(args: argparse.Namespace) -> RunOptions:
    return RunOptions(
        shards=getattr(args, "shards", 1),
        seed=args.seed,
        store=getattr(args, "store", None),
        cycles=args.cycles,
        epsilon=args.epsilon,
        scale=args.scale,
        names=tuple(args.names) if args.names else None,
        alphas=tuple(args.alphas) if args.alphas else None,
        time_limit=args.time_limit,
        optimizer=getattr(args, "optimizer", None),
        time_budget=getattr(args, "time_budget", None),
        pool_size=getattr(args, "pool_size", None),
        size=getattr(args, "size", None),
        params=_scenario_params(args.param or []),
    )


def _render_result(result: Dict[str, Any], stream) -> None:
    print(format_table(result["headers"], result["rows"]), file=stream, end="")
    for key, value in result.get("summary", {}).items():
        print(f"{key}: {value}", file=stream)


def _write_output(result: Dict[str, Any], args: argparse.Namespace) -> None:
    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        if not args.quiet:
            print(f"wrote {path}")


def _fault_plan(args: argparse.Namespace):
    """The FaultPlan declared by --inject/--fault-seed (None without them)."""
    if not getattr(args, "inject", None):
        return None
    from repro.resilience import FaultPlan

    return FaultPlan.from_spec(args.inject, seed=getattr(args, "fault_seed", 0))


def _open_journal(args: argparse.Namespace, run_id: str):
    """The RunJournal for --run-id/--resume (requires --store)."""
    from repro.resilience import RunJournal

    if args.store is None:
        raise SystemExit(
            "error: --run-id/--resume need --store "
            "(the journal lives next to the artifact store)"
        )
    return RunJournal.for_store(args.store, run_id)


def _merge_spans(
    trace_id: str, extra: Optional[Sequence[Dict[str, Any]]] = None
) -> List[Dict[str, Any]]:
    """Local ring spans of one trace merged with remote ones (ring wins)."""
    from repro.obs.trace import ring_spans

    by_id: Dict[str, Dict[str, Any]] = {
        record["span_id"]: record
        for record in extra or []
        if isinstance(record, dict) and record.get("span_id")
    }
    for record in ring_spans(trace_id):
        by_id[record["span_id"]] = record
    return sorted(
        by_id.values(),
        key=lambda r: (r.get("started_unix") or 0.0, r.get("span_id") or ""),
    )


def _print_profile(
    trace_id: str,
    spans: Sequence[Dict[str, Any]],
    quiet: bool = False,
    store: Optional[str] = None,
) -> None:
    """The ``--profile`` report: span tree, self-time table, Chrome JSON.

    The Chrome JSON lands beside the store's span sink when there is a
    store, else in the current directory.
    """
    from repro.obs.profile import format_profile, format_tree, write_chrome_trace
    from repro.obs.trace import store_sink_path

    print(f"trace: {trace_id}")
    print(format_tree(spans))
    print(format_profile(spans))
    folder = Path() if store is None else store_sink_path(store).parent
    path = write_chrome_trace(folder / f"trace-{trace_id}.json", spans)
    if not quiet:
        print(f"profile: wrote {path} (open in chrome://tracing or Perfetto)")


def cmd_run(args: argparse.Namespace) -> int:
    from repro.resilience import injected, journaling, optional_scope
    from repro.resilience.journal import JournalError

    if args.deadline is not None and args.deadline <= 0:
        print("error: --deadline must be positive seconds", file=sys.stderr)
        return 2
    try:
        plan = _fault_plan(args)
    except ValueError as exc:
        print(f"error: bad --inject spec: {exc}", file=sys.stderr)
        return 2

    if args.run_id and args.resume:
        print(
            "error: use --run-id to start a journaled run or --resume to "
            "continue one, not both",
            file=sys.stderr,
        )
        return 2
    target: Optional[str] = args.target
    options = _run_options(args)
    run_id = args.run_id or args.resume
    journal = None
    try:
        if run_id is not None:
            journal = _open_journal(args, run_id)
        if args.resume:
            manifest = journal.manifest()
            if manifest is None:
                print(
                    f"error: no journaled run {run_id!r} under {args.store} "
                    "(start one with --run-id)",
                    file=sys.stderr,
                )
                return 2
            if target is not None and target != manifest.get("target"):
                print(
                    f"error: --resume {run_id} journals target "
                    f"{manifest.get('target')!r}, not {target!r}",
                    file=sys.stderr,
                )
                return 2
            # The manifest is the source of truth: a resume re-declares the
            # original compute options bit-identically; only execution knobs
            # (--shards/--store) come from this invocation.
            target = str(manifest["target"])
            options = RunOptions.from_mapping(
                manifest.get("options") or {}
            ).with_execution(args.shards, args.store)
        if target is None:
            print(
                "error: a run target is required (or --resume <run-id>)",
                file=sys.stderr,
            )
            return 2
        if journal is not None:
            journal.write_manifest(target, options.describe())
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    log = EventLog()
    root_trace = None
    try:
        with contextlib.ExitStack() as stack:
            if getattr(args, "profile", False):
                from repro.obs import trace as _obs

                if args.store is not None:
                    # Spans also land next to the store, so a later
                    # `repro trace show --store` finds this run.
                    _obs.set_trace_sink(_obs.store_sink_path(args.store))
                root_trace = stack.enter_context(
                    _obs.start_trace(f"run:{target}")
                )
            stack.enter_context(graceful_interrupts())
            stack.enter_context(injected(plan))
            stack.enter_context(journaling(journal))
            stack.enter_context(optional_scope(args.deadline))
            result = run_preset(target, options, _events(args, log))
    except PipelineAborted as exc:
        hint = (
            f"resume with --resume {run_id}" if journal is not None
            else "re-run to finish"
        )
        print(
            f"interrupted: {exc.completed}/{exc.total} job(s) completed "
            f"(published artifacts are kept; {hint})",
            file=sys.stderr,
        )
        return 130
    _render_result(result, sys.stdout)
    for entry in result.get("degraded") or []:
        print(
            f"degraded: {entry.get('job_id')}: {entry.get('reason')} "
            "(answer is a fallback; it was not cached)",
            file=sys.stderr,
        )
    if args.store is not None and not args.quiet:
        done = len(log.of_kind("job-done"))
        print(f"store: {log.cached_jobs}/{done} job(s) served from {args.store}")
    _write_output(result, args)
    if root_trace is not None:
        _print_profile(
            root_trace.trace_id,
            _merge_spans(root_trace.trace_id),
            quiet=args.quiet,
            store=args.store,
        )
    return 0


def cmd_list_scenarios(args: argparse.Namespace) -> int:
    specs = list_scenarios(family=args.family, tag=args.tag)
    rows = [
        (
            spec.name,
            spec.family,
            ",".join(f"{k}={v}" for k, v in sorted(spec.defaults.items())),
            spec.description,
        )
        for spec in specs
    ]
    print(format_table(["scenario", "family", "defaults", "description"], rows),
          end="")
    print(f"{len(specs)} scenario(s); run one with: python -m repro run <scenario>")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        result = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read result file {path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(result, dict) or "headers" not in result:
        print(f"{path} is not a repro run result", file=sys.stderr)
        return 2
    print(f"target: {result.get('target', '?')}")
    _render_result(result, sys.stdout)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    try:
        return serve(
            host=args.host,
            port=args.port,
            store=args.store,
            shards=args.shards,
            queue_limit=args.queue_limit,
            quiet=args.quiet,
            metrics_digest=args.metrics,
        )
    except OSError as exc:
        # Bind failures (port in use, bad address) are user input errors,
        # not tracebacks.
        print(f"error: cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.pipeline.events import PipelineEvent
    from repro.service.client import ServiceBusy, ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port, timeout=args.timeout)
    # One source of truth for what counts as a compute option: anything
    # RunOptions.describe() reports and the caller actually set.  A flag
    # added to add_compute_options/RunOptions flows through automatically,
    # keeping `submit` bit-identical to `run`.
    options: Dict[str, Any] = {
        key: value
        for key, value in _run_options(args).describe().items()
        if value not in (None, {}, [])
    }

    printer = event_printer(fmt=getattr(args, "events", None) or "text")

    def on_event(event: Dict[str, Any]) -> None:
        if not args.quiet:
            printer(PipelineEvent(**event))

    if args.deadline is not None and args.deadline <= 0:
        print("error: --deadline must be positive seconds", file=sys.stderr)
        return 2

    profile_cm: Any = contextlib.nullcontext()
    if getattr(args, "profile", False):
        from repro.obs import trace as _obs

        # The client attaches the ambient trace ref to the submit body, so
        # the server's request/execute spans land in this trace; the remote
        # half is fetched back below.
        profile_cm = _obs.start_trace(f"submit:{args.target}")

    trace_id: Optional[str] = None
    try:
        with profile_cm as root:
            trace_id = getattr(root, "trace_id", None)
            record = client.submit_run(
                args.target, options, deadline=args.deadline
            )
            if args.no_wait:
                print(json.dumps(record, indent=2))
                return 0
            if record.get("status") == "done":
                document = client.result(record["id"])
            else:
                document = client.wait(
                    record["id"], timeout=args.timeout, on_event=on_event
                )
    except ServiceBusy as exc:
        print(f"service busy: {exc}", file=sys.stderr)
        return 3
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2

    result = document.get("result") or {}
    if not args.quiet and document.get("cached"):
        print(f"service: answered from {document['cached']} cache")
    if isinstance(result, dict):
        for entry in result.get("degraded") or []:
            print(
                f"degraded: {entry.get('job_id')}: {entry.get('reason')} "
                "(answer is a fallback; the service did not cache it)",
                file=sys.stderr,
            )
    if isinstance(result, dict) and "headers" in result:
        _render_result(result, sys.stdout)
    else:
        print(json.dumps(result, indent=2))
    _write_output(result, args)
    if trace_id is not None:
        remote: List[Dict[str, Any]] = []
        try:
            remote = client.trace_spans(trace_id).get("spans") or []
        except (ServiceError, OSError, TimeoutError, ValueError):
            # Server-side spans are a bonus; the local root still profiles.
            pass
        _print_profile(
            trace_id, _merge_spans(trace_id, remote), quiet=args.quiet
        )
    return 0


def cmd_trace_show(args: argparse.Namespace) -> int:
    from repro.obs.profile import format_profile, format_tree

    spans: List[Dict[str, Any]]
    if args.store is not None:
        from repro.obs.trace import read_sink, store_sink_path

        spans = [
            record
            for record in read_sink(store_sink_path(args.store), args.trace_id)
            if isinstance(record, dict)
        ]
    else:
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(
            host=args.host, port=args.port, timeout=args.timeout
        )
        try:
            spans = client.trace_spans(args.trace_id).get("spans") or []
        except (ServiceError, OSError, TimeoutError) as exc:
            print(f"service error: {exc}", file=sys.stderr)
            return 2
    if not spans:
        print(f"no spans recorded for trace {args.trace_id!r}", file=sys.stderr)
        return 1
    print(f"trace: {args.trace_id}")
    print(format_tree(spans))
    print(format_profile(spans))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_compute_options(command: argparse.ArgumentParser) -> None:
        command.add_argument("--seed", type=int, default=None,
                             help="root seed (default: the experiment's published seed)")
        command.add_argument("--cycles", type=int, default=None,
                             help="simulation cycles per configuration")
        command.add_argument("--epsilon", type=float, default=None,
                             help="MIN_EFF_CYC throughput step")
        command.add_argument("--scale", type=float, default=None,
                             help="benchmark size multiplier (table1/table2)")
        command.add_argument("--names", nargs="+", default=None,
                             help="circuit subset (table2) or circuit (table1)")
        command.add_argument("--alphas", nargs="+", type=float, default=None,
                             help="alpha values (motivational)")
        command.add_argument("--time-limit", type=float, default=60.0,
                             help="MILP time limit in seconds (default 60)")
        command.add_argument("--optimizer", default=None,
                             choices=("milp", "descent", "anneal", "portfolio"),
                             help="Optimize stage engine: the exact MILP "
                                  "(default) or the heuristic search")
        command.add_argument("--time-budget", type=float, default=None,
                             help="search budget in seconds (heuristic "
                                  "optimizers; default 30)")
        command.add_argument("--pool-size", type=_positive_int, default=None,
                             help="candidate moves evaluated per batched "
                                  "search step (heuristic optimizers; "
                                  "default 24)")
        command.add_argument("--size", default=None,
                             choices=("tiny", "small", "medium", "large"),
                             help="large-scale preset instance size "
                                  "(default small)")
        command.add_argument("--param", action="append", default=None,
                             metavar="KEY=VALUE",
                             help="scenario parameter override (repeatable)")
        command.add_argument("--output", default=None,
                             help="write the run result as JSON to this file")
        command.add_argument("--events", choices=("text", "json"), default="text",
                             help="progress event format (default text)")
        command.add_argument("--quiet", action="store_true",
                             help="suppress progress events")

    run = sub.add_parser("run", help="run an experiment preset or scenario")
    run.add_argument("target", nargs="?", default=None,
                     help="experiment preset or scenario name "
                          "(optional with --resume)")
    run.add_argument("--shards", type=int, default=1,
                     help="worker processes (default 1 = serial)")
    run.add_argument("--store", default=None,
                     help="persistent artifact store directory")
    run.add_argument("--deadline", type=float, default=None,
                     help="overall run budget in seconds; an exact MILP that "
                          "would overshoot degrades to the heuristic "
                          "portfolio instead of failing")
    run.add_argument("--inject", default=None,
                     metavar="SITE:RATE[,SITE:RATE...]",
                     help="seeded deterministic fault injection, e.g. "
                          "store_write:0.1,stage:0.05 (sites: store_read, "
                          "store_write, stage, worker_start, solver_stall, "
                          "connection)")
    run.add_argument("--fault-seed", type=int, default=0,
                     help="root seed of the --inject fault plan (default 0)")
    run.add_argument("--run-id", default=None,
                     help="journal completed jobs under this id next to "
                          "--store, enabling --resume after a crash")
    run.add_argument("--resume", default=None, metavar="RUN_ID",
                     help="resume a journaled run: re-declares its target "
                          "and options, skips journaled-complete jobs")
    run.add_argument("--profile", action="store_true",
                     help="trace the run and print a span tree, a self-time "
                          "table and a chrome://tracing JSON artifact")
    add_compute_options(run)
    run.set_defaults(func=cmd_run)

    ls = sub.add_parser("list-scenarios", help="list registered scenarios")
    ls.add_argument("--family", default=None,
                    help="filter by family (example/iscas/random/ablation)")
    ls.add_argument("--tag", default=None, help="filter by tag")
    ls.set_defaults(func=cmd_list_scenarios)

    rep = sub.add_parser("report", help="re-render a saved run result")
    rep.add_argument("file", help="result JSON written by `run --output`")
    rep.set_defaults(func=cmd_report)

    srv = sub.add_parser("serve", help="start the optimization service")
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument("--port", type=int, default=8642,
                     help="listen port (0 picks a free one; default 8642)")
    srv.add_argument("--store", default=None,
                     help="persistent artifact store shared by all requests")
    srv.add_argument("--shards", type=int, default=1,
                     help="worker processes per pipeline run (default 1)")
    srv.add_argument("--queue-limit", type=int, default=32,
                     help="max queued requests before 429 (default 32)")
    srv.add_argument("--metrics", action="store_true",
                     help="print a one-line metrics digest every few seconds "
                          "(the full exposition lives on GET /metrics)")
    srv.add_argument("--quiet", action="store_true",
                     help="suppress service log lines")
    srv.set_defaults(func=cmd_serve)

    sbm = sub.add_parser("submit",
                         help="submit a run request to a running service")
    sbm.add_argument("target", help="experiment preset or scenario name")
    sbm.add_argument("--host", default="127.0.0.1", help="service host")
    sbm.add_argument("--port", type=int, default=8642, help="service port")
    sbm.add_argument("--timeout", type=float, default=600.0,
                     help="overall wait timeout in seconds (default 600)")
    sbm.add_argument("--deadline", type=float, default=None,
                     help="server-side compute budget in seconds (the run "
                          "degrades rather than overshoot it)")
    sbm.add_argument("--no-wait", action="store_true",
                     help="print the queued record instead of waiting")
    sbm.add_argument("--profile", action="store_true",
                     help="trace the request end to end (client and "
                          "server) and print the merged span profile")
    add_compute_options(sbm)
    sbm.set_defaults(func=cmd_submit)

    trc = sub.add_parser("trace", help="inspect recorded request traces")
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    show = trc_sub.add_parser(
        "show", help="render one trace as a span tree + self-time table"
    )
    show.add_argument("trace_id", help="trace id printed by --profile runs")
    show.add_argument("--store", default=None,
                      help="read spans from the JSONL sink next to this "
                           "artifact store instead of a live service")
    show.add_argument("--host", default="127.0.0.1", help="service host")
    show.add_argument("--port", type=int, default=8642, help="service port")
    show.add_argument("--timeout", type=float, default=30.0,
                      help="request timeout in seconds (default 30)")
    show.set_defaults(func=cmd_trace_show)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed mid-table (e.g. `... | head`); exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
