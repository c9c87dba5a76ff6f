"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — a one-minute tour: real crypto on a small database plus a
  paper-scale modelled run.
* ``sum`` — run a private selected sum over a database file (one integer
  per line) with any protocol variant and environment.
* ``estimate`` — closed-form cost prediction for a hypothetical query
  (no workload materialised; see :mod:`repro.spfe.estimator`).
* ``figures`` — regenerate the paper's figures into ``results/``.
* ``keygen`` — generate a Paillier key pair and print its parameters.
* ``serve`` / ``query`` — run the real wire protocol over TCP: ``serve``
  holds a database and answers one private-sum query per connection;
  ``query`` connects, streams its encrypted selection, and prints the
  decrypted sum.  With ``--state-dir`` the server journals resumable
  sessions durably (clients RESUME across a server *restart*) and can
  load its database by name from the store.
* ``supervise`` — run ``repro serve`` as a supervised child process,
  restarting it on crash with bounded exponential backoff.
* ``store`` — inspect and manage a ``--state-dir`` state store
  (``info``, ``ls``, ``import-db``).
* ``stats`` — scrape a running server's ``--stats-port`` endpoint and
  pretty-print its metrics (counters, gauges, histogram summaries).

Every command is a plain function of parsed arguments; ``main`` returns
a process exit code, so the test suite drives the CLI in-process.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.datastore.database import ServerDatabase
from repro.datastore.workload import WorkloadGenerator, indices_to_bits
from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]

_PROTOCOLS = ("plain", "batched", "preprocessed", "combined", "multiclient")
_ENVIRONMENTS = ("short", "long", "wireless")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving statistics computation "
        "(Subramaniam, Wright & Yang, SDM@VLDB 2004).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="one-minute guided demo")

    sum_cmd = commands.add_parser("sum", help="run a private selected sum")
    sum_cmd.add_argument("--db", help="file with one integer per line")
    sum_cmd.add_argument(
        "--random", type=int, metavar="N", help="use a random N-element database"
    )
    sum_cmd.add_argument(
        "--select",
        required=True,
        help="comma-separated indices to sum (e.g. 0,5,17)",
    )
    sum_cmd.add_argument("--protocol", choices=_PROTOCOLS, default="plain")
    sum_cmd.add_argument("--env", choices=_ENVIRONMENTS, default="short")
    sum_cmd.add_argument(
        "--real",
        action="store_true",
        help="run real Paillier (measured) instead of the 2004 model",
    )
    sum_cmd.add_argument("--key-bits", type=int, default=512)
    sum_cmd.add_argument("--batch-size", type=int, default=100)
    sum_cmd.add_argument("--clients", type=int, default=3)
    sum_cmd.add_argument("--seed", default="cli")
    sum_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the crypto kernels under --real "
        "(1 = in-process serial)",
    )
    sum_cmd.add_argument(
        "--no-multiexp", action="store_true",
        help="disable the simultaneous-multiexp aggregation kernel "
        "(naive per-ciphertext pow; for comparison)",
    )
    sum_cmd.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="write the run's metrics registry (phase breakdown, engine "
        "batches) to PATH as structured JSON",
    )
    sum_cmd.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="state-store directory; a calibration profile persisted by "
        "'repro calibrate' routes the crypto engine to the measured-"
        "fastest kernel mode",
    )

    est_cmd = commands.add_parser("estimate", help="predict a query's cost")
    est_cmd.add_argument("--n", type=int, required=True)
    est_cmd.add_argument("--protocol", choices=_PROTOCOLS, default="plain")
    est_cmd.add_argument("--env", choices=_ENVIRONMENTS, default="short")
    est_cmd.add_argument("--key-bits", type=int, default=512)
    est_cmd.add_argument("--batch-size", type=int, default=100)
    est_cmd.add_argument("--clients", type=int, default=3)

    fig_cmd = commands.add_parser(
        "figures", help="regenerate the paper's figures into results/"
    )
    fig_cmd.add_argument("--quick", action="store_true")
    fig_cmd.add_argument("--out", default=None, help="output directory")

    plan_cmd = commands.add_parser(
        "plan", help="rank protocol variants for a query (analytic)"
    )
    plan_cmd.add_argument("--n", type=int, required=True)
    plan_cmd.add_argument("--env", choices=_ENVIRONMENTS, default="short")
    plan_cmd.add_argument("--key-bits", type=int, default=512)
    plan_cmd.add_argument("--clients", type=int, default=1)
    plan_cmd.add_argument("--no-preprocessing", action="store_true")
    plan_cmd.add_argument("--no-batching", action="store_true")
    plan_cmd.add_argument("--max-offline-minutes", type=float, default=None)
    plan_cmd.add_argument("--max-storage-mb", type=float, default=None)

    key_cmd = commands.add_parser("keygen", help="generate a Paillier key pair")
    key_cmd.add_argument("--bits", type=int, default=512)
    key_cmd.add_argument("--seed", default=None)

    serve_cmd = commands.add_parser(
        "serve", help="serve a database over TCP (concurrent, hardened)"
    )
    serve_cmd.add_argument("--db", help="file with one integer per line")
    serve_cmd.add_argument("--random", type=int, metavar="N")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    serve_cmd.add_argument(
        "--backend", choices=("threads", "asyncio"), default="threads",
        help="connection front-end: 'threads' runs one worker thread per "
        "concurrent session; 'asyncio' multiplexes connections on an "
        "event loop (folds still run off-loop).  Same protocol, policy, "
        "accounting, and metrics either way",
    )
    serve_cmd.add_argument(
        "--queries", type=int, default=1,
        help="completed queries to serve before draining (0 = serve "
        "until interrupted); admission is gated on the budget, so "
        "connections beyond served + in-flight are shed with BUSY, and "
        "dropped or rejected connections release their slot instead of "
        "consuming it — the server exits after a success, not after the "
        "first failed connection",
    )
    serve_cmd.add_argument("--seed", default="cli")
    serve_cmd.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-read deadline in seconds; a silent peer is dropped, not "
        "waited on forever (0 disables)",
    )
    serve_cmd.add_argument(
        "--max-sessions", type=int, default=4,
        help="worker threads = maximum concurrent sessions",
    )
    serve_cmd.add_argument(
        "--backlog", type=int, default=8,
        help="accepted connections queued beyond the worker pool; further "
        "clients are shed with a typed BUSY frame",
    )
    serve_cmd.add_argument(
        "--session-timeout", type=float, default=0.0,
        help="total wall-clock budget per connection in seconds; a slow "
        "client is cut off when its budget is spent (0 disables)",
    )
    serve_cmd.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="on shutdown (signal or --queries reached), seconds to let "
        "in-flight sessions finish before force-closing them",
    )
    serve_cmd.add_argument(
        "--max-key-bits", type=int, default=4096,
        help="largest client Paillier modulus accepted (policy knob)",
    )
    serve_cmd.add_argument(
        "--min-key-bits", type=int, default=64,
        help="smallest client Paillier modulus accepted (policy knob)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the aggregation kernels "
        "(1 = in-process serial)",
    )
    serve_cmd.add_argument(
        "--no-multiexp", action="store_true",
        help="fold chunks with naive per-ciphertext pow instead of the "
        "simultaneous-multiexp kernel",
    )
    serve_cmd.add_argument(
        "--stats-port", type=int, default=None, metavar="PORT",
        help="serve /metrics, /metrics.json, and /healthz on this extra "
        "port (0 = ephemeral; disabled by default)",
    )
    serve_cmd.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="after shutdown, write the final metrics registry to PATH "
        "as structured JSON",
    )
    serve_cmd.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="durable state directory: resumable sessions are journalled "
        "to SQLite so clients RESUME across a server restart, and "
        "databases/precomputation persist between runs",
    )
    serve_cmd.add_argument(
        "--db-name", metavar="NAME", default=None,
        help="with --state-dir: load the database by NAME from the store "
        "(when no --db/--random is given), or save the loaded database "
        "under NAME for future warm starts",
    )

    sup_cmd = commands.add_parser(
        "supervise",
        help="run `repro serve` under a crash-restarting supervisor",
    )
    sup_cmd.add_argument(
        "--max-restarts", type=int, default=5,
        help="crashes tolerated within one backoff window before giving up",
    )
    sup_cmd.add_argument(
        "--restart-backoff", type=float, default=0.5,
        help="base restart delay in seconds (doubles per consecutive crash)",
    )
    sup_cmd.add_argument(
        "serve_args", nargs=argparse.REMAINDER,
        help="arguments passed through to `repro serve` "
        "(prefix with -- to separate)",
    )

    cal_cmd = commands.add_parser(
        "calibrate",
        help="measure the engine's serial/multiexp/parallel crossover "
        "and persist the mode profile",
    )
    cal_cmd.add_argument(
        "--key-bits", default="256,512", metavar="BITS[,BITS...]",
        help="comma-separated key sizes to measure (default 256,512)",
    )
    cal_cmd.add_argument(
        "--sizes", default="200,1000", metavar="N[,N...]",
        help="comma-separated batch sizes to measure (default 200,1000)",
    )
    cal_cmd.add_argument(
        "--rounds", type=int, default=3,
        help="best-of rounds per measured point (default 3)",
    )
    cal_cmd.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for the parallel candidates (default 2; "
        "1 skips parallel measurement)",
    )
    cal_cmd.add_argument("--seed", default="calibration")
    cal_cmd.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="persist the profile into this state store so serve/sum "
        "route through it automatically",
    )

    store_cmd = commands.add_parser(
        "store", help="inspect/manage a --state-dir state store"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_info = store_sub.add_parser(
        "info", help="schema version, journalled sessions, cached keys"
    )
    store_info.add_argument("--state-dir", required=True, metavar="DIR")
    store_ls = store_sub.add_parser("ls", help="list stored databases")
    store_ls.add_argument("--state-dir", required=True, metavar="DIR")
    store_import = store_sub.add_parser(
        "import-db", help="load a database file into the store under a name"
    )
    store_import.add_argument("--state-dir", required=True, metavar="DIR")
    store_import.add_argument("--name", required=True)
    store_import.add_argument("--db", help="file with one integer per line")
    store_import.add_argument("--random", type=int, metavar="N")
    store_import.add_argument("--seed", default="cli")

    stats_cmd = commands.add_parser(
        "stats", help="pretty-print a server's /metrics endpoint"
    )
    stats_cmd.add_argument(
        "url",
        help="stats endpoint, e.g. http://127.0.0.1:9464 (the "
        "/metrics.json path is appended when missing)",
    )

    query_cmd = commands.add_parser(
        "query", help="query a repro server over TCP"
    )
    query_cmd.add_argument("--host", default="127.0.0.1")
    query_cmd.add_argument("--port", type=int, required=True)
    query_cmd.add_argument("--n", type=int, required=True,
                           help="server database size")
    query_cmd.add_argument("--select", required=True,
                           help="comma-separated indices")
    query_cmd.add_argument("--key-bits", type=int, default=512)
    query_cmd.add_argument("--chunk-size", type=int, default=64)
    query_cmd.add_argument(
        "--timeout", type=float, default=10.0,
        help="connect/read deadline in seconds (0 disables)",
    )
    query_cmd.add_argument(
        "--retries", type=int, default=2,
        help="reconnect attempts after a transport failure; reconnects "
        "resume from the last acknowledged chunk",
    )
    query_cmd.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="after a successful query, write the client's phase seconds "
        "(encrypt, decrypt, resume), CPU seconds (client process, sampling "
        "workers), encryptions and bytes up/down to PATH as one JSON object",
    )

    return parser


# -- command implementations ---------------------------------------------------


def _environment(name: str):
    from repro.experiments.environments import long_distance, short_distance, wireless

    return {"short": short_distance, "long": long_distance, "wireless": wireless}[name]


def _protocol(name: str, context, args, engine=None):
    from repro.spfe import (
        BatchedSelectedSumProtocol,
        CombinedSelectedSumProtocol,
        MultiClientSelectedSumProtocol,
        PreprocessedSelectedSumProtocol,
        SelectedSumProtocol,
    )

    if name == "plain":
        return SelectedSumProtocol(context)
    if name == "batched":
        return BatchedSelectedSumProtocol(context, batch_size=args.batch_size)
    if name == "preprocessed":
        return PreprocessedSelectedSumProtocol(context, engine=engine)
    if name == "combined":
        return CombinedSelectedSumProtocol(context, batch_size=args.batch_size)
    return MultiClientSelectedSumProtocol(context, num_clients=args.clients)


def _load_database(args) -> ServerDatabase:
    if args.db and args.random:
        raise ReproError("pass either --db or --random, not both")
    if args.db:
        with open(args.db) as handle:
            values = [int(line.strip()) for line in handle if line.strip()]
        return ServerDatabase(values)
    if args.random:
        return WorkloadGenerator(args.seed).database(args.random)
    raise ReproError("either --db FILE or --random N is required")


def cmd_demo(args, out) -> int:
    from repro.crypto.paillier import generate_keypair
    from repro.spfe.selected_sum import private_selected_sum
    from repro.experiments.environments import short_distance
    from repro.spfe.selected_sum import SelectedSumProtocol

    out.write("1/3 real 512-bit Paillier key pair...\n")
    keypair = generate_keypair(512)
    out.write("    n has %d bits\n" % keypair.public.bits)

    out.write("2/3 private sum over [17, 4, 23, 8, 15], selecting 0/2/4...\n")
    db = ServerDatabase([17, 4, 23, 8, 15])
    result = private_selected_sum(db, [1, 0, 1, 0, 1])
    out.write("    sum = %d (server never saw the selection)\n" % result.value)

    out.write("3/3 paper-scale modelled run (n=100,000, 2004 cluster)...\n")
    generator = WorkloadGenerator("demo")
    big = generator.database(100_000)
    selection = generator.random_selection(100_000, 1_000)
    run = SelectedSumProtocol(short_distance.context(seed="demo")).run(big, selection)
    out.write(
        "    modelled online runtime: %.1f minutes (paper: ~20)\n"
        % run.online_minutes()
    )
    return 0


def _write_metrics_json(registry, path: str, out) -> None:
    """Dump ``registry`` to ``path`` as structured JSON (shared by commands)."""
    from repro.obs.exposition import render_json_text

    with open(path, "w") as handle:
        handle.write(render_json_text(registry))
    out.write("metrics written: %s\n" % path)


def _record_breakdown(registry, breakdown) -> None:
    """Feed a run's timing breakdown into phase histograms on ``registry``."""
    from repro.obs.tracing import Tracer

    tracer = Tracer(registry=registry)
    for phase, field in (
        ("encrypt", "client_encrypt_s"),
        ("fold", "server_compute_s"),
        ("communication", "communication_s"),
        ("decrypt", "client_decrypt_s"),
        ("offline", "offline_precompute_s"),
        ("combine", "combine_s"),
    ):
        seconds = getattr(breakdown, field, 0.0)
        if seconds:
            tracer.record(phase, seconds)


def cmd_sum(args, out) -> int:
    database = _load_database(args)
    indices = [int(token) for token in args.select.split(",") if token.strip()]
    selection = indices_to_bits(len(database), indices)

    registry = None
    if args.metrics_json:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    environment = _environment(args.env)
    mode = "measured" if args.real else "modelled"
    scheme = None
    engine = None
    if args.real:
        from repro.crypto.paillier import PaillierScheme

        calibration = _load_calibration_profile(
            getattr(args, "state_dir", None), registry
        )
        if calibration is not None:
            out.write(
                "calibration profile loaded (%d measured points)\n"
                % len(calibration)
            )
        if args.workers > 1 or calibration is not None:
            from repro.crypto.engine import CryptoEngine

            engine = CryptoEngine(
                workers=args.workers,
                use_multiexp=not args.no_multiexp,
                calibration=calibration,
                metrics=registry,
            )
        scheme = PaillierScheme(engine=engine, use_multiexp=not args.no_multiexp)
    context = environment.context(
        key_bits=args.key_bits, seed=args.seed, scheme=scheme, mode=mode
    )
    try:
        result = _protocol(args.protocol, context, args, engine=engine).run(
            database, selection
        )
    finally:
        if engine is not None:
            engine.close()
    result.verify(database.select_sum(selection))

    out.write("sum of %d selected elements: %d\n" % (result.m, result.value))
    out.write("protocol: %s over %s (%s)\n" % (result.protocol, result.link, mode))
    if args.real:
        out.write("measured online time: %.3f s\n" % result.makespan_s)
    else:
        out.write("modelled 2004 online time: %.2f min\n" % result.online_minutes())
    out.write("bytes moved: %d\n" % result.total_bytes)
    if registry is not None:
        _record_breakdown(registry, result.breakdown)
        _write_metrics_json(registry, args.metrics_json, out)
    return 0


def cmd_estimate(args, out) -> int:
    from repro.spfe.estimator import ProtocolCostEstimator

    context = _environment(args.env).context(key_bits=args.key_bits)
    estimator = ProtocolCostEstimator(context)
    if args.protocol == "plain":
        estimate = estimator.plain(args.n)
    elif args.protocol == "batched":
        estimate = estimator.batched(args.n, args.batch_size)
    elif args.protocol == "preprocessed":
        estimate = estimator.preprocessed(args.n)
    elif args.protocol == "combined":
        estimate = estimator.combined(args.n, args.batch_size)
    else:
        estimate = estimator.multiclient(args.n, args.clients)

    out.write(
        "estimated cost of %s at n=%d (%s, %d-bit keys):\n"
        % (estimate.protocol, estimate.n, args.env, args.key_bits)
    )
    out.write("  online runtime: %.2f min\n" % estimate.online_minutes())
    minutes = estimate.breakdown.as_minutes()
    for component in (
        "client_encrypt",
        "server_compute",
        "communication",
        "client_decrypt",
        "offline_precompute",
        "combine",
    ):
        if minutes[component]:
            out.write("  %-20s %10.3f min\n" % (component, minutes[component]))
    out.write("  bytes up/down: %d / %d\n" % (estimate.bytes_up, estimate.bytes_down))
    return 0


def cmd_figures(args, out) -> int:
    import os

    if args.quick:
        os.environ["REPRO_QUICK"] = "1"
    from repro.experiments import run_paper_figures, render_table, write_result_file

    for experiment_id, series in run_paper_figures().items():
        table = render_table(series)
        out.write(table + "\n\n")
        path = write_result_file(table, experiment_id + ".txt", args.out)
        out.write("written: %s\n" % path)
    return 0


def cmd_plan(args, out) -> int:
    from repro.spfe.planner import ProtocolPlanner

    context = _environment(args.env).context(key_bits=args.key_bits)
    plan = ProtocolPlanner(context).plan(
        args.n,
        allow_preprocessing=not args.no_preprocessing,
        allow_batching=not args.no_batching,
        available_clients=args.clients,
        max_offline_minutes=args.max_offline_minutes,
        max_client_storage_mb=args.max_storage_mb,
    )
    out.write(plan.explain() + "\n")
    return 0


def cmd_keygen(args, out) -> int:
    from repro.crypto.paillier import generate_keypair

    keypair = generate_keypair(args.bits, args.seed)
    out.write("paillier key pair, %d-bit modulus\n" % keypair.public.bits)
    out.write("n = %d\n" % keypair.public.n)
    # keygen's whole contract is to hand the caller the key they just
    # generated; p/q go to the key's owner on stdout, nowhere else.
    out.write("p = %d\n" % keypair.private.p)  # seclint: disable=SEC001 -- keygen prints the owner's own private key
    out.write("q = %d\n" % keypair.private.q)  # seclint: disable=SEC001 -- keygen prints the owner's own private key
    if args.seed is not None:
        out.write("(deterministic: seed=%r — for testing only)\n" % args.seed)  # seclint: disable=SEC001 -- echoes the --seed flag the caller typed
    return 0


def cmd_serve(args, out) -> int:
    import threading

    from repro.net.aio import AsyncSpfeServer
    from repro.net.server import SpfeServer
    from repro.spfe.validation import ServerPolicy

    server_cls = AsyncSpfeServer if args.backend == "asyncio" else SpfeServer

    if args.queries < 0:
        raise ReproError("--queries must be non-negative")
    if args.db_name and not args.state_dir:
        raise ReproError("--db-name requires --state-dir")
    policy = ServerPolicy(
        min_key_bits=args.min_key_bits, max_key_bits=args.max_key_bits
    )
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    store = None
    if args.state_dir:
        from repro.store import StateStore

        store = StateStore.open(args.state_dir, metrics=registry)
    try:
        if store is not None and args.db_name and not (args.db or args.random):
            # Warm start: the database comes straight out of the store.
            database = store.load_database(args.db_name)
            out.write(
                "database %r loaded from state store (%d rows)\n"
                % (args.db_name, len(database))
            )
        else:
            database = _load_database(args)
            if store is not None and args.db_name:
                store.save_database(args.db_name, database)
                out.write("database saved to store as %r\n" % args.db_name)
        engine = None
        calibration = None
        if store is not None:
            from repro.crypto.calibration import load_profile

            calibration = load_profile(store)
            if calibration is not None:
                out.write(
                    "calibration profile loaded (%d measured points)\n"
                    % len(calibration)
                )
        if args.workers > 1 or args.no_multiexp or calibration is not None:
            from repro.crypto.engine import CryptoEngine

            engine = CryptoEngine(
                workers=max(1, args.workers),
                use_multiexp=not args.no_multiexp,
                calibration=calibration,
                metrics=registry,
            )
        server = server_cls(
            database,
            host=args.host,
            port=args.port,
            policy=policy,
            store=store,
            max_sessions=args.max_sessions,
            accept_backlog=args.backlog,
            read_timeout=args.timeout or None,
            connection_deadline_s=args.session_timeout or None,
            max_queries=args.queries,
            engine=engine,
            metrics=registry,
            stats_port=args.stats_port,
            log=out.write,
        )
        server.start()
        host, port = server.address
        timeout = args.timeout or None
        out.write(
            "serving %d rows on %s:%d (%s backend, %s queries, %d sessions, "
            "%s read deadline)\n"
            % (len(database), host, port, args.backend,
               str(args.queries) if args.queries else "unlimited",
               args.max_sessions, "%.1fs" % timeout if timeout else "no")
        )
        if store is not None:
            out.write(
                "state dir: %s (%d journalled sessions)\n"
                % (args.state_dir, store.session_count())
            )
        if args.stats_port is not None:
            stats_host, stats_port = server.stats_address
            out.write(
                "stats endpoint on http://%s:%d/metrics\n" % (stats_host, stats_port)
            )
        # Signal handlers only work on the main thread; the in-process test
        # harness drives this command from worker threads, where the server
        # drains via --queries instead.
        restore = None
        if threading.current_thread() is threading.main_thread():
            restore = server.install_signal_handlers()
        try:
            server.wait(drain_deadline_s=args.drain_timeout)
        finally:
            server.stop(drain_deadline_s=args.drain_timeout)
            if restore is not None:
                restore()
        out.write(server.stats.summary() + "\n")
        if args.metrics_json:
            _write_metrics_json(registry, args.metrics_json, out)
    finally:
        if store is not None:
            store.close()
    return 0


def cmd_supervise(args, out) -> int:
    import threading

    from repro.store.supervisor import ServerSupervisor, SupervisorPolicy

    serve_args = list(args.serve_args)
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    supervisor = ServerSupervisor(
        [sys.executable, "-m", "repro", "serve"] + serve_args,
        policy=SupervisorPolicy(
            max_restarts=args.max_restarts,
            base_delay_s=args.restart_backoff,
        ),
    )
    pid = supervisor.start()
    out.write("supervising `repro serve %s` (pid %d)\n"
              % (" ".join(serve_args), pid))
    import signal as signal_module

    if threading.current_thread() is threading.main_thread():
        for signum in (signal_module.SIGINT, signal_module.SIGTERM):
            signal_module.signal(
                signum, lambda _sig, _frame: supervisor.stop()
            )
    supervisor.join()
    out.write(
        "supervision ended: %d restart(s)%s\n"
        % (supervisor.restarts,
           ", gave up (restart budget exhausted)" if supervisor.gave_up else "")
    )
    return 1 if supervisor.gave_up else 0


def _load_calibration_profile(state_dir, registry=None):
    """The persisted calibration profile from ``state_dir``, or None."""
    if not state_dir:
        return None
    from repro.crypto.calibration import load_profile
    from repro.store import StateStore

    store = StateStore.open(state_dir, metrics=registry)
    try:
        return load_profile(store)
    finally:
        store.close()


def cmd_calibrate(args, out) -> int:
    from repro.crypto.calibration import (
        render_mode_table,
        run_calibration,
        save_profile,
    )

    try:
        key_bits = [int(t) for t in args.key_bits.split(",") if t.strip()]
        sizes = [int(t) for t in args.sizes.split(",") if t.strip()]
    except ValueError as exc:
        raise ReproError("bad --key-bits/--sizes value: %s" % exc) from exc
    if not key_bits or not sizes:
        raise ReproError("--key-bits and --sizes must name at least one value")
    out.write(
        "calibrating engine modes (%d points x %d rounds, %d workers)...\n"
        % (len(key_bits) * len(sizes), args.rounds, args.workers)
    )
    profile = run_calibration(
        key_bits_list=key_bits,
        sizes=sizes,
        workers=args.workers,
        rounds=args.rounds,
        seed_label=args.seed,
        progress=lambda line: out.write("  %s\n" % line),
    )
    out.write(render_mode_table(profile) + "\n")
    if args.state_dir:
        from repro.store import StateStore

        store = StateStore.open(args.state_dir)
        try:
            save_profile(store, profile)
        finally:
            store.close()
        out.write("profile persisted to %s\n" % args.state_dir)
    else:
        out.write(
            "profile not persisted (pass --state-dir to let serve/sum "
            "route through it)\n"
        )
    return 0


def cmd_store(args, out) -> int:
    from repro.store import SCHEMA_VERSION, StateStore

    store = StateStore.open(args.state_dir)
    try:
        if args.store_command == "info":
            out.write("state store: %s\n" % store.path)
            out.write("schema version: v%d\n" % SCHEMA_VERSION)
            out.write("journalled sessions: %d\n" % store.session_count())
            databases = store.list_databases()
            out.write("databases: %d\n" % len(databases))
        elif args.store_command == "ls":
            databases = store.list_databases()
            if not databases:
                out.write("no databases stored\n")
            for name, length, value_bits in databases:
                out.write(
                    "%-24s %10d rows  %2d-bit values\n"
                    % (name, length, value_bits)
                )
        else:  # import-db
            database = _load_database(args)
            store.save_database(args.name, database)
            out.write(
                "imported %d rows as %r into %s\n"
                % (len(database), args.name, store.path)
            )
    finally:
        store.close()
    return 0


def cmd_stats(args, out) -> int:
    import json

    from repro.obs.check import scrape

    url = args.url
    if "://" not in url:
        url = "http://" + url
    if not url.rstrip("/").endswith("/metrics.json"):
        url = url.rstrip("/") + "/metrics.json"
    try:
        status, body = scrape(url)
    except (OSError, ValueError) as exc:
        raise ReproError("cannot scrape %s: %s" % (url, exc)) from exc
    if status != 200:
        raise ReproError("HTTP %d from %s" % (status, url))
    try:
        metrics = json.loads(body).get("metrics", [])
    except ValueError as exc:
        raise ReproError("malformed JSON from %s: %s" % (url, exc)) from exc
    if not metrics:
        out.write("no metrics exposed at %s\n" % url)
        return 0
    for metric in metrics:
        labels = metric.get("labels") or {}
        name = metric.get("name", "?")
        if labels:
            name += "{%s}" % ",".join(
                "%s=%s" % (key, value) for key, value in sorted(labels.items())
            )
        if metric.get("type") == "histogram":
            count = metric.get("count", 0)
            total = metric.get("sum", 0.0)
            mean = total / count if count else 0.0
            out.write(
                "%-52s %12d obs  mean %.6f\n" % (name, count, mean)
            )
        else:
            value = metric.get("value", 0)
            if isinstance(value, float) and value == int(value):
                value = int(value)
            out.write("%-52s %12s\n" % (name, value))
    return 0


def cmd_query(args, out) -> int:
    import json
    import time

    from repro.net.transport import RetryPolicy, SocketTransport
    from repro.obs.tracing import Tracer
    from repro.spfe.session import ClientSession, run_resilient

    indices = [int(token) for token in args.select.split(",") if token.strip()]
    selection = indices_to_bits(args.n, indices)
    tracer = Tracer() if args.metrics_json else None
    client = ClientSession(
        selection, key_bits=args.key_bits, chunk_size=args.chunk_size,
        tracer=tracer,
    )
    timeout = args.timeout or None
    if args.retries < 0:
        raise ReproError("--retries must be non-negative")
    policy = RetryPolicy(max_attempts=args.retries + 1)
    started = time.perf_counter()
    cpu_started = time.process_time()
    run_resilient(
        client,
        lambda: SocketTransport.connect(
            args.host, args.port,
            connect_timeout=timeout, read_timeout=timeout,
        ),
        policy=policy,
    )
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    out.write("private sum of %d elements: %d\n" % (len(indices), client.result))
    out.write("bytes up/down: %d / %d\n"
              % (client.bytes_sent, client.bytes_received))
    out.write("encryptions: %d (chunk frames sent: %d)\n"
              % (client.encryptions, client.chunk_frames_sent))
    if tracer is not None:
        totals = tracer.totals()
        record = {
            "wall_s": wall_s,
            "phase_seconds": {
                phase: totals.get(phase, 0.0)
                for phase in ("encrypt", "decrypt", "resume")
            },
            # obfuscator sampling runs in worker processes, whose CPU
            # this process's own clock never sees
            "cpu_s": {"client": cpu_s, "workers": client.pool.worker_cpu_s},
            "encryptions": client.encryptions,
            "chunk_frames_sent": client.chunk_frames_sent,
            "bytes_up": client.bytes_sent,
            "bytes_down": client.bytes_received,
        }
        with open(args.metrics_json, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write("metrics written: %s\n" % args.metrics_json)
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "sum": cmd_sum,
    "estimate": cmd_estimate,
    "figures": cmd_figures,
    "keygen": cmd_keygen,
    "plan": cmd_plan,
    "serve": cmd_serve,
    "calibrate": cmd_calibrate,
    "supervise": cmd_supervise,
    "store": cmd_store,
    "query": cmd_query,
    "stats": cmd_stats,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        out.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        out.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
