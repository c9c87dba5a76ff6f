"""Turns one run's measurements into the reported metrics and the verdict."""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from typing import Dict, List, Tuple

from inputs import KEY_BITS, WorkloadSpec
from metrics import (
    COMPONENTS,
    GateInput,
    fig2_shares,
    gate,
    median,
    paper_fig2_shares,
    percentile,
    reconcile,
    result_line,
)
from serverproc import histogram, metric_value, server_counters

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Window:
    """The queries of one measured window."""

    records: list
    #: ``perf_counter`` when the window opened
    started: float
    #: from the opening to the last query's completion
    seconds: float
    #: this process's CPU time over the window
    harness_cpu_s: float


@dataclass
class RunFacts:
    """Everything one run measured, before any arithmetic."""

    spec: WorkloadSpec
    total_chunks: int
    setup_times: List[float]
    warmup: list
    #: "untraced", and "traced" in a traced run
    windows: Dict[str, Window]
    cuts: int
    repeated_ciphertexts: int
    server_dump: dict
    server_status: Dict[str, float]
    #: server CPU from the first warm-up query to the stop
    server_cpu_s: float
    wal_bytes: int


def verified(records: list) -> list:
    """The queries that returned the plaintext sum."""
    return [r for r in records if r.ok and r.result == r.expected]


def slice_rates(window: Window, slices: int = 10) -> List[float]:
    """Verified queries per second in each of ``slices`` equal parts of a window."""
    width = window.seconds / slices
    counts = [0] * slices
    for record in verified(window.records):
        counts[min(int((record.finished - window.started) / width), slices - 1)] += 1
    return [count / width for count in counts]


def end_to_end(facts: RunFacts) -> Metrics:
    """The user-visible metrics of the untraced window."""
    window = facts.windows["untraced"]
    records = window.records
    good = verified(records)
    latencies = [record.wall_s for record in good]
    return {
        "latency_p50_s": (median(latencies), "s"),
        "latency_p95_s": (percentile(latencies, 95.0), "s"),
        "queries_per_s": (len(good) / window.seconds, "1/s"),
        "success_ratio": (len(good) / len(records), "ratio"),
        # the program performs no client preparation before a query today
        "setup_s": (median(facts.setup_times), "s"),
        "server_peak_rss_mb": (facts.server_status["peak_rss_mb"], "MB"),
        "bytes_per_query": (
            sum(record.bytes_total for record in good) / len(good), "B"
        ),
    }


def per_layer(facts: RunFacts) -> Metrics:
    """Layer metrics of the traced window plus the server's own counters."""
    window = facts.windows["traced"]
    good = verified(window.records)
    queries = len(good)

    def mean(name: str) -> float:
        return sum(r.stats.components.get(name, 0.0) for r in good) / queries

    wall_s = sum(record.wall_s for record in good) / queries
    parts = reconcile(
        {name: mean(name) for name in COMPONENTS if name != "encode_s"}
        | {"encode_s": mean("chunk_build_s") - mean("encrypt_s")},
        wall_s,
    )
    frames_sent = sum(record.chunk_frames_sent for record in good)

    dump = facts.server_dump
    counters = server_counters(dump)
    served = max(counters.served, 1)
    fold = histogram(dump, "repro_phase_seconds", {"phase": "fold"})
    fold_s = fold["sum"] / served
    server_cpu_s = facts.server_cpu_s / served
    untraced_p50 = median([r.wall_s for r in verified(facts.windows["untraced"].records)])

    layer: Metrics = {
        "client.encrypt_s": (parts["encrypt_s"], "s"),
        "client.chunk_build_s": (mean("chunk_build_s"), "s"),
        "client.encode_s": (parts["encode_s"], "s"),
        "client.encryptions_per_query": (
            sum(r.encryptions for r in good) / queries, "count"
        ),
        "client.cpu_s_per_query": (window.harness_cpu_s / queries, "s"),
        "client.decrypt_s": (parts["decrypt_s"], "s"),
        "net.connect_s": (parts["connect_s"], "s"),
        "net.send_s": (parts["send_s"], "s"),
        "net.result_wait_s": (parts["result_wait_s"], "s"),
        "net.resume_s": (parts["resume_s"], "s"),
        "net.backoff_s": (parts["backoff_s"], "s"),
        "net.bytes_up": (sum(r.stats.bytes_up for r in good) / queries, "B"),
        "net.bytes_down": (sum(r.stats.bytes_down for r in good) / queries, "B"),
        "net.chunks_resent": (
            (frames_sent - facts.total_chunks * queries) / queries, "count"
        ),
        "net.useful_chunk_ratio": (
            facts.total_chunks * queries / frames_sent, "ratio"
        ),
        "server.admitted": (counters.admitted, "count"),
        "server.served": (counters.served, "count"),
        "server.dropped": (counters.dropped, "count"),
        "server.shed": (counters.shed, "count"),
        "server.rejected": (counters.rejected, "count"),
        "server.active_peak": (
            metric_value(dump, "repro_server_active_connections_peak"), "count"
        ),
        "server.cpu_s_per_session": (server_cpu_s, "s"),
        "server.nonfold_cpu_s_per_session": (server_cpu_s - fold_s, "s"),
        "fold.s_per_session": (fold_s, "s"),
        "fold.calls_per_session": (fold["count"] / served, "count"),
        "fold.share_of_server_cpu": (
            fold["sum"] / facts.server_cpu_s if facts.server_cpu_s else 0.0,
            "ratio",
        ),
        "store.journal_writes_per_session": (
            metric_value(dump, "repro_store_journal_writes_total") / served,
            "count",
        ),
        "store.journal_deletes": (
            metric_value(dump, "repro_store_journal_deletes_total"), "count"
        ),
        "store.wal_bytes": (facts.wal_bytes, "B"),
        "trace.overhead_ratio": (
            median([r.wall_s for r in good]) / untraced_p50, "ratio"
        ),
        "trace.wall_s": (wall_s, "s"),
        "trace.other_s": (parts["other_s"], "s"),
    }
    for name, share in fig2_shares(parts, fold_s).items():
        layer["fig2.%s_share" % name] = (share, "ratio")
    return layer


def gate_input(facts: RunFacts) -> GateInput:
    """What the correctness gate checks, over every query of the run."""
    records = list(facts.warmup)
    for window in facts.windows.values():
        records.extend(window.records)
    finished = [record for record in records if record.ok]
    return GateInput(
        sums=[(record.result, record.expected) for record in finished],
        encryptions=[record.encryptions for record in finished],
        n=facts.spec.n,
        cuts=facts.cuts,
        repeated_ciphertexts=facts.repeated_ciphertexts,
        server=server_counters(facts.server_dump),
    )


def build(facts: RunFacts, traced: bool, out):
    """Print the human-readable report; return (correct, result line)."""
    spec = facts.spec
    measured = [r for window in facts.windows.values() for r in window.records]
    good = verified(measured)
    failures = gate(gate_input(facts))
    for name, window in facts.windows.items():
        if not verified(window.records):
            failures.append("no query of the %s window returned a verified sum" % name)

    out.write(
        "perfbench %s: %d closed-loop connection(s), n = %d, chunk %d, "
        "%d-bit keys, loopback TCP (not a real link), nproc %s, Python %s\n"
        % (spec.name, spec.connections, spec.n, spec.chunk_size,
           KEY_BITS, os.cpu_count(), platform.python_version())
    )
    for name, window in facts.windows.items():
        out.write("%s window: %d queries in %.3f s; per-second rate by slice: %s\n"
                  % (name, len(window.records), window.seconds,
                     " ".join("%.1f" % rate for rate in slice_rates(window))))
    out.write("%d warm-up queries before the window; %d sessions cut mid-stream\n"
              % (len(facts.warmup), facts.cuts))
    for record in measured:
        if not record.ok:
            out.write("failed query %d: %s\n" % (record.index, record.error))
    metrics: Metrics = {}
    if not failures:
        e2e = end_to_end(facts)
        layer = per_layer(facts) if traced else {}
        failed_ratio = ((len(measured) - len(good)) / len(measured), "ratio")
        for name, (value, unit) in {**e2e, "failed_ratio": failed_ratio, **layer}.items():
            out.write("  %-34s %16.6f %s\n" % (name, value, unit))
        if traced:
            out.write("  paper's Figure 2 shares: %s\n" % ", ".join(
                "%s %.4f" % item for item in paper_fig2_shares().items()))
        metrics = layer if traced else e2e
    for failure in failures:
        out.write("CORRECTNESS GATE FAILED: %s\n" % failure)
    return not failures, result_line(
        not failures, len(measured), len(measured) - len(good), metrics
    )
