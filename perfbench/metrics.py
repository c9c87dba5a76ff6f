"""Pure arithmetic of the end-to-end benchmark: statistics, reconciliation, gate.

Nothing here touches a socket or a process, so the benchmark's own tests
exercise exactly the code that turns measurements into the reported
numbers and decides whether a run was correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

#: Per-query components that partition a traced query's wall time on the
#: client's timeline.  They are disjoint intervals, so their sum plus
#: ``other_s`` is the wall time exactly.
COMPONENTS = (
    "connect_s",      # inside SocketTransport.connect
    "encrypt_s",      # Tracer ``encrypt`` spans (inside the stream's next())
    "encode_s",       # the rest of next() on the client's byte stream
    "send_s",         # blocked in Transport.send outside the resume handshake
    "resume_s",       # RESUME sent until the ACK is read
    "result_wait_s",  # blocked in Transport.recv outside the resume handshake
    "backoff_s",      # run_resilient's sleep between attempts
    "decrypt_s",      # Tracer ``decrypt`` span
)

#: The paper's Figure 2 shares of one unoptimised query (client
#: encryption, server computation, communication, client decryption) at
#: n = 100,000 over the short-distance link: 18.00, 1.33 and 0.75
#: minutes and 0.011 s, as reproduced in EXPERIMENTS.md.
PAPER_FIG2_MINUTES = {
    "encrypt": 18.00,
    "fold": 1.33,
    "communication": 0.75,
    "decrypt": 0.011 / 60.0,
}


def paper_fig2_shares() -> Dict[str, float]:
    """The paper's Figure 2 components as shares of their total."""
    total = sum(PAPER_FIG2_MINUTES.values())
    return {name: minutes / total for name, minutes in PAPER_FIG2_MINUTES.items()}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def reconcile(components: Mapping[str, float], wall_s: float) -> Dict[str, float]:
    """Components of one query plus ``other_s``, the part none of them covers.

    The returned components sum to ``wall_s`` exactly (up to float
    rounding); a negative ``other_s`` would mean two components overlap,
    which is a measurement bug, so it raises.
    """
    unknown = set(components) - set(COMPONENTS)
    if unknown:
        raise ValueError("unknown components: %s" % ", ".join(sorted(unknown)))
    parts = {name: float(components.get(name, 0.0)) for name in COMPONENTS}
    other = wall_s - sum(parts.values())
    if other < -1e-6 * max(1.0, wall_s):
        raise ValueError(
            "components sum to %.6f s, more than the %.6f s wall time"
            % (sum(parts.values()), wall_s)
        )
    parts["other_s"] = max(other, 0.0)
    return parts


def fig2_shares(mean_components: Mapping[str, float], fold_s: float) -> Dict[str, float]:
    """The measured query cut into the paper's four Figure 2 components.

    Client encryption and decryption come from the client's spans and
    server fold from the server's own per-session fold time.  The fold
    runs while the client is still streaming, so communication is the
    client's time blocked on the network minus the fold it may have been
    waiting on.  The shares are of the four components' total, as in the
    paper, where the components run one after another.
    """
    blocked = sum(
        mean_components.get(name, 0.0)
        for name in ("connect_s", "send_s", "resume_s", "result_wait_s")
    )
    seconds = {
        "encrypt": mean_components.get("encrypt_s", 0.0),
        "fold": fold_s,
        "communication": max(blocked - fold_s, 0.0),
        "decrypt": mean_components.get("decrypt_s", 0.0),
    }
    total = sum(seconds.values())
    if total <= 0:
        raise ValueError("no component time to share out")
    return {name: value / total for name, value in seconds.items()}


@dataclass
class ServerCounters:
    """The outcome counters the server exports at drain."""

    admitted: int
    served: int
    dropped: int
    shed: int
    rejected: int


@dataclass
class GateInput:
    """Everything the correctness gate looks at after a run."""

    #: (decrypted sum, plaintext sum from the seed's database) per query
    #: that returned a result
    sums: List[tuple] = field(default_factory=list)
    #: Paillier encryptions each finished query performed
    encryptions: List[int] = field(default_factory=list)
    n: int = 0
    cuts: int = 0
    repeated_ciphertexts: int = 0
    server: Optional[ServerCounters] = None


def gate(run: GateInput) -> List[str]:
    """Every correctness failure of a run, as messages (empty = correct)."""
    failures = []
    wrong = [(got, want) for got, want in run.sums if got != want]
    if wrong:
        got, want = wrong[0]
        failures.append(
            "%d decrypted sum(s) differ from the plaintext sum, first %d != %d"
            % (len(wrong), got, want)
        )
    off = [count for count in run.encryptions if count != run.n]
    if off:
        failures.append(
            "%d query(ies) did not encrypt exactly n = %d elements, first %d"
            % (len(off), run.n, off[0])
        )
    if run.repeated_ciphertexts:
        failures.append(
            "%d ciphertext(s) repeated within the run" % run.repeated_ciphertexts
        )
    server = run.server
    if server is None:
        failures.append("no server counters were read at drain")
    else:
        if server.served < len(run.sums):
            failures.append(
                "server counted %d served session(s) but clients got %d sums"
                % (server.served, len(run.sums))
            )
        if server.served + server.dropped + server.rejected != server.admitted:
            failures.append(
                "at drain served %d + dropped %d + rejected %d != admitted %d"
                % (server.served, server.dropped, server.rejected, server.admitted)
            )
        if server.dropped != run.cuts:
            failures.append(
                "server dropped %d session(s) but %d were cut deliberately"
                % (server.dropped, run.cuts)
            )
        if server.shed:
            failures.append("server shed %d connection(s)" % server.shed)
    return failures


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Mapping[str, tuple]
) -> dict:
    """The benchmark's final JSON object; ``metrics`` maps name -> (value, unit)."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
