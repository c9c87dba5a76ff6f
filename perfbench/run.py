"""End-to-end selected-sum benchmark over a real ``repro serve`` process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

Each run launches ``python -m repro serve`` on a database generated from
the seed, drives it over loopback TCP from this process with at most two
closed-loop connections, checks every decrypted sum, stops the server
with SIGTERM and prints one JSON line last: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separately traced half of the
window with ``--trace 1``.  See perfbench/README.md for the workloads,
the metrics and which layer should move which number.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from typing import Dict, List

#: servers launched per run; ``setup_s`` is the median of their start-ups
SETUP_REPEATS = 5
#: replayed sessions are pre-encrypted for at most this many per second
#: of the window (today's fleet runs under half of it)
REPLAY_RATE_CAP = 100


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from the root of a "
              "checkout of the repository" % root, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # a terminated run still stops its server (the ``finally`` blocks run)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    from inputs import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        correct, line = run(spec, args.seed, args.seconds, bool(args.trace),
                            root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps(line))
    return 0 if correct else 1


def run(spec, seed: int, seconds: float, traced: bool, root: str, workdir: str):
    """One benchmark run; returns (correct, result line)."""
    from drive import LoadGenerator
    from inputs import Inputs
    from serverproc import ServerProcess

    import report

    inputs = Inputs(spec, seed)
    db_path = os.path.join(workdir, "db.txt")
    with open(db_path, "w") as handle:
        handle.write(inputs.db_text())
    replay = None
    if spec.replay:
        replay = inputs.replay_vectors(
            spec.warmup + int(REPLAY_RATE_CAP * seconds) + 1
        )

    setup_times: List[float] = []
    server = None
    for attempt in range(SETUP_REPEATS):
        state_dir = None
        if spec.state_dir:
            state_dir = os.path.join(workdir, "state-%d" % attempt)
            os.mkdir(state_dir)
        candidate = ServerProcess(
            root, db_path, os.path.join(workdir, "metrics-%d.json" % attempt),
            state_dir,
        )
        try:
            setup_times.append(candidate.start())
            if attempt < SETUP_REPEATS - 1:
                candidate.stop()
        except BaseException:
            candidate.kill()
            raise
        server = candidate

    assert server is not None
    try:
        load = LoadGenerator(inputs, server.host, server.port, replay)
        cpu_ready = server.status()["cpu_s"]
        warmup = load.loop(0, spec.warmup, float("inf"), traced=False)
        windows: Dict[str, report.Window] = {}
        if traced:
            phases = [("untraced", seconds / 2), ("traced", seconds / 2)]
        else:
            phases = [("untraced", seconds)]
        first = spec.warmup
        for name, length in phases:
            started = time.perf_counter()
            cpu_started = time.process_time()
            records = load.loop(
                first, load.capacity, started + length, traced=name == "traced"
            )
            if not records:
                raise RuntimeError("no query was run in the %s window" % name)
            first = records[-1].index + 1
            windows[name] = report.Window(
                records, started,
                max(record.finished for record in records) - started,
                time.process_time() - cpu_started,
            )
        status = server.status()
        wal_bytes = server.wal_bytes()
        dump = server.stop()
    finally:
        server.kill()

    run_facts = report.RunFacts(
        spec=spec,
        total_chunks=inputs.total_chunks,
        setup_times=setup_times,
        warmup=warmup,
        windows=windows,
        cuts=load.cuts,
        repeated_ciphertexts=load.ledger.repeats,
        server_dump=dump,
        server_status=status,
        server_cpu_s=status["cpu_s"] - cpu_ready,
        wal_bytes=wal_bytes,
    )
    return report.build(run_facts, traced, out=sys.stdout)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
