"""A real ``python -m repro serve`` subprocess, observed from outside.

The server is launched only with flags no planned change deletes
(``--db``, ``--queries 0``, ``--state-dir``, ``--metrics-json``), read
through what production already exports (its stdout banner, the
``--metrics-json`` dump written at SIGTERM drain, and ``/proc/<pid>``),
and always stopped with SIGTERM so the drain path runs.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from metrics import ServerCounters

_READY = re.compile(r"^serving \d+ rows on ([^:\s]+):(\d+) ")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    """The server did not start, stop or report as a healthy server does."""


class ServerProcess:
    """One ``repro serve`` process over a generated database file."""

    def __init__(
        self,
        root: str,
        db_path: str,
        metrics_path: str,
        state_dir: Optional[str] = None,
    ) -> None:
        self.root = root
        self.metrics_path = metrics_path
        self.state_dir = state_dir
        self.argv = [
            sys.executable, "-m", "repro", "serve",
            "--db", db_path, "--queries", "0", "--metrics-json", metrics_path,
        ]
        if state_dir is not None:
            self.argv += ["--state-dir", state_dir]
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self.log: List[str] = []
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None

    def start(self) -> float:
        """Launch and wait until it accepts connections; returns the seconds taken."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        ready_at: List[float] = []
        self._reader = threading.Thread(
            target=self._read_output, args=(ready_at,), daemon=True
        )
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT_S) or not ready_at:
            self.kill()
            raise ServerError("server did not start:\n" + "".join(self.log[-20:]))
        return ready_at[0] - started

    def _read_output(self, ready_at: List[float]) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            if not self._ready.is_set():
                match = _READY.match(line)
                if match:
                    ready_at.append(time.perf_counter())
                    self.host, self.port = match.group(1), int(match.group(2))
                    self._ready.set()
            self.log.append(line)
        self._ready.set()

    def status(self) -> Dict[str, float]:
        """Peak resident set (MB) and CPU seconds so far, from ``/proc``."""
        assert self.proc is not None
        pid = self.proc.pid
        peak_kb = 0
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak_kb = int(line.split()[1])
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[11] and fields[12] are utime and stime (stat fields 14, 15)
        cpu_s = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        return {"peak_rss_mb": peak_kb / 1024.0, "cpu_s": cpu_s}

    def wal_bytes(self) -> int:
        """Size of the SQLite write-ahead log in the state dir (0 without one)."""
        if self.state_dir is None:
            return 0
        return sum(
            os.path.getsize(os.path.join(self.state_dir, name))
            for name in os.listdir(self.state_dir)
            if name.endswith("-wal")
        )

    def _catches_sigterm(self) -> bool:
        assert self.proc is not None
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("SigCgt:"):
                    return bool(int(line.split()[1], 16) >> (signal.SIGTERM - 1) & 1)
        return False

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, and return the ``--metrics-json`` dump.

        ``serve`` installs its SIGTERM handler just after printing its
        banner, so a server stopped right after start-up is first given
        time to install it (seen in ``/proc/<pid>/status``).
        """
        assert self.proc is not None
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self._catches_sigterm():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.kill()
                raise ServerError("server never installed its SIGTERM handler")
            time.sleep(0.001)
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not drain within %.0f s" % STOP_TIMEOUT_S)
        finally:
            self._join_reader()
        if code != 0:
            raise ServerError(
                "server exited with %d:\n%s" % (code, "".join(self.log[-20:]))
            )
        with open(self.metrics_path) as handle:
            return json.load(handle)

    def kill(self) -> None:
        """Last resort: SIGKILL and reap (used only on failure paths)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._join_reader()

    def _join_reader(self) -> None:
        if self._reader is not None:
            self._reader.join(10.0)


def metric_value(dump: dict, name: str, labels: Optional[dict] = None) -> float:
    """A counter or gauge value from a ``--metrics-json`` dump (0 when absent)."""
    for metric in dump["metrics"]:
        if metric["name"] == name and (labels is None or metric["labels"] == labels):
            return metric["value"]
    return 0


def histogram(dump: dict, name: str, labels: dict) -> Dict[str, float]:
    """``{"sum": ..., "count": ...}`` of a histogram (zeros when absent)."""
    for metric in dump["metrics"]:
        if metric["name"] == name and metric["labels"] == labels:
            return {"sum": metric["sum"], "count": metric["count"]}
    return {"sum": 0.0, "count": 0}


def server_counters(dump: dict) -> ServerCounters:
    """The session outcome counters the server reconciles at drain."""
    def total(outcome: str) -> int:
        return int(metric_value(dump, "repro_server_sessions_%s_total" % outcome))

    return ServerCounters(
        admitted=total("admitted"),
        served=total("served"),
        dropped=total("dropped"),
        shed=total("shed"),
        rejected=total("rejected"),
    )
