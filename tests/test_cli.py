"""Tests for the command-line interface (driven in-process)."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])


class TestSum:
    def test_random_database(self):
        code, output = run_cli(
            "sum", "--random", "200", "--select", "0,5,9", "--seed", "clitest"
        )
        assert code == 0
        assert "sum of 3 selected elements" in output
        assert "modelled 2004 online time" in output

    def test_db_file(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("10\n20\n30\n40\n")
        code, output = run_cli("sum", "--db", str(path), "--select", "1,3")
        assert code == 0
        assert "sum of 2 selected elements: 60" in output

    def test_every_protocol(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("\n".join(str(i) for i in range(1, 13)))
        for protocol in ("plain", "batched", "preprocessed", "combined",
                         "multiclient"):
            code, output = run_cli(
                "sum", "--db", str(path), "--select", "0,11",
                "--protocol", protocol,
            )
            assert code == 0, (protocol, output)
            assert ": 13" in output  # 1 + 12

    def test_real_mode(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("7\n8\n9\n")
        code, output = run_cli(
            "sum", "--db", str(path), "--select", "0,2",
            "--real", "--key-bits", "128",
        )
        assert code == 0
        assert ": 16" in output
        assert "measured online time" in output

    def test_missing_database(self):
        code, output = run_cli("sum", "--select", "1")
        assert code == 2
        assert "error" in output

    def test_both_sources_rejected(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("1\n")
        code, output = run_cli(
            "sum", "--db", str(path), "--random", "5", "--select", "0"
        )
        assert code == 2

    def test_missing_file(self):
        code, output = run_cli("sum", "--db", "/nonexistent", "--select", "0")
        assert code == 2

    def test_bad_index(self):
        code, output = run_cli("sum", "--random", "10", "--select", "99")
        assert code == 2


class TestEstimate:
    def test_plain(self):
        code, output = run_cli("estimate", "--n", "100000")
        assert code == 0
        assert "online runtime:" in output
        # The paper's Figure 2 headline, predicted analytically.
        minutes = float(output.split("online runtime:")[1].split("min")[0])
        assert 18 < minutes < 23

    def test_all_protocols(self):
        for protocol in ("plain", "batched", "preprocessed", "combined",
                         "multiclient"):
            code, output = run_cli(
                "estimate", "--n", "50000", "--protocol", protocol
            )
            assert code == 0, (protocol, output)
            assert protocol in output

    def test_environments(self):
        short = run_cli("estimate", "--n", "50000", "--env", "short")[1]
        long_ = run_cli("estimate", "--n", "50000", "--env", "long")[1]

        def comm(text):
            return float(text.split("communication")[1].split("min")[0])

        assert comm(long_) > 10 * comm(short)


class TestKeygen:
    def test_deterministic(self):
        a = run_cli("keygen", "--bits", "64", "--seed", "k")[1]
        b = run_cli("keygen", "--bits", "64", "--seed", "k")[1]
        assert a == b
        assert "n = " in a

    def test_key_is_consistent(self):
        output = run_cli("keygen", "--bits", "64", "--seed", "c")[1]
        lines = dict(
            line.split(" = ") for line in output.splitlines() if " = " in line
        )
        assert int(lines["p"]) * int(lines["q"]) == int(lines["n"])


class TestFigures:
    def test_quick_figures(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUICK", "1")
        # Restrict to a tiny sweep via the env var the runners honour.
        code, output = run_cli("figures", "--quick", "--out", str(tmp_path))
        assert code == 0
        assert "figure2" in output
        assert (tmp_path / "figure2.txt").exists()
        assert (tmp_path / "figure9.txt").exists()


class TestPlan:
    def test_default_plan(self):
        code, output = run_cli("plan", "--n", "100000")
        assert code == 0
        assert "1. combined" in output

    def test_constrained_plan(self):
        code, output = run_cli(
            "plan", "--n", "100000", "--no-preprocessing", "--clients", "3"
        )
        assert code == 0
        assert "1. multiclient" in output
        assert "excluded" in output

    def test_budgets(self):
        code, output = run_cli(
            "plan", "--n", "100000", "--max-storage-mb", "5"
        )
        assert code == 0
        assert "pool needs" in output


class TestServeQuery:
    def test_tcp_round_trip(self, tmp_path):
        """serve and query over a real TCP socket, both via the CLI."""
        cpu = self._round_trip(tmp_path)
        assert cpu["client"] > 0
        assert cpu["workers"] == 0.0  # a 128-bit key stays in-process

    def test_metrics_count_sampling_worker_cpu(self, tmp_path, key_owner_fanout):
        """Obfuscator sampling fanned out to workers: their CPU is reported
        next to the client process's own."""
        cpu = self._round_trip(tmp_path)
        assert cpu["client"] > 0 and cpu["workers"] > 0

    @staticmethod
    def _round_trip(tmp_path):
        import io
        import re
        import socket
        import threading

        path = tmp_path / "db.txt"
        path.write_text("\n".join(str((i * 37) % 1000) for i in range(50)))

        server_out = io.StringIO()
        # Bind first so the port is known before the client connects.
        listener_probe = socket.socket()
        listener_probe.bind(("127.0.0.1", 0))
        port = listener_probe.getsockname()[1]
        listener_probe.close()

        server_thread = threading.Thread(
            target=main,
            args=(
                ["serve", "--db", str(path), "--port", str(port),
                 "--queries", "1"],
                server_out,
            ),
            daemon=True,
        )
        server_thread.start()
        # Wait until the server announces it is listening.
        for _ in range(100):
            if "serving" in server_out.getvalue():
                break
            import time

            time.sleep(0.02)

        metrics_path = tmp_path / "client-metrics.json"
        code, output = run_cli(
            "query", "--port", str(port), "--n", "50",
            "--select", "0,10,20", "--key-bits", "128",
            "--metrics-json", str(metrics_path),
        )
        server_thread.join(timeout=10)
        assert code == 0, output
        values = [(i * 37) % 1000 for i in range(50)]
        expected = values[0] + values[10] + values[20]
        assert "private sum of 3 elements: %d" % expected in output
        assert "served" in server_out.getvalue()

        import json

        record = json.loads(metrics_path.read_text())
        match = re.search(r"bytes up/down: (\d+) / (\d+)", output)
        assert (record["bytes_up"], record["bytes_down"]) == (
            int(match.group(1)), int(match.group(2))
        )
        assert record["encryptions"] == 50
        phases = record["phase_seconds"]
        assert set(phases) == {"encrypt", "decrypt", "resume"}
        assert phases["encrypt"] > 0 and phases["decrypt"] > 0
        assert phases["resume"] == 0.0
        assert sum(phases.values()) <= record["wall_s"]
        assert set(record["cpu_s"]) == {"client", "workers"}
        return record["cpu_s"]

    def test_serve_drops_silent_peer_without_spending_budget(self, tmp_path):
        """A client that connects and says nothing hits the read
        deadline and is dropped — and the drop does NOT consume the
        --queries budget: an honest query afterwards still completes."""
        import io
        import socket
        import threading
        import time

        path = tmp_path / "db.txt"
        path.write_text("\n".join(str(i) for i in range(10)))

        server_out = io.StringIO()
        listener_probe = socket.socket()
        listener_probe.bind(("127.0.0.1", 0))
        port = listener_probe.getsockname()[1]
        listener_probe.close()

        server_thread = threading.Thread(
            target=main,
            args=(
                ["serve", "--db", str(path), "--port", str(port),
                 "--queries", "1", "--timeout", "0.3"],
                server_out,
            ),
            daemon=True,
        )
        server_thread.start()
        for _ in range(100):
            if "serving" in server_out.getvalue():
                break
            time.sleep(0.02)

        silent = socket.create_connection(("127.0.0.1", port))
        for _ in range(200):
            if "dropped" in server_out.getvalue():
                break
            time.sleep(0.02)
        silent.close()
        assert "dropped" in server_out.getvalue()
        # The budget is still intact: one honest query completes and
        # only then does the server drain and exit.
        code, output = run_cli(
            "query", "--port", str(port), "--n", "10",
            "--select", "0,3", "--key-bits", "128",
        )
        assert code == 0, output
        server_thread.join(timeout=10)
        assert not server_thread.is_alive()
        out_text = server_out.getvalue()
        assert "served" in out_text
        assert "1 served" in out_text and "1 dropped" in out_text

    def test_query_retries_are_bounded_and_typed(self):
        """With nothing listening, query fails fast with exit code 2
        (RetryExhausted is a ReproError), not a hang or a traceback."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, output = run_cli(
            "query", "--port", str(port), "--n", "10", "--select", "0",
            "--key-bits", "128", "--timeout", "0.3", "--retries", "1",
        )
        assert code == 2
        assert "error:" in output


class TestCalibrate:
    def test_calibrate_prints_table_and_persists(self, tmp_path):
        state_dir = str(tmp_path / "state")
        code, output = run_cli(
            "calibrate", "--key-bits", "64", "--sizes", "8",
            "--rounds", "1", "--workers", "1", "--state-dir", state_dir,
        )
        assert code == 0
        assert "weighted" in output and "encrypt" in output
        assert "multiexp" in output  # a timings column made it out

        from repro.crypto.calibration import load_profile
        from repro.store import StateStore

        with StateStore.open(state_dir) as store:
            profile = load_profile(store)
        assert profile is not None
        assert len(profile) == 2  # weighted + encrypt at one grid point
        assert profile.best_mode("weighted", 64, 8) is not None

    def test_sum_picks_up_persisted_profile(self, tmp_path):
        state_dir = str(tmp_path / "state")
        code, _ = run_cli(
            "calibrate", "--key-bits", "64", "--sizes", "8",
            "--rounds", "1", "--workers", "1", "--state-dir", state_dir,
        )
        assert code == 0
        code, output = run_cli(
            "sum", "--random", "16", "--select", "1,2", "--real",
            "--key-bits", "64", "--state-dir", state_dir,
        )
        assert code == 0
        assert "calibration profile loaded (2 measured points)" in output
        assert "sum of 2 selected elements" in output

    def test_calibrate_without_state_dir_is_ephemeral(self):
        code, output = run_cli(
            "calibrate", "--key-bits", "64", "--sizes", "8",
            "--rounds", "1", "--workers", "1",
        )
        assert code == 0
        assert "weighted" in output
