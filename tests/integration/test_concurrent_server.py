"""Concurrent-server integration suite: the ISSUE acceptance scenarios.

One :class:`~repro.net.server.SpfeServer` faces a fleet of threaded
clients — honest, malicious, slow, and silent — over real kernel
sockets.  The suite asserts the hardening properties end to end:

* a mixed fleet never corrupts an honest answer: every honest client
  decrypts the exact selected sum while malicious peers get typed
  errors and silent peers are dropped;
* a malformed-frame corpus exercises every trust-boundary reject path
  (hello policy, public-key sanity, ciphertext membership, frame cap,
  session byte quota) and the server keeps serving afterwards;
* with the pool saturated, surplus clients receive BUSY and retry to
  completion through :func:`run_resilient`;
* SIGTERM during active sessions drains them to completion;
* a 200-client fleet over eight slots never serves more than
  ``max_sessions`` connections at once, and every sum is exact;
* at drain, the outcome counters reconcile:
  ``served + dropped + rejected == admitted``.
"""

import os
import select
import signal
import socket
import threading
import time

import pytest

from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import ReproError, ValidationError
from repro.net import codec
from repro.net.codec import FrameDecoder, FrameType
from repro.net.server import SpfeServer
from repro.net.transport import RetryPolicy, SocketTransport
from repro.spfe.session import ClientSession, run_over_transport, run_resilient
from repro.spfe.validation import ServerPolicy

KEY_BITS = 128
N = 16
CHUNK = 4
READ_TIMEOUT = 5.0
JOIN_TIMEOUT = 20.0

pytestmark = pytest.mark.chaos

POLICY = ServerPolicy(
    min_key_bits=64,
    max_key_bits=256,
    max_chunks=8,
    max_frame_payload=2048,
)


@pytest.fixture(scope="module")
def workload():
    generator = WorkloadGenerator("concurrent-server")
    database = generator.database(N, value_bits=16)
    selection = generator.random_selection(N, 5)
    keypair = generate_keypair(KEY_BITS, DeterministicRandom("cs-keypair"))
    return database, selection, database.select_sum(selection), keypair


def make_client(selection, seed, keypair=None):
    return ClientSession(
        selection,
        key_bits=KEY_BITS,
        chunk_size=CHUNK,
        rng=DeterministicRandom("cs-client-%s" % seed),
        keypair=keypair,
    )


def connect(port, read_timeout=READ_TIMEOUT):
    return SocketTransport.connect(
        "127.0.0.1", port, connect_timeout=READ_TIMEOUT, read_timeout=read_timeout
    )


def read_error_frame(sock, timeout=READ_TIMEOUT):
    """Read frames off a raw socket until an ERROR arrives (or EOF)."""
    sock.settimeout(timeout)
    decoder = FrameDecoder()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            data = sock.recv(4096)
        except socket.timeout:
            return None
        if not data:
            return None
        decoder.feed(data)
        for frame in decoder.frames():
            if frame.frame_type == FrameType.ERROR:
                return frame
    return None


def wait_for(predicate, timeout=JOIN_TIMEOUT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# -- mixed fleet --------------------------------------------------------------


class TestMixedFleet:
    def test_honest_malicious_and_silent_clients(self, workload):
        """Four honest, two malicious, one silent client, concurrently.

        Every honest client gets the exact sum; each malicious client is
        rejected with a typed validation error; the silent one is
        dropped on deadline — and none of it disturbs the others.
        """
        database, selection, expected, keypair = workload
        server = SpfeServer(
            database,
            policy=POLICY,
            max_sessions=4,
            accept_backlog=8,
            read_timeout=2.0,
        ).start()
        port = server.port
        results = {}
        lock = threading.Lock()

        def honest(tag):
            client = make_client(selection, tag)
            try:
                value = run_resilient(
                    client,
                    lambda: connect(port),
                    policy=RetryPolicy(max_attempts=8, base_delay_s=0.2),
                )
            except ReproError as exc:  # pragma: no cover - failure detail
                value = exc
            with lock:
                results[tag] = value

        def malicious(tag, frames):
            sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            try:
                for data in frames:
                    sock.sendall(data)
                frame = read_error_frame(sock)
                with lock:
                    results[tag] = (
                        codec.decode_error(frame.payload)[0]
                        if frame is not None
                        else None
                    )
            finally:
                sock.close()

        public = keypair.public
        honest_ct = public.encrypt_raw(1, DeterministicRandom("mixed-ct"))
        sid = b"\7" * codec.SESSION_ID_BYTES
        bad_key_frames = [codec.encode_hello(512, N, CHUNK, sid, 0)]
        bad_ct_frames = [
            codec.encode_hello(KEY_BITS, N, CHUNK, sid, 0),
            codec.encode_public_key(public.n, KEY_BITS, 0),
            codec.encode_ciphertext_chunk(
                [honest_ct, public.n, honest_ct, honest_ct], KEY_BITS, 0
            ),
        ]

        silent = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        threads = [
            threading.Thread(target=honest, args=("h%d" % i,)) for i in range(4)
        ]
        threads.append(
            threading.Thread(target=malicious, args=("bad-key", bad_key_frames))
        )
        threads.append(
            threading.Thread(target=malicious, args=("bad-ct", bad_ct_frames))
        )
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT)
                assert not thread.is_alive(), "client thread hung"
            for i in range(4):
                assert results["h%d" % i] == expected
            assert results["bad-key"] == codec.ERROR_CODE_POLICY
            assert results["bad-ct"] == codec.ERROR_CODE_VALIDATION
            assert wait_for(
                lambda: server.stats.get("sessions_dropped") >= 1
            ), "silent client never dropped"
            assert wait_for(lambda: server.stats.get("sessions_served") == 4)
            assert server.stats.get("sessions_rejected") == 2
            assert server.stats.get("validation_rejections") == 2
        finally:
            silent.close()
            server.stop(drain_deadline_s=10.0)


# -- malformed-frame corpus ---------------------------------------------------


def corpus(workload):
    """(name, frames-to-send, expected error code) triples covering
    every validation reject path a remote peer can trigger."""
    _, __, ___, keypair = workload
    public = keypair.public
    sid = b"\5" * codec.SESSION_ID_BYTES
    hello = codec.encode_hello(KEY_BITS, N, CHUNK, sid, 0)
    pk = codec.encode_public_key(public.n, KEY_BITS, 0)
    rng = DeterministicRandom("corpus-ct")
    good = public.encrypt_raw(1, rng)

    def chunk(values):
        return codec.encode_ciphertext_chunk(values, KEY_BITS, 0)

    return [
        ("hello-zero-chunk-size",
         [codec.encode_hello(KEY_BITS, N, 0, sid, 0)],
         codec.ERROR_CODE_VALIDATION),
        ("hello-key-below-policy",
         [codec.encode_hello(32, N, CHUNK, sid, 0)],
         codec.ERROR_CODE_POLICY),
        ("hello-key-above-policy",
         [codec.encode_hello(512, N, CHUNK, sid, 0)],
         codec.ERROR_CODE_POLICY),
        ("hello-too-many-chunks",
         [codec.encode_hello(KEY_BITS, N, 1, sid, 0)],  # 16 chunks > 8
         codec.ERROR_CODE_POLICY),
        ("key-even-modulus",
         [hello, codec.encode_public_key(1 << (KEY_BITS - 1), KEY_BITS, 0)],
         codec.ERROR_CODE_VALIDATION),
        ("key-larger-than-announced",
         [codec.encode_hello(KEY_BITS - 7, N, CHUNK, sid, 0), pk],
         codec.ERROR_CODE_PROTOCOL),
        ("key-far-below-announced",
         [codec.encode_hello(256, N, CHUNK, sid, 0),
          codec.encode_public_key(public.n, 256, 0)],
         codec.ERROR_CODE_VALIDATION),
        ("ciphertext-zero",
         [hello, pk, chunk([0, good, good, good])],
         codec.ERROR_CODE_VALIDATION),
        ("ciphertext-shares-factor",
         [hello, pk, chunk([good, public.n, good, good])],
         codec.ERROR_CODE_VALIDATION),
        ("ciphertext-out-of-range",
         [hello, pk, chunk([good, good, public.nsquare, good])],
         codec.ERROR_CODE_VALIDATION),
        ("frame-above-payload-cap",
         [codec.encode_frame(FrameType.ENC_CHUNK, b"\1" * 4096, 0)],
         codec.ERROR_CODE_PROTOCOL),
    ]


class TestMalformedFrameCorpus:
    def test_every_reject_path_is_typed_and_survivable(self, workload):
        """Each corpus entry earns its typed ERROR; the server then
        serves an honest client as if nothing happened."""
        database, selection, expected, _ = workload
        server = SpfeServer(
            database, policy=POLICY, max_sessions=2, read_timeout=READ_TIMEOUT
        ).start()
        try:
            for name, frames, want_code in corpus(workload):
                sock = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5.0
                )
                try:
                    for data in frames:
                        sock.sendall(data)
                    frame = read_error_frame(sock)
                    assert frame is not None, "%s: no ERROR frame" % name
                    code, message = codec.decode_error(frame.payload)
                    assert code == want_code, (name, code, message)
                finally:
                    sock.close()
            # Garbage that is not a frame at all must not wedge the
            # server either (typed error or straight close are both
            # acceptable).
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            try:
                sock.sendall(b"\xff" * 64)
                read_error_frame(sock, timeout=2.0)
            finally:
                sock.close()
            # The server is still healthy: honest query round-trips.
            client = make_client(selection, "post-corpus")
            value = run_resilient(client, lambda: connect(server.port))
            assert value == expected
            assert wait_for(lambda: server.stats.get("sessions_served") == 1)
        finally:
            server.stop(drain_deadline_s=10.0)

    def test_session_byte_quota_is_enforced(self, workload):
        """A peer streaming more bytes than the per-session quota gets a
        typed POLICY error even though every individual frame is valid."""
        database, _, __, keypair = workload
        quota_policy = ServerPolicy(
            min_key_bits=64,
            max_key_bits=256,
            max_frame_payload=192,
            max_session_bytes=192,
        )
        server = SpfeServer(
            database, policy=quota_policy, read_timeout=READ_TIMEOUT
        ).start()
        try:
            public = keypair.public
            good = public.encrypt_raw(1, DeterministicRandom("quota-ct"))
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            try:
                sid = b"\6" * codec.SESSION_ID_BYTES
                sock.sendall(codec.encode_hello(KEY_BITS, N, CHUNK, sid, 0))
                sock.sendall(codec.encode_public_key(public.n, KEY_BITS, 0))
                for index in range(N // CHUNK):
                    try:
                        sock.sendall(
                            codec.encode_ciphertext_chunk(
                                [good] * CHUNK, KEY_BITS, index
                            )
                        )
                    except OSError:
                        break  # server already rejected and closed
                    # Stop streaming the moment the rejection lands, so
                    # a late write cannot RST away the ERROR frame.
                    if select.select([sock], [], [], 0.5)[0]:
                        break
                frame = read_error_frame(sock)
                assert frame is not None, "quota overrun produced no ERROR"
                code, message = codec.decode_error(frame.payload)
                assert code == codec.ERROR_CODE_POLICY, message
                assert "quota" in message or "bytes" in message
            finally:
                sock.close()
        finally:
            server.stop(drain_deadline_s=10.0)


# -- load shedding ------------------------------------------------------------


class TestBusyRetry:
    def test_shed_client_retries_to_completion(self, workload):
        """Acceptance: with the pool saturated, the surplus client gets
        BUSY and, through run_resilient's retry loop, still finishes
        with the exact answer once capacity frees up."""
        database, selection, expected, _ = workload
        server = SpfeServer(
            database,
            policy=POLICY,
            max_sessions=1,
            accept_backlog=1,
            read_timeout=1.0,
        ).start()
        port = server.port
        holders = []
        try:
            # Occupy the lone worker and the single queue slot with
            # silent connections; they die on the read deadline, which
            # is exactly the window the surplus client must ride out.
            for _ in range(2):
                holders.append(
                    socket.create_connection(("127.0.0.1", port), timeout=5.0)
                )
                time.sleep(0.1)
            client = make_client(selection, "shed-retry")
            value = run_resilient(
                client,
                lambda: connect(port, read_timeout=3.0),
                policy=RetryPolicy(max_attempts=10, base_delay_s=0.3),
            )
            assert value == expected
            assert server.stats.get("sessions_shed") >= 1
            assert wait_for(lambda: server.stats.get("sessions_served") == 1)
        finally:
            for sock in holders:
                try:
                    sock.close()
                except OSError:
                    pass
            server.stop(drain_deadline_s=10.0)


# -- graceful drain -----------------------------------------------------------


class _SlowTransport:
    """Transport wrapper that drips writes, keeping a session active
    long enough for a signal to land mid-query."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s

    def send(self, data):
        time.sleep(self._delay_s)
        self._inner.send(data)

    def recv(self, max_bytes=65536):
        return self._inner.recv(max_bytes)

    def recv_ready(self):
        return self._inner.recv_ready()

    def close(self):
        self._inner.close()


class TestSignalDrain:
    def test_sigterm_drains_active_session_to_completion(self, workload):
        """Acceptance: SIGTERM while a query is in flight stops the
        accept loop but lets the in-flight session finish; the client
        still gets the exact answer."""
        database, selection, expected, _ = workload
        server = SpfeServer(
            database, policy=POLICY, read_timeout=READ_TIMEOUT
        ).start()
        restore = server.install_signal_handlers()
        results = {}

        def slow_client():
            client = make_client(selection, "sigterm")
            transport = _SlowTransport(connect(server.port), delay_s=0.15)
            try:
                results["value"] = run_over_transport(client, transport)
            except ReproError as exc:  # pragma: no cover - failure detail
                results["value"] = exc
            finally:
                transport.close()

        thread = threading.Thread(target=slow_client)
        try:
            thread.start()
            assert wait_for(
                lambda: server.stats.get("connections_accepted") >= 1
            ), "client never reached the server"
            os.kill(os.getpid(), signal.SIGTERM)
            # wait() polls on the main thread, so the handler fires here
            # and flips the server into drain.
            server.wait(drain_deadline_s=15.0)
            assert server.stopped
            thread.join(timeout=JOIN_TIMEOUT)
            assert not thread.is_alive(), "client hung past drain"
            assert results["value"] == expected
            assert server.stats.get("sessions_served") == 1
            assert server.stats.get("sessions_dropped") == 0
            # Drained means drained: no new connections.
            with pytest.raises(OSError):
                socket.create_connection(
                    ("127.0.0.1", server.port), timeout=1.0
                )
        finally:
            restore()
            server.stop(drain_deadline_s=5.0)

    def test_validation_error_is_a_typed_repro_error(self):
        # Guard for the fleet test's malicious branch: the wire-level
        # code constants map back onto the exception hierarchy.
        assert issubclass(ValidationError, ReproError)


# -- large fleet --------------------------------------------------------------


class TestLargeFleet:
    def test_two_hundred_clients_over_eight_slots(self, workload):
        """Acceptance: a 200-client fleet completes against
        ``max_sessions=8`` with every sum exact, and the concurrency
        high-water mark proves the worker pool actually bounded serving."""
        database, selection, expected, keypair = workload
        server = SpfeServer(
            database,
            max_sessions=8,
            accept_backlog=256,
            read_timeout=15.0,
        ).start()
        port = server.port
        results = {}
        lock = threading.Lock()

        def run_one(tag):
            # the shared keypair keeps 200 clients cheap; each still
            # encrypts its own selection vector
            client = make_client(selection, "fleet-%d" % tag, keypair=keypair)
            value = run_resilient(
                client,
                lambda: connect(port, read_timeout=15.0),
                policy=RetryPolicy(max_attempts=10, base_delay_s=0.2),
            )
            with lock:
                results[tag] = value

        threads = [
            threading.Thread(target=run_one, args=(tag,)) for tag in range(200)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive(), "fleet client hung"
        finally:
            server.stop(drain_deadline_s=15.0)
        assert len(results) == 200
        assert all(value == expected for value in results.values())
        snap = server.stats.snapshot()
        assert snap["sessions_served"] == 200
        assert server.peak_active <= 8
        assert (
            snap["sessions_served"]
            + snap["sessions_dropped"]
            + snap["sessions_rejected"]
            == snap["sessions_admitted"]
        ), snap


# -- outcome accounting -------------------------------------------------------


class TestOutcomeInvariant:
    def test_served_dropped_rejected_reconcile_with_admitted(self, workload):
        """At drain, every admitted session is in exactly one outcome
        bucket: ``served + dropped + rejected == admitted``, in-flight
        zero.  Drives all three outcome classes concurrently — honest
        (served), malicious (rejected), silent (dropped on deadline); a
        session that slips between counters (the vanished-outcome family
        of bugs) breaks the equality.
        """
        database, selection, expected, _ = workload
        server = SpfeServer(
            database,
            policy=POLICY,
            max_sessions=3,
            accept_backlog=8,
            read_timeout=1.0,
        ).start()
        port = server.port
        results = {}
        lock = threading.Lock()

        def honest(tag):
            client = make_client(selection, "inv-%s" % tag)
            value = run_resilient(
                client,
                lambda: connect(port),
                policy=RetryPolicy(max_attempts=8, base_delay_s=0.2),
            )
            with lock:
                results[tag] = value

        silent = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        malicious = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        threads = [
            threading.Thread(target=honest, args=("h%d" % i,))
            for i in range(3)
        ]
        try:
            sid = b"\3" * codec.SESSION_ID_BYTES
            malicious.sendall(codec.encode_hello(512, N, CHUNK, sid, 0))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT)
                assert not thread.is_alive(), "client thread hung"
            for i in range(3):
                assert results["h%d" % i] == expected
            # the silent client dies on its read deadline
            assert wait_for(
                lambda: server.stats.get("sessions_dropped") >= 1
            ), "silent client never dropped"
        finally:
            silent.close()
            malicious.close()
            server.stop(drain_deadline_s=10.0)
        snap = server.stats.snapshot()
        assert snap["sessions_served"] == 3
        assert snap["sessions_rejected"] == 1
        assert snap["sessions_dropped"] >= 1
        assert (
            snap["sessions_served"]
            + snap["sessions_dropped"]
            + snap["sessions_rejected"]
            == snap["sessions_admitted"]
        ), snap
        assert server.in_flight == 0
