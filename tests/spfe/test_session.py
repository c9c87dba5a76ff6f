"""Tests for the deployable byte-stream sessions (incl. real sockets)."""

import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import PaillierPublicKey, generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.crypto.scheme import SchemeKeyPair
from repro.datastore.database import ServerDatabase
from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import ProtocolError
from repro.net import codec
from repro.net.codec import FrameType
from repro.spfe.session import (
    ClientSession,
    ServerSession,
    SessionRegistry,
    run_sessions_in_memory,
)


@pytest.fixture(scope="module")
def workload_bytes():
    generator = WorkloadGenerator("session-tests")
    database = generator.database(60, value_bits=16)
    selection = generator.random_selection(60, 15)
    return database, selection


def make_client(selection, **kwargs):
    kwargs.setdefault("key_bits", 128)
    kwargs.setdefault("rng", DeterministicRandom("client"))
    return ClientSession(selection, **kwargs)


class TestInMemory:
    def test_correct_sum(self, workload_bytes):
        database, selection = workload_bytes
        value = run_sessions_in_memory(make_client(selection), ServerSession(database))
        assert value == database.select_sum(selection)

    def test_chunk_sizes_irrelevant(self, workload_bytes):
        database, selection = workload_bytes
        values = {
            run_sessions_in_memory(
                make_client(selection, chunk_size=size), ServerSession(database)
            )
            for size in (1, 7, 60, 1000)
        }
        assert values == {database.select_sum(selection)}

    def test_byte_accounting_symmetric(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)
        run_sessions_in_memory(client, server)
        assert client.bytes_sent == server.bytes_received
        assert server.bytes_sent == client.bytes_received

    def test_server_sees_only_ciphertexts(self, workload_bytes):
        """Transcript audit at the byte level: every value the client
        put on the wire is a full-size element of Z*_{n^2}, never a
        small plaintext, and none repeats."""
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)
        wire = bytearray()
        receive = server.receive_bytes

        def observe(data):
            wire.extend(data)
            return receive(data)

        server.receive_bytes = observe
        assert run_sessions_in_memory(client, server) == database.select_sum(
            selection
        )
        decoder = codec.FrameDecoder()
        decoder.feed(bytes(wire))
        ciphertexts = [
            ct
            for frame in decoder.frames()
            if frame.frame_type == FrameType.ENC_CHUNK
            for ct in codec.decode_ciphertext_chunk(frame.payload, client.key_bits)
        ]
        assert len(ciphertexts) == len(database)
        assert all(ct > 2**64 for ct in ciphertexts)
        assert len(set(ciphertexts)) == len(database)  # no reuse

    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_random_workloads(self, data):
        n = data.draw(st.integers(1, 40))
        values = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        database = ServerDatabase(values, value_bits=10)
        client = ClientSession(
            bits, key_bits=128, chunk_size=5,
            rng=DeterministicRandom(repr(values)),
        )
        value = run_sessions_in_memory(client, ServerSession(database))
        assert value == database.select_sum(bits)


class TestOverRealSockets:
    def test_socketpair_with_fragmented_reads(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=9)
        server = ServerSession(database)
        a, b = socket.socketpair()
        try:
            for outgoing in client.initial_bytes():
                a.sendall(outgoing)
            a.shutdown(socket.SHUT_WR)
            while not server.finished:
                data = b.recv(251)  # odd size: frames split across reads
                if not data:
                    break
                reply = server.receive_bytes(data)
                if reply:
                    b.sendall(reply)
            while client.result is None:
                client.receive_bytes(a.recv(11))
        finally:
            a.close()
            b.close()
        assert client.result == database.select_sum(selection)


class _TextbookKey(PaillierPublicKey):
    """Ignores the session's pool and encrypts with textbook ``r^n``."""

    __slots__ = ()

    def encrypt_raw(self, plaintext, rng=None):
        return super().encrypt_raw(plaintext)


def _chunk_ciphertexts(frames_bytes, key_bits):
    values = []
    for frame in _decode_frames(b"".join(frames_bytes)):
        if frame.frame_type == FrameType.ENC_CHUNK:
            values.extend(codec.decode_ciphertext_chunk(frame.payload, key_bits))
    return values


class TestKeyOwnerSampling:
    """The client's obfuscators come from its factors; sums must not move."""

    @pytest.fixture(scope="class")
    def keypair(self):
        return generate_keypair(128, "session-owner-key")

    def _clients(self, selection, keypair):
        textbook = SchemeKeyPair(_TextbookKey(keypair.public.n), keypair.private)
        return (
            make_client(selection, chunk_size=7, keypair=keypair),
            make_client(selection, chunk_size=7, keypair=textbook),
        )

    def test_in_memory_sums_match_textbook(self, workload_bytes, keypair):
        database, selection = workload_bytes
        sampled, textbook = self._clients(selection, keypair)
        frames = list(sampled.initial_bytes())
        drive(frames, ServerSession(database), sampled)
        expected = database.select_sum(selection)
        assert sampled.result == expected
        assert run_sessions_in_memory(textbook, ServerSession(database)) == expected
        assert sampled.pool.misses == len(selection)
        assert textbook.pool.misses == 0
        ciphertexts = _chunk_ciphertexts(frames, 128)
        assert [keypair.private.raw_decrypt(c) for c in ciphertexts] == selection

    def test_tcp_sums_match_textbook(self, workload_bytes, keypair):
        from repro.net.server import SpfeServer
        from repro.net.transport import SocketTransport
        from repro.spfe.session import run_resilient

        database, selection = workload_bytes
        with SpfeServer(database, read_timeout=5.0) as server:
            values = [
                run_resilient(
                    client,
                    lambda: SocketTransport.connect(
                        "127.0.0.1", server.port,
                        connect_timeout=5.0, read_timeout=5.0,
                    ),
                )
                for client in self._clients(selection, keypair)
            ]
        assert values == [database.select_sum(selection)] * 2

    def test_resume_never_resamples(self, workload_bytes):
        """After a cut and a RESUME the pool has drawn exactly one
        obfuscator per element: the chunk lost with the connection is
        re-sent from cache as bytes, never re-encrypted."""
        database, selection = workload_bytes
        registry = SessionRegistry()
        client = make_client(selection, chunk_size=9)  # 7 chunks over n=60
        delivered = []

        server1 = ServerSession(database, registry=registry)
        stream = client.initial_bytes()
        for _ in range(2 + 3):  # HELLO, PUBLIC_KEY, 3 chunks
            delivered.append(next(stream))
            server1.receive_bytes(delivered[-1])
        lost = next(stream)  # chunk 3 is built, then the connection dies
        stream.close()

        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        resent = list(client.resume_bytes())
        drive(resent, server2, client)

        assert client.result == database.select_sum(selection)
        assert resent[0] == lost
        assert client.encryptions == len(selection)
        assert client.pool.misses == len(selection)
        assert client.pool.generated == 0 and len(client.pool) == 0
        ciphertexts = _chunk_ciphertexts(delivered + resent, 128)
        assert len(ciphertexts) == len(selection)
        assert len(set(ciphertexts)) == len(ciphertexts)


class TestKeyOwnerFanOut:
    """Each chunk's obfuscators computed as one batch on worker processes."""

    def test_chunk_frames_identical_to_serial(self, workload_bytes, key_owner_fanout):
        database, selection = workload_bytes
        serial = make_client(selection, chunk_size=7)
        serial.pool.expect(len(selection), 1)  # one miss per take, in-process
        fanned = make_client(selection, chunk_size=7)
        serial_frames = list(serial.initial_bytes())
        fanned_frames = list(fanned.initial_bytes())
        assert fanned_frames == serial_frames
        assert serial.pool.worker_cpu_s == 0 and fanned.pool.worker_cpu_s > 0
        drive(fanned_frames, ServerSession(database), fanned)
        assert fanned.result == database.select_sum(selection)
        assert fanned.pool.misses == len(selection) and len(fanned.pool) == 0

    def test_replay_key_never_draws(self, workload_bytes, key_owner_fanout):
        database, selection = workload_bytes
        keypair = generate_keypair(128, "session-replay-key")
        textbook = SchemeKeyPair(_TextbookKey(keypair.public.n), keypair.private)
        client = make_client(selection, chunk_size=7, keypair=textbook)
        assert run_sessions_in_memory(client, ServerSession(database)) == (
            database.select_sum(selection)
        )
        assert client.pool.misses == 0 and client.pool.worker_cpu_s == 0
        assert key_owner_fanout._executor is None  # no worker started

    def test_resume_never_resamples_fanned_out(self, workload_bytes, key_owner_fanout):
        """``test_resume_never_resamples`` on the fanned-out path."""
        database, selection = workload_bytes
        registry = SessionRegistry()
        client = make_client(selection, chunk_size=9)  # 7 chunks over n=60
        delivered = []

        server1 = ServerSession(database, registry=registry)
        stream = client.initial_bytes()
        for _ in range(2 + 3):  # HELLO, PUBLIC_KEY, 3 chunks
            delivered.append(next(stream))
            server1.receive_bytes(delivered[-1])
        lost = next(stream)  # chunk 3 is built, then the connection dies
        stream.close()

        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        resent = list(client.resume_bytes())
        drive(resent, server2, client)

        assert client.result == database.select_sum(selection)
        assert resent[0] == lost
        assert client.encryptions == len(selection)
        assert client.pool.misses == len(selection)
        assert client.pool.generated == 0 and len(client.pool) == 0
        ciphertexts = _chunk_ciphertexts(delivered + resent, 128)
        assert len(ciphertexts) == len(selection)
        assert len(set(ciphertexts)) == len(ciphertexts)
        assert client.pool.worker_cpu_s > 0

    def test_worker_killed_mid_session(self, workload_bytes, key_owner_fanout, monkeypatch):
        """A worker SIGKILLed inside a batch: the parent recomputes that
        batch's units in-process, so the sum is exact and nothing repeats."""
        import os
        import signal

        from repro.crypto.paillier import PaillierPrivateKey

        parent = os.getpid()
        real = PaillierPrivateKey.obfuscator_from_units
        calls = []

        def dies_in_worker(self, x_p, x_q):
            calls.append(1)  # per process: workers fork with their own list
            if os.getpid() != parent and len(calls) == 6:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(self, x_p, x_q)

        # patched before the first batch, so the forked workers inherit it
        monkeypatch.setattr(PaillierPrivateKey, "obfuscator_from_units", dies_in_worker)
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=8)  # 4 units per worker slice
        frames = list(client.initial_bytes())
        drive(frames, ServerSession(database), client)

        assert key_owner_fanout.broken
        assert client.result == database.select_sum(selection)
        assert client.pool.misses == len(selection) == client.encryptions
        ciphertexts = _chunk_ciphertexts(frames, 128)
        assert len(set(ciphertexts)) == len(ciphertexts) == len(selection)
        # everything after the killed batch ran in this process
        assert len(calls) >= len(selection) - 8


class TestValidationAndErrors:
    def test_client_validates_inputs(self):
        with pytest.raises(ProtocolError):
            ClientSession([])
        with pytest.raises(ProtocolError):
            ClientSession([1, -1])
        with pytest.raises(ProtocolError):
            ClientSession([1], chunk_size=0)

    def test_server_rejects_wrong_database_size(self, workload_bytes):
        database, _ = workload_bytes
        client = make_client([1, 0, 1])  # claims n=3; server has 60
        server = ServerSession(database)
        reply = server.receive_bytes(next(client.initial_bytes()))
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        frame = next(decoder.frames())
        assert frame.frame_type == FrameType.ERROR
        with pytest.raises(ProtocolError):
            client.receive_bytes(reply)

    def test_server_rejects_tiny_keys(self):
        database = ServerDatabase([2**32 - 1] * 10)
        client = ClientSession(
            [1] * 10, key_bits=32, rng=DeterministicRandom("tiny")
        )
        server = ServerSession(database)
        reply = server.receive_bytes(next(client.initial_bytes()))
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        assert next(decoder.frames()).frame_type == FrameType.ERROR

    def test_server_rejects_out_of_range_ciphertext(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)
        stream = list(client.initial_bytes())
        server.receive_bytes(stream[0])  # hello
        server.receive_bytes(stream[1])  # public key
        # Forge a chunk with a zero "ciphertext" (not in Z*_{n^2}).
        forged = codec.encode_ciphertext_chunk([0], 128)
        reply = server.receive_bytes(forged)
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        assert next(decoder.frames()).frame_type == FrameType.ERROR

    def test_server_rejects_overdelivery(self):
        database = ServerDatabase([5, 6])
        client = ClientSession([1, 1], key_bits=128,
                               rng=DeterministicRandom("over"))
        server = ServerSession(database)
        stream = list(client.initial_bytes())
        for data in stream:
            server.receive_bytes(data)
        assert server.finished
        extra = codec.encode_ciphertext_chunk([12345], 128)
        reply = server.receive_bytes(extra)
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        assert next(decoder.frames()).frame_type == FrameType.ERROR

    def test_client_rejects_duplicate_result(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)
        result_bytes = b""
        for outgoing in client.initial_bytes():
            reply = server.receive_bytes(outgoing)
            if reply:
                result_bytes = reply
                client.receive_bytes(reply)
        assert client.result is not None
        with pytest.raises(ProtocolError):
            client.receive_bytes(result_bytes)

    def test_client_rejects_unexpected_frame(self, workload_bytes):
        _, selection = workload_bytes
        client = make_client(selection)
        bogus = codec.encode_hello(128, 10, 5, bytes(codec.SESSION_ID_BYTES), 0)
        with pytest.raises(ProtocolError, match="expected RESULT"):
            client.receive_bytes(bogus)

    def test_client_rejects_unsolicited_ack(self, workload_bytes):
        _, selection = workload_bytes
        client = make_client(selection)
        with pytest.raises(ProtocolError):
            client.receive_bytes(codec.encode_ack(3))


def drive(client_stream, server, client):
    """Feed client frames to the server, relaying replies back."""
    for outgoing in client_stream:
        reply = server.receive_bytes(outgoing)
        if reply:
            client.receive_bytes(reply)


class TestResume:
    def test_resume_after_partial_stream(self, workload_bytes):
        """A client cut off after k chunks re-sends exactly the rest —
        no re-encryption, and the sum is still correct."""
        database, selection = workload_bytes
        expected = database.select_sum(selection)
        registry = SessionRegistry()
        client = make_client(selection, chunk_size=9)  # 7 chunks over n=60

        server1 = ServerSession(database, registry=registry)
        stream = client.initial_bytes()
        server1.receive_bytes(next(stream))  # HELLO
        server1.receive_bytes(next(stream))  # PUBLIC_KEY
        for _ in range(3):  # 3 of 7 chunks, then the connection "dies"
            server1.receive_bytes(next(stream))
        stream.close()
        encryptions_at_cut = client.encryptions
        assert encryptions_at_cut == 3 * 9

        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        assert client.resume_ready
        sent_before = client.chunk_frames_sent
        drive(client.resume_bytes(), server2, client)

        assert client.result == expected
        assert client.chunk_frames_sent - sent_before == 7 - 3
        assert server2.chunk_frames_processed == 7 - 3
        assert client.encryptions == len(selection)  # never re-encrypted

    def test_resume_unknown_session_restarts_cleanly(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=9)
        for data in client.initial_bytes():
            pass  # encrypt everything; the "connection" delivered nothing
        server = ServerSession(database, registry=SessionRegistry())
        client.receive_bytes(server.receive_bytes(client.resume_request()))
        assert client.resume_ready
        drive(client.resume_bytes(), server, client)
        assert client.result == database.select_sum(selection)
        # The restart reused the cached ciphertexts: still one encryption
        # per element, even though every chunk crossed the wire twice.
        assert client.encryptions == len(selection)

    def test_resume_after_result_lost_resends_result(self, workload_bytes):
        database, selection = workload_bytes
        registry = SessionRegistry()
        client = make_client(selection)
        server1 = ServerSession(database, registry=registry)
        for outgoing in client.initial_bytes():
            server1.receive_bytes(outgoing)  # final reply (RESULT) is lost
        assert server1.finished and client.result is None

        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        assert client.result == database.select_sum(selection)

    def test_eviction_degrades_to_restart(self, workload_bytes):
        database, selection = workload_bytes
        registry = SessionRegistry(capacity=1)
        client = make_client(selection, chunk_size=9)
        server1 = ServerSession(database, registry=registry)
        stream = client.initial_bytes()
        for _ in range(4):  # hello, pk, 2 chunks
            server1.receive_bytes(next(stream))
        stream.close()
        # Another session pushes ours out of the capacity-1 registry.
        other = make_client([1] * 60, rng=DeterministicRandom("other"))
        run_sessions_in_memory(other, ServerSession(database, registry=registry))
        assert registry.evictions >= 1
        assert client.session_id not in registry

        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        drive(client.resume_bytes(), server2, client)
        assert client.result == database.select_sum(selection)

    def test_duplicate_chunks_are_ignored(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=9)
        server = ServerSession(database, registry=SessionRegistry())
        frames = list(client.initial_bytes())
        server.receive_bytes(frames[0])
        server.receive_bytes(frames[1])
        server.receive_bytes(frames[2])  # chunk 0
        assert server.receive_bytes(frames[2]) == b""  # duplicate: no-op
        assert not server.errored
        for data in frames[3:]:
            reply = server.receive_bytes(data)
            if reply:
                client.receive_bytes(reply)
        assert client.result == database.select_sum(selection)
        assert server.chunk_frames_processed == len(frames) - 2

    def test_chunk_sequence_gap_is_rejected(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection, chunk_size=9)
        server = ServerSession(database)
        frames = list(client.initial_bytes())
        server.receive_bytes(frames[0])
        server.receive_bytes(frames[1])
        reply = server.receive_bytes(frames[3])  # chunk 1 before chunk 0
        assert server.errored
        decoder = codec.FrameDecoder()
        decoder.feed(reply)
        assert next(decoder.frames()).frame_type == FrameType.ERROR

    def test_resume_without_registry_says_unknown(self, workload_bytes):
        database, selection = workload_bytes
        client = make_client(selection)
        server = ServerSession(database)  # no registry at all
        client.receive_bytes(server.receive_bytes(client.resume_request()))
        drive(client.resume_bytes(), server, client)
        assert client.result == database.select_sum(selection)

    def test_registry_lru_and_discard(self):
        registry = SessionRegistry(capacity=2)
        a, b, c = b"a" * 16, b"b" * 16, b"c" * 16
        registry.save(a, "A")
        registry.save(b, "B")
        registry.get(a)  # touch a so b is the LRU
        registry.save(c, "C")
        assert a in registry and c in registry and b not in registry
        registry.discard(a)
        assert len(registry) == 1
        with pytest.raises(Exception):
            SessionRegistry(capacity=0)


class _FakeState:
    """Stand-in resume state with an explicit byte footprint."""

    def __init__(self, resident_bytes):
        self.resident_bytes = resident_bytes


class TestRegistryByteBudget:
    def test_byte_budget_evicts_lru(self):
        registry = SessionRegistry(capacity=100, max_bytes=1000)
        a, b, c = b"a" * 16, b"b" * 16, b"c" * 16
        registry.save(a, _FakeState(400))
        registry.save(b, _FakeState(400))
        assert registry.resident_bytes == 800
        registry.save(c, _FakeState(400))  # 1200 > 1000: evict LRU (a)
        assert a not in registry
        assert b in registry and c in registry
        assert registry.resident_bytes == 800
        assert registry.evictions == 1

    def test_single_oversized_state_is_kept(self):
        # The newest session is never evicted on its own account.
        registry = SessionRegistry(capacity=10, max_bytes=100)
        big = b"x" * 16
        registry.save(big, _FakeState(5000))
        assert big in registry
        assert registry.resident_bytes == 5000

    def test_refresh_does_not_double_count(self):
        registry = SessionRegistry(capacity=10, max_bytes=10_000)
        sid = b"s" * 16
        state = _FakeState(300)
        for _ in range(5):
            registry.save(sid, state)
        assert registry.resident_bytes == 300

    def test_discard_releases_bytes(self):
        registry = SessionRegistry(capacity=10, max_bytes=10_000)
        sid = b"s" * 16
        registry.save(sid, _FakeState(300))
        registry.discard(sid)
        assert registry.resident_bytes == 0

    def test_real_sessions_account_bytes(self, workload_bytes):
        database, selection = workload_bytes
        registry = SessionRegistry(capacity=8, max_bytes=1 << 20)
        run_sessions_in_memory(
            make_client(selection), ServerSession(database, registry=registry)
        )
        from repro.spfe.validation import resume_state_bytes

        assert registry.resident_bytes == resume_state_bytes(128)

    def test_bad_byte_budget_rejected(self):
        with pytest.raises(Exception):
            SessionRegistry(capacity=2, max_bytes=0)


class TestConcurrentRegistry:
    """One registry is shared by every worker of a concurrent server."""

    def test_registry_survives_concurrent_hammering(self):
        """save/get/discard from many threads must neither raise (the
        unlocked OrderedDict KeyError race) nor let the byte accounting
        drift from the resident states."""
        registry = SessionRegistry(capacity=8, max_bytes=2_000)
        sids = [bytes([i]) * 16 for i in range(16)]
        errors = []

        def hammer(worker):
            try:
                for step in range(400):
                    sid = sids[(worker * 7 + step) % len(sids)]
                    op = (worker + step) % 3
                    if op == 0:
                        registry.save(sid, _FakeState(100 + step % 3))
                    elif op == 1:
                        registry.get(sid)
                    else:
                        registry.discard(sid)
            except Exception as exc:  # pragma: no cover — the bug itself
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert registry.resident_bytes == sum(
            state.resident_bytes for state in registry._states.values()
        )

    def test_resume_state_is_copied_not_shared(self, workload_bytes):
        """A client whose read timed out reconnects and resumes while
        its old connection is still folding buffered chunks; the two
        server sessions must never share a mutable state object, or the
        stale one corrupts the live one's aggregate."""
        database, selection = workload_bytes
        registry = SessionRegistry()
        client = make_client(selection, chunk_size=9)

        server1 = ServerSession(database, registry=registry)
        stream = client.initial_bytes()
        server1.receive_bytes(next(stream))  # HELLO
        server1.receive_bytes(next(stream))  # PUBLIC_KEY
        chunk_frames = [next(stream) for _ in range(4)]
        stream.close()
        for data in chunk_frames[:3]:
            server1.receive_bytes(data)

        # Resume on a fresh connection while the old one is still live.
        server2 = ServerSession(database, registry=registry)
        client.receive_bytes(server2.receive_bytes(client.resume_request()))
        assert client.resume_ready

        # Registry entries are frozen snapshots: neither live session
        # holds the stored object (publish-snapshot + copy-on-resume).
        entry = registry.get(client.session_id)
        assert entry is not server1._resume_state
        assert entry is not server2._resume_state
        assert server1._resume_state is not server2._resume_state

        # The stale connection drains its buffered chunk *after* the
        # resume; with shared state this would fold chunk 3 into the
        # aggregate the resumed session is about to fold it into again.
        server1.receive_bytes(chunk_frames[3])

        drive(client.resume_bytes(), server2, client)
        assert client.result == database.select_sum(selection)
        assert server2.chunk_frames_processed == client.total_chunks - 3


class TestServerPolicyEnforcement:
    """ServerSession's policy rejects hostile-but-well-formed input."""

    def _policy(self, **kwargs):
        from repro.spfe.validation import ServerPolicy

        kwargs.setdefault("min_key_bits", 64)
        return ServerPolicy(**kwargs)

    def test_honest_run_unaffected_by_policy(self, workload_bytes):
        database, selection = workload_bytes
        server = ServerSession(database, policy=self._policy())
        value = run_sessions_in_memory(make_client(selection), server)
        assert value == database.select_sum(selection)
        assert not server.errored

    def test_out_of_policy_key_bits_rejected(self, workload_bytes):
        from repro.exceptions import PolicyViolation

        database, selection = workload_bytes
        server = ServerSession(
            database, policy=self._policy(min_key_bits=256)
        )
        client = make_client(selection)  # 128-bit key
        with pytest.raises(PolicyViolation):
            run_sessions_in_memory(client, server)
        assert isinstance(server.last_error, PolicyViolation)

    def test_even_modulus_rejected(self, workload_bytes):
        from repro.exceptions import ValidationError
        from repro.net import codec

        database, _ = workload_bytes
        server = ServerSession(database, policy=self._policy())
        reply = server.receive_bytes(
            codec.encode_hello(128, len(database), 8, b"\1" * 16, 0)
        )
        assert reply == b""
        reply = server.receive_bytes(
            codec.encode_public_key(1 << 126, 128, 0)
        )
        assert server.errored
        assert isinstance(server.last_error, ValidationError)
        code, _message = codec.decode_error(
            next(iter(_decode_frames(reply))).payload
        )
        assert code == codec.ERROR_CODE_VALIDATION

    def test_non_coprime_ciphertext_rejected(self, workload_bytes):
        from repro.exceptions import ValidationError
        from repro.net import codec

        database, selection = workload_bytes
        client = make_client(selection, chunk_size=1)
        server = ServerSession(database, policy=self._policy())
        stream = client.initial_bytes()
        server.receive_bytes(next(stream))  # HELLO
        server.receive_bytes(next(stream))  # PUBLIC_KEY
        # c = n is in range but shares every factor with the modulus.
        poisoned = codec.encode_ciphertext_chunk(
            [client.public_key.n], 128, 0
        )
        server.receive_bytes(poisoned)
        assert server.errored
        assert isinstance(server.last_error, ValidationError)

    def test_session_byte_quota_enforced(self, workload_bytes):
        from repro.exceptions import PolicyViolation

        database, selection = workload_bytes
        server = ServerSession(
            database,
            policy=self._policy(
                max_session_bytes=64, max_frame_payload=64
            ),
        )
        client = make_client(selection)
        with pytest.raises(PolicyViolation):
            run_sessions_in_memory(client, server)

        # The quota is per connection: a RESUME on a new connection
        # starts from zero, so a session too big for one connection's
        # quota completes when split over two.
        policy = self._policy(max_session_bytes=1200, max_frame_payload=600)
        client = make_client(selection, chunk_size=15)
        frames = list(client.initial_bytes())  # HELLO, key, 4 x 500 B
        assert sum(map(len, frames)) > policy.max_session_bytes
        with pytest.raises(PolicyViolation):
            drive(frames, ServerSession(database, policy=policy), client)
        registry = SessionRegistry.from_policy(policy)
        first = ServerSession(database, registry=registry, policy=policy)
        drive(frames[:4], first, client)
        assert not first.errored
        second = ServerSession(database, registry=registry, policy=policy)
        client.receive_bytes(second.receive_bytes(client.resume_request()))
        drive(client.resume_bytes(), second, client)
        assert not second.errored
        assert first.bytes_received + second.bytes_received > (
            policy.max_session_bytes
        )
        assert client.result == database.select_sum(selection)

    def test_errored_session_loses_resume_state(self, workload_bytes):
        """A rejected peer must restart, never resume poisoned state."""
        from repro.net import codec

        database, selection = workload_bytes
        registry = SessionRegistry()
        client = make_client(selection, chunk_size=1)
        server = ServerSession(
            database, registry=registry, policy=self._policy()
        )
        stream = client.initial_bytes()
        server.receive_bytes(next(stream))
        server.receive_bytes(next(stream))
        assert client.session_id in registry
        server.receive_bytes(
            codec.encode_ciphertext_chunk([client.public_key.n], 128, 0)
        )
        assert server.errored
        assert client.session_id not in registry

    def test_headerless_chunk_spliced_into_session_is_rejected(self):
        """A chunk framed without magic, CRC or sequence number, spliced
        after a valid HELLO and key, must be refused, not folded: folding
        it as chunk 0 would make the honest chunk 0 a "duplicate" and the
        client would decrypt 3007 for a true sum of 10."""
        database = ServerDatabase([1, 2, 3, 4])
        client = make_client([1, 1, 1, 1], chunk_size=2)
        server = ServerSession(database, policy=self._policy())
        frames = list(client.initial_bytes())
        assert server.receive_bytes(frames[0]) == b""  # HELLO
        assert server.receive_bytes(frames[1]) == b""  # PUBLIC_KEY
        forged = codec.encode_ciphertext_chunk(
            [client.public_key.encrypt_raw(1000) for _ in range(2)], 128, 0
        )[16:]
        reply = server.receive_bytes(
            struct.pack(">II", FrameType.ENC_CHUNK, len(forged)) + forged
        )
        (frame,) = _decode_frames(reply)
        assert frame.frame_type == FrameType.ERROR
        assert server.errored
        assert server.chunk_frames_processed == 0
        assert client.session_id not in server.registry

    def test_bare_session_rejects_non_coprime_ciphertext(self, workload_bytes):
        """Without an explicit policy the session still runs the full
        Z*_{n^2} membership check, gcd included."""
        from repro.exceptions import ValidationError

        database, selection = workload_bytes
        client = make_client(selection, chunk_size=1)
        server = ServerSession(database)
        stream = client.initial_bytes()
        server.receive_bytes(next(stream))  # HELLO
        server.receive_bytes(next(stream))  # PUBLIC_KEY
        reply = server.receive_bytes(
            codec.encode_ciphertext_chunk([client.public_key.n], 128, 0)
        )
        assert server.errored
        assert isinstance(server.last_error, ValidationError)
        (frame,) = _decode_frames(reply)
        code, _message = codec.decode_error(frame.payload)
        assert code == codec.ERROR_CODE_VALIDATION
        assert server.chunk_frames_processed == 0

    def test_typed_error_surfaces_client_side(self, workload_bytes):
        from repro.exceptions import PolicyViolation

        database, selection = workload_bytes
        server = ServerSession(
            database, policy=self._policy(min_key_bits=256)
        )
        client = make_client(selection)
        with pytest.raises(PolicyViolation):
            run_sessions_in_memory(client, server)


class TestClientBusyHandling:
    def test_busy_frame_raises_server_busy(self, workload_bytes):
        from repro.exceptions import ServerBusy
        from repro.net import codec

        _, selection = workload_bytes
        client = make_client(selection)
        with pytest.raises(ServerBusy):
            client.receive_bytes(codec.encode_busy(100))

    def test_server_busy_is_a_transport_error(self):
        from repro.exceptions import ServerBusy, TransportError

        assert issubclass(ServerBusy, TransportError)


def _decode_frames(data):
    from repro.net.codec import FrameDecoder

    decoder = FrameDecoder()
    decoder.feed(data)
    return list(decoder.frames())
