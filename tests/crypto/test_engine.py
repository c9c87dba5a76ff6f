"""Tests for the multi-process crypto engine.

The engine's contract has two halves: *correctness* (results equal the
serial kernels, ciphertexts decrypt to the right plaintexts) and
*determinism* (a seeded run is byte-identical whether chunks execute
in-process or on N workers, because chunking and per-chunk seed
derivation never depend on the worker count).  Pool failures must
degrade to serial execution, never to wrong answers.
"""

import pytest

from repro.crypto.engine import DEFAULT_CHUNK_SIZE, CryptoEngine
from repro.crypto.paillier import PaillierScheme, generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.crypto.simulated import SimulatedPaillier
from repro.exceptions import ParameterError

KEY_BITS = 128


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(KEY_BITS, "engine-tests")


class TestEncryptVector:
    def test_serial_matches_scheme_encryption(self, keypair):
        public, private = keypair.public, keypair.private
        plaintexts = list(range(40))
        with CryptoEngine(workers=1, chunk_size=16) as engine:
            cts = engine.encrypt_vector(public, plaintexts, "enc-seed")
        assert [private.raw_decrypt(ct) for ct in cts] == plaintexts

    def test_parallel_matches_serial_byte_for_byte(self, keypair):
        public = keypair.public
        plaintexts = list(range(50))
        with CryptoEngine(workers=1, chunk_size=8) as serial:
            expected = serial.encrypt_vector(public, plaintexts, "determinism")
        with CryptoEngine(workers=3, chunk_size=8) as parallel:
            got = parallel.encrypt_vector(public, plaintexts, "determinism")
        assert got == expected

    def test_fixed_base_ciphertexts_decrypt(self, keypair):
        public, private = keypair.public, keypair.private
        plaintexts = [0, 1, 17, 255, public.n - 1]
        with CryptoEngine(workers=1, fixed_base=True, chunk_size=4) as engine:
            cts = engine.encrypt_vector(public, plaintexts, "fixed-base")
        assert [private.raw_decrypt(ct) for ct in cts] == plaintexts

    def test_fixed_base_seeded_runs_are_deterministic(self, keypair):
        public = keypair.public
        runs = []
        for _ in range(2):
            with CryptoEngine(workers=1, fixed_base=True, chunk_size=8) as engine:
                runs.append(engine.encrypt_vector(public, list(range(20)), "fb"))
        assert runs[0] == runs[1]

    def test_empty_vector(self, keypair):
        with CryptoEngine() as engine:
            assert engine.encrypt_vector(keypair.public, [], "x") == ()

    def test_rejects_non_paillier_key(self):
        simulated = SimulatedPaillier()
        pair = simulated.generate(128, "sim")
        with CryptoEngine() as engine:
            assert not engine.supports_key(pair.public)
            with pytest.raises(ParameterError):
                engine.encrypt_vector(pair.public, [1, 2], "x")


class TestWeightedProduct:
    def _naive(self, public, cts, weights, initial=None):
        acc = 1 if initial is None else initial % public.nsquare
        for ct, w in zip(cts, weights):
            acc = acc * pow(ct, w % public.n, public.nsquare) % public.nsquare
        return acc

    def test_matches_naive_fold(self, keypair):
        public = keypair.public
        rng = DeterministicRandom("wp")
        cts = [public.encrypt_raw(i, rng) for i in range(30)]
        weights = [rng.randrange(0, 1 << 32) for _ in cts]
        with CryptoEngine(workers=1, chunk_size=7) as engine:
            got = engine.weighted_product(
                public.nsquare, public.n, cts, weights
            )
        assert got == self._naive(public, cts, weights)

    def test_initial_and_worker_count_invariance(self, keypair):
        public = keypair.public
        rng = DeterministicRandom("wp-init")
        cts = [public.encrypt_raw(i + 1, rng) for i in range(25)]
        weights = list(range(25))
        initial = public.encrypt_raw(99, rng)
        expected = self._naive(public, cts, weights, initial)
        for workers in (1, 3):
            with CryptoEngine(workers=workers, chunk_size=6) as engine:
                assert (
                    engine.weighted_product(
                        public.nsquare, public.n, cts, weights, initial
                    )
                    == expected
                )

    def test_no_multiexp_path_matches(self, keypair):
        public = keypair.public
        rng = DeterministicRandom("wp-naive")
        cts = [public.encrypt_raw(i, rng) for i in range(12)]
        weights = [0, 1, 2, 3] * 3
        with CryptoEngine(workers=1, use_multiexp=False) as engine:
            got = engine.weighted_product(public.nsquare, public.n, cts, weights)
        assert got == self._naive(public, cts, weights)

    def test_empty_batch_returns_initial(self, keypair):
        public = keypair.public
        with CryptoEngine() as engine:
            assert engine.weighted_product(public.nsquare, public.n, [], []) == 1
            assert (
                engine.weighted_product(public.nsquare, public.n, [], [], 7) == 7
            )

    def test_rejects_length_mismatch(self, keypair):
        public = keypair.public
        with CryptoEngine() as engine:
            with pytest.raises(ParameterError):
                engine.weighted_product(public.nsquare, public.n, [1], [])


class TestLifecycleAndFallback:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            CryptoEngine(workers=-1)
        with pytest.raises(ParameterError):
            CryptoEngine(chunk_size=0)

    def test_close_is_idempotent_and_context_manager(self):
        engine = CryptoEngine(workers=2)
        with engine:
            pass
        assert engine.closed
        engine.close()

    def test_closed_engine_still_computes_serially(self, keypair):
        public, private = keypair.public, keypair.private
        engine = CryptoEngine(workers=2, chunk_size=4)
        engine.close()
        cts = engine.encrypt_vector(public, [3, 4, 5], "after-close")
        assert [private.raw_decrypt(ct) for ct in cts] == [3, 4, 5]
        assert engine.parallel_batches == 0

    def test_pool_start_failure_degrades_to_serial(self, keypair, monkeypatch):
        import concurrent.futures

        def boom(*args, **kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", boom
        )
        public, private = keypair.public, keypair.private
        with CryptoEngine(workers=4, chunk_size=2) as engine:
            cts = engine.encrypt_vector(public, [7, 8, 9, 10], "fallback")
            assert engine.pool_broken
            assert engine.parallel_batches == 0
            assert engine.serial_batches >= 1
        assert [private.raw_decrypt(ct) for ct in cts] == [7, 8, 9, 10]

    def test_single_chunk_skips_the_pool(self, keypair):
        public = keypair.public
        with CryptoEngine(workers=4, chunk_size=DEFAULT_CHUNK_SIZE) as engine:
            engine.encrypt_vector(public, [1, 2, 3], "one-chunk")
            assert engine.parallel_batches == 0
            assert engine.serial_batches == 1


class TestSchemeIntegration:
    def test_paillier_scheme_routes_through_engine(self, keypair):
        public, private = keypair.public, keypair.private
        with CryptoEngine(workers=1, chunk_size=8) as engine:
            scheme = PaillierScheme(engine=engine)
            cts = scheme.encrypt_vector(public, [5, 6, 7], "scheme")
            assert [private.raw_decrypt(ct) for ct in cts] == [5, 6, 7]
            weights = [2, 3, 4]
            got = scheme.weighted_product(public, cts, weights)
            assert private.raw_decrypt(got) == 5 * 2 + 6 * 3 + 7 * 4

    def test_no_multiexp_scheme_matches_base_fold(self, keypair):
        public, private = keypair.public, keypair.private
        rng = DeterministicRandom("scheme-naive")
        cts = [public.encrypt_raw(i, rng) for i in range(8)]
        weights = [1, 0, 2, 5, 0, 1, 3, 4]
        fast = PaillierScheme().weighted_product(public, cts, weights)
        slow = PaillierScheme(use_multiexp=False).weighted_product(
            public, cts, weights
        )
        assert fast == slow
        assert private.raw_decrypt(fast) == sum(
            i * w for i, w in enumerate(weights)
        )


class TestThreadSafety:
    """Regression tests for the engine's internal lock.

    One engine instance is shared by every server worker thread, so its
    counters, fixed-base cache, and pool handle are all cross-thread
    state.  These tests hammer that state from several threads and check
    that no update is lost and no result is corrupted; before the lock
    was added they failed intermittently with dropped counter increments.
    """

    def _hammer(self, engine, public, threads, calls_per_thread):
        import threading

        errors = []
        results = {}

        def work(tid):
            try:
                for i in range(calls_per_thread):
                    plaintexts = [tid * 100 + i, tid, i]
                    cts = engine.encrypt_vector(
                        public, plaintexts, "thread-%d-%d" % (tid, i)
                    )
                    results[(tid, i)] = (plaintexts, cts)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [
            threading.Thread(target=work, args=(tid,))
            for tid in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        return errors, results

    def test_shared_engine_counters_lose_no_updates(self, keypair):
        public, private = keypair.public, keypair.private
        threads, calls = 8, 25
        with CryptoEngine(workers=1, chunk_size=2, fixed_base=True) as engine:
            errors, results = self._hammer(engine, public, threads, calls)
            assert not errors
            # every call runs serially (workers=1) and bumps the counter
            # exactly once; a lost update here means the lock regressed
            assert engine.serial_batches == threads * calls
            assert engine.parallel_batches == 0
        assert len(results) == threads * calls
        for plaintexts, cts in results.values():
            assert [private.raw_decrypt(ct) for ct in cts] == plaintexts

    def test_concurrent_first_use_creates_one_pool(self, keypair):
        public, private = keypair.public, keypair.private
        threads, calls = 4, 2
        with CryptoEngine(workers=2, chunk_size=2) as engine:
            errors, results = self._hammer(engine, public, threads, calls)
            assert not errors
            assert (
                engine.parallel_batches + engine.serial_batches
                == threads * calls
            )
        for plaintexts, cts in results.values():
            assert [private.raw_decrypt(ct) for ct in cts] == plaintexts

    def test_concurrent_fixed_base_cache_is_consistent(self, keypair):
        import threading

        public = keypair.public
        with CryptoEngine(workers=1, fixed_base=True) as engine:
            seen = []

            def fetch():
                source = DeterministicRandom("fixed-base-race")
                seen.append(engine._fixed_base_generator(public, source))

            pool = [threading.Thread(target=fetch) for _ in range(8)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            assert len(seen) == 8
            assert all(entry == seen[0] for entry in seen)
            assert len(engine._fixed_base_h) == 1


class TestAdaptiveChunkSize:
    def test_reference_key_size_keeps_default(self):
        from repro.crypto.engine import chunk_size_for

        assert chunk_size_for(512) == DEFAULT_CHUNK_SIZE

    def test_scales_inversely_with_key_size_and_clamps(self):
        from repro.crypto.engine import chunk_size_for

        assert chunk_size_for(1024) == DEFAULT_CHUNK_SIZE // 4
        assert chunk_size_for(256) == DEFAULT_CHUNK_SIZE * 4
        assert chunk_size_for(16) == 4096  # upper clamp
        assert chunk_size_for(1 << 20) == 16  # lower clamp
        with pytest.raises(ParameterError):
            chunk_size_for(0)

    def test_spans_cover_the_vector_exactly(self, keypair):
        # The adaptive schedule must partition any length without gaps
        # or overlap — every plaintext encrypted exactly once.
        from repro.crypto.engine import chunk_size_for

        public, private = keypair.public, keypair.private
        size = chunk_size_for(public.bits) + 3  # forces a ragged tail
        plaintexts = [m % public.n for m in range(size)]
        with CryptoEngine(workers=1) as engine:
            cts = engine.encrypt_vector(public, plaintexts, "adaptive-cover")
        assert len(cts) == size
        assert [private.raw_decrypt(ct) for ct in cts] == plaintexts

    def test_adaptive_schedule_is_deterministic(self, keypair):
        public = keypair.public
        plaintexts = list(range(30))
        with CryptoEngine(workers=1) as a, CryptoEngine(workers=2) as b:
            assert a.encrypt_vector(
                public, plaintexts, "adaptive-det"
            ) == b.encrypt_vector(public, plaintexts, "adaptive-det")


class TestCrtPrivateKeyPath:
    def test_crt_engine_is_byte_identical(self, keypair):
        public, private = keypair.public, keypair.private
        plaintexts = list(range(24))
        with CryptoEngine(workers=1, chunk_size=8) as baseline:
            expected = baseline.encrypt_vector(public, plaintexts, "crt-path")
        with CryptoEngine(
            workers=1, chunk_size=8, private_key=private
        ) as crt_engine:
            assert (
                crt_engine.encrypt_vector(public, plaintexts, "crt-path")
                == expected
            )

    def test_mismatched_private_key_falls_back(self, keypair):
        other = generate_keypair(KEY_BITS, "engine-other-key")
        public, private = keypair.public, keypair.private
        with CryptoEngine(workers=1, private_key=other.private) as engine:
            cts = engine.encrypt_vector(public, [1, 2, 3], "crt-mismatch")
        assert [private.raw_decrypt(ct) for ct in cts] == [1, 2, 3]

    def test_fixed_base_disables_crt_but_stays_correct(self, keypair):
        public, private = keypair.public, keypair.private
        with CryptoEngine(
            workers=1, fixed_base=True, private_key=private
        ) as engine:
            cts = engine.encrypt_vector(public, [4, 5], "crt-fixed-base")
        assert [private.raw_decrypt(ct) for ct in cts] == [4, 5]


class TestEngineRerandomizeVector:
    def test_preserves_plaintexts_and_changes_bytes(self, keypair):
        public, private = keypair.public, keypair.private
        cts = [public.encrypt_raw(m, "err-%d" % m) for m in (1, 2, 3)]
        with CryptoEngine(workers=1) as engine:
            fresh = engine.rerandomize_vector(public, cts, "err-seed")
        assert all(a != b for a, b in zip(fresh, cts))
        assert [private.raw_decrypt(c) for c in fresh] == [1, 2, 3]

    def test_pooled_obfuscators_are_used(self, keypair):
        from repro.crypto.paillier import RandomnessPool

        public, private = keypair.public, keypair.private
        pool = RandomnessPool(public, "engine-rrv-pool")
        pool.precompute(3)
        cts = [public.encrypt_raw(m, "errp-%d" % m) for m in (6, 7, 8)]
        with CryptoEngine(workers=1) as engine:
            fresh = engine.rerandomize_vector(public, cts, pool=pool)
        assert [private.raw_decrypt(c) for c in fresh] == [6, 7, 8]
        assert len(pool) == 0

    def test_crt_private_key_matches_public_path(self, keypair):
        public, private = keypair.public, keypair.private
        cts = [public.encrypt_raw(m, "errc-%d" % m) for m in (9, 10)]
        with CryptoEngine(workers=1) as public_engine:
            expected = public_engine.rerandomize_vector(public, cts, "errc")
        with CryptoEngine(workers=1, private_key=private) as crt_engine:
            assert crt_engine.rerandomize_vector(public, cts, "errc") == expected

    def test_rejects_non_paillier_key(self):
        with CryptoEngine(workers=1) as engine:
            with pytest.raises(ParameterError):
                engine.rerandomize_vector(object(), [1])

    def test_empty_vector(self, keypair):
        with CryptoEngine(workers=1) as engine:
            assert engine.rerandomize_vector(keypair.public, []) == ()


class TestPackedTaskCodec:
    def test_frames_roundtrip(self):
        from repro.crypto.engine import _pack_frames, _unpack_frames

        frames = [b"", b"x", b"frame-two", b"\x00" * 300]
        assert _unpack_frames(_pack_frames(*frames)) == frames

    def test_truncated_frames_rejected(self):
        from repro.crypto.engine import _pack_frames, _unpack_frames

        blob = _pack_frames(b"abc", b"def")
        with pytest.raises(ParameterError):
            _unpack_frames(blob[:-1])
        with pytest.raises(ParameterError):
            _unpack_frames(blob + b"\x00\x01")

    def test_unknown_key_blob_kind_rejected(self):
        from repro.crypto.engine import _context_from_blob

        with pytest.raises(ParameterError):
            _context_from_blob(b"\x7fgarbage")

    def test_key_context_cache_is_bounded_lru(self, keypair):
        from repro.crypto.engine import KeyContextCache, _encrypt_key_blob

        cache = KeyContextCache(capacity=2)
        blobs = [
            _encrypt_key_blob(keypair.public.n, None, keypair.public.bits, w)
            for w in (2, 3, 4)
        ]
        for blob in blobs:
            cache.get(blob)
        assert len(cache) == 2
        # oldest entry evicted; re-fetching rebuilds it
        assert cache.get(blobs[0]).public.n == keypair.public.n

    def test_cache_rejects_nonpositive_capacity(self):
        from repro.crypto.engine import KeyContextCache

        with pytest.raises(ParameterError):
            KeyContextCache(capacity=0)


def _sampled_session():
    """One in-memory selected-sum session over n = 40; (client, sum)."""
    from repro.datastore.database import ServerDatabase
    from repro.spfe.session import ClientSession, ServerSession, run_sessions_in_memory

    client = ClientSession([1, 0] * 20, key_bits=128, chunk_size=8)
    total = run_sessions_in_memory(client, ServerSession(ServerDatabase(list(range(40)))))
    assert total == sum(range(0, 40, 2))
    return client


class TestKeyOwnerPoolLifecycle:
    """The process-wide key-owner sampling pool across exit and fork."""

    def test_interpreter_exit_is_clean(self):
        """A pool left to module teardown can print ``Exception ignored
        in ... weakref_cb`` at exit; the pool is closed at exit instead."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.crypto import engine\n"
            "from repro.datastore.database import ServerDatabase\n"
            "from repro.spfe.session import (\n"
            "    ClientSession, ServerSession, run_sessions_in_memory)\n"
            "engine._KEY_OWNER_FANOUT_MIN_WORK = 0\n"
            "engine._KEY_OWNER_POOL = engine.WarmWorkerPool(2)\n"
            "client = ClientSession([1, 0] * 20, key_bits=128, chunk_size=8)\n"
            "database = ServerDatabase(list(range(40)))\n"
            "print(run_sessions_in_memory(client, ServerSession(database)),\n"
            "      client.pool.worker_cpu_s > 0)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "%d True\n" % sum(range(0, 40, 2))
        assert proc.stderr == ""

    def test_forked_child_does_not_reuse_parent_pool(self, key_owner_fanout):
        """Regression: a child forked after the pool started inherited its
        executor handle, whose queues lead to the parent's workers."""
        import os
        import signal
        import time

        from repro.crypto import engine

        _sampled_session()  # starts the parent's pool
        inherited = key_owner_fanout._executor
        assert inherited is not None

        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                signal.alarm(30)  # a reused executor hangs the child
                os.close(read_fd)
                client = _sampled_session()
                fresh = engine._KEY_OWNER_POOL
                verdict = (
                    client.pool.misses == 40
                    and fresh is not key_owner_fanout
                    and fresh._executor is not inherited
                )
                fresh.close()
                os.write(write_fd, b"ok" if verdict else b"bad")
            finally:
                os._exit(0)
        os.close(write_fd)
        deadline = time.monotonic() + 60
        status = None
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        with os.fdopen(read_fd, "rb") as reader:
            verdict = reader.read()
        assert verdict == b"ok", "child exit status %r" % status
