"""Tests for the multi-process crypto engine and the scheme fold.

The engine only encrypts.  Its contract has two halves: *correctness*
(ciphertexts decrypt to the right plaintexts) and *determinism* (a
seeded run is byte-identical whether chunks execute in-process or on N
workers, because chunking and per-chunk seed derivation never depend on
the worker count).  Pool failures must degrade to serial execution,
never to wrong answers.  The server aggregate belongs to the scheme:
``PaillierScheme.weighted_product`` folds with ``multi_exponent`` or,
under ``use_multiexp=False``, the naive loop, engine or not.
"""

import pytest

from repro.crypto.engine import DEFAULT_CHUNK_SIZE, CryptoEngine
from repro.crypto.multiexp import multi_exponent
from repro.crypto.paillier import PaillierScheme, generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.crypto.simulated import SimulatedPaillier
from repro.exceptions import ParameterError

KEY_BITS = 128


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(KEY_BITS, "engine-tests")


def naive_fold(public, cts, weights, initial=None):
    acc = 1 if initial is None else initial % public.nsquare
    for ct, w in zip(cts, weights):
        acc = acc * pow(ct, w % public.n, public.nsquare) % public.nsquare
    return acc


class TestEncryptVector:
    def test_serial_matches_scheme_encryption(self, keypair):
        public, private = keypair.public, keypair.private
        plaintexts = list(range(40))
        with CryptoEngine(workers=1, chunk_size=16) as engine:
            cts = engine.encrypt_vector(public, plaintexts, "enc-seed")
        assert [private.raw_decrypt(ct) for ct in cts] == plaintexts

    def test_parallel_matches_serial_byte_for_byte(self, keypair):
        # The fixed rule: workers > 1 and more than one chunk means the
        # pool, and the bytes never depend on it.
        public = keypair.public
        plaintexts = list(range(50))
        with CryptoEngine(workers=1, chunk_size=8) as serial:
            expected = serial.encrypt_vector(public, plaintexts, "determinism")
        for workers in (2, 3):
            with CryptoEngine(workers=workers, chunk_size=8) as parallel:
                got = parallel.encrypt_vector(public, plaintexts, "determinism")
                assert parallel.parallel_batches == 1
                assert parallel.serial_batches == 0
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
    """The scheme's fold equals the naive loop, whatever the engine."""

    def test_matches_naive_fold(self, keypair):
        public = keypair.public
        rng = DeterministicRandom("wp")
        cts = [public.encrypt_raw(i, rng) for i in range(30)]
        weights = [rng.randrange(0, 1 << 32) for _ in cts]
        got = PaillierScheme().weighted_product(public, cts, weights)
        assert got == naive_fold(public, cts, weights)

    def test_initial_and_worker_count_invariance(self, keypair):
        public = keypair.public
        rng = DeterministicRandom("wp-init")
        cts = [public.encrypt_raw(i + 1, rng) for i in range(25)]
        weights = list(range(25))
        initial = public.encrypt_raw(99, rng)
        expected = naive_fold(public, cts, weights, initial)
        for workers in (1, 2, 3):
            with CryptoEngine(workers=workers, chunk_size=6) as engine:
                scheme = PaillierScheme(engine=engine)
                assert (
                    scheme.weighted_product(public, cts, weights, initial)
                    == expected
                )
                # the fold never touches the engine: no batch counted,
                # no worker ever spawned
                assert engine.parallel_batches == 0
                assert engine.serial_batches == 0
                assert engine._pool._executor is None

    def test_no_multiexp_path_matches(self, keypair):
        public = keypair.public
        rng = DeterministicRandom("wp-naive")
        cts = [public.encrypt_raw(i, rng) for i in range(12)]
        weights = [0, 1, 2, 3] * 3
        got = PaillierScheme(use_multiexp=False).weighted_product(
            public, cts, weights
        )
        assert got == naive_fold(public, cts, weights)

    def test_empty_batch_returns_initial(self, keypair):
        public = keypair.public
        for use_multiexp in (True, False):
            scheme = PaillierScheme(use_multiexp=use_multiexp)
            assert scheme.weighted_product(public, [], []) == 1
            assert scheme.weighted_product(public, [], [], 7) == 7
        assert multi_exponent([], [], public.nsquare, initial=7) == 7

    def test_rejects_length_mismatch(self, keypair):
        public = keypair.public
        for use_multiexp in (True, False):
            with pytest.raises(ValueError):
                PaillierScheme(use_multiexp=use_multiexp).weighted_product(
                    public, [1], []
                )
        with pytest.raises(ParameterError):
            multi_exponent([1], [], public.nsquare)


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
            # encryption went through the engine, the fold did not
            assert engine.serial_batches == 1

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

    def test_engine_never_overrides_the_scheme_fold_flag(
        self, keypair, monkeypatch
    ):
        # Regression: a scheme given an engine used to fold through the
        # engine with the engine's own use_multiexp (default True), so
        # the scheme's use_multiexp=False was silently ignored.
        import sys

        from repro.crypto import multiexp

        original = multiexp.multi_exponent
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and getattr(module, "multi_exponent", None) is original
            ):
                monkeypatch.setattr(module, "multi_exponent", spy)
        public = keypair.public
        rng = DeterministicRandom("scheme-flag")
        cts = [public.encrypt_raw(i, rng) for i in range(10)]
        weights = [7 * i for i in range(10)]
        initial = public.encrypt_raw(5, rng)
        with CryptoEngine(workers=2) as engine:
            scheme = PaillierScheme(engine=engine, use_multiexp=False)
            got = scheme.weighted_product(public, cts, weights, initial)
        assert calls == []
        assert got == naive_fold(public, cts, weights, initial)
        # the spy is live: the default scheme does reach it
        PaillierScheme().weighted_product(public, cts, weights)
        assert len(calls) == 1


class TestThreadSafety:
    """Regression tests for the engine's internal lock.

    One engine instance may be shared by several encrypting threads, so
    its counters, fixed-base cache, and pool handle are all cross-thread
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
            _encrypt_key_blob(keypair.public.n, h, keypair.public.bits)
            for h in (2, 3, 5)
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
