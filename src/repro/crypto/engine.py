"""Multi-core execution engine for vector encryption (v2: warm workers).

CPython's big-int ``pow`` holds the GIL, so threads cannot speed up
client vector encryption — real parallelism needs processes.
:class:`CryptoEngine` only encrypts: ``encrypt_vector`` partitions the
vector into chunks, and when the engine has ``workers > 1`` and there
is more than one chunk, each chunk is encrypted by a persistent
:class:`WarmWorkerPool` worker running the same deterministic kernel as
the serial path.  The server aggregate is not the engine's job: the
schemes and :class:`~repro.spfe.session.ServerSession` fold in-process
with :func:`~repro.crypto.multiexp.multi_exponent` (see
``docs/performance.md`` § Engine routing).

**What changed from v1.**  The first engine lost to single-core
multiexp because every dispatched chunk paid twice: pickling a list of
big Python ints per batch, and rebuilding the per-key fixed-base table
inside every chunk.  v2 removes both costs:

* Workers are spawned once per engine and *primed* — the
  ``ProcessPoolExecutor`` initializer builds the per-key context
  (public key, fixed-base table) before any work arrives, and a
  per-process :class:`KeyContextCache` keeps it warm across every
  subsequent chunk.  The in-process path shares the same cache, so
  serial callers stop rebuilding tables per chunk too.
* Work ships as one packed big-endian byte buffer per chunk
  (:func:`~repro.crypto.serialization.pack_int_vector`): pickling a
  ``bytes`` object is a near-memcpy, where a list of 1024-bit ints
  costs a per-element encode on every dispatch.

**Determinism.**  Chunking depends only on the input length and the
chunk size — never on the worker count — and every chunk derives an
independent HMAC-DRBG seed from the caller's randomness source
*before* any work is dispatched.  A seeded run therefore produces
identical ciphertexts whether it executes serially, on 2 workers, or
on 32, which the engine tests assert byte for byte.

**Fallback.**  ``workers <= 1``, a pool that cannot start (restricted
containers), or a pool that breaks mid-run all degrade to running the
identical chunk kernels in-process — same results, one core.  The pool
is created lazily on first parallel call and torn down by
:meth:`close` (a context manager exit works too).

**Key-owner sampling.**  :func:`key_owner_obfuscators` is the
deployed client's fan-out: a process-wide :class:`WarmWorkerPool`
(one worker per CPU, spawned on the first batch large enough to be
worth it) turns the ``(x_p, x_q)`` units the client's
:class:`~repro.crypto.paillier.RandomnessPool` drew into key-owner
obfuscators, one contiguous slice per worker.  The units are drawn in
the parent, so the output is the serial sequence byte for byte; every
fallback (one CPU, a small batch, a pool that would not start or broke
mid-batch) computes the same units in-process.  The factors reach only
the client's own forked workers.

**Thread safety.**  One engine may be shared by several threads that
encrypt at once.  Pool lifecycle state lives in :class:`WarmWorkerPool`
behind its own lock; the engine's batch counters and fixed-base
generator cache are mutated only under the engine lock.  ``seclint``
(rule SEC004) enforces both mechanically.
"""

from __future__ import annotations

import atexit
import math
import os
import struct
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.multiexp import FixedBaseTable
from repro.crypto.rng import RandomSource, as_random_source
from repro.crypto.serialization import pack_int_vector, unpack_int_vector
from repro.exceptions import ParameterError
from repro.obs.registry import Counter, Histogram, MetricsRegistry

__all__ = [
    "CryptoEngine",
    "WarmWorkerPool",
    "KeyContextCache",
    "DEFAULT_CHUNK_SIZE",
    "chunk_size_for",
    "key_owner_obfuscators",
]

#: Elements per dispatched chunk at the 512-bit reference key size.
#: Large enough that a chunk costs hundreds of milliseconds (amortising
#: process round-trips), small enough to load-balance a pool.
DEFAULT_CHUNK_SIZE = 512

#: Reference key size DEFAULT_CHUNK_SIZE is tuned for.
_REFERENCE_KEY_BITS = 512

#: Adaptive chunk-size clamp range.
_MIN_CHUNK_SIZE = 16
_MAX_CHUNK_SIZE = 4096

#: Seed width for per-chunk DRBGs (HMAC-SHA256 state size).
_CHUNK_SEED_BYTES = 32


def chunk_size_for(key_bits: int) -> int:
    """Adaptive chunk size: bigger keys get smaller chunks.

    Per-element cost grows roughly cubically with the key size (quadratic
    big-int multiplication times a linearly longer exponent), so keeping
    the *wall-clock* per chunk roughly constant means scaling the element
    count by ``(reference / key_bits)^2`` — one factor of ``key_bits``
    is deliberately left ungained so very small keys do not balloon into
    chunks whose payload dwarfs the worker round-trip.  Clamped to
    ``[16, 4096]``.  The schedule depends only on ``key_bits``, never on
    worker count, so determinism is unaffected.
    """
    if key_bits < 1:
        raise ParameterError("key_bits must be positive")
    scaled = DEFAULT_CHUNK_SIZE * _REFERENCE_KEY_BITS**2 // max(key_bits, 1) ** 2
    return max(_MIN_CHUNK_SIZE, min(_MAX_CHUNK_SIZE, scaled))


# -- packed task codec --------------------------------------------------------
#
# A chunk task is a handful of length-prefixed byte frames: the key blob
# (shared by every chunk of a batch — workers cache the derived context
# under it), then per-chunk payloads.  Everything inside the frames is
# the big-endian packed-vector codec from repro.crypto.serialization.

_FRAME_LEN = struct.Struct(">I")

#: Key-blob kind tags (first byte of a key blob / task).
_KIND_ENCRYPT = b"\x01"
_KIND_KEY_OWNER = b"\x03"


def _pack_frames(*frames: bytes) -> bytes:
    parts: List[bytes] = []
    for frame in frames:
        parts.append(_FRAME_LEN.pack(len(frame)))
        parts.append(frame)
    return b"".join(parts)


def _unpack_frames(blob: bytes) -> List[bytes]:
    frames: List[bytes] = []
    offset = 0
    total = len(blob)
    while offset < total:
        if offset + _FRAME_LEN.size > total:
            raise ParameterError("truncated task frame header")
        (length,) = _FRAME_LEN.unpack_from(blob, offset)
        offset += _FRAME_LEN.size
        if offset + length > total:
            raise ParameterError("truncated task frame body")
        frames.append(blob[offset : offset + length])
        offset += length
    return frames


def _encrypt_key_blob(
    n: int, fixed_base_h: Optional[int], exponent_bits: int
) -> bytes:
    return _KIND_ENCRYPT + pack_int_vector(
        [n, 0 if fixed_base_h is None else fixed_base_h, exponent_bits]
    )


def _key_owner_key_blob(p: int, q: int) -> bytes:
    return _KIND_KEY_OWNER + pack_int_vector([p, q])


class _EncryptContext:
    """Derived per-key encryption state a worker keeps warm."""

    __slots__ = ("public", "table")

    def __init__(self, blob: bytes) -> None:
        from repro.crypto.paillier import PaillierPublicKey

        n, h, exponent_bits = unpack_int_vector(blob)
        self.public = PaillierPublicKey(n)
        self.table: Optional[FixedBaseTable] = None
        if h:
            # This build is the expensive part v1 repeated per chunk;
            # here it happens once per key per process.
            self.table = FixedBaseTable(
                pow(h, n, self.public.nsquare), self.public.nsquare, exponent_bits
            )


class _KeyOwnerContext:
    """The client's private key, rebuilt once per sampling worker."""

    __slots__ = ("private",)

    def __init__(self, blob: bytes) -> None:
        from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey

        p, q = unpack_int_vector(blob)
        self.private = PaillierPrivateKey(PaillierPublicKey(p * q), p, q)


def _context_from_blob(key_blob: bytes) -> Any:
    kind, body = key_blob[:1], key_blob[1:]
    if kind == _KIND_ENCRYPT:
        return _EncryptContext(body)
    if kind == _KIND_KEY_OWNER:
        return _KeyOwnerContext(body)
    raise ParameterError("unknown key-blob kind %r" % kind)


class KeyContextCache:
    """Small LRU of derived per-key contexts, keyed by packed key blob.

    One instance lives at module level in every process (parent and
    workers alike): the first chunk for a key pays the context build
    (fixed-base table, private key), every later chunk — and
    with pool priming, the first one too — finds it warm.  Bounded so a
    long-lived server churning through keys cannot grow it without
    limit.  Thread-safe: the parent process shares it across every
    thread that encrypts.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ParameterError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._contexts: "OrderedDict[bytes, Any]" = OrderedDict()

    def get(self, key_blob: bytes) -> Any:
        """The cached context for ``key_blob``, building it on first use."""
        with self._lock:
            context = self._contexts.get(key_blob)
            if context is not None:
                self._contexts.move_to_end(key_blob)
                return context
        # Build outside the lock: context construction can cost tens of
        # milliseconds (table build) and must not stall other keys.
        built = _context_from_blob(key_blob)
        with self._lock:
            winner = self._contexts.setdefault(key_blob, built)
            self._contexts.move_to_end(key_blob)
            while len(self._contexts) > self.capacity:
                self._contexts.popitem(last=False)
        return winner

    def __len__(self) -> int:
        with self._lock:
            return len(self._contexts)


#: The per-process context cache the kernels below read through.  With
#: the default ``fork`` start method, contexts built in the parent
#: before pool creation are inherited by the workers for free; the pool
#: initializer primes the rest.
_WORKER_CACHE = KeyContextCache()


def _prime_worker(key_blob: Optional[bytes]) -> None:
    """Pool initializer: build the key context before any work arrives."""
    if key_blob:
        _WORKER_CACHE.get(key_blob)


# -- chunk kernels (top-level so ProcessPoolExecutor can pickle them) ---------


def _encrypt_chunk_packed(task: bytes) -> bytes:
    """Encrypt one packed chunk; returns the packed ciphertext vector.

    Runs identically in-process and in a worker: all randomness comes
    from the chunk's own DRBG seed, all state from the (cached) key
    context.  With a fixed-base table in the context the obfuscators
    are table powers ``(h^n)^x``; otherwise each is a full
    ``r^n mod n^2``.
    """
    from repro.crypto.rng import DeterministicRandom

    key_blob, seed, payload = _unpack_frames(task)
    context = _WORKER_CACHE.get(key_blob)
    plaintexts = unpack_int_vector(payload)
    rng = DeterministicRandom(seed)
    public = context.public
    if context.table is None:
        out = [public.encrypt_raw(m, rng) for m in plaintexts]
    else:
        table = context.table
        out = []
        for m in plaintexts:
            x = rng.randrange(1, table.capacity)
            out.append(public.raw_encrypt(m % public.n, table.pow(x)))
    return pack_int_vector(out)


def _key_owner_chunk_packed(task: bytes) -> bytes:
    """Key-owner obfuscators for one packed slice of ``(x_p, x_q)`` units.

    Returns two frames: the packed obfuscators, in unit order, and the
    CPU nanoseconds this process spent on the slice (so client CPU that
    moves into workers stays visible to the caller).
    """
    started = time.process_time_ns()
    key_blob, payload = _unpack_frames(task)
    private = _WORKER_CACHE.get(key_blob).private
    flat = unpack_int_vector(payload)
    out = [
        private.obfuscator_from_units(x_p, x_q)
        for x_p, x_q in zip(flat[0::2], flat[1::2])
    ]
    spent = time.process_time_ns() - started
    return _pack_frames(pack_int_vector(out), pack_int_vector([spent]))


class WarmWorkerPool:
    """Lifecycle of the persistent worker pool: spawn once, prime, reuse.

    Owns the ``ProcessPoolExecutor`` handle plus its breakage/closed
    flags behind one lock, so :class:`CryptoEngine` never manipulates
    raw pool state.  Workers are created lazily on the first parallel
    batch and *primed* with the batch's key blob — each worker builds
    the per-key context in its initializer, before the first chunk
    lands on it.
    """

    def __init__(
        self, workers: int, on_break: Optional[Callable[[], None]] = None
    ) -> None:
        if workers < 0:
            raise ParameterError("workers must be non-negative")
        self.workers = workers
        #: invoked exactly once per broken-transition (metrics hook)
        self._on_break = on_break
        self._lock = threading.Lock()
        self._executor: Optional[Any] = None
        self._broken = False
        self._closed = False
        self._primed_key: Optional[bytes] = None

    @property
    def broken(self) -> bool:
        """True once the pool failed to start or broke mid-run."""
        with self._lock:
            return self._broken

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        with self._lock:
            return self._closed

    def acquire(self, key_blob: Optional[bytes] = None) -> Optional[Any]:
        """The live executor, or None when parallelism is unavailable.

        The first acquisition spawns the workers with ``key_blob`` as
        priming context; later acquisitions reuse them (the per-worker
        cache covers additional keys on first touch).
        """
        if self.workers <= 1:
            return None
        with self._lock:
            if self._broken or self._closed:
                return None
            if self._executor is None:
                try:
                    from concurrent.futures import ProcessPoolExecutor

                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=_prime_worker,
                        initargs=(key_blob,),
                    )
                    self._primed_key = key_blob
                # Any pool-start failure (restricted container, missing
                # sem_open, fork limits) must degrade to the bit-identical
                # serial path, never crash an encryption; the broken flag
                # records the downgrade and the pool-start-failure
                # regression tests cover it.
                # seclint: disable=SEC005 -- start failure degrades to serial by design
                except Exception:
                    self._broken = True
                    if self._on_break is not None:
                        self._on_break()
                    return None
            return self._executor

    def mark_broken(self) -> Optional[Any]:
        """Record mid-run breakage; returns the dead executor to shut down."""
        with self._lock:
            transitioned = not self._broken
            self._broken = True
            executor, self._executor = self._executor, None
        if transitioned and self._on_break is not None:
            self._on_break()
        return executor

    def close(self) -> None:
        """Shut the workers down; the pool stays unavailable afterwards."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        # shut down outside the lock: waiting for in-flight chunk maps
        # must not block threads that only need to check a flag
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


class CryptoEngine:
    """Chunked, optionally multi-process Paillier vector encryption.

    Args:
        workers: encryption worker processes; ``<= 1`` encrypts
            in-process.
        fixed_base: draw encryption obfuscators as fixed-base powers
            ``(h^n)^x`` with a per-key random ``h`` instead of a full
            ``r^n`` per element (~6x faster; the randomness then ranges
            over the subgroup generated by ``h`` — see
            ``docs/performance.md`` for the assumption this trades on).
        chunk_size: elements per dispatched chunk; ``None`` (the
            default) adapts to the key size via :func:`chunk_size_for`.
            Results never depend on it, but it fixes the seed
            derivation schedule, so two runs only match
            ciphertext-for-ciphertext when it is equal.
        metrics: optional :class:`~repro.obs.registry.MetricsRegistry`;
            when given, every batch (one encryption call) observes its
            wall-clock into
            ``repro_engine_batch_seconds{mode=parallel|serial}``, batch
            counts appear as ``repro_engine_batches_total``, and every
            pool downgrade bumps ``repro_engine_pool_fallbacks_total``.
            Pass the run's registry to export engine health with the
            rest of its metrics.
    """

    def __init__(
        self,
        workers: int = 1,
        fixed_base: bool = False,
        chunk_size: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 0:
            raise ParameterError("workers must be non-negative")
        if chunk_size is not None and chunk_size < 1:
            raise ParameterError("chunk_size must be positive")
        self.workers = workers
        self.fixed_base = fixed_base
        self.chunk_size = chunk_size
        #: guards the shared engine state below (batch counters and the
        #: fixed-base generator cache); pool lifecycle state has its own
        #: lock inside WarmWorkerPool
        self._lock = threading.Lock()
        self._pool = WarmWorkerPool(workers, on_break=self._note_pool_fallback)
        self._closed = False
        #: chunk batches executed in worker processes vs in-process
        self.parallel_batches = 0
        self.serial_batches = 0
        #: per-key fixed-base generators, keyed by modulus
        self._fixed_base_h: Dict[int, int] = {}
        self.metrics = metrics
        self._batch_seconds: Dict[str, Histogram] = {}
        self._batches_total: Dict[str, Counter] = {}
        self._pool_fallbacks: Optional[Counter] = None
        if metrics is not None:
            for mode in ("parallel", "serial"):
                self._batch_seconds[mode] = metrics.histogram(
                    "repro_engine_batch_seconds",
                    "Wall-clock seconds per chunk fan-out, by execution mode.",
                    labels={"mode": mode},
                )
                self._batches_total[mode] = metrics.counter(
                    "repro_engine_batches_total",
                    "Chunk batches executed, by execution mode.",
                    labels={"mode": mode},
                )
            self._pool_fallbacks = metrics.counter(
                "repro_engine_pool_fallbacks_total",
                "Times the process pool was downgraded to the serial path.",
            )

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "CryptoEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down; further calls run serially."""
        with self._lock:
            self._closed = True
        self._pool.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def pool_broken(self) -> bool:
        """True once the pool failed to start or broke; serial from then on."""
        return self._pool.broken

    # -- metrics ----------------------------------------------------------

    def _note_pool_fallback(self) -> None:
        """Pool-breakage hook: count the downgrade (no-op without metrics)."""
        if self._pool_fallbacks is not None:
            self._pool_fallbacks.inc()

    def _observe_batch(self, mode: str, seconds: float) -> None:
        """Record one fan-out's duration and count (no-op without metrics)."""
        histogram = self._batch_seconds.get(mode)
        if histogram is not None:
            histogram.observe(seconds)
        counter = self._batches_total.get(mode)
        if counter is not None:
            counter.inc()

    # -- chunk execution --------------------------------------------------

    def _run_packed(self, tasks: List[bytes], key_blob: bytes) -> List[bytes]:
        """Run the encryption kernel over every task.

        The tasks go to the pool when it exists (``workers > 1``) and
        there is more than one of them; otherwise they run in-process.
        """
        executor = self._pool.acquire(key_blob) if len(tasks) > 1 else None
        if executor is not None:
            started = time.perf_counter()
            try:
                results = list(executor.map(_encrypt_chunk_packed, tasks))
                with self._lock:
                    self.parallel_batches += 1
                self._observe_batch("parallel", time.perf_counter() - started)
                return results
            # A pool broken mid-run (killed worker, BrokenProcessPool)
            # degrades to redoing the same deterministic chunks
            # serially; a genuine kernel bug reproduces on the serial
            # redo and raises there, so nothing is masked.  Covered by
            # the serial-redo regression tests.
            # seclint: disable=SEC005 -- broken pool degrades to serial redo by design
            except Exception:
                dead = self._pool.mark_broken()
                if dead is not None:
                    dead.shutdown(wait=False, cancel_futures=True)
        started = time.perf_counter()
        results = [_encrypt_chunk_packed(task) for task in tasks]
        with self._lock:
            self.serial_batches += 1
        self._observe_batch("serial", time.perf_counter() - started)
        return results

    # -- key compatibility ------------------------------------------------

    @staticmethod
    def supports_key(public: Any) -> bool:
        """True for Paillier-shaped keys the encryption kernel handles."""
        return hasattr(public, "nsquare") and hasattr(public, "n")

    # -- hot paths --------------------------------------------------------

    def _chunk_size_for(self, key_bits: int) -> int:
        """The effective chunk size: explicit override or adaptive."""
        if self.chunk_size is not None:
            return self.chunk_size
        return chunk_size_for(key_bits)

    def _chunks(self, length: int, chunk_size: int) -> List[Tuple[int, int]]:
        return [
            (start, min(start + chunk_size, length))
            for start in range(0, length, chunk_size)
        ]

    def _fixed_base_generator(
        self, public: Any, source: RandomSource
    ) -> Optional[int]:
        """The per-key ``h`` for fixed-base obfuscators (None = disabled)."""
        if not self.fixed_base:
            return None
        with self._lock:
            h = self._fixed_base_h.get(public.n)
            if h is None:
                while True:
                    h = source.randrange(2, public.n)
                    if math.gcd(h, public.n) == 1:
                        break
                self._fixed_base_h[public.n] = h
            return h

    def encrypt_vector(
        self,
        public: Any,
        plaintexts: Sequence[int],
        rng: Union[RandomSource, bytes, str, int, None] = None,
    ) -> Tuple[int, ...]:
        """Encrypt a plaintext vector under a Paillier public key.

        Chunks the vector, derives one DRBG seed per chunk from ``rng``
        up front (so the ciphertexts are a pure function of the seed
        and chunk size, independent of worker count), and encrypts the
        chunks in the pool when the engine has ``workers > 1`` and there
        is more than one chunk.
        """
        if not self.supports_key(public):
            raise ParameterError(
                "engine encryption requires a Paillier public key, got %r"
                % type(public).__name__
            )
        if not plaintexts:
            return ()
        source = as_random_source(rng)
        h = self._fixed_base_generator(public, source)
        key_blob = _encrypt_key_blob(public.n, h, public.bits)
        chunk_size = self._chunk_size_for(public.bits)
        tasks = [
            _pack_frames(
                key_blob,
                source.randbytes(_CHUNK_SEED_BYTES),
                pack_int_vector(list(plaintexts[start:stop])),
            )
            for start, stop in self._chunks(len(plaintexts), chunk_size)
        ]
        chunks = self._run_packed(tasks, key_blob)
        return tuple(ct for chunk in chunks for ct in unpack_int_vector(chunk))


# -- key-owner obfuscator fan-out (the deployed client) ----------------------

#: Smallest batch worth a round-trip to the workers, as units times
#: ``key_bits**3`` (per-unit cost grows roughly cubically with the key):
#: sixteen units at 512 bits, ~7 ms of serial work.  A 64-unit chunk at
#: 256 bits or below stays in-process.
_KEY_OWNER_FANOUT_MIN_WORK = 16 * 512**3


def _cpu_count() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


#: The process-wide sampling pool.  Constructing it spawns nothing; the
#: workers start on the first :func:`key_owner_obfuscators` batch that
#: fans out.
_KEY_OWNER_POOL = WarmWorkerPool(_cpu_count())


def _close_key_owner_pool() -> None:
    # Shut the workers down while the interpreter is intact, rather than
    # leave the executor to module teardown, where its weakref callback
    # can run against already-cleared modules.
    _KEY_OWNER_POOL.close()


def _forget_key_owner_pool() -> None:
    # A forked child inherits the parent's executor handle, whose
    # queues lead to the parent's workers.  Drop it unused; the child
    # spawns its own pool on its first fan-out.
    global _KEY_OWNER_POOL
    _KEY_OWNER_POOL = WarmWorkerPool(_cpu_count())


atexit.register(_close_key_owner_pool)
os.register_at_fork(after_in_child=_forget_key_owner_pool)


def key_owner_obfuscators(
    private_key: Any, units: Sequence[Tuple[int, int]]
) -> Tuple[List[int], float]:
    """``private_key.obfuscator_from_units`` over ``units``, fanned out.

    Returns the obfuscators in unit order and the CPU seconds worker
    processes spent on them (0.0 when the batch ran in-process).  A
    batch worth at least :data:`_KEY_OWNER_FANOUT_MIN_WORK` is split into
    one contiguous slice per worker of the process-wide pool; the parent
    waits rather than computing a slice itself (measured faster).  With
    one CPU, a smaller batch, or a pool that cannot start, the units are
    computed in-process; a pool that breaks mid-batch (a killed worker)
    is retired and the same units are recomputed in-process — they were
    never used, so nothing is reused.
    """
    pool = _KEY_OWNER_POOL
    bits = private_key.public_key.bits
    if len(units) > 1 and len(units) * bits**3 >= _KEY_OWNER_FANOUT_MIN_WORK:
        key_blob = _key_owner_key_blob(private_key.p, private_key.q)
        executor = pool.acquire(key_blob)
        if executor is not None:
            share = -(-len(units) // pool.workers)
            tasks = [
                _pack_frames(
                    key_blob,
                    pack_int_vector([v for unit in units[i : i + share] for v in unit]),
                )
                for i in range(0, len(units), share)
            ]
            try:
                results = list(executor.map(_key_owner_chunk_packed, tasks))
            # Same contract as CryptoEngine._run_packed: a broken pool
            # degrades to the in-process redo below, where a genuine
            # kernel bug reproduces and raises.
            # seclint: disable=SEC005 -- broken pool degrades to serial redo by design
            except Exception:
                dead = pool.mark_broken()
                if dead is not None:
                    dead.shutdown(wait=False, cancel_futures=True)
            else:
                obfuscators: List[int] = []
                spent_ns = 0
                for packed in results:
                    values, spent = _unpack_frames(packed)
                    obfuscators.extend(unpack_int_vector(values))
                    spent_ns += unpack_int_vector(spent)[0]
                return obfuscators, spent_ns / 1e9
    return [private_key.obfuscator_from_units(x_p, x_q) for x_p, x_q in units], 0.0
