"""The load generator: closed-loop clients driving ``repro serve`` over TCP.

Each query makes the calls ``repro query`` makes: a ``ClientSession``
run to completion by ``run_resilient`` over ``SocketTransport.connect``.
Untraced queries use exactly that.  Traced queries add only outside
observers: the client ``Tracer``, a timing ``Transport`` wrapper handed
in through the ``connect`` callable, a timer around ``next()`` on the
client's byte stream, and a timer around ``run_resilient``'s sleep.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.scheme import SchemeKeyPair
from repro.exceptions import ReproError
from repro.net.faults import FaultEvent, FaultKind, FaultPlan, FaultyTransport
from repro.net.transport import (
    DEFAULT_RECV_BYTES,
    RetryPolicy,
    SocketTransport,
    Transport,
)
from repro.obs.tracing import Tracer
from repro.spfe.session import ClientSession, run_resilient

from inputs import KEY_BITS, Inputs

#: ``repro query``'s defaults: --timeout 10, --retries 2
TIMEOUT_S = 10.0
POLICY = RetryPolicy(max_attempts=3)


class Ledger:
    """Every ciphertext the run's sessions produced, to catch any repeat."""

    def __init__(self) -> None:
        self._seen: set = set()
        self._lock = threading.Lock()
        self.repeats = 0

    def add(self, ciphertext: int) -> None:
        with self._lock:
            if ciphertext in self._seen:
                self.repeats += 1
            else:
                self._seen.add(ciphertext)


class LedgerPublicKey(PaillierPublicKey):
    """The client's public key, recording each ciphertext it produces.

    With ``replay`` it hands out the session's pre-encrypted ciphertexts
    in order instead of encrypting, which is the paper's §3.3 client with
    its whole vector prepared offline.
    """

    __slots__ = ("_ledger", "_replay")

    def __init__(
        self, n: int, ledger: Ledger, replay: Optional[Iterator] = None
    ) -> None:
        super().__init__(n)
        self._ledger = ledger
        self._replay = replay

    def encrypt_raw(self, plaintext: int, rng=None) -> int:
        if self._replay is None:
            ciphertext = super().encrypt_raw(plaintext, rng)
        else:
            bit, ciphertext = next(self._replay)
            if bit != plaintext:
                raise RuntimeError("replay vector does not match the selection")
        self._ledger.add(ciphertext)
        return ciphertext


@dataclass
class QueryStats:
    """What a traced query's observers measured."""

    components: Dict[str, float] = field(default_factory=dict)
    bytes_up: int = 0
    bytes_down: int = 0

    def add(self, name: str, seconds: float) -> None:
        self.components[name] = self.components.get(name, 0.0) + seconds


class TimingTransport(Transport):
    """Times a transport's sends and receives, split at the resume handshake.

    On a reconnect (``resumed``) the first send is RESUME and the reads
    before the next send wait for the ACK; those count as ``resume_s``.
    """

    def __init__(self, inner: Transport, stats: QueryStats, resumed: bool) -> None:
        super().__init__()
        self.inner = inner
        self.stats = stats
        self._in_resume = resumed
        self._sends = 0

    def send(self, data: bytes) -> None:
        if self._sends:
            self._in_resume = False
        self._sends += 1
        started = time.perf_counter()
        try:
            self.inner.send(data)
        finally:
            self.stats.add(
                "resume_s" if self._in_resume else "send_s",
                time.perf_counter() - started,
            )
        self.bytes_sent += len(data)
        self.stats.bytes_up += len(data)

    def recv(self, max_bytes: int = DEFAULT_RECV_BYTES) -> bytes:
        started = time.perf_counter()
        try:
            data = self.inner.recv(max_bytes)
        finally:
            self.stats.add(
                "resume_s" if self._in_resume else "result_wait_s",
                time.perf_counter() - started,
            )
        self.bytes_received += len(data)
        self.stats.bytes_down += len(data)
        return data

    def recv_ready(self) -> bool:
        return self.inner.recv_ready()

    def close(self) -> None:
        self.inner.close()


class TimedClientSession(ClientSession):
    """A ``ClientSession`` whose outgoing streams time each ``next()``."""

    def __init__(self, *args, stats: QueryStats, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stats = stats
        self._building = False

    def initial_bytes(self) -> Iterator[bytes]:
        if self._building:  # a resume that restarts from scratch
            return super().initial_bytes()
        return self._timed(super().initial_bytes())

    def resume_bytes(self) -> Iterator[bytes]:
        return self._timed(super().resume_bytes())

    def _timed(self, stream: Iterator[bytes]) -> Iterator[bytes]:
        while True:
            self._building = True
            started = time.perf_counter()
            try:
                data = next(stream)
            except StopIteration:
                return
            finally:
                self._stats.add("chunk_build_s", time.perf_counter() - started)
                self._building = False
            yield data


@dataclass
class QueryRecord:
    """One query's outcome."""

    index: int
    ok: bool
    started: float
    finished: float
    result: Optional[int] = None
    expected: int = 0
    cut: bool = False
    encryptions: int = 0
    bytes_total: int = 0
    chunk_frames_sent: int = 0
    error: str = ""
    stats: Optional[QueryStats] = None

    @property
    def wall_s(self) -> float:
        return self.finished - self.started


class LoadGenerator:
    """Runs the seeded sessions of one workload against one server."""

    def __init__(
        self,
        inputs: Inputs,
        host: str,
        port: int,
        replay: Optional[List[List[int]]] = None,
    ) -> None:
        self.inputs = inputs
        self.host = host
        self.port = port
        self.replay = replay
        self.ledger = Ledger()
        self.cuts = 0
        self._private = inputs.keypair.private
        self._shared_key = LedgerPublicKey(inputs.keypair.public.n, self.ledger)

    @property
    def capacity(self) -> int:
        """How many sessions this generator can run (replay vectors are finite)."""
        return len(self.replay) if self.replay is not None else 1 << 62

    def _keypair(self, index: int, selection: List[int]) -> SchemeKeyPair:
        if self.replay is None:
            return SchemeKeyPair(self._shared_key, self._private)
        key = LedgerPublicKey(
            self._shared_key.n, self.ledger, iter(zip(selection, self.replay[index]))
        )
        return SchemeKeyPair(key, self._private)

    def _connect(
        self,
        cut_offset: Optional[int],
        stats: Optional[QueryStats],
        faulty: List[FaultyTransport],
    ) -> Callable[[], Transport]:
        attempts = [0]

        def connect() -> Transport:
            attempt = attempts[0]
            attempts[0] += 1
            started = time.perf_counter()
            try:
                transport: Transport = SocketTransport.connect(
                    self.host, self.port,
                    connect_timeout=TIMEOUT_S, read_timeout=TIMEOUT_S,
                )
            finally:
                if stats is not None:
                    stats.add("connect_s", time.perf_counter() - started)
            if attempt == 0 and cut_offset is not None:
                transport = FaultyTransport(
                    transport,
                    FaultPlan([FaultEvent(FaultKind.DISCONNECT, cut_offset)]),
                )
                faulty.append(transport)
            if stats is not None:
                transport = TimingTransport(transport, stats, resumed=attempt > 0)
            return transport

        return connect

    def query(self, index: int, traced: bool) -> QueryRecord:
        """Run session ``index`` to a verified sum (or a counted failure)."""
        inputs = self.inputs
        selection = inputs.selection(index)
        cut_offset = inputs.cut_offset(index)
        keypair = self._keypair(index, selection)
        stats = QueryStats() if traced else None
        kwargs = dict(
            key_bits=KEY_BITS, chunk_size=inputs.spec.chunk_size, keypair=keypair
        )
        sleep = time.sleep
        if stats is not None:
            tracer = Tracer()
            client: ClientSession = TimedClientSession(
                selection, tracer=tracer, stats=stats, **kwargs
            )

            def sleep(seconds: float) -> None:
                started = time.perf_counter()
                time.sleep(seconds)
                stats.add("backoff_s", time.perf_counter() - started)
        else:
            client = ClientSession(selection, **kwargs)
        faulty: List[FaultyTransport] = []
        connect = self._connect(cut_offset, stats, faulty)
        started = time.perf_counter()
        try:
            result = run_resilient(client, connect, policy=POLICY, sleep=sleep)
            error = ""
        except ReproError as exc:
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        finished = time.perf_counter()
        if stats is not None:
            totals = tracer.totals()
            for phase in ("encrypt", "decrypt"):
                stats.add(phase + "_s", totals.get(phase, 0.0))
        return QueryRecord(
            index=index,
            ok=result is not None,
            started=started,
            finished=finished,
            result=result,
            expected=inputs.expected_sum(selection),
            cut=bool(faulty and faulty[0].fired),
            encryptions=client.encryptions,
            bytes_total=client.bytes_sent + client.bytes_received,
            chunk_frames_sent=client.chunk_frames_sent,
            error=error,
            stats=stats,
        )

    def loop(
        self, first: int, stop: int, deadline: float, traced: bool
    ) -> List[QueryRecord]:
        """Closed loops, one per connection, over sessions ``first..stop-1``.

        Each connection starts its next session only after the previous
        one finished, and none starts after ``deadline``.
        """
        records: List[QueryRecord] = []
        errors: List[BaseException] = []
        lock = threading.Lock()
        next_index = [first]

        def worker() -> None:
            try:
                while True:
                    with lock:
                        index = next_index[0]
                        if index >= stop or time.perf_counter() >= deadline:
                            return
                        next_index[0] += 1
                    record = self.query(index, traced)
                    with lock:
                        records.append(record)
                        self.cuts += record.cut
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)

        threads = [
            # daemon: a run that is being torn down does not wait for them
            threading.Thread(
                target=worker, name="perfbench-conn-%d" % i, daemon=True
            )
            for i in range(self.inputs.spec.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        records.sort(key=lambda record: record.index)
        return records
