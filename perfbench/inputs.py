"""Workload definitions and the seeded inputs each run is made from.

Everything a run sends or expects derives from ``--seed``: the database
values, every session's selection, the client's key pair, the replayed
ciphertext vectors and which sessions are cut mid-stream.  The server
receives only the generated database file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.net import codec

#: the paper's key size
KEY_BITS = 512


@dataclass(frozen=True)
class WorkloadSpec:
    """One closed-loop traffic mix against ``repro serve``."""

    name: str
    #: database rows = selection length of every query
    n: int
    chunk_size: int
    #: concurrent connections, each a closed loop
    connections: int
    #: sessions replay vectors pre-encrypted in set-up instead of
    #: encrypting online
    replay: bool
    #: serve with a fresh ``--state-dir`` (journal every chunk)
    state_dir: bool
    #: one session in every block of this many is cut mid-stream and
    #: finished with RESUME (0 = never)
    cut_every: int
    #: sessions run before the measured window, excluded from it
    warmup: int
    why: str


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "online_query", n=1000, chunk_size=64, connections=1,
            replay=False, state_dir=False, cut_every=0, warmup=1,
            why="the path a user runs: 1 closed-loop client, n=1000, "
            "512-bit keys, encrypting online over loopback TCP; client "
            "encryption is ~98% of wall time, so client gains show here",
        ),
        WorkloadSpec(
            "fleet", n=256, chunk_size=64, connections=2,
            replay=True, state_dir=False, cut_every=0, warmup=20,
            why="2 closed-loop connections, n=256, chunk 64, replaying "
            "pre-encrypted vectors (paper 3.3) over loopback: loads the "
            "server front-end, decoding, validation and fold, no encryption",
        ),
        WorkloadSpec(
            "journal_resume", n=256, chunk_size=16, connections=2,
            replay=True, state_dir=True, cut_every=4, warmup=20,
            why="as fleet but chunk 16 and a fresh --state-dir: a SQLite "
            "journal write per chunk, and 1 session in 4 cut mid-stream "
            "and finished with RESUME",
        ),
    )
}


class Inputs:
    """The seeded inputs of one run of ``spec``."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self._tag = "perfbench:%s:%d" % (spec.name, seed)
        values_rng = random.Random(self._tag + ":values")
        self.values = [values_rng.getrandbits(32) for _ in range(spec.n)]
        #: generated once per run, as a user's long-lived key would be
        self.keypair = generate_keypair(
            KEY_BITS, DeterministicRandom((self._tag + ":key").encode())
        )
        self.total_chunks = -(-spec.n // spec.chunk_size)

    def db_text(self) -> str:
        """The ``--db`` file: one integer per line."""
        return "".join("%d\n" % value for value in self.values)

    def selection(self, index: int) -> List[int]:
        """Session ``index``'s selection bits."""
        bits = random.Random("%s:select:%d" % (self._tag, index)).getrandbits(
            self.spec.n
        )
        return [(bits >> i) & 1 for i in range(self.spec.n)]

    def expected_sum(self, selection: List[int]) -> int:
        """The plaintext selected sum, computed from the seed's database."""
        return sum(value for value, bit in zip(self.values, selection) if bit)

    def cut_offset(self, index: int) -> Optional[int]:
        """Send-stream byte offset at which session ``index`` is cut, or None.

        Exactly one session per block of ``cut_every`` is cut, in the
        middle of a chunk frame other than the first and the last, so the
        server has journalled a prefix and must see the session drop.
        """
        every = self.spec.cut_every
        if not every:
            return None
        rng = random.Random("%s:cut:%d" % (self._tag, index // every))
        if rng.randrange(every) != index % every:
            return None
        chunk = 1 + rng.randrange(self.total_chunks - 2)
        hello, key, frame = self._frame_lengths()
        return hello + key + chunk * frame + frame // 2

    def _frame_lengths(self) -> Tuple[int, int, int]:
        spec = self.spec
        hello = codec.encode_hello(
            KEY_BITS, spec.n, spec.chunk_size, bytes(codec.SESSION_ID_BYTES), 0
        )
        key = codec.encode_public_key(self.keypair.public.n, KEY_BITS, 0)
        frame = codec.encode_ciphertext_chunk([1] * spec.chunk_size, KEY_BITS, 0)
        return len(hello), len(key), len(frame)

    def replay_vectors(self, sessions: int) -> List[List[int]]:
        """Pre-encrypted selection vectors for sessions ``0..sessions-1``.

        Stands in for the paper's offline phase cheaply: 32 true
        obfuscators ``r^n`` are drawn, and each ciphertext multiplies the
        previous randomiser by one of them (still an n-th residue), so a
        ciphertext costs two modular multiplications instead of an
        exponentiation.  The server does the same work on these as on any
        other ciphertexts; no two ciphertexts of a run are equal, which the
        run checks.
        """
        public = self.keypair.public
        n, nsquare = public.n, public.nsquare
        rng = random.Random(self._tag + ":replay")
        base = [
            public.obfuscator(DeterministicRandom(("%s:r:%d" % (self._tag, i)).encode()))
            for i in range(32)
        ]
        randomiser = base[0]
        vectors = []
        for index in range(sessions):
            vector = []
            for bit in self.selection(index):
                randomiser = randomiser * base[rng.getrandbits(5)] % nsquare
                vector.append(
                    (randomiser + randomiser * n) % nsquare if bit else randomiser
                )
            vectors.append(vector)
        return vectors

