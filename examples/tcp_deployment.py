#!/usr/bin/env python3
"""The protocol over a real TCP connection on localhost — resiliently.

Everything else in this repository exchanges Python objects or modelled
bytes; this example deploys the actual wire protocol
(:mod:`repro.net.codec` / :mod:`repro.spfe.session`): a server thread
listens on a TCP port holding the database, a client connects, streams
its encrypted index vector, and decrypts the sum — with real 512-bit
Paillier ciphertexts in real kernel socket buffers.

Unlike the first version of this example, nothing here can hang
forever: every socket read carries a deadline via
:class:`repro.net.transport.SocketTransport`, a dead peer surfaces as a
typed :class:`repro.exceptions.TransportError`, and the client runs
under a bounded :class:`repro.net.transport.RetryPolicy` — if the
connection drops mid-stream it reconnects and *resumes* from the last
chunk the server acknowledged instead of re-encrypting the vector
(encryption is the dominant cost, so that is the expensive part to
protect).

Run:  python examples/tcp_deployment.py
"""

import socket
import threading
import time

from repro.datastore import WorkloadGenerator
from repro.exceptions import ReproError, TransportError
from repro.net.transport import RetryPolicy, SocketTransport
from repro.spfe.session import (
    ClientSession,
    ServerSession,
    SessionRegistry,
    run_resilient,
    serve_over_transport,
)

READ_TIMEOUT_S = 10.0  # no read ever blocks longer than this


def serve(listener, database, ready, served):
    """The database owner's side: accept until one query completes.

    Each read carries a deadline, so a peer that dies mid-protocol
    costs at most ``READ_TIMEOUT_S`` before the connection is dropped
    with a typed failure — the serve loop then simply accepts the next
    connection.  Each session enforces the default
    :class:`~repro.spfe.validation.ServerPolicy` (accepted key sizes,
    frame and byte quotas, and the ``Z*_{n^2}`` check on every
    ciphertext), exactly as ``repro serve`` does.  The shared registry
    is what lets a reconnecting client resume instead of restarting.
    """
    registry = SessionRegistry()
    ready.set()
    while True:
        try:
            connection, peer = listener.accept()
        except OSError:
            return  # listener closed; we are done
        session = ServerSession(database, registry=registry)
        with SocketTransport(connection, read_timeout=READ_TIMEOUT_S) as transport:
            try:
                serve_over_transport(session, transport)
            except TransportError as exc:
                print("server: dropped %s (%s)" % (peer, exc))
                continue
        served.append(session)
        if session.finished:
            return


def main():
    generator = WorkloadGenerator("tcp-demo")
    n = 400
    database = generator.database(n, value_bits=16)
    selection = generator.random_selection(n, 60)
    expected = database.select_sum(selection)

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    print("server: listening on 127.0.0.1:%d with %d rows" % (port, n))

    ready = threading.Event()
    served = []
    server_thread = threading.Thread(
        target=serve, args=(listener, database, ready, served), daemon=True
    )
    server_thread.start()
    ready.wait()

    print("client: connecting, encrypting %d index bits (512-bit Paillier)..." % n)
    started = time.perf_counter()
    client = ClientSession(selection, key_bits=512, chunk_size=32)
    try:
        run_resilient(
            client,
            lambda: SocketTransport.connect(
                "127.0.0.1", port,
                connect_timeout=READ_TIMEOUT_S, read_timeout=READ_TIMEOUT_S,
            ),
            policy=RetryPolicy(max_attempts=3),
        )
    except ReproError as exc:
        # Typed, bounded failure — the old example would hang instead.
        print("client: giving up: %s" % exc)
        listener.close()
        return
    elapsed = time.perf_counter() - started
    server_thread.join(timeout=2 * READ_TIMEOUT_S)
    listener.close()

    print("client: received and decrypted the sum in %.2f s" % elapsed)
    print("  private sum: %d" % client.result)
    print("  ground truth: %d" % expected)
    assert client.result == expected
    print("  uplink: %.1f KB (%d ciphertexts of 128 B + framing)"
          % (client.bytes_sent / 1e3, n))
    print("  downlink: %d bytes (one ciphertext)" % client.bytes_received)
    print("  encryptions: %d (resume would re-send, never re-encrypt)"
          % client.encryptions)
    print("done — the server never saw a plaintext index.")


if __name__ == "__main__":
    main()
