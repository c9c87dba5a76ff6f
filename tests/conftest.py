"""Repo-wide fixtures: the server-backend parametrization, and a forced
fan-out of the client's key-owner obfuscator sampling.

The selected-sum server ships two connection front-ends —
thread-per-connection :class:`~repro.net.server.SpfeServer` and the
event-loop :class:`~repro.net.aio.AsyncSpfeServer` — that share one
accounting core and must pass the same acceptance suites.  Tests that
exercise server behaviour over real sockets take the ``make_server``
fixture and run once per backend.

``REPRO_SERVER_BACKENDS`` (comma-separated) narrows the sweep so a CI
matrix can run one backend per job::

    REPRO_SERVER_BACKENDS=asyncio pytest tests/integration/test_concurrent_server.py
"""

import os

import pytest

from repro.crypto import engine
from repro.net.aio import AsyncSpfeServer
from repro.net.server import SpfeServer

#: the backends the parametrized server suites sweep over
SERVER_BACKENDS = tuple(
    entry.strip()
    for entry in os.environ.get(
        "REPRO_SERVER_BACKENDS", "threads,asyncio"
    ).split(",")
    if entry.strip()
)

_SERVER_CLASSES = {"threads": SpfeServer, "asyncio": AsyncSpfeServer}


@pytest.fixture(params=SERVER_BACKENDS)
def server_backend(request):
    """The connection front-end under test: 'threads' or 'asyncio'."""
    return request.param


@pytest.fixture
def make_server(server_backend):
    """Construct the parametrized backend's server class.

    Usage: ``server = make_server(database, read_timeout=5.0).start()``.
    The chosen backend name is available as ``make_server.backend`` for
    tests that need to branch (e.g. to pass ``--backend`` to a CLI
    subprocess).
    """

    def _make(database, **kwargs):
        return _SERVER_CLASSES[server_backend](database, **kwargs)

    _make.backend = server_backend
    return _make


@pytest.fixture
def key_owner_fanout(monkeypatch):
    """Force key-owner sampling onto a fresh two-worker pool.

    The test keys (64-256 bits) sit below the fan-out threshold, so this
    drops the threshold to zero and swaps in a private
    :class:`~repro.crypto.engine.WarmWorkerPool` (two workers even on one
    CPU), closed afterwards; a test that breaks it cannot degrade the
    process-wide pool for the tests after it.  Yields the pool.
    """
    pool = engine.WarmWorkerPool(2)
    monkeypatch.setattr(engine, "_KEY_OWNER_FANOUT_MIN_WORK", 0)
    monkeypatch.setattr(engine, "_KEY_OWNER_POOL", pool)
    try:
        yield pool
    finally:
        pool.close()
