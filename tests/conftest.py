"""Repo-wide fixtures: a forced fan-out of the client's key-owner
obfuscator sampling."""

import pytest

from repro.crypto import engine


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
