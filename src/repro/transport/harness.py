"""Subprocess harness: the daemon in a *real* child process.

The differential acceptance tests need every source to live behind an
actual process boundary -- bytes on a socket, no shared memory, no
shared event loop.  :class:`ServerProcess` provides that: it persists
a database with :func:`~repro.store.save_store` (tie order and shard
layout intact), spawns ``python -m repro.server --store`` on it --
the same daemon that serves queries, so the sources a test reads and
the ones a query would read are one thing -- waits for the readiness
line, and exposes the bound :attr:`address`.

Cleanup is layered because the async test modules run under a SIGALRM
deadline (see ``tests/conftest.py``): the context-manager exit
terminates the child even when the guard fires mid-test (the
``TimeoutError`` unwinds through ``with`` blocks), a module-level
registry backed by ``atexit`` reaps anything that escaped (e.g. a
test that keeps a handle across the fixture boundary), and
``terminate()`` escalates to ``SIGKILL`` when the child ignores the
polite request.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from ..middleware.database import Database
from ..middleware.errors import ServiceUnavailableError
from ..store import save_store

__all__ = ["ServerProcess"]

#: every live harness process, reaped at interpreter exit
_LIVE: set["ServerProcess"] = set()


def _reap_all() -> None:  # pragma: no cover - exit hook
    for harness in list(_LIVE):
        harness.terminate()


atexit.register(_reap_all)


class ServerProcess:
    """Spawn ``python -m repro.server --store`` over a database.

    Use as a context manager::

        with ServerProcess(db, num_shards=2) as server:
            sources = network_services(server.address)

    Parameters
    ----------
    database:
        Served lists (and, when sharded or ``num_shards`` is given,
        the per-shard run grid).
    num_shards:
        Re-shard (with ``to_sharded``) before persisting.
    latency, jitter, latency_seed:
        Server-side per-call latency model of the source ops
        (seconds).
    startup_timeout:
        Seconds to wait for the child's readiness line before killing
        it and raising
        :class:`~repro.middleware.errors.ServiceUnavailableError`.
    """

    def __init__(
        self,
        database: Database,
        *,
        num_shards: int | None = None,
        latency: float = 0.0,
        jitter: float = 0.0,
        latency_seed: int = 0,
        startup_timeout: float = 30.0,
    ):
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-transport-")
        self._store_path = Path(self._tmpdir.name) / "db.store"
        if num_shards is not None:
            database = database.to_sharded(num_shards)
        save_store(database, self._store_path)
        self._latency = latency
        self._jitter = jitter
        self._latency_seed = latency_seed
        self._startup_timeout = startup_timeout
        self._spawn(port=0, timeout=startup_timeout)

    def _spawn(self, port: int, timeout: float) -> None:
        """Start the child on ``port`` (0 picks one) and wait for its
        readiness line; sets :attr:`process` and :attr:`address`."""
        command = [
            sys.executable,
            "-m",
            "repro.server",
            "--store",
            str(self._store_path),
            "--port",
            str(port),
        ]
        if self._latency:
            command += ["--latency", repr(self._latency)]
        if self._jitter:
            command += ["--jitter", repr(self._jitter)]
        if self._latency_seed:
            command += ["--latency-seed", str(self._latency_seed)]
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        _LIVE.add(self)
        self.address = self._await_ready(timeout)

    def _await_ready(self, timeout: float) -> tuple[str, int]:
        """Read stdout lines on a side thread until the readiness line
        (so a wedged child cannot block past the deadline)."""
        ready: list[tuple[str, int]] = []
        event = threading.Event()

        def watch() -> None:
            stream = self.process.stdout
            assert stream is not None
            for line in stream:
                parts = line.split()
                if len(parts) == 3 and parts[0] == "LISTENING":
                    ready.append((parts[1], int(parts[2])))
                    event.set()
                    return
            event.set()  # stream closed without readiness

        thread = threading.Thread(target=watch, daemon=True)
        thread.start()
        deadline = time.monotonic() + timeout
        while not event.wait(timeout=0.1):
            if time.monotonic() > deadline:
                self.terminate()
                raise ServiceUnavailableError(
                    "server-subprocess: no readiness line within "
                    f"{timeout:g}s"
                )
        if not ready:
            stderr = ""
            if self.process.stderr is not None:
                try:
                    stderr = self.process.stderr.read()
                except Exception:  # pragma: no cover - defensive
                    pass
            self.terminate()
            raise ServiceUnavailableError(
                f"server-subprocess: exited before readiness "
                f"(stderr: {stderr.strip()[-500:]!r})"
            )
        return ready[0]

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill(self) -> None:
        """SIGKILL the child *without* any draining -- the tool for
        provoking genuine mid-stream connection failures in tests.

        The persisted store (and the registry entry, so ``atexit``
        still reaps the tempdir) survives, which is what lets
        :meth:`restart` bring the replica back on the same port."""
        self.process.kill()
        self.process.wait(timeout=10.0)
        self._close_streams()

    def restart(self, startup_timeout: float | None = None) -> None:
        """Respawn a killed (or still-running, then hard-stopped) child
        on the *same* address, serving the same persisted database.
        Clients reconnect transparently: the address in their hands
        stays valid."""
        if self.process.poll() is None:
            self.kill()
        host, port = self.address
        timeout = (
            self._startup_timeout if startup_timeout is None
            else startup_timeout
        )
        deadline = time.monotonic() + timeout
        while True:
            try:
                # asyncio sets SO_REUSEADDR on POSIX, so rebinding the
                # port works as soon as the old process is gone; retry
                # briefly in case the kernel is still releasing it
                self._spawn(port=port, timeout=timeout)
                return
            except ServiceUnavailableError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.2)

    def terminate(self) -> None:
        """Stop the child (idempotent): SIGTERM, then SIGKILL after a
        grace period."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.process.kill()
                self.process.wait(timeout=5.0)
        self._cleanup()

    def _close_streams(self) -> None:
        for stream in (self.process.stdout, self.process.stderr):
            if stream is not None:
                try:
                    stream.close()
                except Exception:  # pragma: no cover - defensive
                    pass

    def _cleanup(self) -> None:
        _LIVE.discard(self)
        self._close_streams()
        try:
            self._tmpdir.cleanup()
        except Exception:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self.process.poll() is None else "dead"
        return f"<ServerProcess pid={self.process.pid} {state}>"
