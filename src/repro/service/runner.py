"""In-process service hosting: an event loop on a background thread.

:class:`BackgroundServer` runs a :class:`~repro.service.app.ScenarioService`
on its own thread + event loop and hands back the bound address — the
harness the integration tests and the benchmark suite use to exercise
the real network path (sockets, framing, coalescing) without spawning a
subprocess.  The CLI load driver spawns a real subprocess instead
(``python -m repro.service``); both paths serve the same application
object.
"""

from __future__ import annotations

import asyncio
import threading

from .app import ScenarioService

__all__ = ["BackgroundServer"]


class BackgroundServer:
    """Host ``service`` on a daemon thread; use as a context manager.

    The service object stays accessible (``self.service``) so a test can
    reach its cache or counters directly — the cache is thread-safe, the
    loop-confined counters are read-only from outside.
    """

    def __init__(self, service: ScenarioService | None = None, *, host: str = "127.0.0.1"):
        self.service = service if service is not None else ScenarioService()
        self.host = host
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "BackgroundServer":
        assert self._thread is None, "server already started"
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        if self.port is None:
            raise RuntimeError("service did not come up within 30 s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                _host, port = await self.service.start(self.host, 0)
            except BaseException as exc:  # noqa: BLE001 — surfaced to start()
                self._startup_error = exc
                self._ready.set()
                return
            self.port = port
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await self.service.close()

        asyncio.run(main())

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
