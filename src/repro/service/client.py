"""The client for the scenario service (stdlib only).

:class:`ServiceClient` is the program's one HTTP client: one keep-alive
:class:`http.client.HTTPConnection` per instance, so it is *not* shared
across threads (give each thread its own).  The tests, the benchmark
suite, the CLI health poll and ``repro load`` (one client per virtual
user) all use it.

Failure semantics: a dropped keep-alive gets **one** explicit
reconnect-and-resend attempt — safe because every request is idempotent
by content address — and exhaustion raises the typed
:class:`ServiceUnavailable` instead of a bare ``OSError``.  On top of
that, :class:`RetryPolicy` (opt-in; ``repro load`` arms it) retries
429/5xx/timeout responses with capped exponential backoff, honouring
``Retry-After`` on sheds.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field

__all__ = [
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
]


class ServiceError(Exception):
    """Non-2xx response; carries the status and the decoded error body."""

    def __init__(self, status: int, body: dict):
        error = body.get("error", {}) if isinstance(body, dict) else {}
        super().__init__(
            f"HTTP {status}: {error.get('type', 'Error')}: {error.get('message', body)}"
        )
        self.status = status
        self.body = body


class ServiceUnavailable(ConnectionError):
    """The service could not be reached after bounded reconnect attempts.

    Raised where the pre-resilience clients leaked a bare ``OSError`` /
    ``ConnectionError``: after the one reconnect-and-resend attempt on a
    dropped keep-alive fails too.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry: which responses retry, how long to back off.

    Safe by construction: every service request is idempotent — results
    are content-addressed pure functions of the spec — so replaying a
    request can never double-apply anything.  Retries cover shed (429),
    server-side failures (5xx, including 504 deadlines) and transport
    errors (:class:`ServiceUnavailable`); backoff is exponential with
    50–150% jitter, capped, and a server ``Retry-After`` takes precedence.
    """

    attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    statuses: frozenset = frozenset({429, 500, 502, 503, 504})
    #: Jitter source; seedable for deterministic schedules in tests.
    rng: random.Random = field(default_factory=random.Random, compare=False)

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def delay(self, attempt: int, retry_after: float | None = None) -> float:
        if retry_after is not None:
            return min(float(retry_after), self.backoff_cap)
        nominal = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return nominal * (0.5 + self.rng.random())


def _parse_retry_after(value) -> float | None:
    """Seconds from a ``Retry-After`` header value (delta-seconds form only)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if seconds >= 0 else None


class ServiceClient:
    """Blocking JSON client over one keep-alive connection.

    ``retry`` arms the checked methods (:meth:`simulate`, :meth:`batch`,
    …) with a :class:`RetryPolicy`; ``None`` (default) keeps the historic
    fail-fast behaviour.  The client counts what the load report reads:
    :attr:`statuses` (every response status, retried attempts included),
    :attr:`reconnects` (resends over a fresh connection), :attr:`retried`
    (policy retries taken), :attr:`unavailable` (:class:`ServiceUnavailable`
    caught and retried) and :attr:`last_seconds` (the round trip of the
    last answered request).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.statuses: Counter[int] = Counter()
        self.reconnects = 0
        self.retried = 0
        self.unavailable = 0
        self.last_seconds: float | None = None
        self.last_retry_after: float | None = None
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def request_json(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        """One request/response cycle; reconnects once on a dropped keep-alive.

        Raises :class:`ServiceUnavailable` when the resend fails too.
        """
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        for attempt in (0, 1):
            if attempt:
                self.reconnects += 1
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self.close()
                if attempt:
                    raise ServiceUnavailable(
                        f"{self.host}:{self.port} unreachable after reconnect: {exc}"
                    ) from exc
        self.last_seconds = time.perf_counter() - start
        self.statuses[response.status] += 1
        self.last_retry_after = _parse_retry_after(response.getheader("Retry-After"))
        decoded = json.loads(data.decode("utf-8")) if data else {}
        return response.status, decoded

    def _checked(self, method: str, path: str, payload=None) -> dict:
        policy = self.retry
        attempts = policy.attempts if policy is not None else 1
        for attempt in range(attempts):
            if attempt:
                self.retried += 1
                time.sleep(policy.delay(attempt - 1, self.last_retry_after))
            try:
                status, body = self.request_json(method, path, payload)
            except ServiceUnavailable:
                if policy is None or attempt == attempts - 1:
                    raise
                self.unavailable += 1
                self.last_retry_after = None
                continue
            if status < 400:
                return body
            if policy is None or status not in policy.statuses or attempt == attempts - 1:
                raise ServiceError(status, body)
        raise ServiceError(status, body)  # pragma: no cover — loop always returns/raises

    def health(self) -> dict:
        return self._checked("GET", "/v1/health")

    def stats(self) -> dict:
        return self._checked("GET", "/v1/stats")

    def simulate(self, spec: dict) -> dict:
        return self._checked("POST", "/v1/simulate", spec)

    def batch(self, scenarios: list) -> dict:
        return self._checked("POST", "/v1/batch", scenarios)

    def result(self, key: str) -> dict:
        return self._checked("GET", f"/v1/result/{key}")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
