"""Minimal chat-completions client for OpenAI-compatible endpoints.

One request carries one user message and returns the completion text.
Transport failures and retryable status codes (429, 5xx) get three attempts
in all, with exponential backoff between them, or the wait a retryable
response asks for in an integer ``Retry-After``; anything else, a server
certificate that fails verification included, fails fast.  A simple
per-client rate limiter spaces out request starts when configured.
The client speaks HTTP/1.1 through the standard library's ``http.client``.
Each thread that uses a client keeps one connection and reuses it across
requests; a kept-alive connection that the server dropped is reopened once,
at no cost to the attempts.  Proxy variables and ``.netrc`` are not read, and
HTTPS verifies against the system CA store.  The client's connections are
closed when it is collected.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import ssl
import threading
import time
import weakref
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Annotated
from urllib.parse import urlsplit

from .jsonform import Above, AtLeast, check_bounds

log = logging.getLogger(__name__)


class TransportError(Exception):
    """Request failed after exhausting retries (or was not retryable)."""


class MalformedResponse(Exception):
    """HTTP succeeded but the body is not a chat completion."""


_RETRYABLE = {429, 500, 502, 503, 504}
MAX_ATTEMPTS = 3


def split_base_url(base_url: str) -> tuple[str, str, int | None, str]:
    """The scheme, host, port and request path of an endpoint's ``base_url``.

    The request path is the URL's own path plus ``/chat/completions``.  Raises
    ``ValueError`` unless ``base_url`` is an ``http`` or ``https`` URL with a
    host, or when its port is not a number.
    """
    parts = urlsplit(base_url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"base_url {base_url!r} is not an http or https URL with a host")
    return parts.scheme, parts.hostname, parts.port, parts.path.rstrip("/") + "/chat/completions"


class _RateLimiter:
    def __init__(self, requests_per_second: float):
        self._interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
        self._lock = threading.Lock()
        self._next_start = 0.0

    def wait(self) -> None:
        if not self._interval:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._next_start - now
            self._next_start = max(now, self._next_start) + self._interval
        if delay > 0:
            time.sleep(delay)


@dataclass(frozen=True)
class EndpointConfig:
    """The endpoint settings, shared by the planner and critic configs."""

    base_url: str = ""
    model: str = ""
    api_key_env: str = "PLANCRITIC_API_KEY"
    requests_per_second: Annotated[float, AtLeast(0)] = 0.0  # 0 for no limit
    timeout: Annotated[float, Above(0)] = 120.0
    debug_log: str | None = None

    __post_init__ = check_bounds  # the planner's and the critic's fields too

    @property
    def endpoint(self) -> "EndpointConfig":
        """These settings alone, so that two roles' endpoints compare equal."""
        return EndpointConfig(**{f.name: getattr(self, f.name) for f in fields(EndpointConfig)})


@dataclass
class ChatClient:
    endpoint: EndpointConfig
    backoff: float = 1.0

    def __post_init__(self):
        self._limiter = _RateLimiter(self.endpoint.requests_per_second)
        self._log_lock = threading.Lock()
        self._local = threading.local()
        # every connection any thread opened, closed with the client
        self._connections: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._connections)

    @cached_property
    def _target(self) -> tuple[str, str, int | None, str]:
        return split_base_url(self.endpoint.base_url)

    def _session(self) -> http.client.HTTPConnection:
        """This thread's connection: an ``HTTPConnection`` is not thread-safe."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            scheme, host, port, _ = self._target
            timeout = self.endpoint.timeout
            if scheme == "https":
                context = ssl.create_default_context()
                connection = http.client.HTTPSConnection(host, port, timeout=timeout, context=context)
            else:
                connection = http.client.HTTPConnection(host, port, timeout=timeout)
            self._connections.append(connection)
            self._local.connection = connection
        return connection

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str:
        """Send one user message and return the assistant text."""
        endpoint = self.endpoint
        path = self._target[3]
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(endpoint.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": endpoint.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        body = json.dumps(payload).encode()
        url = endpoint.base_url

        last_error: Exception | None = None
        retry_after: int | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                backoff = self.backoff * 2 ** (attempt - 1)
                time.sleep(backoff if retry_after is None else retry_after)
            retry_after = None
            self._limiter.wait()
            try:
                status, value, data = self._post(path, body, headers)
            except ssl.SSLCertVerificationError as exc:  # not retryable
                last_error = exc
                break
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                log.warning("request to %s failed (%s), attempt %d", url, exc, attempt + 1)
                continue
            if status in _RETRYABLE:
                retry_after = int(value) if value.isascii() and value.isdigit() else None
                last_error = TransportError(f"HTTP {status}")
                log.warning("HTTP %d from %s, attempt %d", status, url, attempt + 1)
                continue
            if status >= 400:  # not retryable
                text = data.decode("utf-8", "replace")
                last_error = TransportError(f"HTTP {status}: {text[:200]}")
                break
            try:
                text = self._extract(data)
            except MalformedResponse as exc:
                body_start = data[:200].decode("utf-8", "replace")
                self._debug(payload, error=f"{exc}; body starts: {body_start}")
                raise
            self._debug(payload, response_text=text)
            return text
        self._debug(payload, error=str(last_error))
        raise TransportError(f"request failed after {attempt + 1} attempt(s): {last_error}")

    def _post(self, path: str, body: bytes, headers: dict) -> tuple[int, str, bytes]:
        """POST on this thread's connection: the status, ``Retry-After`` and body.

        A kept-alive connection that the server closed while it sat idle fails
        on first use with a reset or an empty reply; it is reopened once.
        """
        connection = self._session()
        reused = connection.sock is not None
        try:
            return _exchange(connection, path, body, headers)
        except (BrokenPipeError, ConnectionResetError):
            if not reused:
                raise
            return _exchange(connection, path, body, headers)

    def _extract(self, data: bytes) -> str:
        try:
            body = json.loads(data)
            content = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"unexpected response body: {exc}") from exc
        if not isinstance(content, str):
            raise MalformedResponse("message content is not text")
        return content

    def _debug(self, payload: dict, response_text: str | None = None, error: str | None = None) -> None:
        if not self.endpoint.debug_log:
            return
        record = {"request": payload}
        if response_text is not None:
            record["response"] = response_text
        if error is not None:
            record["error"] = error
        with self._log_lock:
            with open(self.endpoint.debug_log, "a") as fh:
                fh.write(json.dumps(record) + "\n")


def _exchange(
    connection: http.client.HTTPConnection, path: str, body: bytes, headers: dict
) -> tuple[int, str, bytes]:
    """One request and its whole reply.  A failure leaves the connection
    closed, so the next request opens a new one."""
    try:
        connection.request("POST", path, body, headers)
        with connection.getresponse() as response:
            return response.status, response.getheader("Retry-After", ""), response.read()
    except BaseException:
        connection.close()
        raise


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()
