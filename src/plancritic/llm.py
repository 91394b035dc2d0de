"""Minimal chat-completions client for OpenAI-compatible endpoints.

One request carries one user message and returns the completion text.
Transport failures and retryable status codes (429, 5xx) get three attempts
in all, with exponential backoff between them, or the wait a retryable
response asks for in an integer ``Retry-After``; anything else fails fast.  A
simple per-client rate limiter spaces out request starts when configured.
Each thread that uses a client keeps one session, so its requests reuse one
connection.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass, fields

import requests

log = logging.getLogger(__name__)


class TransportError(Exception):
    """Request failed after exhausting retries (or was not retryable)."""


class MalformedResponse(Exception):
    """HTTP succeeded but the body is not a chat completion."""


_RETRYABLE = {429, 500, 502, 503, 504}
MAX_ATTEMPTS = 3


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
    requests_per_second: float = 0.0
    timeout: float = 120.0
    debug_log: str | None = None

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

    def _session(self) -> requests.Session:
        """This thread's session: a ``requests.Session`` is not thread-safe."""
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        return session

    def complete(self, prompt: str, temperature: float, max_tokens: int) -> str:
        """Send one user message and return the assistant text."""
        endpoint = self.endpoint
        url = endpoint.base_url.rstrip("/") + "/chat/completions"
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

        last_error: Exception | None = None
        retry_after: int | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                backoff = self.backoff * 2 ** (attempt - 1)
                time.sleep(backoff if retry_after is None else retry_after)
            retry_after = None
            self._limiter.wait()
            try:
                response = self._session().post(
                    url, json=payload, headers=headers, timeout=endpoint.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                log.warning("request to %s failed (%s), attempt %d", url, exc, attempt + 1)
                continue
            if response.status_code in _RETRYABLE:
                value = response.headers.get("Retry-After", "")
                retry_after = int(value) if value.isascii() and value.isdigit() else None
                last_error = TransportError(f"HTTP {response.status_code}")
                log.warning("HTTP %d from %s, attempt %d", response.status_code, url, attempt + 1)
                continue
            if response.status_code >= 400:  # not retryable
                last_error = TransportError(f"HTTP {response.status_code}: {response.text[:200]}")
                break
            text = self._extract(response)
            self._debug(payload, response_text=text)
            return text
        self._debug(payload, error=str(last_error))
        raise TransportError(f"request failed after {attempt + 1} attempt(s): {last_error}")

    def _extract(self, response) -> str:
        try:
            body = response.json()
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
