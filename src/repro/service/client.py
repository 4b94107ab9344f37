"""Thin blocking client for the optimization service.

:class:`ServiceClient` is the client the CLI uses (``python -m repro
submit``).  It speaks the JSON protocol of :mod:`repro.service.server` and
exposes:

* ``submit(body)`` / ``submit_run(target, options)`` /
  ``submit_simulate(...)`` — admission (raises :class:`ServiceBusy` on
  429/503).  ``submit`` never blocks on the work itself;
* ``status(id)`` / ``result(id)`` / ``stats()`` — the read endpoints.
  ``result(id)`` right after a ``done`` submit answers from that reply,
  which carries the result, so a cache hit costs one HTTP call;
* ``wait(id, on_event=...)`` — a loop of held calls until the request
  finishes: without ``on_event`` each is a ``/result?wait=S`` the server
  answers as soon as the record is terminal (a miss costs submit plus one
  call); with ``on_event`` each is a ``/status?events_from=N&wait=S`` that
  returns as soon as new pipeline events exist, delivered to ``on_event``
  exactly once;
* ``submit_and_wait(...)`` — the one-call convenience the CLI uses.

Resilience: every exchange runs under the shared
:data:`~repro.resilience.retry.CLIENT_RETRY` policy (connection drops —
including injected ``connection`` faults — retry with jittered backoff;
re-submitting after a dropped response is safe because identical requests
coalesce server-side), each hold is capped at half the client's socket
``timeout`` so a held call never trips it, and ``submit_and_wait`` honors
the server's ``retry_after`` hint when shed with a 429.  A 503 means the
server is draining for good and is never retried.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.obs.trace import TRACE_FIELD, current_context
from repro.resilience import faults as _faults
from repro.resilience.faults import InjectedFault
from repro.resilience.retry import CLIENT_RETRY, RetryPolicy

OnEvent = Callable[[Dict[str, Any]], None]

#: Transport failures worth retrying.  Deliberately *not* OSError: since
#: Python 3.10+ TimeoutError is an OSError, and retrying a full client
#: timeout would multiply the worst-case wait by the attempt count.
_TRANSIENT = (InjectedFault, ConnectionError)


class ServiceError(RuntimeError):
    """Any non-success response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceBusy(ServiceError):
    """The service shed the request (429 queue full / 503 draining).

    ``retry_after`` carries the server's backoff hint in seconds (None when
    the response had none) — derived server-side from queue depth and drain
    rate, so honoring it beats any client-side guess.
    """

    def __init__(
        self, status: int, message: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(status, message)
        self.retry_after = retry_after


class RequestFailed(ServiceError):
    """The request executed and failed server-side."""


def _run_body(
    target: str,
    options: Optional[Mapping[str, Any]],
    deadline: Optional[float],
) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "kind": "run", "target": target, "options": dict(options or {}),
    }
    if deadline is not None:
        body["deadline"] = float(deadline)
    return body


def _traced_body(body: Mapping[str, Any]) -> Mapping[str, Any]:
    """Attach the ambient trace context to a submit body.

    When the caller runs inside a trace (``--profile``, a traced CLI run),
    the request carries ``trace_id/span_id`` so server-side spans land in
    the same trace.  The field rides outside the cache key, so a traced
    submit still coalesces and cache-hits with untraced twins.  An explicit
    field set by the caller wins.
    """
    ref = current_context()
    if ref is None or TRACE_FIELD in body:
        return body
    return {**body, TRACE_FIELD: ref}


def _raise_for(status: int, payload: Any) -> None:
    message = ""
    retry_after: Optional[float] = None
    if isinstance(payload, Mapping):
        message = str(payload.get("error", ""))
        hint = payload.get("retry_after")
        if isinstance(hint, (int, float)) and hint > 0:
            retry_after = float(hint)
        if payload.get("status") == "failed":
            raise RequestFailed(status, message or "failed")
    if status in (429, 503):
        raise ServiceBusy(status, message or "service busy", retry_after)
    raise ServiceError(status, message or "request rejected")


class ServiceClient:
    """Blocking JSON client over :mod:`http.client` (stdlib only)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout: float = 600.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else CLIENT_RETRY
        # (id, /result document) of the last submit that came back done.
        self._done: Optional[Tuple[str, Dict[str, Any]]] = None

    # -- transport ----------------------------------------------------------

    def _request(self, method: str, path: str, body: Any = None) -> Any:
        def exchange(attempt: int):
            _faults.check("connection", f"{method} {path}", attempt)
            return self._exchange_once(method, path, body)

        status, data = self.retry.call(
            exchange, retry_on=_TRANSIENT, salt=f"{method}:{path}"
        )
        if status == 202:
            return data
        if status >= 400:
            _raise_for(status, data)
        return data

    def _exchange_once(self, method: str, path: str, body: Any):
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            data = json.loads(raw.decode("utf-8")) if raw else None
            status = response.status
        finally:
            connection.close()
        return status, data

    # -- endpoints ----------------------------------------------------------

    def submit(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        record = self._request("POST", "/submit", _traced_body(body))
        if record.get("status") == "done" and "result" in record:
            self._done = (record["id"], {
                "id": record["id"],
                "status": "done",
                "cached": record.get("cached"),
                "result": record["result"],
            })
        return record

    def submit_run(
        self,
        target: str,
        options: Optional[Mapping[str, Any]] = None,
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.submit(
            _run_body(target, options, deadline)
        )

    def submit_simulate(self, scenario: str, **spec: Any) -> Dict[str, Any]:
        return self.submit({"kind": "simulate", "scenario": scenario, **spec})

    def status(
        self,
        request_id: str,
        events_from: int = 0,
        wait: Optional[float] = None,
    ) -> Dict[str, Any]:
        """The ``/status`` view; ``wait`` holds until events beyond
        ``events_from`` exist or the request is terminal."""
        query = []
        if events_from:
            query.append(f"events_from={events_from}")
        if wait is not None:
            query.append(f"wait={wait:g}")
        path = f"/status/{request_id}"
        if query:
            path += "?" + "&".join(query)
        return self._request("GET", path)

    def result(
        self, request_id: str, wait: Optional[float] = None
    ) -> Dict[str, Any]:
        """The ``/result`` document (status only while pending).

        Answered with no call when the last submit returned this request
        already done; ``wait`` holds until the request is terminal.
        """
        done = self._done
        if done is not None and done[0] == request_id:
            self._done = None
            return done[1]
        path = f"/result/{request_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self._request("GET", path)

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The service's ``/metrics`` endpoint as Prometheus text.

        Bypasses the JSON transport — the exposition format is plain text.
        """
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            raw = response.read()
            if response.status >= 400:
                raise ServiceError(response.status, "metrics unavailable")
        finally:
            connection.close()
        return raw.decode("utf-8")

    def trace_spans(self, trace_id: str) -> Dict[str, Any]:
        """Recorded spans of one trace (``{"trace_id": ..., "spans": [...]}``)."""
        return self._request("GET", f"/trace/{trace_id}")

    def healthy(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (OSError, ServiceError, ValueError):
            return False

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown", {})

    # -- convenience --------------------------------------------------------

    def wait(
        self,
        request_id: str,
        timeout: Optional[float] = None,
        poll_interval: Optional[float] = None,
        on_event: Optional[OnEvent] = None,
    ) -> Dict[str, Any]:
        """Hold until the request finishes; returns the result document.

        Without ``on_event`` this is a loop of held ``/result`` calls, one
        call when the request finishes within a hold.  With ``on_event``
        it holds on ``/status`` instead, and ``on_event`` receives each
        newly observed pipeline-event dict once, in order.  Each hold lasts
        at most half the client's socket ``timeout`` (the server caps it
        further) and never outlasts ``timeout``.  ``poll_interval`` is
        unused: it is kept so callers written for the polling client work.

        Raises:
            RequestFailed: The request failed server-side.
            TimeoutError: Still pending after ``timeout`` seconds.
        """
        del poll_interval
        deadline = None if timeout is None else time.monotonic() + timeout
        cursor = 0
        while True:
            hold = self.timeout / 2
            if deadline is not None:
                hold = min(hold, max(0.0, deadline - time.monotonic()))
            if on_event is None:
                reply = self.result(request_id, wait=hold)
                state = reply.get("status")
                if state == "done":
                    return reply
            else:
                reply = self.status(request_id, events_from=cursor, wait=hold)
                events = reply.get("events", [])
                for event in events:
                    on_event(event)
                cursor = int(reply.get("events_seen", cursor + len(events)))
                state = reply.get("status")
                if state == "done":
                    return self.result(request_id)
                if state == "failed":
                    raise RequestFailed(500, str(reply.get("error", "failed")))
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"request {request_id} still {state!r} after {timeout}s"
                )

    def submit_and_wait(
        self,
        body: Mapping[str, Any],
        timeout: Optional[float] = None,
        on_event: Optional[OnEvent] = None,
    ) -> Dict[str, Any]:
        """Submit with backpressure backoff, then wait for the result.

        A 429 (queue full) retries up to the policy's attempt count,
        sleeping the server's ``retry_after`` hint when one came back (the
        server knows its own backlog) and the policy's jittered backoff
        otherwise.  A 503 — the server draining for good — is not retried.
        """
        for attempt in range(self.retry.attempts):
            try:
                record = self.submit(body)
                break
            except ServiceBusy as exc:
                if exc.status != 429 or attempt == self.retry.attempts - 1:
                    raise
                pause = (
                    exc.retry_after
                    if exc.retry_after is not None
                    else self.retry.delay(attempt, salt="submit-busy")
                )
                time.sleep(pause)
        if record.get("status") == "done":
            return self.result(record["id"])
        return self.wait(record["id"], timeout=timeout, on_event=on_event)

    def wait_until_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthy():
                return
            time.sleep(0.05)
        raise TimeoutError(
            f"service at {self.host}:{self.port} not healthy after {timeout}s"
        )
