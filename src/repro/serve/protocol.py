"""The serve wire protocol: line-delimited JSON over a local socket.

One request per line, one response per line, UTF-8, ``\\n`` terminated.
The framing is deliberately trivial -- any language (or ``nc -U``) can
speak it -- and transport-agnostic: the same encode/decode pair serves
the unix-socket server, the in-process test harness, and an HTTP
adapter if one is ever bolted on top of the same handler.

Request::

    {"id": "r-1", "kind": "study", "params": {"node": "A1"}, "client": "ci"}

Response::

    {"id": "r-1", "status": "ok", "payload": {...}}
    {"id": "r-2", "status": "rejected-busy", "error": "quota-exhausted"}

Statuses:

* ``ok`` -- the request ran; ``payload`` carries the result.
* ``rejected-busy`` -- admission control refused the request
  (``error`` says why: ``queue-full`` backpressure or
  ``quota-exhausted`` per-client rate limiting).  The server is
  healthy; the client should back off and retry.
* ``shutting-down`` -- the daemon is draining; no new work is admitted.
* ``error`` -- the request was admitted but failed; ``error`` carries
  the message.

Every decoded value is validated structurally here, so the service and
server layers never see a malformed message.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping

from repro.errors import ReproError

#: Wire format version, carried in every response.
PROTOCOL_VERSION = 1

#: A single message line (request or response) may not exceed this.
MAX_LINE_BYTES = 8 * 1024 * 1024

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_REJECTED_BUSY = "rejected-busy"
STATUS_SHUTTING_DOWN = "shutting-down"

#: Request kinds the service understands.
KIND_STUDY = "study"
KIND_MINE = "mine"
KIND_REPLAY = "replay"
KIND_TRACE_SUMMARY = "trace-summary"
KIND_STATUS = "status"
KIND_PING = "ping"
KIND_METRICS = "metrics"

REQUEST_KINDS = (
    KIND_STUDY,
    KIND_MINE,
    KIND_REPLAY,
    KIND_TRACE_SUMMARY,
    KIND_STATUS,
    KIND_PING,
    KIND_METRICS,
)

#: Client name used when a request does not identify itself.
DEFAULT_CLIENT = "anonymous"


class ProtocolError(ReproError):
    """Malformed or oversized protocol message."""


@dataclasses.dataclass(frozen=True)
class Request:
    """One decoded request.

    Attributes:
        kind: what to do (one of :data:`REQUEST_KINDS`).
        params: kind-specific parameters (JSON object).
        client: quota identity; requests from one client share a token
            bucket.
        id: caller-chosen correlation id, echoed on the response.
    """

    kind: str
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    client: str = DEFAULT_CLIENT
    id: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "params": dict(self.params),
            "client": self.client,
        }


@dataclasses.dataclass(frozen=True)
class Response:
    """One decoded response.

    Attributes:
        id: the request's correlation id.
        status: one of the ``STATUS_*`` constants.
        payload: result data (empty unless ``status == "ok"``).
        error: human-readable reason for non-``ok`` statuses.
    """

    id: str
    status: str
    payload: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        return self.status in (STATUS_REJECTED_BUSY, STATUS_SHUTTING_DOWN)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "version": PROTOCOL_VERSION,
        }
        if self.payload:
            data["payload"] = dict(self.payload)
        if self.error:
            data["error"] = self.error
        return data


def encode_line(message: Request | Response) -> bytes:
    """One message as a UTF-8 JSON line (terminator included).

    Raises:
        ProtocolError: the encoded message exceeds :data:`MAX_LINE_BYTES`
            (a payload that large belongs in a file, not on the wire).
    """
    line = json.dumps(
        message.to_dict(), separators=(",", ":"), sort_keys=True
    ).encode("utf-8") + b"\n"
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the {MAX_LINE_BYTES}-byte line limit"
        )
    return line


def ok_line_bytes(response_id: str, payload_bytes: int) -> int:
    """Encoded size of an ``ok`` response line, from its payload's size.

    ``payload_bytes`` is the length of the payload's canonical JSON
    (sorted keys, compact separators).  :func:`encode_line` sorts keys,
    so that JSON sits verbatim between ``"id"`` and ``"status"``: a
    server can refuse an oversize reply without encoding it twice.
    """
    envelope = encode_line(Response(id=response_id, status=STATUS_OK))
    return len(envelope) + len(',"payload":') + payload_bytes


def _decode_object(line: str | bytes) -> dict[str, Any]:
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("message exceeds the line-length limit")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from None
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("message must be a JSON object")
    return data


def decode_request(line: str | bytes) -> Request:
    """Parse and validate one request line.

    Raises:
        ProtocolError: not JSON, not an object, unknown kind, or
            structurally invalid fields.
    """
    data = _decode_object(line)
    kind = data.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(
            f"unknown request kind {kind!r}; known: " + ", ".join(REQUEST_KINDS)
        )
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("request params must be a JSON object")
    client = data.get("client", DEFAULT_CLIENT)
    if not isinstance(client, str) or not client:
        raise ProtocolError("request client must be a non-empty string")
    request_id = data.get("id", "")
    if not isinstance(request_id, str):
        raise ProtocolError("request id must be a string")
    return Request(kind=kind, params=params, client=client, id=request_id)


def decode_response(line: str | bytes) -> Response:
    """Parse and validate one response line.

    Raises:
        ProtocolError: not JSON, not an object, or an unknown status.
    """
    data = _decode_object(line)
    status = data.get("status")
    if status not in (STATUS_OK, STATUS_ERROR, STATUS_REJECTED_BUSY, STATUS_SHUTTING_DOWN):
        raise ProtocolError(f"unknown response status {status!r}")
    payload = data.get("payload", {})
    if not isinstance(payload, dict):
        raise ProtocolError("response payload must be a JSON object")
    return Response(
        id=str(data.get("id", "")),
        status=status,
        payload=payload,
        error=str(data.get("error", "")),
    )
