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

#: The wire's canonical JSON encoder, built once (``json.dumps`` with
#: non-default options builds one per call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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


class Response:
    """One response.

    Attributes:
        id: the request's correlation id.
        status: one of the ``STATUS_*`` constants.
        payload: result data (empty unless ``status == "ok"``).  A
            response built from ``payload_json`` decodes it when the
            payload is first read.
        error: human-readable reason for non-``ok`` statuses.
        payload_json: the payload's canonical JSON (:func:`encode_json`),
            when the sender already encoded it; :func:`encode_line`
            splices it into the line instead of encoding the payload.
    """

    __slots__ = ("id", "status", "error", "payload_json", "_payload")

    def __init__(
        self,
        id: str,
        status: str,
        payload: Mapping[str, Any] | None = None,
        error: str = "",
        *,
        payload_json: bytes | None = None,
    ) -> None:
        if payload is not None and payload_json is not None:
            raise ValueError("give a response payload or its encoding, not both")
        self.id = id
        self.status = status
        self.error = error
        self.payload_json = payload_json
        self._payload: Mapping[str, Any] | None = None  # decoded when first read
        if payload_json is None:
            self._payload = payload if payload is not None else {}

    @property
    def payload(self) -> Mapping[str, Any]:
        if self._payload is None:
            self._payload = json.loads(self.payload_json)
        return self._payload

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        return self.status in (STATUS_REJECTED_BUSY, STATUS_SHUTTING_DOWN)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Response):
            return NotImplemented
        return (self.id, self.status, self.error, self.payload) == (
            other.id,
            other.status,
            other.error,
            other.payload,
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Response(id={self.id!r}, status={self.status!r}, "
            f"payload={self.payload!r}, error={self.error!r})"
        )

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


def encode_json(value: Any) -> bytes:
    """``value``'s canonical JSON: sorted keys, compact separators, ASCII.

    The wire's one encoding.  :func:`encode_line` applies it to whole
    messages; the service applies it once to each reply payload, whose
    bytes a response then carries as ``payload_json``.

    Raises:
        TypeError, ValueError: ``value`` is not JSON-serialisable.
    """
    return _ENCODER.encode(value).encode("ascii")


def encode_object(members: Mapping[str, bytes], *, end: bytes = b"") -> bytes:
    """A canonical JSON object built from already-encoded member values.

    ``members`` maps each key to its value's canonical JSON (bytes or
    any bytes-like view).  Keys sort as :func:`encode_json` sorts them,
    so the result equals :func:`encode_json` of the decoded object; the
    values are copied once, into the result, and ``end`` (a line's
    terminator, say) is appended in the same join.
    """
    parts: list[Any] = []
    for key in sorted(members):
        parts += (b"," if parts else b"{", encode_json(key), b":", members[key])
    parts.append(b"}" if parts else b"{}")
    parts.append(end)
    return b"".join(parts)


def encode_line(message: Request | Response) -> bytes:
    """One message as a UTF-8 JSON line (terminator included).

    A response carrying ``payload_json`` is not re-encoded: its envelope
    members are encoded and the payload's bytes are spliced in beside
    them (:func:`encode_object`), so the line is byte-identical to
    encoding the whole message.  An empty payload is left out, as
    :meth:`Response.to_dict` leaves it out.

    Raises:
        ProtocolError: the encoded message exceeds :data:`MAX_LINE_BYTES`
            (a payload that large belongs in a file, not on the wire).
    """
    if isinstance(message, Response) and message.payload_json not in (None, b"{}"):
        envelope = Response(message.id, message.status, error=message.error).to_dict()
        members = {key: encode_json(value) for key, value in envelope.items()}
        members["payload"] = message.payload_json
        line = encode_object(members, end=b"\n")
    else:
        line = encode_json(message.to_dict()) + b"\n"
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the {MAX_LINE_BYTES}-byte line limit"
        )
    return line


def ok_line_bytes(response_id: str, payload_bytes: int) -> int:
    """Encoded size of an ``ok`` response line, from its payload's size.

    ``payload_bytes`` is the length of the payload's canonical JSON
    (:func:`encode_json`), which :func:`encode_line` splices into the
    envelope verbatim: a server can size a reply without building it.
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
