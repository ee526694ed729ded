"""Wire format: encode/decode round trips and structural validation."""

import json

import pytest

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    STATUS_OK,
    STATUS_REJECTED_BUSY,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_json,
    encode_line,
    encode_object,
    ok_line_bytes,
)


class TestRequestCodec:
    def test_round_trip(self):
        request = Request(
            kind="study", params={"node": "T1"}, client="ci", id="r-1"
        )
        decoded = decode_request(encode_line(request))
        assert decoded == request

    def test_line_terminated_and_canonical(self):
        line = encode_line(Request(kind="ping"))
        assert line.endswith(b"\n")
        # Canonical encoding: sorted keys, no whitespace.
        assert line == json.dumps(
            json.loads(line), separators=(",", ":"), sort_keys=True
        ).encode() + b"\n"

    def test_defaults(self):
        decoded = decode_request(b'{"kind": "ping"}\n')
        assert decoded.params == {}
        assert decoded.client == "anonymous"
        assert decoded.id == ""

    @pytest.mark.parametrize(
        "line",
        [
            b"not json\n",
            b"[1, 2]\n",
            b'{"kind": "launch-missiles"}\n',
            b'{"kind": "study", "params": [1]}\n',
            b'{"kind": "study", "client": ""}\n',
            b'{"kind": "study", "id": 7}\n',
            "caf\xe9".encode("latin-1"),
        ],
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b"x" * (MAX_LINE_BYTES + 1))

    def test_oversized_encode_rejected(self):
        request = Request(kind="study", params={"blob": "x" * MAX_LINE_BYTES})
        with pytest.raises(ProtocolError):
            encode_line(request)


class TestResponseCodec:
    def test_round_trip(self):
        response = Response(id="r-1", status=STATUS_OK, payload={"n": 1})
        decoded = decode_response(encode_line(response))
        assert decoded == response
        assert decoded.ok

    def test_version_stamped(self):
        data = json.loads(encode_line(Response(id="", status=STATUS_OK)))
        assert data["version"] == PROTOCOL_VERSION

    def test_rejection_flags(self):
        response = decode_response(
            b'{"id": "x", "status": "rejected-busy", "error": "queue-full"}'
        )
        assert response.rejected and not response.ok
        assert response.status == STATUS_REJECTED_BUSY
        assert response.error == "queue-full"

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response(b'{"id": "x", "status": "maybe"}')

    def test_empty_payload_omitted_on_wire(self):
        data = json.loads(encode_line(Response(id="x", status=STATUS_OK)))
        assert "payload" not in data and "error" not in data

    @pytest.mark.parametrize(
        "payload",
        [{"n": 1}, {"z": [1, 2.5, None], "a": {"b": "caf\u00e9 \u2603"}}],
    )
    def test_ok_line_bytes_is_the_encoded_length(self, payload):
        canonical = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        line = encode_line(Response(id="r-7", status=STATUS_OK, payload=payload))
        assert ok_line_bytes("r-7", len(canonical.encode("utf-8"))) == len(line)


def canonical_line(response):
    """The reference encoding: the whole message dict, dumped once."""
    text = json.dumps(response.to_dict(), sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8") + b"\n"


class TestEncodeObject:
    """Members encoded apart join into the object's canonical JSON."""

    @pytest.mark.parametrize(
        "value",
        [
            {},
            {"b": 1, "a": [None, 2.5], "caf\u00e9": {"x": "\u2603"}},
            {"text": "t", "payload": {"text": "nested"}, "A": 0, "_": True},
        ],
    )
    def test_equals_encoding_the_whole_object(self, value):
        members = {key: encode_json(item) for key, item in value.items()}
        assert encode_object(members) == encode_json(value)
        views = {key: memoryview(item) for key, item in members.items()}
        assert encode_object(views, end=b"\n") == encode_json(value) + b"\n"


class TestPreEncodedPayload:
    """An ``ok`` reply built from its payload's canonical JSON is spliced,
    never re-encoded, and reads byte for byte like the dumped dict."""

    PAYLOADS = [
        {"text": "caf\u00e9 \u2603 \U0001f600", "node": "T1"},
        {"rows": [[1, [2, [3, []]]], ["a", None, True]], "n": 0},
        {"ratio": 0.1, "big": 1e300, "neg": -2.5e-07, "int": 10**20},
        {"payload": {"status": "x", "id": "y"}, "z": {"a": {}}},
        {},
    ]
    IDS = ["", "r-1", 'quote"d,"status":"ok', "caf\u00e9-\u2603"]

    @pytest.mark.parametrize("payload", PAYLOADS)
    @pytest.mark.parametrize("response_id", IDS)
    def test_spliced_line_equals_dumped_dict(self, payload, response_id):
        response = Response(
            id=response_id, status=STATUS_OK, payload_json=encode_json(payload)
        )
        line = encode_line(response)
        assert line == canonical_line(response)
        assert line == canonical_line(
            Response(id=response_id, status=STATUS_OK, payload=payload)
        )
        if payload:
            assert ok_line_bytes(response_id, len(encode_json(payload))) == len(line)
        else:
            assert "payload" not in json.loads(line)

    def test_payload_decoded_when_first_read(self):
        payload = {"a": [1, 2.5], "b": "caf\u00e9"}
        response = Response(id="x", status=STATUS_OK, payload_json=encode_json(payload))
        assert response.payload == payload
        assert response == Response(id="x", status=STATUS_OK, payload=payload)
        assert decode_response(encode_line(response)) == response

    def test_payload_and_encoding_are_exclusive(self):
        with pytest.raises(ValueError):
            Response(id="x", status=STATUS_OK, payload={"n": 1}, payload_json=b'{"n":1}')

    def test_oversize_spliced_line_rejected(self):
        payload_json = encode_json({"blob": "x" * MAX_LINE_BYTES})
        with pytest.raises(ProtocolError):
            encode_line(Response(id="x", status=STATUS_OK, payload_json=payload_json))
