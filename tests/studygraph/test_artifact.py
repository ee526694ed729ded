"""Tests for content-addressed artifacts (canonical JSON + store)."""

import datetime

import pytest

from repro.bugdb.enums import Application, FaultClass
from repro.studygraph.artifact import (
    ArtifactStore,
    OutputView,
    artifact_digest,
    canonical_json,
    encode_artifact,
    jsonable,
)


class TestJsonable:
    def test_enums_become_values(self):
        assert jsonable(Application.APACHE) == "apache"
        assert jsonable(FaultClass.ENV_INDEPENDENT) == "environment-independent"

    def test_dates_become_iso_strings(self):
        assert jsonable(datetime.date(1999, 3, 14)) == "1999-03-14"

    def test_tuples_become_lists(self):
        assert jsonable((1, ("a", 2))) == [1, ["a", 2]]

    def test_enum_keyed_mappings_use_values(self):
        assert jsonable({Application.MYSQL: 44}) == {"mysql": 44}

    def test_scalars_pass_through(self):
        for value in ("x", 3, 2.5, True, None):
            assert jsonable(value) == value

    def test_unconvertible_objects_are_rejected(self):
        with pytest.raises(TypeError, match="JSON-compatible"):
            jsonable(object())


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'

    def test_non_ascii_is_escaped(self):
        assert "\\u" in canonical_json({"s": "café"})


class TestArtifactDigest:
    def test_stable_for_equal_payloads(self):
        assert artifact_digest({"x": 1, "y": 2}) == artifact_digest({"y": 2, "x": 1})

    def test_differs_on_content_change(self):
        assert artifact_digest({"x": 1}) != artifact_digest({"x": 2})

    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 9, 1 << 20, (3 << 20) + 5])
    def test_sliced_hash_equals_one_shot_hash(self, size):
        import hashlib

        # Non-ASCII characters escape to several ASCII ones; the sizes
        # give texts of under one, about one and several slices.
        payload = {"records": ["café ☃ " * (size // 20), "x" * size]}
        one_shot = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
        assert artifact_digest(payload) == one_shot

    def test_size_is_the_canonical_encoding_length(self):
        payload = {"s": "café ☃", "n": [1, 2.5, None]}
        encoded = encode_artifact(payload)
        assert encoded.digest == artifact_digest(payload)
        assert encoded.size == len(canonical_json(payload))
        assert encoded.size == len(canonical_json(payload).encode("utf-8"))


class TestEncodeArtifact:
    """One encoding gives the canonical text, its digest, size and text span."""

    PAYLOADS = [
        {},
        {"text": "plain"},
        # A nested "text" key under an earlier top-level key.
        {"a": {"text": "nested"}, "b": [{"text": 1}], "text": "top", "z": 2},
        # Non-ASCII text escapes to several ASCII characters each.
        {"rows": ["café"], "text": "naïve ☃ – résumé\n", "title": "x"},
        # No "text" at all, but keys sorting around where it would be.
        {"tex": 1, "texts": {"text": "inner"}, "u": None},
        {"text": None, "n": 2.5},
    ]

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_pieces_join_to_the_canonical_encoding(self, payload):
        import hashlib

        encoded = encode_artifact(payload)
        text = "".join(encoded.pieces)
        assert text == canonical_json(payload)
        assert encoded.size == len(text)
        assert encoded.digest == hashlib.sha256(text.encode("ascii")).hexdigest()

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_text_span_slices_out_the_text_value(self, payload):
        from repro.serve.protocol import encode_json

        encoded = encode_artifact(payload)
        text = "".join(encoded.pieces)
        if "text" not in payload:
            assert encoded.text_span is None
        else:
            start, end = encoded.text_span
            assert text[start:end].encode("ascii") == encode_json(payload["text"])

    def test_large_member_is_not_joined_with_the_rest(self):
        payload = {"blob": "x" * (3 << 20), "text": "t"}
        encoded = encode_artifact(payload)
        assert max(len(piece) for piece in encoded.pieces) == len('"' + payload["blob"] + '"')

    def test_non_string_keys_are_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            encode_artifact({1: "a"})


class RecordingStore(ArtifactStore):
    """Loads ``{"name": name}`` for any name and records each load."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def load(self, name):
        self.calls.append(name)
        return {"name": name}


class TestArtifactStore:
    def test_put_then_get(self):
        store = ArtifactStore()
        store.put("a", {"v": 1})
        assert store.has("a")
        assert store.get("a") == {"v": 1}

    def test_missing_without_loader_raises(self):
        with pytest.raises(KeyError, match="not materialized"):
            ArtifactStore().get("ghost")

    def test_loader_runs_once_per_name(self):
        store = RecordingStore()
        assert store.get("a") == {"name": "a"}
        assert store.get("a") == {"name": "a"}
        assert store.calls == ["a"]

    def test_subset_materializes_each_name(self):
        store = RecordingStore()
        assert store.subset(("a", "b")) == {"a": {"name": "a"}, "b": {"name": "b"}}

    def test_retain_drops_other_payloads_until_reloaded(self):
        store = RecordingStore()
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        store.retain(["a"])
        assert store.has("a") and not store.has("b")
        assert store.get("b") == {"name": "b"}
        assert store.calls == ["b"]


class TestOutputView:
    def test_loads_only_the_names_it_is_asked_for(self):
        store = RecordingStore()
        view = OutputView(store, ["a", "b", "a"])
        assert list(view) == ["a", "b"]
        assert len(view) == 2
        assert "a" in view and "c" not in view
        assert store.calls == []
        assert view["b"] == {"name": "b"}
        assert store.calls == ["b"]
        assert view == {"a": {"name": "a"}, "b": {"name": "b"}}

    def test_unrequested_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            OutputView(RecordingStore(), ["a"])["b"]
