"""Tests for the content-addressed parse/mine cache."""

import json

from repro.pipeline import CACHE_FORMAT_VERSION, ParseMineCache, archive_digest


class TestArchiveDigest:
    def test_stable(self):
        assert archive_digest("abc") == archive_digest("abc")

    def test_content_addressed(self):
        assert archive_digest("abc") != archive_digest("abd")

    def test_hex_sha256(self):
        digest = archive_digest("")
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("archive body")
        cache.store(digest, "parse.mysql.v1", {"records": [1, 2, 3]})
        assert cache.load(digest, "parse.mysql.v1") == {"records": [1, 2, 3]}

    def test_missing_entry_is_none(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        assert cache.load(archive_digest("x"), "parse.mysql.v1") is None

    def test_tags_keep_entries_apart(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("x")
        cache.store(digest, "parse.mysql.v1", {"stage": "parse"})
        cache.store(digest, "mine.mysql.p1.m1", {"stage": "mine"})
        assert cache.load(digest, "parse.mysql.v1") == {"stage": "parse"}
        assert cache.load(digest, "mine.mysql.p1.m1") == {"stage": "mine"}

    def test_constructing_cache_touches_nothing(self, tmp_path):
        ParseMineCache(tmp_path / "never-created")
        assert not (tmp_path / "never-created").exists()

    def test_stored_bytes_are_compact_json_of_the_envelope(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("x")
        data = {"records": [{"b": 1.5, "a": "café"}, None], "n": 3}
        path = cache.store(digest, "parse.mysql.v1", data)
        envelope = {
            "cache_format": CACHE_FORMAT_VERSION,
            "digest": digest,
            "tag": "parse.mysql.v1",
            "data": data,
        }
        expected = json.dumps(envelope, separators=(",", ":"))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_encoded_pieces_are_stored_verbatim(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("x")
        data = {"b": [1, 2], "a": "caf\u00e9"}
        pieces = ('{"a":"caf\\u00e9",', '"b":[1,2]', "}")
        path = cache.store(digest, "sgdata", pieces)
        assert cache.load(digest, "sgdata") == data
        assert bytes(cache.load_encoded(digest, "sgdata")) == "".join(pieces).encode()
        wrapper = '{"cache_format":%d,"digest":"%s","tag":"sgdata","data":' % (
            CACHE_FORMAT_VERSION,
            digest,
        )
        assert path.read_text(encoding="ascii") == wrapper + "".join(pieces) + "}"

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        cache.store(archive_digest("x"), "parse.mysql.v1", {})
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []


class TestCorruptEntries:
    def test_truncated_json_is_a_miss(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("x")
        path = cache.store(digest, "parse.mysql.v1", {"records": []})
        path.write_text(path.read_text()[:10], encoding="utf-8")
        assert cache.load(digest, "parse.mysql.v1") is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("x")
        path = cache.store(digest, "parse.mysql.v1", {"records": []})
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["cache_format"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(digest, "parse.mysql.v1") is None

    def test_non_dict_payload_is_a_miss(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("x")
        path = cache.store(digest, "parse.mysql.v1", {})
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert cache.load(digest, "parse.mysql.v1") is None


class TestEncodedLoads:
    def test_wrapper_damage_is_a_miss(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("x")
        path = cache.store(digest, "sgdata", {"n": 1})
        assert bytes(cache.load_encoded(digest, "sgdata")) == b'{"n":1}'
        assert cache.load_encoded(digest, "sgmeta") is None
        assert cache.load_encoded(archive_digest("y"), "sgdata") is None
        raw = path.read_bytes()
        for damaged in (raw.replace(b'"tag"', b'"tog"'), raw[:-3], b""):
            path.write_bytes(damaged)
            assert cache.load_encoded(digest, "sgdata") is None
        # The data inside an intact wrapper is not checked here.
        path.write_bytes(raw.replace(b'"n":1', b'"n":?'))
        assert bytes(cache.load_encoded(digest, "sgdata")) == b'{"n":?}'
        assert (cache.hits, cache.misses) == (2, 5)


class TestCounters:
    def test_hits_and_misses_accumulate(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("x")
        cache.load(digest, "parse.mysql.v1")
        cache.store(digest, "parse.mysql.v1", {})
        cache.load(digest, "parse.mysql.v1")
        assert cache.hits == 1
        assert cache.misses == 1


class TestInvalidation:
    def test_invalidate_one_digest(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        keep, drop = archive_digest("keep"), archive_digest("drop")
        cache.store(keep, "parse.mysql.v1", {})
        cache.store(drop, "parse.mysql.v1", {})
        cache.store(drop, "mine.mysql.p1.m1", {})
        assert cache.invalidate(drop) == 2
        assert cache.entry_count() == 1
        assert cache.load(keep, "parse.mysql.v1") is not None
        assert cache.load(drop, "parse.mysql.v1") is None

    def test_invalidate_everything(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        for body in ("a", "b", "c"):
            cache.store(archive_digest(body), "parse.mysql.v1", {})
        assert cache.invalidate() == 3
        assert cache.entry_count() == 0

    def test_invalidate_empty_cache(self, tmp_path):
        assert ParseMineCache(tmp_path / "empty").invalidate() == 0

    def test_entry_paths_filters_by_digest(self, tmp_path):
        cache = ParseMineCache(tmp_path)
        digest = archive_digest("a")
        cache.store(digest, "parse.mysql.v1", {})
        cache.store(archive_digest("b"), "parse.mysql.v1", {})
        assert len(cache.entry_paths(digest)) == 1
        assert len(cache.entry_paths()) == 2
