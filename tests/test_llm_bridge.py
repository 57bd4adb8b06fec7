import json

import pytest

from planu.llm_bridge import ActionProposal, ResponseCache, request_digest


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(str(tmp_path))
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}

    def test_files_are_valid_json(self, tmp_path):
        cache = ResponseCache(str(tmp_path))
        cache.put("k", {"a": [1, 2]})
        with open(tmp_path / "k.json", encoding="utf-8") as fh:
            assert json.load(fh) == {"a": [1, 2]}

    def test_overwrite_replaces_value(self, tmp_path):
        cache = ResponseCache(str(tmp_path))
        cache.put("k", {"v": 1})
        cache.put("k", {"v": 2})
        assert cache.get("k") == {"v": 2}


class TestRequestDigest:
    def test_stable_and_sensitive(self):
        a = request_digest("m", "p", 0.7, 256)
        assert a == request_digest("m", "p", 0.7, 256)
        assert a != request_digest("m", "p2", 0.7, 256)
        assert a != request_digest("m", "p", 0.0, 256)


class TestActionProposal:
    def test_prior_bounds_enforced(self):
        ActionProposal("a", (), 0.5)
        with pytest.raises(ValueError):
            ActionProposal("a", (), 1.5)
        with pytest.raises(ValueError):
            ActionProposal("a", (), -0.1)
