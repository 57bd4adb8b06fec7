"""Offline pieces of a language-model prior: the action-proposal record,
the request digest and an on-disk response cache.

Responses are cached as one JSON file per request digest, so a prior
policy can replay recorded responses with zero network calls. Nothing on
the `run_search` or `plan` path imports this module yet; the HTTP clients
that filled the cache were removed because no endpoint or recorded
responses ship with the repository.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass


@dataclass(frozen=True)
class ActionProposal:
    action_text: str
    token_probs: tuple[float, ...]
    prior: float

    def __post_init__(self):
        if not (0.0 <= self.prior <= 1.0):
            raise ValueError(f"prior must be in [0, 1], got {self.prior}")


class ResponseCache:
    """Content-addressed JSON cache; writes are write-once-then-rename."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> dict | None:
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def put(self, key: str, value: dict) -> None:
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(value, fh, sort_keys=True)
        os.replace(tmp, self._path(key))


def request_digest(model: str, prompt: str, temperature: float, max_tokens: int) -> str:
    blob = json.dumps(
        {"model": model, "prompt": prompt, "temperature": temperature, "max_tokens": max_tokens},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
