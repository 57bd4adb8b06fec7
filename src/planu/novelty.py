"""Random-network-distillation novelty signal over embedded states.

A frozen randomly initialized target network and a trainable predictor
network are evaluated on normalized state embeddings; the squared output
difference is the novelty reward. The predictor is trained toward the
target on states sampled from a FIFO buffer, so frequently visited states
lose novelty over time.
"""

from __future__ import annotations

import zlib
from collections import Counter

import numpy as np

DEFAULT_HIDDEN_SIZES = (64, 64, 128)
DEFAULT_LEARNING_RATE = 1e-5
DEFAULT_INTRINSIC_WEIGHT = 0.01
DEFAULT_EMBED_DIM = 384
OBS_CLAMP = 1.0


def hash_embed(text: str, d_e: int = DEFAULT_EMBED_DIM) -> np.ndarray:
    """Deterministic character-trigram feature hashing, L2-normalized.

    Offline stand-in for a sentence encoder: identical text gives an
    identical vector, the empty string gives the zero vector.
    """
    vec = np.zeros(d_e)
    if not text:
        return vec
    padded = f"  {text} "
    for i in range(len(padded) - 2):
        gram = padded[i : i + 3].encode("utf-8")
        h = zlib.crc32(gram)
        sign = 1.0 if (h >> 1) & 1 else -1.0
        vec[h % d_e] += sign
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


class HashEmbedding:
    """hash_embed at DEFAULT_EMBED_DIM, memoized by text."""

    def __init__(self):
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, text: str) -> np.ndarray:
        vec = self._cache.get(text)
        if vec is None:
            vec = hash_embed(text)
            self._cache[text] = vec
        return vec


class Mlp:
    """Small ReLU MLP with manual forward/backward (numpy)."""

    def __init__(self, sizes, rng: np.random.Generator):
        self.sizes = tuple(sizes)
        self.weights = []
        self.biases = []
        for k in range(len(self.sizes) - 1):
            fan_in = self.sizes[k]
            bound = np.sqrt(6.0 / fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, self.sizes[k + 1]))
            b = rng.uniform(-1.0, 1.0, size=self.sizes[k + 1]) / np.sqrt(fan_in)
            self.weights.append(w)
            self.biases.append(b)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping pre-activation inputs for backward()."""
        h = np.atleast_2d(x)
        cache = [h]
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if k < len(self.weights) - 1:
                h = np.maximum(h, 0.0)
            cache.append(h)
        return h, cache

    def sgd_step(self, cache, out_grad: np.ndarray, lr: float):
        """Backward pass from d(loss)/d(output), in-place SGD update."""
        grad = out_grad
        for k in range(len(self.weights) - 1, -1, -1):
            inp = cache[k]
            gw = inp.T @ grad
            gb = grad.sum(axis=0)
            if k > 0:
                grad = (grad @ self.weights[k].T) * (cache[k] > 0.0)
            self.weights[k] -= lr * gw
            self.biases[k] -= lr * gb

    def parameter_bytes(self) -> bytes:
        return b"".join(a.tobytes() for a in self.weights + self.biases)


class RunningNormalizer:
    """Per-dimension running mean/variance with output clamped to [-1, 1]."""

    def __init__(self, dim: int, clamp: float = OBS_CLAMP, eps: float = 1e-8):
        self.dim = dim
        self.clamp = clamp
        self.eps = eps
        self.count = 0
        self._mean = np.zeros(dim)
        self._m2 = np.zeros(dim)
        self._scale = None  # max(std, eps), cached until the next update

    def update(self, x: np.ndarray):
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        self._scale = None

    def normalize(self, x: np.ndarray) -> np.ndarray:
        out = x - self._mean
        if self.count >= 2:
            if self._scale is None:
                self._scale = np.maximum(np.sqrt(self._m2 / self.count), self.eps)
            out /= self._scale
        # np.clip(out, -clamp, clamp) in place, without np.clip's per-call overhead
        np.maximum(out, -self.clamp, out=out)
        return np.minimum(out, self.clamp, out=out)


class StateBuffer:
    """FIFO buffer of embedded states used to train the predictor.

    Each distinct embedding object is stored once, as a row of a table;
    the FIFO is a ring of row ids. Rows are keyed by object identity (the
    buffer keeps a reference to each keyed object, so an id is never
    reused while its row is live), which is how the planner shares one
    cached embedding between visits of a state.

    sample_weighted returns its unique rows in the order of their first
    occurrence in the draw. That order is part of the result: the
    predictor's gradient sums over rows, and summing floats in another
    order changes the trained weights, and with them every later search
    decision.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring = np.zeros(capacity, dtype=np.intp)  # row id per FIFO slot
        self._start = 0  # slot of the oldest entry
        self._len = 0
        self._table: np.ndarray | None = None  # one row per live embedding object
        self._row_of: dict[int, int] = {}  # id(object) -> row
        self._keyed: list = []  # row -> the object keyed there, or None when free
        self._refs: list[int] = []  # row -> number of ring slots holding it
        self._free: list[int] = []

    def add(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        row = self._row_of.get(id(x))
        if row is None:
            row = self._new_row(x)
        self._refs[row] += 1  # before the eviction below, so that it cannot free this row
        if self._len == self.capacity:
            self._release(int(self._ring[self._start]))
            self._ring[self._start] = row
            self._start = (self._start + 1) % self.capacity
        else:
            self._ring[(self._start + self._len) % self.capacity] = row
            self._len += 1

    def _new_row(self, x: np.ndarray) -> int:
        if self._table is None:
            self._table = np.empty((min(64, self.capacity + 1), *x.shape))
        elif x.shape != self._table.shape[1:]:
            raise ValueError(f"expected state of shape {self._table.shape[1:]}, got {x.shape}")
        if self._free:
            row = self._free.pop()
            self._keyed[row] = x
        else:
            row = len(self._keyed)
            if row == len(self._table):
                # double, up to capacity + 1 rows: a new state takes its row
                # before the state it evicts frees one
                grown = np.empty((min(2 * row, self.capacity + 1), *x.shape))
                grown[:row] = self._table
                self._table = grown
            self._keyed.append(x)
            self._refs.append(0)
        self._table[row] = x
        self._row_of[id(x)] = row
        return row

    def _release(self, row: int):
        self._refs[row] -= 1
        if self._refs[row] == 0:
            del self._row_of[id(self._keyed[row])]
            self._keyed[row] = None
            self._free.append(row)

    def __len__(self) -> int:
        return self._len

    def sample_weighted(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample collapsed to unique rows with sampling weights.

        Equivalent to drawing batch_size entries for any loss that is a
        weighted mean over rows, but much cheaper when the buffer holds
        many repeats (states revisited across iterations share one cached
        embedding object).
        """
        if not self._len:
            raise ValueError("buffer is empty")
        # the same draws as rng.integers(0, len), offset to ring slots: a
        # bounded draw depends only on the width of its range
        slots = rng.integers(self._start, self._start + self._len, size=batch_size)
        # Counter keys keep first-occurrence order
        counts = Counter(self._ring.take(slots, mode="wrap").tolist())
        weights = np.array([n / batch_size for n in counts.values()])
        return self._table.take(list(counts), axis=0), weights


class RndModel:
    """Frozen target network plus trainable predictor over embeddings."""

    def __init__(
        self,
        embed_dim: int = DEFAULT_EMBED_DIM,
        hidden_sizes=DEFAULT_HIDDEN_SIZES,
        learning_rate: float = DEFAULT_LEARNING_RATE,
        intrinsic_reward_weight: float = DEFAULT_INTRINSIC_WEIGHT,
        output_gain: float = 1.0,
        seed: int = 0,
    ):
        sizes = (embed_dim, *hidden_sizes)
        # distinct streams so target and predictor never share weights
        self.target = Mlp(sizes, np.random.default_rng((seed, 1)))
        self.predictor = Mlp(sizes, np.random.default_rng((seed, 2)))
        self.normalizer = RunningNormalizer(embed_dim)
        # feature scale applied to the output difference when scoring;
        # multiplies novelty by gain^2 without touching training dynamics
        self.output_gain = output_gain
        self.learning_rate = learning_rate
        self.intrinsic_reward_weight = intrinsic_reward_weight
        self.embed_dim = embed_dim
        self._rng = np.random.default_rng((seed, 3))

    def observe(self, x: np.ndarray):
        """Fold an embedding into the running normalization statistics."""
        self.normalizer.update(np.asarray(x, dtype=np.float64))

    def novelty_reward(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.embed_dim,):
            raise ValueError(f"expected embedding of dim {self.embed_dim}, got {x.shape}")
        z = self.normalizer.normalize(x)
        diff = self.output_gain * (self.predictor.forward(z) - self.target.forward(z))
        return self.intrinsic_reward_weight * float((diff * diff).sum())

    def train_predictor(self, buffer: StateBuffer, batch_size: int = 64, steps: int = 5):
        """SGD steps moving the predictor toward the frozen target.

        Each step trains on a weighted batch from the buffer; the loss is
        the squared error summed over output dims, averaged over the batch.
        """
        if len(buffer) == 0:
            raise ValueError("buffer is empty")
        for _ in range(steps):
            rows, weights = buffer.sample_weighted(min(batch_size, len(buffer)), self._rng)
            z = self.normalizer.normalize(rows)
            t = self.target.forward(z)
            p, cache = self.predictor.forward_cached(z)
            self.predictor.sgd_step(cache, 2.0 * (p - t) * weights[:, None], self.learning_rate)
