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

HIDDEN_SIZES = (64, 64, 128)
LEARNING_RATE = np.float32(1e-5)  # float32, like every array of the model
TRAIN_BATCH_SIZE = 64
TRAIN_STEPS = 5
INTRINSIC_WEIGHT = 0.01  # scale of the novelty reward
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
    """hash_embed at DEFAULT_EMBED_DIM, memoized by text: the one store of
    state embeddings.

    Each distinct text is embedded once, into a float32 row of `table`,
    which starts at 64 rows and doubles as it fills. Call row() before
    reading `table`: embedding a new text may replace the table with a
    larger one.
    """

    def __init__(self):
        self.table = np.empty((64, DEFAULT_EMBED_DIM), dtype=np.float32)
        self._row_of: dict[str, int] = {}

    def row(self, text: str) -> int:
        """The row id of text's embedding, embedding it on first sight."""
        row = self._row_of.get(text)
        if row is None:
            row = len(self._row_of)
            if row == len(self.table):
                self.table = np.concatenate([self.table, np.empty_like(self.table)])
            self.table[row] = hash_embed(text)  # cast to float32 on store
            self._row_of[text] = row
        return row

    def embed(self, text: str) -> np.ndarray:
        row = self.row(text)  # before reading self.table, which row() may replace
        return self.table[row]


TARGET, PREDICTOR = 0, 1


class NetworkPair:
    """The frozen target and the trained predictor: two ReLU MLPs of the same
    shape, stacked so that one matmul per layer evaluates both.

    Layer k holds float32 weights of shape (2, fan_in, fan_out) and biases
    of shape (2, 1, fan_out); slice TARGET is the target, slice PREDICTOR
    the predictor. Only the predictor has a backward pass.
    """

    def __init__(self, sizes: tuple[int, ...], seed: int):
        # distinct streams so target and predictor never share weights
        rngs = [np.random.default_rng((seed, 1)), np.random.default_rng((seed, 2))]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = np.sqrt(6.0 / fan_in)
            w, b = [], []
            for rng in rngs:  # drawn in float64, as each stream always has been
                w.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
                b.append(rng.uniform(-1.0, 1.0, size=(1, fan_out)) / np.sqrt(fan_in))
            self.weights.append(np.stack(w).astype(np.float32))
            self.biases.append(np.stack(b).astype(np.float32))

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Both networks on x, a row or a batch of rows.

        Returns the activations for sgd_step(): the input as a batch, then
        each layer's output for both networks, of shape (2, rows, fan_out);
        the last is the networks' output.
        """
        h = x if x.ndim == 2 else x[None, :]
        activations = [h]
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(h, w)
            h += b
            if k < last:
                np.maximum(h, 0.0, out=h)
            activations.append(h)
        return activations

    def sgd_step(self, activations, out_grad: np.ndarray, lr):
        """The predictor's backward pass from d(loss)/d(its output), with an
        in-place SGD update of its slice; the target's stays as it is."""
        grad = out_grad
        for k in range(len(self.weights) - 1, -1, -1):
            inp = activations[0] if k == 0 else activations[k][PREDICTOR]
            gw = inp.T @ grad
            gb = grad.sum(axis=0)
            if k > 0:
                grad = grad @ self.weights[k][PREDICTOR].T
                grad *= inp > 0.0
            gw *= lr
            self.weights[k][PREDICTOR] -= gw
            gb *= lr
            self.biases[k][PREDICTOR] -= gb

    def parameter_bytes(self, net: int) -> bytes:
        """The weights and biases of one slice (TARGET or PREDICTOR)."""
        return b"".join(a[net].tobytes() for a in self.weights + self.biases)


class RunningNormalizer:
    """Per-dimension running mean/variance with output clamped to [-1, 1].

    The statistics are float32, like the embeddings they normalize: a
    float64 mean would make every normalized batch, and with it every
    matmul of the networks, float64.
    """

    def __init__(self, dim: int, clamp: float = OBS_CLAMP, eps: float = 1e-8):
        self.dim = dim
        self.clamp = np.float32(clamp)
        self.eps = np.float32(eps)
        self.count = 0
        self._mean = np.zeros(dim, dtype=np.float32)
        self._m2 = np.zeros(dim, dtype=np.float32)
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
    """FIFO buffer of visited states used to train the predictor.

    The FIFO is a ring of row ids into the embedding's table, so a state
    visited many times is stored once and sampled by its row.

    sample_weighted returns its unique rows in the order of their first
    occurrence in the draw. That order is part of the result: the
    predictor's gradient sums over rows, and summing floats in another
    order changes the trained weights, and with them every later search
    decision.
    """

    def __init__(self, embedding: HashEmbedding, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.embedding = embedding
        self.capacity = capacity
        self._ring = np.zeros(capacity, dtype=np.intp)  # row id per FIFO slot
        self._start = 0  # slot of the oldest entry
        self._len = 0

    def add(self, text: str):
        row = self.embedding.row(text)
        if self._len == self.capacity:
            self._ring[self._start] = row
            self._start = (self._start + 1) % self.capacity
        else:
            self._ring[(self._start + self._len) % self.capacity] = row
            self._len += 1

    def __len__(self) -> int:
        return self._len

    def sample_weighted(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample collapsed to unique rows with sampling weights.

        Equivalent to drawing batch_size entries for any loss that is a
        weighted mean over rows, but much cheaper when the buffer holds
        many repeats (states revisited across iterations share one row).
        """
        if not self._len:
            raise ValueError("buffer is empty")
        # the same draws as rng.integers(0, len), offset to ring slots: a
        # bounded draw depends only on the width of its range
        slots = rng.integers(self._start, self._start + self._len, size=batch_size)
        # Counter keys keep first-occurrence order
        counts = Counter(self._ring.take(slots, mode="wrap").tolist())
        weights = np.array([n / batch_size for n in counts.values()])
        return self.embedding.table.take(list(counts), axis=0), weights


class RndModel:
    """Frozen target network plus trainable predictor over state texts.

    The model owns the embedding of every text it sees and the FIFO buffer
    of observed states that the predictor trains on.
    """

    def __init__(self, output_gain: float = 1.0, seed: int = 0):
        self.networks = NetworkPair((DEFAULT_EMBED_DIM, *HIDDEN_SIZES), seed)
        self.normalizer = RunningNormalizer(DEFAULT_EMBED_DIM)
        self.embedding = HashEmbedding()
        self.buffer = StateBuffer(self.embedding)
        # feature scale applied to the output difference when scoring;
        # multiplies novelty by gain^2 without touching training dynamics
        self.output_gain = output_gain
        self._rng = np.random.default_rng((seed, 3))

    def observe(self, text: str):
        """Fold a visited state into the normalization statistics and the buffer."""
        self.normalizer.update(self.embedding.embed(text))
        self.buffer.add(text)

    def novelty_reward(self, text: str) -> float:
        z = self.normalizer.normalize(self.embedding.embed(text))
        out = self.networks.forward(z)[-1]
        diff = self.output_gain * (out[PREDICTOR] - out[TARGET])
        return INTRINSIC_WEIGHT * float((diff * diff).sum())

    def train_predictor(self):
        """SGD steps moving the predictor toward the frozen target.

        Each step trains on a weighted batch from the buffer; the loss is
        the squared error summed over output dims, averaged over the batch.
        """
        for _ in range(TRAIN_STEPS):
            batch_size = min(TRAIN_BATCH_SIZE, len(self.buffer))
            rows, weights = self.buffer.sample_weighted(batch_size, self._rng)
            activations = self.networks.forward(self.normalizer.normalize(rows))
            out = activations[-1]
            grad = out[PREDICTOR] - out[TARGET]  # 2 * (p - t) * weights, in place
            grad *= (2.0 * weights).astype(np.float32)[:, None]
            self.networks.sgd_step(activations, grad, LEARNING_RATE)
