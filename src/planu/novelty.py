"""Random-network-distillation novelty signal over embedded states.

A frozen randomly initialized target network and a trainable predictor
network are evaluated on normalized state embeddings; the squared output
difference is the novelty reward. The predictor is trained toward the
target on states sampled from every observe so far, so frequently visited
states lose novelty over time.

The one record of observed states is a count per embedding row. Both the
normalization statistics and the training draw are computed from those
counts, at their two readers: the first score of a training interval,
which freezes the statistics until the next training call, and each
training call, which reads the live counts. Nothing is evicted.
"""

from __future__ import annotations

import zlib

import numpy as np

HIDDEN_SIZES = (64, 64, 128)
LEARNING_RATE = np.float32(1e-5)  # float32, like every array of the model
TRAIN_BATCH_SIZE = 64
TRAIN_EVERY = 4  # search iterations per training call
# batches whose gradients are summed into one SGD step per call, 2.5 per
# iteration. It does not grow with TRAIN_EVERY: at 20 batches the summed
# step's gap to 20 separate steps reads 7.6e-2, over the 3e-2 that
# test_one_summed_step_stays_near_five_steps allows
TRAIN_STEPS = 10
INTRINSIC_WEIGHT = 0.01  # scale of the novelty reward
DEFAULT_EMBED_DIM = 384
OBS_CLAMP = 1.0
OBS_EPS = 1e-8  # the least scale a dimension is divided by


def hash_embed(text: str) -> np.ndarray:
    """Deterministic character-trigram feature hashing, L2-normalized.

    Offline stand-in for a sentence encoder: identical text gives an
    identical vector, the empty string gives the zero vector.
    """
    vec = np.zeros(DEFAULT_EMBED_DIM)
    if not text:
        return vec
    padded = f"  {text} "
    for i in range(len(padded) - 2):
        gram = padded[i : i + 3].encode("utf-8")
        h = zlib.crc32(gram)
        sign = 1.0 if (h >> 1) & 1 else -1.0
        vec[h % DEFAULT_EMBED_DIM] += sign
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
            # views of the predictor's slice: `self.weights[k][PREDICTOR] -= gw`
            # would also copy the updated slice back onto itself
            w, b = self.weights[k][PREDICTOR], self.biases[k][PREDICTOR]
            inp = activations[0] if k == 0 else activations[k][PREDICTOR]
            gw = inp.T @ grad
            gb = np.add.reduce(grad, axis=0)  # grad.sum(axis=0), without its wrapper
            if k > 0:
                grad = grad @ w.T
                grad *= inp > 0.0
            gw *= lr
            w -= gw
            gb *= lr
            b -= gb

    def parameter_bytes(self, net: int) -> bytes:
        """The weights and biases of one slice (TARGET or PREDICTOR)."""
        return b"".join(a[net].tobytes() for a in self.weights + self.biases)


def observed_statistics(rows: np.ndarray, counts: np.ndarray):
    """The per-dimension mean and scale of the observed embeddings: each of
    `rows` repeated as often as `counts` says.

    Returns the mean and the scale max(sqrt(M2 / N), eps), M2 being the
    summed squared deviation from the mean over all N observes; the scale
    is None below two observes, where normalize() only centres. Both are
    float32, like the embeddings: int64 counts would make them, and with
    them every normalized batch and every matmul of the networks, float64.
    """
    n = int(counts.sum())
    counts = counts.astype(np.float32)
    mean = counts @ rows
    mean /= max(n, 1)  # an empty record has mean 0, not 0/0
    if n < 2:
        return mean, None
    dev = rows - mean
    dev *= dev
    scale = counts @ dev
    scale /= n
    np.sqrt(scale, out=scale)
    return mean, np.maximum(scale, OBS_EPS, out=scale)


def normalize(x: np.ndarray, mean: np.ndarray, scale: np.ndarray | None) -> np.ndarray:
    """x, a row or a batch of rows, standardized by observed_statistics()
    and clamped to [-OBS_CLAMP, OBS_CLAMP]; x itself is left as it is."""
    out = x - mean
    if scale is not None:
        out /= scale
    # np.clip(out, -clamp, clamp) in place, without np.clip's per-call overhead
    np.maximum(out, -OBS_CLAMP, out=out)
    return np.minimum(out, OBS_CLAMP, out=out)


class StateBuffer:
    """The record of observed states: how often each row of the embedding's
    table was observed. The predictor trains on draws from it, and the
    normalization statistics are computed from it.

    Every observe is kept; nothing is evicted. Rows come back in row-id
    order, the order in which the embedding first saw their texts; the
    search observes each state before it first scores it, so that is the
    order of first observe. The order is part of the result: the
    predictor's gradient sums over rows, and summing floats in another
    order changes the trained weights, and with them every later search
    decision.
    """

    def __init__(self, embedding: HashEmbedding):
        self.embedding = embedding
        self._counts = np.zeros(len(embedding.table), dtype=np.intp)  # observes per row

    def add(self, text: str):
        row = self.embedding.row(text)
        if row >= len(self._counts):  # the table grew: grow with it
            self._counts = np.pad(self._counts, (0, len(self.embedding.table) - len(self._counts)))
        self._counts[row] += 1

    def __len__(self) -> int:
        return int(self._counts.sum())

    def observed(self) -> tuple[np.ndarray, np.ndarray]:
        """The observed rows, in row-id order, and their counts."""
        rows = np.flatnonzero(self._counts)
        return self.embedding.table[rows], self._counts[rows]

    def sample_weighted(self, size: int, rng: np.random.Generator):
        """One uniform draw of `size` of the observes, collapsed to its
        unique rows with sampling weights.

        Returns the unique rows, in row-id order, and their counts over
        `size`. The draw is rng.integers(0, len(self)), each id mapped to
        the row whose observes it falls among when the observes are laid
        out in row-id order. A weighted mean over the rows equals the mean
        over the drawn entries, and costs much less when states repeat.
        """
        ends = np.cumsum(self._counts)  # ends[r]: the observes of rows 0..r
        if not ends[-1]:
            raise ValueError("buffer is empty")
        ids = rng.integers(0, int(ends[-1]), size=size)
        drawn = np.bincount(ends.searchsorted(ids, side="right"))
        rows = np.flatnonzero(drawn)
        return self.embedding.table[rows], drawn[rows] / size


class RndModel:
    """Frozen target network plus trainable predictor over state texts.

    The model owns the embedding of every text it sees and the record of
    observed states, which the predictor trains on and its inputs are
    normalized by.
    """

    def __init__(self, output_gain: float = 1.0, seed: int = 0):
        self.networks = NetworkPair((DEFAULT_EMBED_DIM, *HIDDEN_SIZES), seed)
        self.embedding = HashEmbedding()
        self.buffer = StateBuffer(self.embedding)
        # feature scale applied to the output difference when scoring;
        # multiplies novelty by gain^2 without touching training dynamics
        self.output_gain = output_gain
        self._rng = np.random.default_rng((seed, 3))
        self._scores: dict[str, float] = {}  # text -> novelty, since the last training call
        self._frozen = None  # the (mean, scale) that scoring reads, since the last training call

    def observe(self, text: str):
        """Count a visited state in the record of observed states."""
        self.buffer.add(text)

    def novelty_reward(self, text: str) -> float:
        """The scaled squared distance between predictor and target on text.

        Between two training calls each text is scored once, and memoized:
        the first score after construction or training computes the
        normalization statistics from the counts observed so far, and
        every score up to the next training call reads those statistics
        and the unchanged predictor, so later observes do not change it.
        """
        score = self._scores.get(text)
        if score is None:
            if self._frozen is None:
                self._frozen = observed_statistics(*self.buffer.observed())
            z = normalize(self.embedding.embed(text), *self._frozen)
            out = self.networks.forward(z)[-1]
            diff = self.output_gain * (out[PREDICTOR] - out[TARGET])
            diff *= diff
            score = self._scores[text] = INTRINSIC_WEIGHT * float(np.add.reduce(diff, axis=None))
        return score

    def train_predictor(self):
        """One SGD step moving the predictor toward the frozen target.

        The loss is the squared error summed over output dims, averaged
        over each of TRAIN_STEPS batches and summed over the batches. One
        draw from every observe so far gives all of the batches' entries,
        whose unique rows take one forward pass and one backward pass. To
        first order in the learning rate, the step equals TRAIN_STEPS
        steps, one per batch; the higher orders are why TRAIN_STEPS stops
        at 10. The search calls it once every TRAIN_EVERY iterations: 2.5
        batches per iteration.

        The draw is normalized with statistics computed from the live
        counts, every observe included. The step ends the scoring
        interval: it forgets the memoized scores and the statistics that
        they read.
        """
        batch_size = min(TRAIN_BATCH_SIZE, len(self.buffer))
        rows, weights = self.buffer.sample_weighted(TRAIN_STEPS * batch_size, self._rng)
        z = normalize(rows, *observed_statistics(*self.buffer.observed()))
        activations = self.networks.forward(z)
        out = activations[-1]
        grad = out[PREDICTOR] - out[TARGET]  # 2 * (p - t) * count / batch_size, in place
        grad *= (2.0 * TRAIN_STEPS * weights).astype(np.float32)[:, None]
        self.networks.sgd_step(activations, grad, LEARNING_RATE)
        self._scores.clear()
        self._frozen = None
