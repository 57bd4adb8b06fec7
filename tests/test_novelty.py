from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planu import planner
from planu.envs import generate_instance
from planu.novelty import (
    PREDICTOR,
    TARGET,
    HashEmbedding,
    NetworkPair,
    RndModel,
    RunningNormalizer,
    StateBuffer,
    hash_embed,
)


def embed32(text):
    """hash_embed, the float64 reference, as the float32 row the model stores."""
    return hash_embed(text).astype(np.float32)


class TestHashEmbed:
    def test_deterministic(self):
        np.testing.assert_array_equal(hash_embed("state-a"), hash_embed("state-a"))

    def test_unit_norm_for_nonempty(self):
        assert np.linalg.norm(hash_embed("hello world")) == pytest.approx(1.0)

    def test_empty_string_is_zero_vector(self):
        np.testing.assert_array_equal(hash_embed(""), np.zeros(384))

    def test_distinct_text_distinct_vector(self):
        assert not np.array_equal(hash_embed("abc"), hash_embed("xyz"))

    def test_dimension_parameter(self):
        assert hash_embed("abc", 16).shape == (16,)

    def test_provider_memoizes_one_row_per_text(self):
        provider = HashEmbedding()
        assert provider.row("s") == provider.row("s") == 0
        assert provider.embed("s").tobytes() == embed32("s").tobytes()
        # grow the table well past its first 64 rows; earlier rows stay intact
        texts = [f"state-{i}" for i in range(200)]
        rows = [provider.row(t) for t in texts]
        assert rows == list(range(1, 201))
        assert len(provider.table) >= 201
        assert provider.row("s") == 0
        for t in ["s", *texts]:
            assert provider.embed(t).tobytes() == embed32(t).tobytes()


class TestMlp:
    """The target and predictor MLPs, stacked in one NetworkPair."""

    def test_output_shape(self):
        net = NetworkPair((8, 4, 3), seed=0)
        out = net.forward(np.zeros(8, dtype=np.float32))[-1]
        assert out.shape == (2, 1, 3)
        out = net.forward(np.zeros((5, 8), dtype=np.float32))[-1]
        assert out.shape == (2, 5, 3)

    def test_distinct_seeds_distinct_weights(self):
        a = NetworkPair((8, 4), seed=0)
        b = NetworkPair((8, 4), seed=1)
        assert a.parameter_bytes(PREDICTOR) != b.parameter_bytes(PREDICTOR)
        assert a.parameter_bytes(TARGET) != a.parameter_bytes(PREDICTOR)

    def test_sgd_step_reduces_regression_loss(self):
        rng = np.random.default_rng(0)
        net = NetworkPair((4, 8, 2), seed=0)
        x = rng.normal(size=(16, 4)).astype(np.float32)
        y = rng.normal(size=(16, 2)).astype(np.float32)

        def loss():
            d = net.forward(x)[-1][PREDICTOR] - y
            return float((d * d).sum(axis=1).mean())

        before = loss()
        for _ in range(200):
            activations = net.forward(x)
            net.sgd_step(activations, 2.0 * (activations[-1][PREDICTOR] - y) / len(x), lr=0.01)
        assert loss() < before

    def test_gradient_matches_finite_differences(self):
        # the backward pass is dtype-generic: check it on float64 copies of
        # the weights, where finite differences are accurate
        rng = np.random.default_rng(3)
        net = NetworkPair((3, 5, 2), seed=3)
        net.weights = [w.astype(np.float64) for w in net.weights]
        net.biases = [b.astype(np.float64) for b in net.biases]
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 2))
        activations = net.forward(x)
        # capture analytic parameter gradients via a unit-lr step delta
        w_before = [w.copy() for w in net.weights]
        b_before = [b.copy() for b in net.biases]
        net.sgd_step(activations, 2.0 * (activations[-1][PREDICTOR] - y), lr=1.0)
        analytic_w = [wb - w for wb, w in zip(w_before, net.weights)]
        net.weights = [w.copy() for w in w_before]
        net.biases = [b.copy() for b in b_before]

        def loss():
            d = net.forward(x)[-1][PREDICTOR] - y
            return float((d * d).sum())

        eps = 1e-6
        for k in range(len(net.weights)):
            for idx in [(PREDICTOR, 0, 0), (PREDICTOR, 1, 1)]:
                net.weights[k][idx] += eps
                up = loss()
                net.weights[k][idx] -= 2 * eps
                down = loss()
                net.weights[k][idx] += eps
                fd = (up - down) / (2 * eps)
                assert analytic_w[k][idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)
            assert not analytic_w[k][TARGET].any()

    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_stacked_forward_equals_per_slice_forwards(self, rows):
        net = NetworkPair((384, 64, 64, 128), seed=5)
        shape = (384,) if rows is None else (rows, 384)
        x = np.random.default_rng(rows or 0).uniform(-1.0, 1.0, size=shape).astype(np.float32)
        out = net.forward(x)[-1]
        for i in (TARGET, PREDICTOR):
            h = x if x.ndim == 2 else x[None, :]
            for k, (w, b) in enumerate(zip(net.weights, net.biases)):
                h = h @ w[i] + b[i]
                if k < len(net.weights) - 1:
                    h = np.maximum(h, 0.0)
            assert out[i].dtype == h.dtype == np.float32
            # float32 rounding, summed over up to 384 products
            tol = 100 * np.finfo(np.float32).eps
            np.testing.assert_allclose(out[i], h, rtol=tol, atol=tol)


class TestRunningNormalizer:
    def test_standardizes_gaussian_data(self):
        rng = np.random.default_rng(0)
        norm = RunningNormalizer(3, clamp=10.0)
        data = rng.normal(loc=[1.0, -2.0, 5.0], scale=[0.5, 2.0, 1.0], size=(5000, 3))
        for row in data:
            norm.update(row)
        z = np.stack([norm.normalize(row) for row in data[:500]])
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=0.15)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=0.15)

    def test_clamps_outliers(self):
        norm = RunningNormalizer(1)
        for v in (0.0, 1.0, 0.5, 0.4):
            norm.update(np.array([v]))
        assert norm.normalize(np.array([1e9]))[0] == 1.0
        assert norm.normalize(np.array([-1e9]))[0] == -1.0

    def test_works_on_batches(self):
        norm = RunningNormalizer(2)
        norm.update(np.array([0.0, 0.0]))
        norm.update(np.array([1.0, 2.0]))
        out = norm.normalize(np.zeros((4, 2)))
        assert out.shape == (4, 2)

    @settings(max_examples=50, deadline=None)
    @given(
        updates=st.lists(
            st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3), min_size=0, max_size=8
        ),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_normalize_matches_from_scratch_formula(self, updates, batch, seed):
        norm = RunningNormalizer(3, eps=1e-3)
        rng = np.random.default_rng(seed)

        def check():
            # the cached scale must equal the formula on the current statistics
            for x in (rng.normal(scale=3.0, size=3), rng.normal(scale=3.0, size=(batch, 3))):
                x = x.astype(np.float32)
                before = x.copy()
                if norm.count < 2:
                    expect = np.clip(x - norm._mean, -norm.clamp, norm.clamp)
                else:
                    scale = np.maximum(np.sqrt(norm._m2 / norm.count), norm.eps)
                    expect = np.clip((x - norm._mean) / scale, -norm.clamp, norm.clamp)
                got = norm.normalize(x)
                assert got.tobytes() == expect.tobytes()
                assert x.tobytes() == before.tobytes()

        check()
        for u in updates:
            norm.update(np.array(u, dtype=np.float32))
            check()
            check()


class DequeBuffer:
    """The FIFO of state texts deduplicated by text while sampling: the
    reference StateBuffer must reproduce bit for bit."""

    def __init__(self, capacity):
        self._entries = deque(maxlen=capacity)

    def add(self, text):
        self._entries.append(text)

    def __len__(self):
        return len(self._entries)

    def sample_weighted(self, batch_size, rng):
        idx = rng.integers(0, len(self._entries), size=batch_size)
        counts = {}
        for i in idx:
            text = self._entries[i]
            counts[text] = counts.get(text, 0) + 1
        rows = np.stack([embed32(text) for text in counts])
        weights = np.array(list(counts.values()), dtype=np.float64)
        return rows, weights / batch_size


# a run of buffer operations: ("add", index into a pool of shared texts,
# or -1 for a fresh text) or ("sample", batch size)
BUFFER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(-1, 5)),
        st.tuples(st.just("sample"), st.integers(1, 40)),
    ),
    min_size=1,
    max_size=60,
)


def new_buffer(capacity=10_000):
    return StateBuffer(HashEmbedding(), capacity)


def texts_of(rows):
    """The texts of "0".."9" whose embeddings are the given rows."""
    by_bytes = {embed32(str(i)).tobytes(): str(i) for i in range(10)}
    return [by_bytes[r.tobytes()] for r in rows]


class TestStateBuffer:
    def test_fifo_eviction(self):
        buf = new_buffer(capacity=3)
        for i in range(5):
            buf.add(str(i))
        assert len(buf) == 3
        rows, _ = buf.sample_weighted(100, np.random.default_rng(0))
        assert set(texts_of(rows)) <= {"2", "3", "4"}

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            new_buffer().sample_weighted(1, np.random.default_rng(0))

    @staticmethod
    def assert_same_as_deque_buffer(ops, capacity, seed):
        pool = [f"shared-{k}" for k in range(6)]
        buf, ref = new_buffer(capacity), DequeBuffer(capacity)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for i, (op, arg) in enumerate(ops):
            if op == "add":
                text = f"fresh-{i}" if arg < 0 else pool[arg]
                buf.add(text)
                ref.add(text)
                assert len(buf) == len(ref)
            elif len(ref):
                rows, weights = buf.sample_weighted(arg, rng)
                ref_rows, ref_weights = ref.sample_weighted(arg, ref_rng)
                assert rows.tobytes() == ref_rows.tobytes()
                assert weights.tobytes() == ref_weights.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(ops=BUFFER_OPS, capacity=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_sample_weighted_bit_identical_to_deque_buffer(self, ops, capacity, seed):
        self.assert_same_as_deque_buffer(ops, capacity, seed)

    @pytest.mark.parametrize("capacity", [100, 1000])
    def test_bit_identical_while_the_row_table_grows(self, capacity):
        # hundreds of distinct states, with repeats, so the embedding table
        # outgrows its first rows and, at the smaller capacity, the ring wraps
        rng = np.random.default_rng(capacity)
        ops = []
        for _ in range(400):
            ops.append(("add", -1 if rng.random() < 0.6 else int(rng.integers(0, 6))))
            ops.append(("sample", 64))
        self.assert_same_as_deque_buffer(ops, capacity, seed=capacity)

    @settings(max_examples=20, deadline=None)
    @given(adds=st.lists(st.integers(-1, 7), min_size=1, max_size=40),
           capacity=st.integers(1, 16), seed=st.integers(0, 2**16))
    def test_training_bit_identical_to_deque_buffer(self, adds, capacity, seed):
        model, ref_model = RndModel(seed=seed), RndModel(seed=seed)
        model.buffer = StateBuffer(model.embedding, capacity)
        ref_model.buffer = DequeBuffer(capacity)
        for i, k in enumerate(adds):
            text = f"fresh-{i}" if k < 0 else f"shared-{k}"
            for m in (model, ref_model):
                m.observe(text)
                if i % 2:
                    m.train_predictor()
        assert (model.networks.parameter_bytes(PREDICTOR)
                == ref_model.networks.parameter_bytes(PREDICTOR))

    def test_bad_capacity_raises(self):
        with pytest.raises(ValueError):
            new_buffer(capacity=0)

    def test_sample_weighted_weights_sum_to_one(self):
        buf = new_buffer()
        for _ in range(10):
            buf.add("0")
        buf.add("1")
        rows, weights = buf.sample_weighted(64, np.random.default_rng(0))
        assert weights.sum() == pytest.approx(1.0)
        assert rows.shape[0] == weights.shape[0] <= 2

    def test_sample_weighted_matches_sample_distribution(self):
        buf = new_buffer()
        buf.add("1")
        buf.add("1")
        buf.add("2")
        rng = np.random.default_rng(5)
        rows, weights = buf.sample_weighted(3000, rng)
        w = dict(zip(texts_of(rows), weights.tolist()))
        assert w["1"] == pytest.approx(2 / 3, abs=0.05)
        assert w["2"] == pytest.approx(1 / 3, abs=0.05)


class TestRndModel:
    def test_novelty_nonnegative_and_deterministic(self):
        model = RndModel(seed=0)
        assert model.novelty_reward("some state") >= 0.0
        assert model.novelty_reward("some state") == model.novelty_reward("some state")

    def test_target_and_predictor_differ(self):
        model = RndModel(seed=0)
        nets = model.networks
        assert nets.parameter_bytes(TARGET) != nets.parameter_bytes(PREDICTOR)

    def test_observe_updates_normalizer_and_buffer(self):
        model = RndModel()
        for text in ("a", "b", "a"):
            model.observe(text)
        assert model.normalizer.count == len(model.buffer) == 3
        rows, _ = model.buffer.sample_weighted(64, np.random.default_rng(0))
        assert {r.tobytes() for r in rows} == {embed32(t).tobytes() for t in "ab"}

    def test_training_reduces_novelty_on_seen_states(self):
        model = RndModel(seed=1)
        texts = [f"state-{i}" for i in range(20)]
        for text in texts:
            model.observe(text)
        before = np.mean([model.novelty_reward(text) for text in texts])
        for _ in range(200):
            model.train_predictor()
        after = np.mean([model.novelty_reward(text) for text in texts])
        assert after < before

    def test_output_gain_scales_novelty_quadratically(self):
        lo = RndModel(seed=2, output_gain=1.0)
        hi = RndModel(seed=2, output_gain=10.0)
        lo.observe("state")
        hi.observe("state")
        assert hi.novelty_reward("state") == pytest.approx(100.0 * lo.novelty_reward("state"))

    def test_train_on_empty_buffer_raises(self):
        with pytest.raises(ValueError):
            RndModel().train_predictor()

    def test_training_does_not_change_target(self):
        model = RndModel(seed=3)
        for text in ("s", "t", "s"):
            model.observe(text)
        frozen = model.networks.parameter_bytes(TARGET)
        trained = model.networks.parameter_bytes(PREDICTOR)
        model.train_predictor()
        assert model.networks.parameter_bytes(TARGET) == frozen
        assert model.networks.parameter_bytes(PREDICTOR) != trained

    def test_search_keeps_every_array_float32(self, monkeypatch):
        # one float64 array (say the normalizer's mean) would upcast every
        # matmul downstream of it
        models = []

        class RecordedRndModel(RndModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        monkeypatch.setattr(planner, "RndModel", RecordedRndModel)
        env = generate_instance(4, 4, failure_rate=0.2, seed=1_000)
        planner.run_search(env, None, planner.PlannerConfig(iterations=20, variant="full"))
        [model] = models
        norm = model.normalizer
        arrays = {
            "embedding table": model.embedding.table,
            "normalizer mean": norm._mean,
            "normalizer m2": norm._m2,
            "normalized rows": norm.normalize(model.embedding.table[:3]),
            "normalized row": norm.normalize(model.embedding.table[0]),
        }
        for k, (w, b) in enumerate(zip(model.networks.weights, model.networks.biases)):
            arrays[f"weights {k}"] = w
            arrays[f"biases {k}"] = b
        assert [(name, a.dtype) for name, a in arrays.items() if a.dtype != np.float32] == []
