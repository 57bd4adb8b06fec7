import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planu import kernels
from planu.quantile import (
    QuantileDistribution,
    init_from_prior,
    midpoints,
    qr_update,
)


def test_midpoints_values():
    np.testing.assert_allclose(midpoints(2), [0.25, 0.75])
    np.testing.assert_allclose(midpoints(5), [0.1, 0.3, 0.5, 0.7, 0.9])


def test_init_from_prior_constant():
    d = init_from_prior(0.9, 4)
    np.testing.assert_array_equal(d.values, [0.9, 0.9, 0.9, 0.9])
    d = init_from_prior(0.0, 2)
    np.testing.assert_array_equal(d.values, [0.0, 0.0])
    d = init_from_prior(0.42, 50)
    assert d.n_q == 50
    assert d.mean == pytest.approx(0.42)


def test_init_from_prior_rejects_bad_args():
    with pytest.raises(ValueError):
        init_from_prior(1.5, 4)
    with pytest.raises(ValueError):
        init_from_prior(-0.1, 4)
    with pytest.raises(ValueError):
        init_from_prior(0.5, 0)


def test_distribution_rejects_non_finite():
    with pytest.raises(ValueError):
        QuantileDistribution(np.array([0.1, np.nan]))
    with pytest.raises(ValueError):
        QuantileDistribution(np.array([np.inf]))
    with pytest.raises(ValueError):
        QuantileDistribution(np.array([]))


def test_distribution_rejects_finite_values_whose_sum_overflows():
    # the sum overflows to inf, or to NaN from inf - inf
    for values in ([1e308, 1e308], [-1e308, -1e308, 1e308, 1e308, 1e308]):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="sum"):
            QuantileDistribution(np.array(values))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [1, 2, 51])
def test_distribution_rejects_one_non_finite_value(bad, n):
    values = np.full(n, 0.5)
    values[n // 2] = bad
    with pytest.raises(ValueError, match="finite"):
        QuantileDistribution(values)


def mean_bytes_equal(values):
    """The cached mean has the bits of values.mean(); where the sum is not
    finite, the distribution is rejected instead."""
    arr = np.array(values)
    # a sum may overflow to inf, or to NaN from inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        expected = arr.mean()
        if not np.isfinite(expected):
            with pytest.raises(ValueError, match="sum"):
                QuantileDistribution(arr)
            return True
    d = QuantileDistribution(arr)
    return np.float64(d.mean).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("values", [
    [-0.0],
    [-0.0, -0.0, -0.0],
    [0.0, -0.0],
    [5e-324],
    [5e-324, -5e-324, 1e-310],
    [2.2250738585072014e-308, 1e-320, 3e-315],
    [1.7976931348623157e308],
    [1.7976931348623157e308, -1.7976931348623157e308, 1e308],
    [1.7976931348623157e308] * 3,
    [-1e308, -1e308, 1e308, -1e308, 1e308, 1e308, -1e308, 1e308, -1e308],
])
def test_mean_bytes_equal_numpy_mean_at_the_edges(values):
    assert mean_bytes_equal(values)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_mean_bytes_equal_numpy_mean(values):
    assert mean_bytes_equal(values)


def test_mean_simple():
    assert QuantileDistribution(np.array([0.5, 0.5, 0.5])).mean == 0.5
    assert QuantileDistribution(np.array([0.0, 1.0])).mean == 0.5


def test_qr_update_single_quantile_hand_case():
    # tau=0.5, theta=0.6, target 1.0, |u| <= kappa branch: theta moves by
    # step * tau * u = 0.5 * 0.5 * 0.4
    d = QuantileDistribution(np.array([0.6]))
    out = qr_update(d, [1.0], step=0.5, kappa=1.0)
    assert out.values[0] == pytest.approx(0.7)


def test_qr_update_fixed_point():
    # a constant distribution equal to the single target has zero gradient
    d = init_from_prior(0.4, 3)
    out = qr_update(d, [0.4], step=0.5, kappa=1.0)
    np.testing.assert_allclose(out.values, d.values)


def test_qr_update_rejects_bad_args():
    d = init_from_prior(0.5, 3)
    with pytest.raises(ValueError):
        qr_update(d, [], step=0.5, kappa=0.05)
    with pytest.raises(ValueError):
        qr_update(d, [1.0], step=0.0, kappa=0.05)
    with pytest.raises(ValueError):
        qr_update(d, [1.0], step=0.5, kappa=-1.0)


def test_qr_update_does_not_mutate_input():
    d = init_from_prior(0.5, 5)
    before = d.values.copy()
    qr_update(d, [1.0], step=0.5, kappa=0.05)
    np.testing.assert_array_equal(d.values, before)


def test_qr_update_never_overshoots_target_hull():
    d = init_from_prior(0.25, 51)
    out = qr_update(d, [0.0], step=5.0, kappa=0.05)
    assert out.values.min() >= 0.0
    assert out.values.max() <= 0.25


def test_qr_gradient_zero_when_all_residuals_vanish():
    grad = kernels.qr_gradient(np.full(2, 0.3), midpoints(2), np.array([0.3]), 1.0)
    np.testing.assert_allclose(grad, 0.0)


def test_qr_gradient_huber_tail_hand_case():
    # tau=0.5, theta=0, target 2, kappa=1: |u| > kappa, gradient -tau
    grad = kernels.qr_gradient(np.zeros(1), midpoints(1), np.array([2.0]), 1.0)
    assert grad[0] == pytest.approx(-0.5)


def test_qr_loss_nonnegative_and_zero_at_fit():
    values, taus = np.full(2, 0.25), midpoints(2)
    assert kernels.qr_loss(values, taus, np.array([0.25]), 0.05) == pytest.approx(0.0)
    assert kernels.qr_loss(values, taus, np.array([2.0, -1.0]), 0.05) > 0.0


def reference_qr_gradient(values, taus, targets, kappa):
    """qr_gradient as first written, with its temporaries: the formula the
    in-place kernel must reproduce bit for bit."""
    u = targets[None, :] - values[:, None]
    weight = np.abs(taus[:, None] - (u < 0.0))
    grad = -weight * np.clip(u, -kappa, kappa) / kappa
    return grad.sum(axis=1) / targets.shape[0]


def reference_qr_update(values, targets, step, kappa):
    """qr_update's arithmetic as first written."""
    grad = reference_qr_gradient(values, midpoints(values.shape[0]), targets, kappa)
    lo = np.minimum(values, targets.min())
    hi = np.maximum(values, targets.max())
    out = values - step * grad
    np.maximum(out, lo, out=out)
    return np.minimum(out, hi, out=out)


# dyadic values and kappas, so that v +- kappa is exact and a residual can
# sit at exactly +-kappa; signed zeros; and arbitrary floats
GRID = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(-16, 16).map(lambda k: k / 8),
    st.floats(-3, 3),
)
KAPPAS = st.one_of(st.sampled_from([0.05, 0.125, 0.25, 0.5, 1.0, 2.0]), st.floats(1e-3, 10))


@st.composite
def qr_cases(draw):
    """(values, targets, kappa) whose cells include ties t == v, residuals
    of exactly +-kappa, residuals inside and beyond +-kappa and signed zeros."""
    values = draw(st.lists(GRID, min_size=1, max_size=64))
    kappa = draw(KAPPAS)
    target = st.one_of(
        GRID,
        st.sampled_from(values),
        st.sampled_from(values).map(lambda v: v + kappa),
        st.sampled_from(values).map(lambda v: v - kappa),
        st.floats(-100, 100),
    )
    targets = draw(st.lists(target, min_size=1, max_size=64))
    return np.array(values), np.array(targets), kappa


@given(qr_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_qr_gradient_bytes_equal_reference(case, data):
    values, targets, kappa = case
    taus = data.draw(st.one_of(
        st.just(midpoints(values.shape[0])),
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0, 1)),
            min_size=values.shape[0], max_size=values.shape[0],
        ).map(np.array),
    ))
    before = (values.tobytes(), taus.tobytes(), targets.tobytes())
    grad = kernels.qr_gradient(values, taus, targets, kappa)
    assert grad.tobytes() == reference_qr_gradient(values, taus, targets, kappa).tobytes()
    assert (values.tobytes(), taus.tobytes(), targets.tobytes()) == before


@given(qr_cases(), st.one_of(st.sampled_from([0.5, 2.0]), st.floats(1e-3, 50)))
@settings(max_examples=300, deadline=None)
def test_qr_update_bytes_equal_reference(case, step):
    values, targets, kappa = case
    out = qr_update(QuantileDistribution(values), targets, step=step, kappa=kappa)
    assert out.values.tobytes() == reference_qr_update(values, targets, step, kappa).tobytes()
    assert np.float64(out.mean).tobytes() == out.values.mean().tobytes()
    assert not out.values.flags.writeable


def test_qr_update_rejects_a_result_whose_sum_overflows():
    # each clamped value is finite, but their sum is not, as in the constructor
    d = QuantileDistribution(np.array([1e308, 5e307]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="sum"):
        qr_update(d, [1.7e308], step=1e308, kappa=0.05)


def test_distribution_values_are_read_only():
    d = QuantileDistribution(np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="read-only"):
        d.values[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        d.values += 1.0
    np.testing.assert_array_equal(d.values, [0.1, 0.2])


def test_distribution_leaves_the_callers_array_writeable():
    arr = np.array([0.1, 0.2])
    QuantileDistribution(arr)
    arr[0] = 0.5
    assert arr.flags.writeable


def test_distribution_copies_the_callers_array():
    arr = np.array([0.1, 0.2])
    d = QuantileDistribution(arr)
    arr[0] = 5.0
    np.testing.assert_array_equal(d.values, [0.1, 0.2])
    assert d.mean == float(d.values.mean())


def test_init_from_prior_is_shared_per_prior_and_n_q():
    d = init_from_prior(0.25, 7)
    assert init_from_prior(0.25, 7) is d
    assert init_from_prior(0.25, 8) is not d
    assert init_from_prior(0.5, 7) is not d


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_init_from_prior_keeps_the_sign_of_zero(first, second):
    a, b = init_from_prior(first, 3), init_from_prior(second, 3)
    assert a is not b
    assert a.values.tobytes() == np.full(3, first).tobytes()
    assert b.values.tobytes() == np.full(3, second).tobytes()


@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=9),
    st.lists(st.floats(-5, 5), min_size=1, max_size=7),
)
@settings(max_examples=200, deadline=None)
def test_gradient_matches_finite_differences(values, targets):
    values, targets = np.array(values), np.array(targets)
    taus = midpoints(len(values))
    kappa = 0.3
    grad = kernels.qr_gradient(values, taus, targets, kappa)
    eps = 1e-6
    for i in range(len(values)):
        plus = values.copy()
        minus = values.copy()
        plus[i] += eps
        minus[i] -= eps
        fd = (
            kernels.qr_loss(plus, taus, targets, kappa)
            - kernels.qr_loss(minus, taus, targets, kappa)
        ) / (2 * eps)
        assert grad[i] == pytest.approx(fd, abs=1e-6, rel=1e-4)


@given(st.floats(0.0, 1.0), st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_init_mean_equals_prior(prior, n_q):
    assert init_from_prior(prior, n_q).mean == pytest.approx(prior)


@given(
    st.lists(st.floats(-2, 2), min_size=1, max_size=21),
    st.floats(-2, 2),
    st.integers(1, 30),
)
@settings(max_examples=100, deadline=None)
def test_contraction_toward_scalar_target(values, target, reps):
    d = QuantileDistribution(np.array(values))
    worst = np.abs(d.values - target).max()
    for _ in range(reps):
        d = qr_update(d, [target], step=0.4, kappa=0.2)
        new_worst = np.abs(d.values - target).max()
        assert new_worst <= worst + 1e-12
        worst = new_worst


def test_bandit_quantile_fraction_matches_bernoulli():
    # Bernoulli(p) quantile function has mass p at 1: the fraction of
    # quantile values above 0.5 after convergence should be close to p
    for p in (0.3, 0.6, 0.8):
        rng = np.random.default_rng(7)
        d = init_from_prior(0.5, 51)
        for n in range(1, 1501):
            r = 1.0 if rng.random() < p else 0.0
            d = qr_update(d, [r], step=2.0 / n**0.75, kappa=0.05)
        frac = float(np.mean(d.values > 0.5))
        assert frac == pytest.approx(p, abs=0.08)


def test_converged_bandit_mean():
    rng = np.random.default_rng(11)
    d = init_from_prior(0.5, 51)
    for n in range(1, 3001):
        r = 1.0 if rng.random() < 0.6 else 0.0
        d = qr_update(d, [r], step=2.0 / n**0.75, kappa=0.05)
    assert d.mean == pytest.approx(0.6, abs=0.05)
