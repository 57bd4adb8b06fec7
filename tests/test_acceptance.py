"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `[n] <name>: PASS|FAIL` line to the terminal
(bypassing capture) before asserting, so a full run yields one line per
guarantee. These tests are slower than the unit suites; they exercise the
planner at realistic budgets.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from planu import kernels
from planu.cli import run_sweep
from planu.config import DEFAULTS
from planu.envs import BlocksworldEnv, StockEnv, generate_instance
from planu.novelty import HashEmbedding, RndModel, StateBuffer
from planu.planner import PlannerConfig, rollout_recommended, run_search
from planu.quantile import init_from_prior, midpoints, qr_update

SEEDS_20 = range(20)
STOCK_GAIN = 100.0


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{num}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")


# --- helpers executed in worker processes (must be module-level) ---


def _stock_run(seed):
    cfg = PlannerConfig(iterations=200, seed=seed, rnd_output_gain=STOCK_GAIN)
    result = run_search(StockEnv(), None, cfg)
    b = next(a for a in result.tree.root.actions if a.action_text == "buy_b")
    return result.recommended_action, b.mean_value(), b.visits


def _baseline_run(seed):
    cfg = PlannerConfig(
        iterations=400, seed=seed, variant="deterministic_baseline", rnd_output_gain=STOCK_GAIN
    )
    result = run_search(StockEnv(), None, cfg)
    profits = [
        rollout_recommended(StockEnv(), result.tree, seed=10_000 + seed * 20 + ep)[0]
        for ep in range(20)
    ]
    return result.recommended_action, profits


def _blocksworld_run(args):
    failure_rate, n_steps, iterations, depth_limit, instance, variant, seed, episodes = args
    env = generate_instance(n_steps, 4, failure_rate=failure_rate, seed=1_000 + instance)
    cfg = PlannerConfig(
        iterations=iterations, depth_limit=depth_limit, seed=seed, variant=variant
    )
    result = run_search(env, None, cfg)
    successes = []
    for episode in range(episodes):
        total, done, _ = rollout_recommended(
            env, result.tree, seed=10_000 + seed * episodes + episode
        )
        successes.append(1.0 if done and total > 0.5 else 0.0)
    return float(np.mean(successes))


def _blocksworld_rates(jobs, pool_size=None):
    workers = pool_size or min(len(jobs), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_blocksworld_run, jobs, chunksize=4))


def _rnd_seed_trial(seed):
    model = RndModel(seed=seed)
    provider = HashEmbedding()
    buffer = StateBuffer(provider)
    train_texts = [f"train-state-{seed}-{i}" for i in range(100)]
    for text in train_texts:
        model.observe(provider.embed(text))
        buffer.add(text)
    train = [provider.embed(text) for text in train_texts]
    held = [provider.embed(f"held-out-state-{seed}-{i}") for i in range(100)]
    pre = float(np.mean([model.novelty_reward(x) for x in train]))
    for _ in range(5_000):
        model.train_predictor(buffer, batch_size=64, steps=5)
    post = float(np.mean([model.novelty_reward(x) for x in train]))
    post_held = float(np.mean([model.novelty_reward(x) for x in held]))
    return pre, post, post_held


def test_stock_task_correctness(capsys):
    """[1] full variant prefers the sure profit; risky-arm mean is estimated."""
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=min(20, os.cpu_count() or 1)) as pool:
        rows = list(pool.map(_stock_run, SEEDS_20))
    elapsed = time.perf_counter() - start
    rec_ok = sum(r[0] == "buy_a" for r in rows) / len(rows) >= 0.95
    time_ok = elapsed < 10.0
    # a run counts as converged once the risky arm has enough visits for
    # its value estimate to have settled
    converged = [r for r in rows if r[2] >= 50]
    errs = [abs(r[1] - 0.6) for r in converged]
    band_ok = len(converged) > 0 and all(e <= 0.05 for e in errs)
    ok = rec_ok and time_ok and band_ok
    report(
        capsys,
        1,
        "stock correctness",
        ok,
        f"safe-pick rate {sum(r[0] == 'buy_a' for r in rows)}/20, {elapsed:.1f}s, "
        f"risky-arm |mean-0.6|<=0.05 in {sum(e <= 0.05 for e in errs)}/{len(converged)} "
        f"converged runs (max err {max(errs):.3f})",
    )
    assert rec_ok, "safe action not recommended in >= 95% of runs"
    assert time_ok, f"runtime {elapsed:.1f}s exceeds 10s"
    assert band_ok, (
        "risky-arm mean outside the 0.6 +/- 0.05 band in some converged runs; "
        f"errors: {[round(e, 3) for e in errs]}"
    )


def test_mode_collapsed_baseline_prefers_risky_action(capsys):
    """[2] mode-outcome wrapper hides downside risk and flips the decision."""
    with ProcessPoolExecutor(max_workers=min(20, os.cpu_count() or 1)) as pool:
        rows = list(pool.map(_baseline_run, SEEDS_20))
    b_rate = sum(r[0] == "buy_b" for r in rows) / len(rows)
    profits = [p for _, eps in rows for p in eps]
    realized = float(np.mean(profits))
    ok = b_rate >= 0.90 and abs(realized - 0.6) <= 0.05 and realized < 0.9
    report(
        capsys,
        2,
        "baseline failure reproduction",
        ok,
        f"risky-pick rate {b_rate:.2f}, realized profit {realized:.3f} "
        f"(target 0.6 +/- 0.05, strictly < 0.9)",
    )
    assert b_rate >= 0.90
    assert abs(realized - 0.6) <= 0.05
    assert realized < 0.9


def test_bandit_quantile_convergence(capsys):
    """[3] quantile values of a Bernoulli(0.6) arm split 60/40 around 1 and 0."""
    rng = np.random.default_rng(0)
    d = init_from_prior(0.5, 51)
    for n in range(1, 2_001):
        reward = 1.0 if rng.random() < 0.6 else 0.0
        d = qr_update(d, [reward], step=2.0 / n**0.75, kappa=0.05)
    frac = float(np.mean(np.abs(d.values - 1.0) <= 0.1))
    ok = abs(frac - 0.6) <= 0.08
    report(
        capsys,
        3,
        "quantile convergence oracle",
        ok,
        f"fraction of 51 values within 0.1 of 1.0 = {frac:.3f} (target 0.6 +/- 0.08)",
    )
    assert ok


def test_gradient_matches_finite_differences(capsys):
    """[4] analytic quantile-regression gradient vs central differences."""
    rng = np.random.default_rng(0)
    worst = 0.0
    worst_abs = 0.0
    cases = 0
    for case in range(1_000):
        nq = int(rng.integers(1, 32))
        m = int(rng.integers(1, 16))
        values = rng.normal(0, 2, nq)
        targets = rng.normal(0, 2, m)
        # half the cases use a large kappa (quadratic branch dominant),
        # half a small one (linear branch dominant)
        kappa = float(rng.uniform(0.5, 2.0)) if case % 2 else float(rng.uniform(0.01, 0.1))
        taus = midpoints(nq)
        eps = 1e-6
        grad = kernels.qr_gradient(values, taus, targets, kappa)
        for i in range(nq):
            plus = values.copy()
            minus = values.copy()
            plus[i] += eps
            minus[i] -= eps
            fd = (
                kernels.qr_loss(plus, taus, targets, kappa)
                - kernels.qr_loss(minus, taus, targets, kappa)
            ) / (2 * eps)
            scale = max(abs(fd), abs(grad[i]), 1e-8)
            rel = abs(grad[i] - fd) / scale
            worst_abs = max(worst_abs, abs(grad[i] - fd))
            if abs(grad[i] - fd) > 1e-7:  # kink crossings excluded by abs floor
                worst = max(worst, rel)
        cases += 1
    ok = worst <= 1e-4
    report(
        capsys,
        4,
        "gradient fidelity",
        ok,
        f"{cases} randomized cases; worst rel err {worst:.2e}, "
        f"worst abs diff {worst_abs:.2e}",
    )
    assert ok


def test_ablation_ordering_on_blocksworld(capsys):
    """[5] removing the distribution or the curiosity term never helps (median)."""
    settings = [(4, 300, 12), (6, 600, 14)]
    lines = []
    ok = True
    for n_steps, iterations, depth in settings:
        jobs = [
            (0.2, n_steps, iterations, depth, inst, variant, seed, 1)
            for inst in range(10)
            for variant in ("full", "no_dist", "no_ucc")
            for seed in range(5)
        ]
        outcomes = _blocksworld_rates(jobs)
        per = {}
        for job, success in zip(jobs, outcomes):
            per.setdefault(job[5], {}).setdefault(job[4], []).append(success)
        medians = {
            v: float(np.median([np.mean(runs) for runs in per[v].values()])) for v in per
        }
        ok = ok and medians["full"] >= medians["no_dist"] and medians["full"] >= medians["no_ucc"]
        lines.append(
            f"{n_steps}-step medians: full={medians['full']:.2f} "
            f"no_dist={medians['no_dist']:.2f} no_ucc={medians['no_ucc']:.2f}"
        )
    report(capsys, 5, "ablation ordering", ok, "; ".join(lines))
    assert ok


def test_novelty_drops_on_trained_states(capsys):
    """[7] predictor training halves novelty on seen states, not unseen ones."""
    with ProcessPoolExecutor(max_workers=min(5, os.cpu_count() or 1)) as pool:
        rows = list(pool.map(_rnd_seed_trial, range(5)))
    drops = [1.0 - post / pre for pre, post, _ in rows]
    drop_ok = all(d >= 0.5 for d in drops)
    held_ok = all(post_held > post for _, post, post_held in rows)
    ok = drop_ok and held_ok
    report(
        capsys,
        7,
        "curiosity model behavior",
        ok,
        f"novelty drops {['%.0f%%' % (d * 100) for d in drops]} (need >= 50%); "
        f"held-out > trained in {sum(ph > p for _, p, ph in rows)}/5 seeds",
    )
    assert drop_ok
    assert held_ok


def test_sweeps_are_byte_deterministic(capsys, tmp_path):
    """[8] identical seeded sweeps write byte-identical CSV summaries."""
    base = {
        **DEFAULTS,
        "env": "blocksworld",
        "seeds": [0, 1],
        "variants": ["full", "no_dist"],
        "failure_rate": [0.2],
        "instances": 2,
        "n_steps": 2,
        "iterations": 60,
        "depth_limit": 6,
        "parallelism": 4,
    }
    payloads = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        _, errors = run_sweep({**base, "out_dir": out})
        assert errors == []
        blobs = {}
        for csv_name in ("summary.csv", "aggregate.csv"):
            with open(os.path.join(out, csv_name), "rb") as fh:
                blobs[csv_name] = fh.read()
        payloads.append(blobs)
    ok = payloads[0] == payloads[1]
    report(
        capsys,
        8,
        "determinism",
        ok,
        f"summary.csv {len(payloads[0]['summary.csv'])} bytes and aggregate.csv "
        f"{len(payloads[0]['aggregate.csv'])} bytes identical across reruns: {ok}",
    )
    assert ok


def test_environment_branch_frequencies(capsys):
    """[9] stochastic branches match their configured probabilities (3 sigma)."""
    n = 10_000
    env = StockEnv()
    state = env.reset(0)
    wins = sum(env.step(state, "buy_b")[0] == "sold_b_profit" for _ in range(n))
    stock_err = abs(wins / n - 0.6)
    stock_bound = 3 * np.sqrt(0.6 * 0.4 / n)
    stock_ok = stock_err < stock_bound

    instance = (
        "blocks: a b\n"
        "init: ontable(a) ontable(b) clear(a) clear(b) handempty\n"
        "goal: on(a,b)\n"
    )
    bw_ok = True
    bw_detail = []
    for rate in (0.2, 0.35):
        bw = BlocksworldEnv.from_instance(instance, failure_rate=rate, seed=1)
        bw_state = bw.reset(0)
        failures = sum(bw.step(bw_state, "pickup(a)")[0] == bw_state for _ in range(n))
        err = abs(failures / n - rate)
        bound = 3 * np.sqrt(rate * (1 - rate) / n)
        bw_ok = bw_ok and err < bound
        bw_detail.append(f"afr={rate}: err {err:.4f} < {bound:.4f}")
    ok = stock_ok and bw_ok
    report(
        capsys,
        9,
        "environment statistics",
        ok,
        f"stock: err {stock_err:.4f} < {stock_bound:.4f}; " + "; ".join(bw_detail),
    )
    assert stock_ok
    assert bw_ok


# [6] runs last: it is the longest test by far, over half of tier-1's time,
# so a run cut short by a time limit still reports every other guarantee.
def test_success_degrades_gracefully_with_failure_rate(capsys):
    """[6] success falls as actions fail more often; full beats scalar means."""
    afrs = (0.0, 0.1, 0.2, 0.3, 0.4)
    jobs = [
        (afr, 4, 500, 12, inst, variant, seed, 5)
        for afr in afrs
        for inst in range(10)
        for variant in ("full", "no_dist")
        for seed in range(5)
    ]
    outcomes = _blocksworld_rates(jobs)
    rates: dict[tuple, list] = {}
    for job, success in zip(jobs, outcomes):
        rates.setdefault((job[0], job[5]), []).append(success)
    full = [float(np.mean(rates[(afr, "full")])) for afr in afrs]
    no_dist = [float(np.mean(rates[(afr, "no_dist")])) for afr in afrs]
    inversions = [max(0.0, full[i + 1] - full[i]) for i in range(len(afrs) - 1)]
    big = [v for v in inversions if v > 1e-9]
    monotone_ok = len(big) <= 1 and all(v <= 0.03 for v in big)
    dominance_ok = all(f >= n for f, n in zip(full, no_dist))
    ok = monotone_ok and dominance_ok
    report(
        capsys,
        6,
        "failure-rate trend",
        ok,
        f"full={['%.2f' % v for v in full]} no_dist={['%.2f' % v for v in no_dist]}; "
        f"monotone={monotone_ok} dominance={dominance_ok}",
    )
    assert monotone_ok, f"success not non-increasing in failure rate: {full}"
    assert dominance_ok, (
        f"scalar-mean ablation beats the full variant at some point: "
        f"full={full} no_dist={no_dist}"
    )
