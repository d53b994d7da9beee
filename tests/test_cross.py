import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import epicross
from epicross import cross
from epicross.cross import (
    CrossConfig,
    CrossInterpolant,
    Memo,
    RookResult,
    SubtensorView,
    TensorTrain,
    cross_optimize,
    load_tt_cores,
    matrix_cross_step,
    save_tt_cores,
    sweep,
    tensor_argmax,
)


def matrix_view(matrix, approx, calls=None):
    """SubtensorView of a dense matrix; each entry read is appended to `calls`."""
    m = np.asarray(matrix, dtype=float)
    calls = [] if calls is None else calls
    return SubtensorView(m.shape, lambda i, j: calls.append((i, j)) or float(m[i, j]),
                         np.asarray(approx, dtype=float))


def dense_cross_approx(matrix, rows, cols):
    """Interpolant C A^{-1} R of a dense matrix from row/column sets."""
    m = np.asarray(matrix, dtype=float)
    if not rows or not cols:
        return np.zeros_like(m)
    rows, cols = sorted(rows), sorted(cols)
    c = m[:, cols]
    r = m[rows, :]
    a = m[np.ix_(rows, cols)]
    return c @ np.linalg.solve(a, r)


def random_tensor_fn(rng, d, low=0.5, high=1.5):
    table = rng.uniform(low, high, size=(2,) * d)
    return lambda bits: float(table[bits]), table


def budget_bound(d, cfg):  # the most solves of a cross_optimize run
    return max(d + 1, cfg.n_max + max(d - 1, 4 * (cfg.r_max - 1)))


def all_bits(d):
    for code in range(1 << d):
        yield tuple((code >> i) & 1 for i in range(d))


class TestMemo:
    def test_memoizes_and_counts(self):
        calls = []

        def f(bits):
            calls.append(bits)
            return sum(bits) + 0.5

        fc = Memo(f)
        assert fc((1, 0)) == 1.5
        assert fc((1, 0)) == 1.5
        assert len(calls) == 1
        assert fc.n_evaluations == 1 and fc.n_hits == 1

    def test_argmax_tie_lexicographic(self):
        fc = Memo(lambda bits: 1.0)
        fc((1, 1))
        fc((0, 1))
        fc((1, 0))
        assert fc.argmax() == ((0, 1), 1.0)

    def test_argmax_empty_raises(self):
        fc = Memo(lambda bits: 1.0)
        with pytest.raises(ValueError):
            fc.argmax()

    def test_nan_rejected(self):
        fc = Memo(lambda bits: math.nan)
        with pytest.raises(ValueError):
            fc((0,))
        assert len(fc) == 0 and fc.n_evaluations == 0

    def test_compute_once(self):
        calls = []

        def compute(bits):
            calls.append(1)
            return -1.5

        cache = Memo(compute)
        assert cache((1, 0)) == -1.5
        assert cache((1, 0)) == -1.5
        assert len(calls) == 1
        assert cache.n_evaluations == 1
        assert cache.n_hits == 1
        assert cache.lookup((1, 0)) == -1.5 and len(cache) == 1

    def test_argmax_tie_breaks_lexicographic(self):
        values = {(1, 1, 0): -2.0, (0, 1, 1): -2.0, (1, 1, 1): -5.0}
        cache = Memo(values.get)
        for bits in values:
            cache(bits)
        assert cache.argmax() == ((0, 1, 1), -2.0)

    def test_argmax_skips_zero_likelihood(self):
        cache = Memo({(1,): -math.inf, (0,): -7.0}.get)
        cache((1,))
        with pytest.raises(ValueError):
            cache.argmax()
        cache((0,))
        assert cache.argmax() == ((0,), -7.0)

    def test_save_load_roundtrip(self, tmp_path):
        values = {(1, 0, 1, 0): -1.2345678901234567, (0, 0, 1, 0): -math.inf,
                  (0, 1, 0, 0): -3.0, (0, 0, 0, 1): 2.5e-300}
        cache = Memo(values.get)
        for bits in values:
            cache(bits)
        path = tmp_path / "cache.csv"
        cache.save(path)
        text = path.read_text()
        assert text.splitlines() == ["g,loglik", "0001,2.5e-300",
                                     "0010,-inf", "0100,-3",
                                     "1010,-1.2345678901234567"]
        back = Memo.load(path)
        for bits, value in values.items():
            assert back.lookup(bits) == value
        assert back.argmax() == cache.argmax()
        assert back.n_evaluations == 0 and back.n_hits == 0
        again = tmp_path / "again.csv"
        back.save(again)
        assert again.read_text() == text

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text("network,value\n")
        with pytest.raises(ValueError):
            Memo.load(path)
        path.write_text("g,loglik\n01x,-1\n")
        with pytest.raises(ValueError):
            Memo.load(path)

    def test_thread_safety_counts(self):
        cache = Memo(lambda bits: -float(sum(b << i for i, b in enumerate(bits))))
        keys = [tuple((i % 8 >> k) & 1 for k in range(3)) for i in range(4000)]

        def worker(chunk):
            for key in chunk:
                cache(key)

        # more threads than cores and frequent switches, so a lost counter
        # update or a duplicate solve would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(keys[i::8],))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(cache) == 8
        # every request was either a hit or an evaluation
        assert cache.n_evaluations + cache.n_hits == 4000
        assert cache.n_evaluations == 8

    def test_concurrent_misses_solve_once(self):
        # a slow solve is in flight while other threads miss the same key:
        # they must wait for it instead of solving again
        keys = [(0, 0), (0, 1), (1, 0)]
        solves = {key: 0 for key in keys}
        count_lock = threading.Lock()
        n_threads, rounds = 4, 5
        barrier = threading.Barrier(n_threads)
        results = []

        def compute(key):
            with count_lock:
                solves[key] += 1
            time.sleep(0.001)
            return -float(keys.index(key))

        cache = Memo(compute)

        def worker(offset):
            barrier.wait(timeout=10)
            for _ in range(rounds):
                for key in keys[offset % 3:] + keys[:offset % 3]:
                    results.append((key, cache(key)))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == n_threads * rounds * len(keys)
        assert all(value == -float(keys.index(key)) for key, value in results)
        assert solves == {key: 1 for key in keys}
        assert cache.n_evaluations == 3
        assert cache.n_hits == len(results) - 3

    def test_failed_solve_is_retried_by_next_caller(self):
        attempts = []

        def solve(bits):
            attempts.append(bits)
            if len(attempts) == 1:
                raise RuntimeError("solver failed")
            return -1.0

        cache = Memo(solve)
        with pytest.raises(RuntimeError):
            cache((0, 1))
        assert cache((0, 1)) == -1.0
        assert cache.n_evaluations == 1 and cache.n_hits == 0

    def test_failed_solve_in_flight_is_taken_over_by_a_waiter(self):
        started = threading.Event()
        attempts = []

        def solve(bits):
            attempts.append(bits)
            if len(attempts) == 1:
                started.set()
                time.sleep(0.05)
                raise RuntimeError("solver failed")
            return -2.0

        cache = Memo(solve)
        outcome = {}

        def first():
            try:
                cache((1, 1))
            except RuntimeError as err:
                outcome["first"] = err

        def second():
            started.wait(timeout=10)
            outcome["second"] = cache((1, 1))

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert isinstance(outcome["first"], RuntimeError)
        assert outcome["second"] == -2.0
        assert len(attempts) == 2
        assert cache.n_evaluations == 1 and cache((1, 1)) == -2.0


class TestMatrixCrossStep:
    def test_first_pivot_is_global_max(self):
        # 2x2 example: from empty sets every residual is the entry itself
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        view = matrix_view(m, np.zeros((2, 2)))
        res = matrix_cross_step(view, set(), set(), np.random.default_rng(0))
        assert res.pivot == (1, 1)
        assert res.max_error == 4.0
        assert res.converged

    def test_second_pivot_from_residual(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        approx = dense_cross_approx(m, [1], [1])
        # residual at (0,0) is 1 - 2*3/4 = -0.5, zero elsewhere
        view = matrix_view(m, approx)
        res = matrix_cross_step(view, {1}, {1}, np.random.default_rng(0))
        assert res.pivot == (0, 0)
        assert res.max_error == pytest.approx(0.5)

    def test_rook_condition_on_random_matrices(self, monkeypatch):
        monkeypatch.setattr(cross, "ROOK_MAX_ITERS", 10)
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = rng.uniform(-1.0, 1.0, size=(6, 7))
            view = matrix_view(m, np.zeros_like(m))
            res = matrix_cross_step(view, set(), set(), rng)
            if not res.converged:
                continue
            i, j = res.pivot
            r = abs(m[i, j])
            assert r >= max(abs(m[:, j])) - 1e-12
            assert r >= max(abs(m[i, :])) - 1e-12

    def test_constant_matrix_smallest_pivot(self):
        m = np.full((4, 4), 2.5)
        view = matrix_view(m, np.zeros_like(m))
        res = matrix_cross_step(view, set(), set(), np.random.default_rng(1))
        assert res.pivot == (0, 0)

    def test_zero_residuals_no_pivot(self):
        m = np.zeros((3, 3))
        view = matrix_view(m, np.zeros_like(m))
        res = matrix_cross_step(view, set(), set(), np.random.default_rng(2))
        assert res.pivot is None
        assert res.max_error == 0.0

    def test_saturated_sets_no_pivot(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        view = matrix_view(m, np.zeros_like(m))
        res = matrix_cross_step(view, {0, 1}, {1}, np.random.default_rng(3))
        assert res.pivot is None
        res = matrix_cross_step(view, {0}, {0, 1}, np.random.default_rng(3))
        assert res.pivot is None

    def test_used_rows_and_columns_excluded(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            m = rng.uniform(0.1, 1.0, size=(5, 5))
            rows, cols = {1, 3}, {0, 2}
            approx = dense_cross_approx(m, rows, cols)
            view = matrix_view(m, approx)
            res = matrix_cross_step(view, rows, cols, rng)
            if res.pivot is not None:
                assert res.pivot[0] not in rows
                assert res.pivot[1] not in cols

    def test_budget_stops_search(self):
        # exhausted() is asked before each of the 5 probes and each 5-entry
        # rook scan; once it stops the search, only the pivot is read again
        m = np.arange(1.0, 26.0).reshape(5, 5)
        for budget, reads in ((0, 0), (3, 4), (5, 6), (10, 11)):
            calls = []
            res = matrix_cross_step(matrix_view(m, np.zeros_like(m), calls), set(), set(),
                                    np.random.default_rng(4), lambda: len(calls) >= budget)
            assert len(calls) == reads and res.pivot == (calls[-1] if calls else None)

    def test_nan_residuals_never_pivot(self):
        # inf * 0 in a prediction gives NaN residuals; they rank below every
        # number, so the rook settles on the largest real residual
        m = np.outer([1.0, 2.0, 4.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        approx = np.zeros_like(m)
        approx[0, :] = np.nan
        for seed in range(20):
            view = matrix_view(m, approx)
            res = matrix_cross_step(view, set(), set(), np.random.default_rng(seed))
            assert res.pivot == (2, 3) and res.max_error == 16.0

    def test_probe_count(self):
        # min(M, N) probes from the free grid; every probe costs one entry
        m = np.eye(6) + 0.1
        calls = []
        matrix_cross_step(matrix_view(m, np.zeros_like(m), calls), set(), set(),
                          np.random.default_rng(5))
        assert len(set(calls[:6])) == 6  # distinct probes first
        assert len(calls) > 6  # then rook scans on top


class TestCrossInterpolant:
    def test_init_exact_at_pivot_and_flips(self):
        rng = np.random.default_rng(31)
        f, table = random_tensor_fn(rng, 4)
        fc = Memo(f)
        g0 = (0, 1, 1, 0)
        interp = CrossInterpolant(fc, 4, g0)
        tt = interp.tensor_train()
        assert tt.eval(g0) == pytest.approx(f(g0), rel=1e-12)
        for k in range(4):
            flipped = list(g0)
            flipped[k] ^= 1
            flipped = tuple(flipped)
            assert tt.eval(flipped) == pytest.approx(f(flipped), rel=1e-12)
        assert interp.ranks() == [1] * 5

    def test_requires_positive_start(self):
        fc = Memo(lambda bits: 0.0)
        with pytest.raises(ValueError):
            CrossInterpolant(fc, 3, (0, 0, 0))

    def test_eval_uses_no_objective_calls(self):
        rng = np.random.default_rng(33)
        f, _ = random_tensor_fn(rng, 5)
        fc = Memo(f)
        interp = CrossInterpolant(fc, 5, (0,) * 5)
        cfg = CrossConfig(r_max=3, n_max=10_000)
        sweep(interp, "lr", np.random.default_rng(0), cfg)
        before = fc.n_evaluations + fc.n_hits
        tt = interp.tensor_train()
        for bits in all_bits(5):
            tt.eval(bits)
        assert fc.n_evaluations + fc.n_hits == before

    def test_exact_on_cross_indices_after_growth(self):
        rng = np.random.default_rng(35)
        f, _ = random_tensor_fn(rng, 5)
        fc = Memo(f)
        interp = CrossInterpolant(fc, 5, (1, 0, 1, 0, 1))
        cfg = CrossConfig(r_max=4, n_max=10_000)
        rng_opt = np.random.default_rng(7)
        for direction in ("lr", "rl", "lr"):
            sweep(interp, direction, rng_opt, cfg)
        tt = interp.tensor_train()
        for k in range(1, 5):
            for prefix in interp.left[k]:
                for suffix in interp.right[k]:
                    bits = prefix + suffix
                    assert tt.eval(bits) == pytest.approx(f(bits), rel=1e-9)

    def test_nested_sets_after_sweeps(self):
        rng = np.random.default_rng(37)
        f, _ = random_tensor_fn(rng, 6)
        fc = Memo(f)
        interp = CrossInterpolant(fc, 6, (0,) * 6)
        cfg = CrossConfig(r_max=5, n_max=10_000)
        rng_opt = np.random.default_rng(8)
        for s in range(4):
            sweep(interp, "lr" if s % 2 == 0 else "rl", rng_opt, cfg)
            for k in range(1, 6):
                for q in interp.left[k]:
                    assert q[:-1] in interp.left_pos[k - 1]
                for q in interp.right[k]:
                    assert q[1:] in interp.right_pos[k + 1]
                assert len(interp.left[k]) == len(interp.right[k])

    def test_full_rank_reproduces_tensor(self):
        rng = np.random.default_rng(39)
        f, table = random_tensor_fn(rng, 4)
        fc = Memo(f)
        interp = CrossInterpolant(fc, 4, (0, 0, 0, 0))
        cfg = CrossConfig(r_max=16, n_max=100_000)
        rng_opt = np.random.default_rng(9)
        for s in range(12):
            rep = sweep(interp, "lr" if s % 2 == 0 else "rl", rng_opt, cfg)
            if rep.pivots_added == 0:
                break
        tt = interp.tensor_train()
        for bits in all_bits(4):
            assert tt.eval(bits) == pytest.approx(f(bits), abs=1e-9)

    def test_nan_residual_not_admitted(self, monkeypatch):
        # a rook result with a NaN residual is searched, but never admitted
        # and recorded as no error; a sweep of only such bonds stalls
        rng = np.random.default_rng(43)
        f, _ = random_tensor_fn(rng, 4)
        fc = Memo(f)
        interp = CrossInterpolant(fc, 4, (0, 0, 0, 0))
        monkeypatch.setattr(cross, "matrix_cross_step",
                            lambda *a, **k: RookResult((1, 1), math.nan, False))
        report = sweep(interp, "lr", np.random.default_rng(0), CrossConfig(r_max=3))
        assert report.pivots_added == 0 and report.bond_errors == {}
        assert interp.ranks() == [1] * 5
        res = cross_optimize(fc, 4, (0, 0, 0, 0), CrossConfig(r_max=3))
        assert res.termination == "stalled" and len(res.history) == 1

    def test_admit_rejects_used_indices(self):
        rng = np.random.default_rng(41)
        f, _ = random_tensor_fn(rng, 3)
        fc = Memo(f)
        interp = CrossInterpolant(fc, 3, (0, 0, 0))
        g0_row = 0 * 2 + 0  # prefix (0,) at bond 1 is already used
        with pytest.raises(ValueError):
            interp.admit(1, g0_row, 0)


def test_import_leaves_scipy_linalg_unloaded():
    # cross matrices are solved with numpy, and the likelihood's CSC kernel
    # module is loaded on its own: neither importing the package nor a
    # likelihood solve loads scipy.linalg or the scipy.sparse package
    script = """
import sys
import epicross

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith(("scipy.linalg", "scipy.sparse")))

print(loaded())
traj = epicross.Trajectory([0.0, 0.1, 0.2], [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
params = epicross.EpidemicParams(1.0, 0.5, 0.1)
print(epicross.log_likelihood(epicross.chain_network(3), traj, params) < 0.0)
print(loaded())
"""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(epicross.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    kernel = "['scipy.sparse._sparsetools']"
    assert proc.stdout.split("\n") == [kernel, "True", kernel, ""]


class TestCrossOptimize:
    def test_finds_max_small_exhaustive(self):
        rng = np.random.default_rng(43)
        hits = 0
        for trial in range(20):
            f, table = random_tensor_fn(rng, 6)
            cfg = CrossConfig(r_max=8, n_max=100_000, seed=trial)
            res = cross_optimize(f, 6, (0,) * 6, cfg)
            true_max = float(table.max())
            if res.value == pytest.approx(true_max, rel=1e-12):
                hits += 1
        # greedy search on featureless random tensors still lands the top
        # entry most of the time
        assert hits >= 15

    def test_separable_product_objective(self):
        w = (0.4, -0.3, 0.8, -0.1, 0.2)

        def f(bits):
            return float(np.prod([1.0 + wi * b for wi, b in zip(w, bits)]))

        best = tuple(int(wi > 0) for wi in w)
        g0 = best[:2] + (0,) + best[3:]  # one bit off the optimum
        cfg = CrossConfig(r_max=4, n_max=10_000, seed=0)
        res = cross_optimize(f, 5, g0, cfg)
        assert res.g_max == best
        assert res.termination in ("converged", "stalled", "rank_saturated")
        # the product over the first four bits is exactly rank one: from the
        # all-zero start, sweep 1 leaves no residual on any bond
        res = cross_optimize(f, 4, (0,) * 4, CrossConfig(r_max=3, n_max=10_000, seed=0))
        assert res.termination == "converged"
        assert res.g_max == best[:4] and res.n_evaluations == 9
        assert [(rec.sweep, rec.max_error) for rec in res.history] == [(1, 0.0)]

    def test_budget_termination(self):
        rng = np.random.default_rng(47)
        f, _ = random_tensor_fn(rng, 8)
        cfg = CrossConfig(r_max=6, n_max=40, seed=1)
        res = cross_optimize(f, 8, (0,) * 8, cfg)
        assert res.termination == "budget"
        assert res.n_evaluations >= 40
        # the bond in progress finishes: at most 4 (r_max - 1) solves over
        assert res.n_evaluations <= 40 + 4 * (6 - 1)

    def test_budget_cuts_a_sweep_short(self):
        # the budget runs out inside the first left-to-right sweep: the
        # last bonds keep rank 1, and the cut sweep is recorded
        rng = np.random.default_rng(81)
        f, _ = random_tensor_fn(rng, 8)
        res = cross_optimize(f, 8, (0,) * 8, CrossConfig(r_max=4, n_max=20, seed=0))
        assert res.termination == "budget"
        assert res.ranks[1] == 2 and res.ranks[7] == 1
        assert [(rec.sweep, rec.n_evaluations) for rec in res.history] == [
            (1, res.n_evaluations)]

    def test_rank_one_cap_saturates_after_one_sweep(self):
        # with r_max = 1 every bond is capped from the start: sweep 1
        # searches nothing and the run ends there
        rng = np.random.default_rng(79)
        f, _ = random_tensor_fn(rng, 6)
        res = cross_optimize(f, 6, (0,) * 6, CrossConfig(r_max=1, n_max=10_000, seed=0))
        assert res.termination == "rank_saturated"
        assert res.ranks == [1] * 7
        assert [(rec.sweep, rec.n_evaluations, rec.max_error)
                for rec in res.history] == [(1, 7, 0.0)]

    def test_max_sweeps_termination(self):
        rng = np.random.default_rng(49)
        f, _ = random_tensor_fn(rng, 6)
        cfg = CrossConfig(r_max=10, n_max=100_000, seed=2, max_sweeps=3)
        res = cross_optimize(f, 6, (0,) * 6, cfg)
        assert res.termination in ("max_sweeps", "rank_saturated", "stalled", "converged")
        assert len(res.history) <= 3
        if res.termination == "max_sweeps":
            assert len(res.history) == 3

    def test_history_monotone_value(self):
        rng = np.random.default_rng(51)
        f, _ = random_tensor_fn(rng, 7)
        cfg = CrossConfig(r_max=5, n_max=100_000, seed=3, max_sweeps=5)
        res = cross_optimize(f, 7, (0,) * 7, cfg)
        values = [rec.value for rec in res.history]
        assert values == sorted(values)
        assert all(b.n_evaluations >= a.n_evaluations
                   for a, b in zip(res.history, res.history[1:]))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(53)
        f, _ = random_tensor_fn(rng, 6)
        cfg = CrossConfig(r_max=4, n_max=10_000, seed=11, max_sweeps=4)
        a = cross_optimize(f, 6, (1, 0) * 3, cfg)
        b = cross_optimize(f, 6, (1, 0) * 3, cfg)
        assert a.g_max == b.g_max
        assert a.n_evaluations == b.n_evaluations
        assert [r.n_evaluations for r in a.history] == [r.n_evaluations for r in b.history]
        assert [r.max_error for r in a.history] == [r.max_error for r in b.history]

    def test_scaling_leaves_pivots_invariant(self):
        rng = np.random.default_rng(55)
        f, _ = random_tensor_fn(rng, 5)
        results = []
        for c in (1e-3, 1.0, 1e3):
            cfg = CrossConfig(r_max=4, n_max=10_000, seed=4, max_sweeps=4)
            res = cross_optimize(lambda bits, c=c: c * f(bits), 5, (0,) * 5, cfg)
            results.append(res)
        assert results[0].g_max == results[1].g_max == results[2].g_max
        assert (results[0].n_evaluations == results[1].n_evaluations
                == results[2].n_evaluations)

    def test_each_index_solved_at_most_once(self):
        # however often crossing fibers ask for an entry, the function
        # behind the memo is solved once per index, within a run and across
        # runs sharing one memo, and the counters count exactly those solves;
        # at tau 1e-3 the logs (spread over 2.3) overflow, so the third run
        # on a shared memo re-anchors.  Each run stays within the budget's
        # bound, re-anchored or not
        def solves(objective, g0, cfg, tau=None):
            n = cross_optimize(objective, d, g0, cfg, tau=tau).n_evaluations
            assert n <= budget_bound(d, cfg)
            return n

        rng = np.random.default_rng(75)
        for trial in range(40):
            d = int(rng.integers(2, 9))
            logs = np.log(rng.uniform(0.1, 1.0, size=(2,) * d))
            calls = {}

            def f(bits, logs=logs, calls=calls):
                calls[bits] = calls.get(bits, 0) + 1
                return float(logs[bits])

            g0 = tuple(int(b) for b in rng.integers(0, 2, d))
            cfg = CrossConfig(r_max=int(rng.integers(1, 6)),
                              n_max=int(rng.integers(5, 300)), seed=trial,
                              max_sweeps=int(rng.integers(1, 6)))
            if trial % 2:
                runs = [solves(lambda bits: math.exp(f(bits)), g0, cfg)]
            else:
                memo = Memo(f)
                runs = [solves(memo, g0, cfg, tau)
                        for tau in (1.0, float(rng.choice([0.5, 10.0])), 1e-3)]
                assert sum(runs) == memo.n_evaluations
            assert max(calls.values()) == 1
            assert sum(calls.values()) == sum(runs)

    def test_reanchor_respects_budget(self):
        # at tau 1e-3 the logs (spread over 4.6) overflow and re-anchor
        # most runs, some with the budget spent: those end there, with no
        # interpolant and the best network on the new scale
        rng, at_budget = np.random.default_rng(89), 0
        for trial in range(300):
            d = int(rng.integers(3, 11))
            logs = rng.uniform(math.log(0.01), 0.0, size=(2,) * d)
            g0 = tuple(int(b) for b in rng.integers(0, 2, d))
            cfg = CrossConfig(r_max=int(rng.integers(1, 6)),
                              n_max=int(rng.integers(5, 40)), seed=trial,
                              max_sweeps=int(rng.integers(1, 6)))
            memo = Memo(lambda bits, logs=logs: float(logs[bits]))
            res = cross_optimize(memo, d, g0, cfg, tau=1e-3)
            assert res.n_evaluations <= budget_bound(d, cfg)
            if res.ranks == []:
                assert (res.termination, res.tensor, res.value) == ("budget", None, 1.0)
                assert res.n_evaluations >= cfg.n_max and res.g_max == memo.argmax()[0]
                at_budget += 1
        assert at_budget > 0

    def test_tau_tempers_log_values(self):
        # the tempered run on log values follows the same pivots as the
        # plain run on exp((log - log at g0) / tau), and counts the same
        rng = np.random.default_rng(77)
        logs = np.log(rng.uniform(0.1, 1.0, size=(2,) * 6))
        g0 = (1, 0, 1, 1, 0, 0)
        cfg = CrossConfig(r_max=4, n_max=10_000, seed=3, max_sweeps=4)
        for tau in (0.5, 1.0, 10.0):
            tempered = cross_optimize(lambda bits: float(logs[bits]), 6, g0, cfg, tau=tau)
            plain = cross_optimize(
                lambda bits: math.exp((float(logs[bits]) - float(logs[g0])) / tau),
                6, g0, cfg)
            assert tempered.g_max == plain.g_max
            assert tempered.value == pytest.approx(plain.value, rel=1e-12)
            assert tempered.n_evaluations == plain.n_evaluations
            assert tempered.termination == plain.termination

    def test_tempered_overflow_reanchors(self):
        # every flipped bit gains exp(800), beyond double range: each
        # overflow moves the shift to the best network found, and the run
        # climbs to the maximum, reported on the final scale
        logs = {bits: 800.0 * sum(bits) for bits in all_bits(3)}
        res = cross_optimize(logs.__getitem__, 3, (0, 0, 0),
                             CrossConfig(r_max=2, n_max=100, seed=0), tau=1.0)
        assert res.g_max == (1, 1, 1)
        assert res.value == 1.0
        assert res.n_evaluations == 8
        assert res.history[-1].g_max == (1, 1, 1)
        # a shared memo already holding a network 1000 nats up: the first
        # sweep's best value overflows and re-anchors, the history has no gap
        top = (1,) * 6
        memo = Memo(lambda bits: 1000.0 if bits == top else -float(sum(bits)))
        memo(top)
        res = cross_optimize(memo, 6, (0,) * 6,
                             CrossConfig(r_max=2, n_max=500, seed=0, max_sweeps=3),
                             tau=1.0)
        assert res.g_max == top
        assert [rec.sweep for rec in res.history] == list(range(1, len(res.history) + 1))

    @pytest.mark.parametrize("tau", [None, 1.0])
    def test_overflow_without_a_better_network_propagates(self, tau):
        # re-anchoring needs a tempered run and a network above the shift;
        # g0 is the best network solved here, so the error is not swallowed
        def f(bits):
            if sum(bits) == 2:
                raise OverflowError("objective overflow")
            return -float(sum(bits)) if tau else math.exp(-sum(bits))

        with pytest.raises(OverflowError):
            cross_optimize(f, 3, (0, 0, 0), CrossConfig(r_max=2, n_max=100), tau=tau)

    def test_zero_likelihood_start_raises(self):
        with pytest.raises(ValueError):
            cross_optimize(lambda bits: -math.inf, 3, (0, 0, 0),
                           CrossConfig(r_max=2, n_max=100), tau=1.0)
        # a bad temperature is rejected before the objective is called
        calls = []
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            cross_optimize(calls.append, 3, (0, 0, 0), CrossConfig(), tau=0)
        assert calls == []

    def test_nonpositive_start_raises(self):
        with pytest.raises(ValueError):
            cross_optimize(lambda bits: 0.0, 4, (0,) * 4,
                           CrossConfig(r_max=2, n_max=100))

    def test_result_tensor_matches_interpolant(self):
        rng = np.random.default_rng(57)
        f, _ = random_tensor_fn(rng, 6)
        cfg = CrossConfig(r_max=4, n_max=10_000, seed=5, max_sweeps=3)
        res = cross_optimize(f, 6, (0,) * 6, cfg)
        assert res.tensor is not None
        assert res.tensor.d == 6
        # the TT form agrees with the raw function at the evaluated argmax
        assert res.tensor.eval(res.g_max) == pytest.approx(res.value, rel=1e-8)

    def test_single_bond_exhausts(self):
        # d=2: one bond; the 2x2 case from the worked example
        values = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 4.0}
        cfg = CrossConfig(r_max=2, n_max=100, seed=6)
        res = cross_optimize(lambda bits: values[bits], 2, (0, 0), cfg)
        assert res.g_max == (1, 1)
        assert res.value == 4.0


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            CrossConfig(r_max=0)
        with pytest.raises(ValueError):
            CrossConfig(n_max=0)
        with pytest.raises(ValueError):
            CrossConfig(max_sweeps=0)


class TestTensorTrain:
    def random_tt(self, rng, d=6, r=3):
        ranks = [1] + [r] * (d - 1) + [1]
        cores = [rng.uniform(0.1, 1.0, size=(ranks[k], 2, ranks[k + 1]))
                 for k in range(d)]
        return TensorTrain(cores)

    def test_eval_matches_direct_contraction(self):
        rng = np.random.default_rng(59)
        tt = self.random_tt(rng, d=5)
        for bits in all_bits(5):
            v = np.ones((1, 1))
            for k, b in enumerate(bits):
                v = v @ tt.cores[k][:, b, :]
            assert tt.eval(bits) == pytest.approx(float(v[0, 0]), rel=1e-12)

    def test_ranks(self):
        rng = np.random.default_rng(61)
        tt = self.random_tt(rng, d=4, r=3)
        assert tt.ranks() == [1, 3, 3, 3, 1]

    def test_save_load_exact(self, tmp_path):
        rng = np.random.default_rng(63)
        tt = self.random_tt(rng, d=5)
        path = tmp_path / "cores.txt"
        save_tt_cores(tt, path)
        back = load_tt_cores(path)
        assert back.d == tt.d
        for a, b in zip(tt.cores, back.cores):
            np.testing.assert_array_equal(a, b)

    def test_load_rejects_corrupt(self, tmp_path):
        path = tmp_path / "cores.txt"
        path.write_text("2\n1 3 1\n0.5 0.5 0.5\n")
        with pytest.raises(ValueError):
            load_tt_cores(path)
        path.write_text("1\n1 2 1\n0.5\n")
        with pytest.raises(ValueError):
            load_tt_cores(path)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TensorTrain([np.zeros((2, 2, 1))])
        with pytest.raises(ValueError):
            TensorTrain([np.zeros((1, 2, 3)), np.zeros((2, 2, 1))])
        with pytest.raises(ValueError):
            TensorTrain([])

    def test_argmax_matches_enumeration(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            tt = self.random_tt(rng, d=8, r=2)
            best = max(all_bits(8), key=tt.eval)
            assert tensor_argmax(tt) == best

    def test_argmax_tie_breaks_lexicographically(self):
        # constant tensor: every entry ties, smallest index must win
        tt = TensorTrain([np.ones((1, 2, 1))] * 4)
        assert tensor_argmax(tt) == (0, 0, 0, 0)

    def test_argmax_ranks_nan_below_every_number(self):
        # inf * 0 makes the entries with first bit 0 NaN, silently; the
        # argmax is the largest number
        tt = TensorTrain([np.array([[[np.inf, 1.0], [0.0, 3.0]]]),
                          np.array([[[0.0], [0.0]], [[1.0], [2.0]]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tensor_argmax(tt) == (1, 1)

    def test_argmax_respects_limit(self):
        tt = TensorTrain([np.ones((1, 2, 1))] * 21)
        with pytest.raises(ValueError):
            tensor_argmax(tt)

    def test_optimize_recovers_max_of_exactly_low_rank_tensor(self):
        # the sweeps stall once interpolation is exact, so the maximum must
        # come from the final interpolant argmax rather than a sampled cross
        rng = np.random.default_rng(71)
        tt = self.random_tt(rng, d=10, r=3)
        best = max(all_bits(10), key=tt.eval)
        cfg = CrossConfig(r_max=5, n_max=10_000, seed=5, max_sweeps=None)
        res = cross_optimize(tt.eval, 10, (0,) * 10, cfg)
        assert tuple(res.g_max) == best
        assert res.value == tt.eval(best)
        assert res.n_evaluations < 200
