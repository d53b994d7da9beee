import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import solve_ivp

from dense_oracle import dense_generator, transition_matrix
from epicross import epidemic
from epicross.epidemic import (
    AdjacencyVector,
    EpidemicParams,
    NetworkState,
    Trajectory,
    build_generator,
    chain_network,
    ssa_simulate,
)
from epicross.cross import (
    CrossConfig,
    TemperConfig,
    cross_optimize,
    tempered_objective,
)
from epicross.driver import brute_force_mle, likelihood_memo
from epicross.likelihood import log_likelihood

# two-node reference scenario solved independently with a high-order ODE
# integrator; the value is frozen so regressions are caught even if the
# integrator check ever changes
REF_PARAMS = EpidemicParams(beta=1.3, gamma=0.7, eps=0.05)
REF_NETWORK = AdjacencyVector((1,))
REF_DATA = Trajectory(np.array([0.0, 0.5, 1.0, 1.5]),
                      np.array([[1, 0], [1, 1], [0, 1], [0, 1]]))
REF_LOGLIK = -3.8878921922589722


def ode_log_likelihood(g, data, params):
    """Reference likelihood by integrating the master equation per step."""
    q = dense_generator(build_generator(g, params))
    idx = data.state_indices()
    total = 0.0
    for k in range(data.n_steps):
        p0 = np.zeros(q.shape[0])
        p0[idx[k]] = 1.0
        span = (data.times[k], data.times[k + 1])
        sol = solve_ivp(lambda t, y: q @ y, span, p0, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        total += math.log(sol.y[idx[k + 1], -1])
    return total


class TestLogLikelihood:
    def test_matches_ode_oracle(self):
        ll = log_likelihood(REF_NETWORK, REF_DATA, REF_PARAMS)
        assert ll == pytest.approx(ode_log_likelihood(REF_NETWORK, REF_DATA, REF_PARAMS),
                                   abs=1e-9)
        assert ll == pytest.approx(REF_LOGLIK, abs=1e-9)

    def test_matches_ode_oracle_random(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = 3
            g = AdjacencyVector(tuple(int(b) for b in rng.integers(0, 2, size=3)))
            params = EpidemicParams(*rng.uniform(0.1, 1.5, size=3))
            traj = ssa_simulate(g, params, 0.25, 3.0,
                                NetworkState((1, 0, 0)), seed=int(rng.integers(1e6)))
            ll = log_likelihood(g, traj, params)
            assert ll == pytest.approx(ode_log_likelihood(g, traj, params), abs=1e-8)

    def test_factorizes_over_steps(self):
        # mixed step lengths: likelihood is the product of per-step entries
        g = REF_NETWORK
        times = np.array([0.0, 0.1, 0.3, 0.4, 0.6])
        states = np.array([[1, 0], [1, 1], [1, 1], [0, 1], [1, 1]])
        data = Trajectory(times, states)
        q = build_generator(g, REF_PARAMS)
        idx = data.state_indices()
        expected = 0.0
        for k in range(4):
            m = transition_matrix(q, times[k + 1] - times[k])
            expected += math.log(m[idx[k + 1], idx[k]])
        assert log_likelihood(g, data, REF_PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_uniform_grid_single_solve_consistent(self):
        # grid times built by accumulation differ in ulps from k*dt; the
        # grouped solve must not split on that
        times_exact = np.arange(6) * 0.1
        times_accum = np.zeros(6)
        for k in range(1, 6):
            times_accum[k] = times_accum[k - 1] + 0.1
        states = np.array([[1, 0], [1, 1], [0, 1], [1, 1], [1, 0], [1, 1]])
        a = log_likelihood(REF_NETWORK, Trajectory(times_exact, states), REF_PARAMS)
        b = log_likelihood(REF_NETWORK, Trajectory(times_accum, states), REF_PARAMS)
        assert a == pytest.approx(b, rel=1e-12)

    def test_dense_and_column_paths_agree(self):
        # the certified column path against the dense expm oracle, on random
        # networks and trajectories with mixed step lengths
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(2, 9))
            g = AdjacencyVector(tuple(int(b) for b in rng.integers(0, 2, size=n * (n - 1) // 2)))
            params = EpidemicParams(beta=float(rng.uniform(0.1, 2.0)),
                                    gamma=float(rng.uniform(0.1, 2.0)),
                                    eps=float(10.0 ** rng.uniform(-3, 0)))
            fine = ssa_simulate(g, params, 0.05, 10.0,
                                NetworkState((1,) + (0,) * (n - 1)),
                                seed=int(rng.integers(1e6)))
            keep = np.cumsum(rng.integers(1, 4, size=fine.n_steps))
            keep = np.concatenate([[0], keep[keep <= fine.n_steps]])
            traj = Trajectory(fine.times[keep], fine.states[keep])
            q = build_generator(g, params)
            idx = traj.state_indices()
            dense = {}
            expected = 0.0
            for k, dt in enumerate(np.diff(traj.times)):
                if round(dt, 12) not in dense:
                    dense[round(dt, 12)] = transition_matrix(q, dt)
                expected += math.log(dense[round(dt, 12)][idx[k + 1], idx[k]])
            assert log_likelihood(g, traj, params) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", [6, 8, 9, 10])
    @pytest.mark.parametrize("dt", [0.1, 0.05, 0.01])
    def test_all_nodes_flip_closed_form(self, n, dt):
        # empty network, every node infected in one step: independent nodes,
        # each flipping with p1 = eps/(eps+gamma) (1 - exp(-(eps+gamma) dt)),
        # an entry far below the absolute accuracy of a plain truncation
        params = EpidemicParams(beta=1.0, gamma=0.5, eps=0.01)
        data = Trajectory(np.array([0.0, dt]), np.array([[0] * n, [1] * n]))
        rate = params.eps + params.gamma
        p1 = params.eps / rate * -math.expm1(-rate * dt)
        ll = log_likelihood(AdjacencyVector.empty(n), data, params)
        assert ll == pytest.approx(n * math.log(p1), abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_one_jump_chain_serves_every_step_group(self, n):
        # the one generator and jump chain a solve shares between its step
        # groups gives the bytes of a generator built afresh per group, on
        # irregular grids: with a block large enough to split (n = 9), steps
        # of lam dt > 200 (several substeps) and all rates zero
        # (exp(Q dt) = I)
        rng = np.random.default_rng(60 + n)
        g = AdjacencyVector(tuple(int(b) for b in rng.integers(0, 2, size=n * (n - 1) // 2)))
        params = EpidemicParams(beta=float(rng.uniform(0.1, 2.0)),
                                gamma=float(rng.uniform(0.1, 2.0)),
                                eps=float(rng.uniform(0.05, 0.5)))
        if n == 9:  # many distinct states
            params = EpidemicParams(1.0, 0.5, 0.2)
        fine = ssa_simulate(g, params, 0.05, 30.0 if n == 9 else 5.0,
                            NetworkState((1,) + (0,) * (n - 1)),
                            seed=int(rng.integers(1e6)))
        keep = np.cumsum(rng.choice([1, 1, 1, 2, 3], size=fine.n_steps))
        keep = np.concatenate([[0], keep[keep <= fine.n_steps]])
        lam = build_generator(g, params).lam
        # two long steps at the end, of lam dt 500 and 300: 3 and 2 substeps
        times = np.concatenate([fine.times[keep], fine.times[keep[-1]] + np.array(
            [500.0, 800.0]) / lam])
        states = np.concatenate([fine.states[keep], fine.states[[0, keep[-1]]]])
        irregular = Trajectory(times, states)
        still = Trajectory(times, np.repeat(states[:1], times.size, axis=0))
        zero = EpidemicParams(0.0, 0.0, 0.0)
        cases = [(irregular, params), (irregular, zero), (still, zero)]
        assert len(irregular.step_groups) >= 4
        if n == 9:
            widest = max(plan.cols.size for _, plan, _ in irregular.step_groups)
            assert (1 << n) * widest >= epidemic.SPLIT_MIN_WORK
        for data, rates in cases:
            want = 0.0
            for dt, plan, counts in data.step_groups:
                p = epidemic.transition_columns(build_generator(g, rates), dt, plan)
                with np.errstate(divide="ignore"):
                    want += float(counts @ np.log(p))
            got = log_likelihood(g, data, rates)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert log_likelihood(g, still, zero) == 0.0
        assert log_likelihood(g, irregular, zero) == -math.inf

    def test_equal_trajectories_equal_loglik(self):
        # the step table is cached per trajectory; a second trajectory with
        # equal arrays, whose table is not built yet, gives the same bits
        fine = ssa_simulate(chain_network(4), REF_PARAMS, 0.05, 20.0,
                            NetworkState((1, 0, 0, 0)), seed=8)
        keep = np.r_[0, np.sort(np.random.default_rng(8).choice(
            np.arange(1, fine.times.size), size=200, replace=False))]
        a = Trajectory(fine.times[keep], fine.states[keep])
        b = Trajectory(a.times.copy(), a.states.copy())
        assert len(a.step_groups) > 1
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = AdjacencyVector(tuple(int(x) for x in rng.integers(0, 2, size=6)))
            assert log_likelihood(g, b, REF_PARAMS) == log_likelihood(g, a, REF_PARAMS)

    def test_never_positive(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            d = n * (n - 1) // 2
            g = AdjacencyVector(tuple(int(b) for b in rng.integers(0, 2, size=d)))
            params = EpidemicParams(*rng.uniform(0.05, 2.0, size=3))
            traj = ssa_simulate(g, params, 0.2, 4.0,
                                NetworkState((1,) + (0,) * (n - 1)),
                                seed=int(rng.integers(1e6)))
            assert log_likelihood(g, traj, params) <= 0.0

    def test_impossible_transition_is_minus_inf(self):
        # eps = 0 and no edges: nobody can become infected
        params = EpidemicParams(beta=1.0, gamma=0.5, eps=0.0)
        data = Trajectory(np.array([0.0, 0.1]), np.array([[0, 0], [1, 0]]))
        assert log_likelihood(AdjacencyVector((0,)), data, params) == -math.inf

    def test_empty_product(self):
        data = Trajectory(np.array([0.0]), np.array([[1, 0]]))
        assert log_likelihood(REF_NETWORK, data, REF_PARAMS) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            log_likelihood(chain_network(3), REF_DATA, REF_PARAMS)

    def test_solve_builds_no_scipy_matrix(self, monkeypatch):
        # a solve fills plain arrays and calls the sparse kernel on them; the
        # 9-node trajectory's 92 source states are run as two halves, one in the
        # helper, with the bytes of the caller running both
        small = ssa_simulate(chain_network(4), REF_PARAMS, 0.1, 20.0,
                             NetworkState((1, 0, 0, 0)), seed=4)
        big = ssa_simulate(chain_network(9), EpidemicParams(1.0, 0.5, 0.2), 0.1, 30.0,
                           NetworkState((1,) + (0,) * 8), seed=1)
        monkeypatch.setattr(epidemic, "_cpus", lambda: 1)
        serial = log_likelihood(chain_network(9), big, REF_PARAMS)

        def no_matrix(*args, **kwargs):
            raise AssertionError("a likelihood solve built a scipy matrix")

        splits = []
        halves = epidemic._halves

        def spy(*args):
            splits.append(halves(*args))
            return splits[-1]

        monkeypatch.setattr(scipy.sparse, "csc_array", no_matrix)
        monkeypatch.setattr(epidemic, "_halves", spy)
        monkeypatch.setattr(epidemic, "_cpus", lambda: 2)
        epidemic._stop_helper()
        assert math.isfinite(log_likelihood(chain_network(4), small, REF_PARAMS))
        assert log_likelihood(chain_network(9), big, REF_PARAMS) == serial
        assert splits and epidemic._helper is not None


class TestTempering:
    def test_formula(self):
        cfg = TemperConfig(tau=2.0, log_shift=-5.0)
        assert tempered_objective(-3.0, cfg) == pytest.approx(math.exp(1.0))
        assert tempered_objective(-5.0, cfg) == 1.0

    def test_zero_likelihood_maps_to_zero(self):
        assert tempered_objective(-math.inf, TemperConfig(tau=1.0)) == 0.0

    def test_overflow_aborts_with_payload(self):
        # exp(800) leaves double range and raises; cross_optimize re-anchors
        # on that error, so it must not come back as inf.  The loglik is all
        # the re-anchor needs: shifted onto it, the same entry is exactly 1
        with pytest.raises(OverflowError):
            tempered_objective(800.0, TemperConfig(tau=1.0, log_shift=0.0))
        assert tempered_objective(800.0, TemperConfig(tau=1.0, log_shift=800.0)) == 1.0

    def test_tau_controls_overflow_onset(self):
        cfg10 = TemperConfig(tau=10.0, log_shift=0.0)
        assert tempered_objective(800.0, cfg10) == pytest.approx(math.exp(80.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            TemperConfig(tau=0.0)
        with pytest.raises(ValueError):
            TemperConfig(tau=-1.0)
        with pytest.raises(ValueError):
            TemperConfig(tau=1.0, log_shift=math.inf)
        with pytest.raises(ValueError):
            tempered_objective(math.nan, TemperConfig(tau=1.0))

    def test_shift_is_pure_rescaling(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            tau = float(rng.uniform(0.5, 50.0))
            s1, s2 = rng.uniform(-100.0, 100.0, size=2)
            ll = float(rng.uniform(-150.0, 50.0))
            a = tempered_objective(ll, TemperConfig(tau=tau, log_shift=s1))
            b = tempered_objective(ll, TemperConfig(tau=tau, log_shift=s2))
            assert a == pytest.approx(b * math.exp((s2 - s1) / tau), rel=1e-12)


class TestLikelihoodMemo:
    def make(self, tau=1.0):
        params = EpidemicParams(1.0, 0.5, 0.05)
        data = ssa_simulate(chain_network(3), params, 0.1, 10.0,
                            NetworkState((1, 0, 0)), seed=11)
        g0 = chain_network(3)
        ll0 = log_likelihood(g0, data, params)
        return likelihood_memo(data, params), TemperConfig(tau=tau, log_shift=ll0), g0, ll0

    def test_call_and_counters(self):
        memo, cfg, g0, ll0 = self.make()
        assert tempered_objective(memo(g0.bits), cfg) == pytest.approx(1.0)
        assert memo.n_evaluations == 1
        memo(g0.bits)
        assert memo.n_hits == 1
        memo((0, 0, 0))
        assert memo.n_evaluations == 2

    def test_argmax_matches_cache(self):
        memo, cfg, g0, ll0 = self.make()
        lls = {}
        for code in range(8):
            bits = tuple((code >> i) & 1 for i in range(3))
            lls[bits] = memo(bits)
        bits, ll = memo.argmax()
        assert ll == max(lls.values())
        assert bits == min(b for b, v in lls.items() if v == ll)
        assert tempered_objective(ll, cfg) == pytest.approx(math.exp(ll - ll0))

    def test_threads_sharing_memos_get_serial_bytes(self):
        # two threads share the memos of a 5-node and a 9-node trajectory
        # and solve networks of both at once, in opposite orders, switching
        # often: each thread runs its series in term buffers of its own, so
        # every log-likelihood has the bytes of a solve in this thread alone
        params = EpidemicParams(1.0, 0.5, 0.05)
        rng = np.random.default_rng(21)
        cases = []
        for n, count in ((5, 24), (9, 4)):
            data = ssa_simulate(chain_network(n), params, 0.1, 10.0,
                                NetworkState((1,) + (0,) * (n - 1)), seed=n)
            nets = [tuple(int(b) for b in rng.integers(0, 2, size=n * (n - 1) // 2))
                    for _ in range(count)]
            cases.append((data, likelihood_memo(data, params), nets))
        (_, memo5, nets5), (_, memo9, nets9) = cases
        work = [(memo5, g) for g in nets5]
        for i, g in enumerate(nets9):
            work.insert(6 * i, (memo9, g))
        barrier = threading.Barrier(2)

        def solve(items):
            barrier.wait()
            for memo, g in items:
                memo(g)

        threads = [threading.Thread(target=solve, args=(items,))
                   for items in (work, work[::-1])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for data, memo, nets in cases:
            assert memo.n_evaluations == len(set(nets))
            for g in nets:
                serial = log_likelihood(AdjacencyVector(g), data, params)
                assert memo.lookup(g).hex() == serial.hex()

    def test_shared_memo_serves_a_second_temperature(self):
        memo, cfg, g0, ll0 = self.make()
        first = cross_optimize(memo, 3, g0.bits, CrossConfig(r_max=4, seed=0), tau=1.0)
        solved = memo.n_evaluations
        assert first.n_evaluations == solved == 8
        hot = cross_optimize(memo, 3, g0.bits, CrossConfig(r_max=4, seed=0), tau=10.0)
        assert hot.n_evaluations == 0  # served from the shared memo
        assert memo.n_evaluations == solved
        assert hot.g_max == first.g_max

    def test_tempered_value_from_memo(self):
        params = EpidemicParams(1.0, 0.5, 0.05)
        data = ssa_simulate(chain_network(3), params, 0.1, 5.0,
                            NetworkState((1, 0, 0)), seed=12)
        cache = likelihood_memo(data, params)
        cfg = TemperConfig(tau=2.0, log_shift=-10.0)
        g = chain_network(3)
        v1 = tempered_objective(cache(g.bits), cfg)
        v2 = tempered_objective(cache(g.bits), cfg)
        assert v1 == v2
        assert cache.n_evaluations == 1 and cache.n_hits == 1
        assert v1 == pytest.approx(math.exp((cache.lookup(g.bits) + 10.0) / 2.0))
        assert cache.lookup(g.bits) == log_likelihood(g, data, params)

    def test_temperature_preserves_argmax(self):
        params = EpidemicParams(1.0, 0.5, 0.05)
        data = ssa_simulate(chain_network(3), params, 0.1, 10.0,
                            NetworkState((1, 0, 0)), seed=13)
        winners = []
        for tau in (1.0, 10.0, 100.0):
            res = cross_optimize(likelihood_memo(data, params), 3,
                                 chain_network(3).bits,
                                 CrossConfig(r_max=4, seed=0), tau=tau)
            winners.append(res.g_max)
        assert winners[0] == winners[1] == winners[2]
        assert winners[0] == brute_force_mle(data, params)[0].bits
