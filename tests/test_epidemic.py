import dataclasses
import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from dense_oracle import dense_generator, transition_matrix
from epicross import epidemic
from epicross.epidemic import (
    AdjacencyVector,
    EpidemicParams,
    NetworkState,
    SolvePlan,
    Trajectory,
    build_generator,
    chain_network,
    network_error,
    nodes_from_pair_count,
    pack_adjacency,
    pair_order,
    read_network,
    read_trajectory,
    ssa_simulate,
    transition_columns,
    unpack_adjacency,
    write_network,
    write_trajectory,
)


def random_network(rng, n_nodes):
    d = n_nodes * (n_nodes - 1) // 2
    return AdjacencyVector(tuple(int(b) for b in rng.integers(0, 2, size=d)))


def coo_generator(g, params):
    """Reference generator: assembled per call from COO triplets, with the
    zero rates dropped."""
    n = g.n_nodes
    dim = 1 << n
    adj = np.zeros((n, n), dtype=np.int64)
    for (m, k), b in zip(pair_order(n), g.bits):
        adj[m, k] = adj[k, m] = b
    states = np.arange(dim, dtype=np.int64)
    bits = (states[:, None] >> np.arange(n)) & 1
    flip_rate = np.where(bits == 0, (bits @ adj) * params.beta + params.eps, params.gamma)
    targets = states[:, None] ^ (np.int64(1) << np.arange(n))
    data = flip_rate.ravel()
    keep = data > 0
    q = sparse.coo_array(
        (np.concatenate([data[keep], -flip_rate.sum(axis=1)]),
         (np.concatenate([targets.ravel()[keep], states]),
          np.concatenate([np.repeat(states, n)[keep], states]))),
        shape=(dim, dim))
    return q.toarray()


def named_entries(rate, dt, cols, entries):
    """transition_columns on the plan of `entries` = (rows, pos) in `cols`."""
    return transition_columns(rate, dt, SolvePlan(rate.dim, cols, entries))


def every_entry(rate, dt, cols):
    """exp(Q dt)[:, cols] from transition_columns, every entry named."""
    rows, pos = np.indices((rate.dim, len(cols))).reshape(2, -1)
    return named_entries(rate, dt, cols, (rows, pos)).reshape(rate.dim, len(cols))


def reference_columns(rate, dt, cols, entries):
    """Uniformization with the jump matrix built as a scipy csc_array
    q / lam plus setdiag, every substep summing the whole block and
    stopping as transition_columns does: an inner substep (lam dt > 200)
    at INNER_TARGET, the last at RTOL times the smallest named entry less
    the mass the inner ones left out.  Returns the named entries."""
    return reference_series(rate, dt, cols, entries)[0]


def reference_series(rate, dt, cols, entries):
    """reference_columns and the jumps its series applies, over all
    substeps; the last substep's minimum leaves out the named entries still
    zero once 2N jumps have run (the masked stop rule)."""
    n = rate.dim.bit_length() - 1
    _, indices, indptr, _, _ = epidemic._generator_pattern(n)
    q = sparse.csc_array((rate.data, indices, indptr), shape=(rate.dim, rate.dim))
    lam = float((-q.diagonal()).max())
    jump = q / lam
    jump.setdiag(jump.diagonal() + 1.0)
    v = np.zeros((rate.dim, len(cols)))
    v[cols, np.arange(len(cols))] = 1.0
    n_sub = max(1, math.ceil(lam * dt / 200.0))
    mu = lam * dt / n_sub
    lost, terms = 0.0, 0
    for s in range(n_sub):
        w = math.exp(-mu)
        term, acc = v, w * v
        for j in range(epidemic.MAX_TERMS):
            w_next = w * mu / (j + 1)
            tail = w_next / (1.0 - mu / (j + 2)) if j + 2 > mu else math.inf
            if s < n_sub - 1:
                target = epidemic.INNER_TARGET
            else:
                target = epidemic.RTOL - lost
                if tail <= target:
                    p = acc[entries]
                    if terms + j >= 2 * n:
                        p = p[p > 0.0]
                    target = epidemic.RTOL * p.min(initial=1.0) - lost
            if 0.0 < target and tail <= target:
                break
            term = jump @ term
            w = w_next
            acc += w * term
        else:
            raise AssertionError("reference series did not stop")
        lost += tail
        terms += j
        v = acc
    return v[entries], terms


class TestAdjacency:
    def test_pair_order_column_wise(self):
        assert pair_order(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]

    def test_chain_bits_n4(self):
        assert chain_network(4).bitstring == "101001"

    def test_nodes_from_pair_count(self):
        assert nodes_from_pair_count(0) == 1
        assert nodes_from_pair_count(1) == 2
        assert nodes_from_pair_count(36) == 9
        with pytest.raises(ValueError):
            nodes_from_pair_count(2)

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            AdjacencyVector((0, 2, 0))
        with pytest.raises(ValueError):
            AdjacencyVector((0, 0.5, 0))  # not a bit, though int() makes it one
        assert AdjacencyVector((True, np.int64(0), 1.0)).bits == (1, 0, 1)
        with pytest.raises(ValueError):
            AdjacencyVector((0, 1))  # 2 is not N(N-1)/2

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            g = random_network(rng, n)
            assert pack_adjacency(unpack_adjacency(g)) == g

    def test_pack_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            pack_adjacency(np.array([[0, 1], [0, 0]]))  # asymmetric
        with pytest.raises(ValueError):
            pack_adjacency(np.array([[1, 1], [1, 0]]))  # diagonal
        with pytest.raises(ValueError):
            pack_adjacency(np.array([[0, 2], [2, 0]]))  # not binary
        with pytest.raises(ValueError):
            pack_adjacency(np.zeros((2, 3)))

    def test_bitstring_roundtrip(self):
        g = AdjacencyVector.from_bitstring("101001")
        assert g.bitstring == "101001"
        assert g.n_nodes == 4
        with pytest.raises(ValueError):
            AdjacencyVector.from_bitstring("10a")

    def test_edges_roundtrip(self):
        g = chain_network(5)
        assert AdjacencyVector.from_edges(5, g.edges()) == g
        with pytest.raises(ValueError):
            AdjacencyVector.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            AdjacencyVector.from_edges(3, [(0, 3)])

    def test_network_error(self):
        g = chain_network(4)
        assert network_error(g, g) == 0
        assert network_error(g, AdjacencyVector.empty(4)) == 3
        with pytest.raises(ValueError):
            network_error(g, AdjacencyVector.empty(5))

    def test_network_error_is_hamming(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = random_network(rng, 5), random_network(rng, 5)
            expected = sum(x != y for x, y in zip(a.bits, b.bits))
            assert network_error(a, b) == expected
            assert network_error(b, a) == expected


class TestStates:
    def test_linear_index_node1_least_significant(self):
        assert NetworkState((1, 0, 0)).linear_index == 1
        assert NetworkState((0, 1, 0)).linear_index == 2
        assert NetworkState((1, 1, 0)).linear_index == 3
        assert NetworkState((0, 0, 1)).linear_index == 4

    def test_from_index_roundtrip(self):
        for idx in range(16):
            assert NetworkState.from_index(idx, 4).linear_index == idx
        with pytest.raises(ValueError):
            NetworkState.from_index(16, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkState(())
        with pytest.raises(ValueError):
            NetworkState((0, 2))


class TestGenerator:
    def test_two_node_edge_exact(self):
        p = EpidemicParams(beta=1.3, gamma=0.7, eps=0.05)
        q = dense_generator(build_generator(AdjacencyVector((1,)), p))
        b, g, e = p.beta, p.gamma, p.eps
        # states ordered 00, 10, 01, 11 by linear index
        expected = np.array([
            [-2 * e,       g,           g,           0.0],
            [e,            -(g + b + e), 0.0,         g],
            [e,            0.0,         -(g + b + e), g],
            [0.0,          b + e,       b + e,       -2 * g],
        ])
        np.testing.assert_allclose(q, expected, atol=1e-15)

    def test_two_node_no_edge_exact(self):
        p = EpidemicParams(beta=1.3, gamma=0.7, eps=0.05)
        q = dense_generator(build_generator(AdjacencyVector((0,)), p))
        g, e = p.gamma, p.eps
        expected = np.array([
            [-2 * e, g,        g,        0.0],
            [e,      -(g + e), 0.0,      g],
            [e,      0.0,      -(g + e), g],
            [0.0,    e,        e,        -2 * g],
        ])
        np.testing.assert_allclose(q, expected, atol=1e-15)

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            g = random_network(rng, n)
            p = EpidemicParams(*rng.uniform(0.05, 2.0, size=3))
            dense = dense_generator(build_generator(g, p))
            np.testing.assert_allclose(dense.sum(axis=0), 0.0, atol=1e-12)
            off = dense - np.diag(np.diag(dense))
            assert off.min() >= 0.0

    def test_single_flip_sparsity(self):
        g = chain_network(5)
        p = EpidemicParams(beta=1.0, gamma=0.5, eps=0.01)
        q = dense_generator(build_generator(g, p))
        for col in range(32):
            rows = np.nonzero(q[:, col])[0]
            rows = rows[rows != col]
            assert len(rows) <= 5
            for r in rows:
                assert bin(int(r) ^ col).count("1") == 1

    def test_rate_depends_only_on_neighbours(self):
        # flipping an edge not incident to n leaves n's infection rate alone
        rng = np.random.default_rng(5)
        pairs = pair_order(5)
        p = EpidemicParams(beta=0.9, gamma=0.4, eps=0.02)
        for _ in range(100):
            g = random_network(rng, 5)
            q1 = dense_generator(build_generator(g, p))
            n = int(rng.integers(0, 5))
            away = [i for i, (a, b) in enumerate(pairs) if n not in (a, b)]
            k = int(rng.choice(away))
            q2 = dense_generator(build_generator(g.flip(k), p))
            x = int(rng.integers(0, 32))
            if not (x >> n) & 1:
                y = x | (1 << n)
                assert q1[y, x] == q2[y, x]


    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_coo_reference(self, n):
        rng = np.random.default_rng(40 + n)
        for beta, gamma, eps in [rng.uniform(0.05, 2.0, size=3),
                                 (rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0), 0.0),
                                 (0.0, rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)),
                                 (0.0, 0.0, 0.0)]:
            p = EpidemicParams(beta, gamma, eps)
            for _ in range(3):
                g = random_network(rng, n)
                rate = build_generator(g, p)
                reference = coo_generator(g, p)
                assert np.array_equal(dense_generator(rate), reference)
                assert rate.lam == -np.diag(reference).min()  # the largest exit rate

    def test_shared_pattern_is_read_only(self):
        # generators of one node count share the sparsity pattern, so an
        # in-place change must fail instead of corrupting it
        p = EpidemicParams(beta=1.0, gamma=0.5, eps=0.0)
        for shared in epidemic._generator_pattern(3):
            with pytest.raises(ValueError):
                shared[...] = shared  # a write, even of the same values
        other = dense_generator(build_generator(chain_network(3), p))
        assert np.array_equal(other, coo_generator(chain_network(3), p))

    def test_equality_is_identity(self):
        p = EpidemicParams(beta=1.0, gamma=0.5, eps=0.01)
        a = build_generator(chain_network(3), p)
        b = build_generator(chain_network(3), p)
        assert a == a and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


class TestTransitionMatrix:
    def test_stochastic_columns(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            g = random_network(rng, n)
            p = EpidemicParams(*rng.uniform(0.05, 2.0, size=3))
            m = transition_matrix(build_generator(g, p), float(rng.uniform(0.05, 1.5)))
            np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-10)
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_single_node_analytic(self):
        # one node, no pairs: infection at eps, recovery at gamma
        p = EpidemicParams(beta=1.0, gamma=0.5, eps=0.01)
        dt = 0.1
        m = transition_matrix(build_generator(AdjacencyVector(()), p), dt)
        rate = p.eps + p.gamma
        expected = (p.eps / rate) * (1.0 - math.exp(-rate * dt))
        assert m[1, 0] == pytest.approx(expected, abs=1e-12)
        assert m[0, 0] == pytest.approx(1.0 - expected, abs=1e-12)

    def test_uniformization_matches_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g = random_network(rng, n)
            p = EpidemicParams(*rng.uniform(0.05, 2.0, size=3))
            q = build_generator(g, p)
            dt = float(rng.uniform(0.05, 2.0))
            dense = expm(dense_generator(q) * dt)
            cols = rng.choice(q.dim, size=min(5, q.dim), replace=False)
            approx = every_entry(q, dt, cols)
            np.testing.assert_allclose(approx, dense[:, cols], atol=1e-10)

    def test_uniformization_long_interval_substeps(self):
        g = chain_network(3)
        p = EpidemicParams(beta=3.0, gamma=2.0, eps=0.1)
        q = build_generator(g, p)
        dt = 60.0  # forces the Poisson mean above one substep
        dense = expm(dense_generator(q) * dt)
        approx = every_entry(q, dt, np.arange(q.dim))
        np.testing.assert_allclose(approx, dense, atol=1e-9)

    def test_uniformization_relative_bound_on_named_entries(self):
        # a tiny entry (about 1e-32) named by the caller is accurate to RTOL
        # relative, far below what an absolute 1e-12 truncation resolves
        p = EpidemicParams(beta=1.0, gamma=0.5, eps=0.01)
        q = build_generator(AdjacencyVector.empty(8), p)
        rate = p.eps + p.gamma
        exact = (p.eps / rate * -math.expm1(-rate * 0.01)) ** 8
        p = named_entries(q, 0.01, [0], (np.array([q.dim - 1]), np.array([0])))
        assert p.shape == (1,)
        assert p[0] == pytest.approx(exact, rel=1e-11)

    def test_uniformization_raises_when_bound_unmet(self, monkeypatch):
        q = build_generator(chain_network(3), EpidemicParams(1.0, 0.5, 0.01))
        monkeypatch.setattr(epidemic, "MAX_TERMS", 3)
        with pytest.raises(ArithmeticError):
            every_entry(q, 1.0, [0])

    def test_uniformization_structural_zero(self):
        # eps = 0 and no edges: state 0 never leaves, after any number of terms
        q = build_generator(AdjacencyVector.empty(3), EpidemicParams(1.0, 0.5, 0.0))
        p = named_entries(q, 0.5, [0, 7], (np.array([1, 0, 0]), np.array([0, 0, 1])))
        assert p[0] == 0.0
        assert p[1] == pytest.approx(1.0, abs=1e-12)
        assert p[2] > 0.0

    def test_outside_entries_are_checked(self):
        # a plan checks the indices it is made from; it runs only with a
        # generator of its own number of states, with no rate
        # (exp(Q dt) = I) too
        good = (np.array([0, 5]), np.array([0, 1]))
        for cols, entries in [([0, 8], good), ([-1, 2], good), ([[0, 2]], good),
                              ([0.0, 2.0], good), ([0.5, 2.0], good),
                              ([0, 2], (np.array([0, 8]), good[1])),
                              ([0, 2], (np.array([-1, 0]), good[1])),
                              ([0, 2], (good[0], np.array([0, 2]))),
                              ([0, 2], (good[0], np.array([-1, 0]))),
                              ([0, 2], (good[0], np.array([0]))),
                              ([0, 2], (good[0], np.array([0.0, 1.0]))),
                              ([0, 2], (good[0][:, None], good[1][:, None]))]:
            with pytest.raises(ValueError):
                SolvePlan(8, cols, entries)
        for dim in (0, -8, 6, 12):  # not 2^N states
            with pytest.raises(ValueError):
                SolvePlan(dim, [0], ([0], [0]))
        plan = SolvePlan(8, [0, 2], good)
        unsigned = SolvePlan(8, np.array([0, 2], dtype=np.uint8),
                             tuple(a.astype(np.uint64) for a in good))
        for params in (EpidemicParams(1.0, 0.5, 0.01), EpidemicParams(0.0, 0.0, 0.0)):
            rate = build_generator(chain_network(3), params)
            assert transition_columns(rate, 0.1, plan).shape == (2,)
            assert (transition_columns(rate, 0.1, unsigned).tobytes()
                    == transition_columns(rate, 0.1, plan).tobytes())
            for n in (2, 4):
                with pytest.raises(ValueError, match="a plan for 8 states"):
                    transition_columns(build_generator(chain_network(n), params), 0.1, plan)

    def test_plan_owns_its_arrays(self):
        # a plan copies what it is made from, so changing those arrays
        # changes no result, and its own arrays are read-only, small plans
        # and split ones alike
        rate = build_generator(chain_network(9), EpidemicParams(1.0, 0.5, 0.01))
        for n_cols in (3, 64):
            cols = np.arange(n_cols) * 7
            rows, pos = np.arange(3 * n_cols) * 5 % 512, np.arange(3 * n_cols) % n_cols
            plan = SolvePlan(rate.dim, cols, (rows, pos))
            assert (plan.first is None) == (n_cols == 3)
            want = transition_columns(rate, 0.1, plan).tobytes()
            for a in (cols, rows, pos):
                a[...] = a[::-1]
            assert transition_columns(rate, 0.1, plan).tobytes() == want
            assert plan.cols.dtype == np.int64
            owned = [plan.cols, plan.rows, plan.pos]
            if plan.first is not None:
                owned.append(plan.first)
            for a in owned:
                with pytest.raises(ValueError):
                    a[...] = a

    def test_columns_bit_identical_to_scipy_jump_matrix(self):
        rng = np.random.default_rng(17)
        for trial in range(24):
            n = int(rng.integers(2, 8))
            beta, gamma, eps = rng.uniform(0.05, 2.0, size=3)
            if trial % 4 == 1:
                eps = 0.0
            if trial % 4 == 2:
                beta = 0.0
            rate = build_generator(random_network(rng, n), EpidemicParams(beta, gamma, eps))
            dt = float(rng.uniform(0.01, 2.0))
            cols = np.sort(rng.choice(rate.dim, size=min(6, rate.dim), replace=False))
            rows = rng.integers(0, rate.dim, size=10)
            entries = (rows, rng.integers(0, cols.size, size=10))
            got = named_entries(rate, dt, cols, entries)
            want = reference_columns(rate, dt, cols, entries)
            assert got.tobytes() == want.tobytes()

    def test_one_substep_block_holds_two_block_arrays(self):
        # the last substep sums only the named entries, so a one-substep
        # block of 512 states x 75 columns peaks at its two term buffers,
        # with no whole-block sum or weighted-term scratch beside them; the
        # buffers are the thread's own, so a second block of that size
        # allocates no block array at all
        rate = build_generator(chain_network(9), EpidemicParams(1.0, 0.5, 0.01))
        rng = np.random.default_rng(3)
        mu, n_sub = epidemic._prepare(rate, 0.1)
        cols = np.arange(0, 450, 6)
        block = epidemic._plan_block(9, cols, rng.integers(0, rate.dim, size=300),
                                     rng.integers(0, cols.size, size=300))
        assert n_sub == 1
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                epidemic._block(rate.jump, mu, n_sub, block)
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        block_array = rate.dim * cols.size * 8
        assert peaks[0] < 2.5 * block_array and peaks[1] < 0.1 * block_array

    def test_thread_keeps_no_large_term_buffers(self, monkeypatch):
        # a block of more than TERM_BUFFER_KEPT floats per term buffer
        # (2^11 states x 513 columns) runs in a pair of its own, which the
        # thread drops, with the bytes of a run in buffers it keeps; a
        # later small block is all the thread then holds
        rate = build_generator(chain_network(11), EpidemicParams(1.0, 0.5, 0.01))
        cols = np.arange(513) * 3
        big = epidemic._plan_block(11, cols, np.concatenate([cols, cols ^ 1]),
                                   np.tile(np.arange(513), 2))
        assert rate.dim * big.k > epidemic.TERM_BUFFER_KEPT
        small_rate = build_generator(chain_network(6), EpidemicParams(1.0, 0.5, 0.01))
        small = epidemic._plan_block(6, np.arange(8), np.arange(8), np.arange(8))

        def in_thread(solve):
            out = []
            th = threading.Thread(target=lambda: out.append(solve()))
            th.start()
            th.join()
            return out[0]

        def big_then_small():
            p = epidemic._block(*series_args(rate, 0.01), big)
            after_big = getattr(epidemic._local, "store", None)
            epidemic._block(*series_args(small_rate, 0.1), small)
            return p, after_big, epidemic._local.store.size

        p, after_big, after_small = in_thread(big_then_small)
        assert after_big is None and after_small == 2 * 64 * 8
        monkeypatch.setattr(epidemic, "TERM_BUFFER_KEPT", rate.dim * big.k)
        kept, store = in_thread(lambda: (epidemic._block(*series_args(rate, 0.01), big),
                                         epidemic._local.store.size))
        assert store == 2 * rate.dim * big.k
        assert p.tobytes() == kept.tobytes()


class TestStopRule:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Count the series terms after the first: each is one kernel call
        (the first, P applied to the start vectors, copies P's columns)."""
        calls = []
        kernel = epidemic._sparsetools

        class Counting:
            def csc_matvecs(self, *args):
                calls.append(args[2])
                return kernel.csc_matvecs(*args)

        monkeypatch.setattr(epidemic, "_sparsetools", Counting())
        return calls

    def test_structural_zero_stops_at_the_masked_rule(self, kernel_calls):
        # eps = 0 and no edges: state 0 never leaves, so exp(Q dt)[1, 0] is
        # exactly zero after any number of terms, while the other named
        # entries are positive; the series stops once 2N terms have run and
        # the positive entries meet their bound
        rate = build_generator(AdjacencyVector.empty(3), EpidemicParams(1.0, 0.5, 0.0))
        for dt in (0.01, 0.5, 3.0):
            cols = np.array([0, 7])
            entries = (np.array([1, 0, 0, 6, 7]), np.array([0, 0, 1, 1, 1]))
            kernel_calls.clear()
            p = named_entries(rate, dt, cols, entries)
            want, jumps = reference_series(rate, dt, cols, entries)
            assert p[0] == 0.0 and np.all(p[1:] > 0.0)
            assert p.tobytes() == want.tobytes()
            assert len(kernel_calls) + 1 == jumps >= 2 * 3

    def test_positive_entries_stop_at_the_masked_rule(self, kernel_calls):
        # with every named entry positive, the minimum over all of them is
        # the masked rule's minimum, so the series applies as many terms;
        # one case runs three substeps (lam dt > 200), and in another the
        # tail falls below RTOL while the entry 7 flips away is still zero
        rng = np.random.default_rng(43)
        for trial in range(16):
            n = int(rng.integers(2, 8))
            rate = build_generator(random_network(rng, n),
                                   EpidemicParams(*rng.uniform(0.05, 2.0, size=3)))
            dt = float(rng.uniform(0.01, 2.0)) if trial else 450.0 / rate.lam
            cols = np.sort(rng.choice(rate.dim, size=min(5, rate.dim), replace=False))
            rows, pos = np.indices((rate.dim, cols.size)).reshape(2, -1)
            pick = rng.random(rows.size) < 0.5
            entries = (rows[pick], pos[pick])
            if trial == 1:  # staying at 0, and all 7 nodes infected
                rate = build_generator(AdjacencyVector.empty(7), EpidemicParams(1.0, 0.5, 0.01))
                dt, cols, entries = 0.01, np.array([0]), (np.array([0, 127]), np.array([0, 0]))
            kernel_calls.clear()
            p = named_entries(rate, dt, cols, entries)
            want, jumps = reference_series(rate, dt, cols, entries)
            assert np.all(p > 0.0)
            assert p.tobytes() == want.tobytes()
            assert len(kernel_calls) + 1 == jumps


    def test_skipped_readings_stop_at_the_masked_rule(self, kernel_calls):
        # the last substep reads the smallest named entry only where the
        # stop test could pass; on random blocks, with structural zeros
        # (eps = 0 and no edges), entries that flip away late and lam dt
        # > 200, it stops at the term of the rule that reads on every term
        rng = np.random.default_rng(47)
        for trial in range(40):
            n = int(rng.integers(2, 8))
            beta, gamma, eps = rng.uniform(0.05, 2.0, size=3)
            g = random_network(rng, n)
            if trial % 3 == 0:  # states not reached: named entries stay zero
                eps = 0.0
                if trial % 2 == 0:
                    g = AdjacencyVector.empty(n)
            rate = build_generator(g, EpidemicParams(beta, gamma, eps))
            dt = float(rng.uniform(0.005, 3.0))
            if trial % 5 == 4:
                dt = float(rng.uniform(210.0, 700.0)) / rate.lam
            cols = np.sort(rng.choice(rate.dim, size=min(int(rng.integers(1, 9)), rate.dim),
                                      replace=False))
            if trial % 3 == 0:
                cols[0] = 0  # all susceptible: never leaves when eps = 0
            m = int(rng.integers(1, 4 * cols.size + 1))
            entries = (rng.integers(0, rate.dim, size=m), rng.integers(0, cols.size, size=m))
            kernel_calls.clear()
            p = named_entries(rate, dt, cols, entries)
            want, jumps = reference_series(rate, dt, cols, entries)
            assert p.tobytes() == want.tobytes()
            assert len(kernel_calls) + 1 == jumps


# A block large enough to be split (512 states x 64 columns), as code that a
# child interpreter can run too.
BIG_CASE = """
import numpy as np
from epicross import epidemic
from epicross.epidemic import EpidemicParams, SolvePlan, build_generator, chain_network
rate = build_generator(chain_network(9), EpidemicParams(1.0, 0.5, 0.01))
dt = 0.3
plan = SolvePlan(rate.dim, np.arange(0, 512, 8), (np.arange(64) * 7 % 512, np.arange(64)))
run = (rate.jump, *epidemic._prepare(rate, dt))  # _block's and _halves's first arguments
"""


def big_case():
    ns = {}
    exec(BIG_CASE, ns)
    return ns["rate"], ns["dt"], ns["plan"], ns["run"]


def run_child(script, timeout=120):
    """Run `script` in a fresh interpreter that imports this epicross."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(epidemic.__file__)))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=timeout)


def split_cases():
    """26 random blocks of N = 7..9 nodes: eps = 0 and beta = 0 rates,
    blocks with a few named entries and with every entry named, all named
    entries in one half, and one interval of lam dt > 200."""
    rng = np.random.default_rng(31)
    for trial in range(26):
        n = 7 + trial % 3
        beta, gamma, eps = rng.uniform(0.05, 2.0, size=3)
        if trial % 4 == 1:
            eps = 0.0
        if trial % 4 == 2:
            beta = 0.0
        rate = build_generator(random_network(rng, n), EpidemicParams(beta, gamma, eps))
        dt = float(rng.uniform(0.01, 2.0))
        if trial == 7:
            dt = 450.0 / rate.lam  # three substeps of mean 150
        n_cols = int(rng.integers(6, 48))
        cols = np.sort(rng.choice(rate.dim, size=n_cols, replace=False))
        rows = rng.integers(0, rate.dim, size=3 * n_cols)
        pos = rng.integers(0, n_cols, size=3 * n_cols)
        if trial == 5:
            pos = pos % (n_cols // 2)  # the second block names no entry
        if trial == 9:
            pos = n_cols // 2 + pos % (n_cols - n_cols // 2)  # nor the first
        if trial % 5 == 3:
            rows, pos = np.indices((rate.dim, n_cols)).reshape(2, -1)
        yield rate, dt, cols, (rows, pos)


def split_plan(rate, cols, entries):
    """The SolvePlan of `cols` run as two halves, whatever its size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epidemic, "SPLIT_MIN_WORK", 0)
        return epidemic.SolvePlan(rate.dim, cols, entries)


def series_args(rate, dt):
    """The first arguments of _block and _halves: P's values and the
    Poisson schedule."""
    return (rate.jump, *epidemic._prepare(rate, dt))


def whole_block(run, plan):
    """The plan's columns run as one block."""
    n = plan.dim.bit_length() - 1
    return epidemic._block(*run, epidemic._plan_block(n, plan.cols, plan.rows, plan.pos))


def halves_reference(rate, dt, cols, entries):
    """reference_columns run on each half of `cols` on its own."""
    half = len(cols) // 2
    rows, pos = entries
    first = pos < half
    p = np.empty(rows.shape)
    p[first] = reference_columns(rate, dt, cols[:half], (rows[first], pos[first]))
    p[~first] = reference_columns(rate, dt, cols[half:], (rows[~first], pos[~first] - half))
    return p


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the helper run where the process may use only one CPU too."""
    monkeypatch.setattr(epidemic, "_cpus", lambda: 2)


class TestSplit:
    def test_split_bit_identical_to_serial(self, two_cpus):
        # the helper's halves against the caller's, and each half against
        # the reference series run on that half alone
        for rate, dt, cols, entries in split_cases():
            run = series_args(rate, dt)
            plan = split_plan(rate, cols, entries)
            split = epidemic._halves(*run, plan)
            assert epidemic._helper is not None
            with epidemic._helper_lock:  # the caller runs both halves
                serial = epidemic._halves(*run, plan)
            assert split.tobytes() == serial.tobytes()
            large = rate.dim * cols.size >= epidemic.SPLIT_MIN_WORK
            want = split if large else whole_block(run, plan)
            assert named_entries(rate, dt, cols, entries).tobytes() == want.tobytes()
            want = halves_reference(rate, dt, cols, entries)
            assert split.tobytes() == want.tobytes()

    def test_split_within_bound_of_whole_block(self):
        # both are the series stopped with at most RTOL relative mass left
        # out of each named entry, so they differ by at most that, plus
        # rounding
        for rate, dt, cols, entries in split_cases():
            run = series_args(rate, dt)
            plan = split_plan(rate, cols, entries)
            with epidemic._helper_lock:
                split = epidemic._halves(*run, plan)
            whole = whole_block(run, plan)
            assert np.all((split == 0.0) == (whole == 0.0))
            np.testing.assert_allclose(split, whole, rtol=2 * epidemic.RTOL + 1e-14, atol=0.0)

    def test_helper_builds_its_own_pattern(self, two_cpus):
        # the helper is sent P's values, not the sparsity pattern: forked
        # with only the 9-node pattern cached, it builds the 8-node one
        # when it is first sent an 8-node half, and gives the caller's bytes
        epidemic._stop_helper()
        epidemic._generator_pattern.cache_clear()
        rate, dt, plan, run = big_case()
        epidemic._halves(*run, plan)  # forks the helper
        helper = epidemic._helper[0]
        rate = build_generator(chain_network(8), EpidemicParams(1.0, 0.5, 0.01))
        run = series_args(rate, dt)
        plan = split_plan(rate, np.arange(0, 256, 4), (np.arange(64) * 5 % 256, np.arange(64)))
        split = epidemic._halves(*run, plan)
        assert epidemic._helper[0] == helper  # it ran the second half
        with epidemic._helper_lock:  # the caller runs both halves
            assert split.tobytes() == epidemic._halves(*run, plan).tobytes()

    def test_busy_or_dead_helper_runs_serially(self, two_cpus):
        rate, dt, plan, run = big_case()
        want = epidemic._halves(*run, plan).tobytes()
        helper = epidemic._helper[0]
        with epidemic._helper_lock:  # another thread's split in flight
            assert transition_columns(rate, dt, plan).tobytes() == want
        os.kill(helper, signal.SIGKILL)
        assert epidemic._halves(*run, plan).tobytes() == want
        assert epidemic._helper is None  # reaped
        assert epidemic._halves(*run, plan).tobytes() == want
        assert epidemic._helper[0] != helper  # a new helper

    def test_helper_error_reaches_caller(self, monkeypatch, two_cpus):
        rate, dt, plan, run = big_case()
        epidemic._stop_helper()
        max_terms = epidemic.MAX_TERMS
        monkeypatch.setattr(epidemic, "MAX_TERMS", 3)
        try:
            assert epidemic._running_helper() is not None  # forked with 3 terms
            monkeypatch.setattr(epidemic, "MAX_TERMS", max_terms)
            with pytest.raises(ArithmeticError, match="within 3 terms"):
                epidemic._halves(*run, plan)
        finally:
            epidemic._stop_helper()

    def test_child_exits_and_leaves_no_helper(self):
        # a split in a child interpreter and in a process it forks, which
        # uses a helper of its own and whose exit leaves the parent's alone;
        # the child then exits on its own
        script = BIG_CASE + """
import os, sys
epidemic._cpus = lambda: 2
with epidemic._helper_lock:
    want = epidemic._halves(*run, plan).tobytes()
assert epidemic._halves(*run, plan).tobytes() == want
helper = epidemic._helper[0]
pid = os.fork()
if pid == 0:
    ok = epidemic._helper is None
    ok = ok and epidemic._halves(*run, plan).tobytes() == want
    ok = ok and epidemic._helper[0] != helper
    sys.exit(0 if ok else 1)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
assert epidemic._halves(*run, plan).tobytes() == want
assert epidemic._helper[0] == helper
print(helper)
"""
        proc = run_child(script)
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(ProcessLookupError):
            os.kill(int(proc.stdout.split()[-1]), 0)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_cpu_runs_serially(self, two_cpus):
        script = """
import hashlib, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
""" + BIG_CASE + """
out = epidemic.transition_columns(rate, dt, plan)
print(epidemic._helper is None, hashlib.sha256(out.tobytes()).hexdigest())
"""
        proc = run_child(script)
        assert proc.returncode == 0, proc.stderr
        rate, dt, plan, _ = big_case()
        split = transition_columns(rate, dt, plan)
        assert epidemic._helper is not None
        assert proc.stdout.split() == ["True", hashlib.sha256(split.tobytes()).hexdigest()]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="no CPU affinity or a single CPU")
    def test_one_cpu_run_matches_two(self):
        # a capped flagship-protocol run (9-node chain, 2000 steps of dt
        # 0.1, tau 1, rank cap 5, 60 solves, 4 sweeps) on one CPU and on
        # this process's CPUs, with the helper
        script = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
""" + FLAGSHIP_RUN + """
from epicross import epidemic
print(epidemic._helper is None)
print(summary(result))
"""
        proc = run_child(script, timeout=300)
        assert proc.returncode == 0, proc.stderr
        epidemic._stop_helper()
        ns = {}
        exec(FLAGSHIP_RUN, ns)
        assert epidemic._helper is not None
        assert proc.stdout.splitlines() == ["True", ns["summary"](ns["result"])]


# A capped run of the flagship protocol, as code that a child interpreter can
# run too: the benchmark's first chain9_flagship input of seed 1, whose
# sweep-1 max_error moves in its last bits when a solve is not split in
# halves.  summary() renders what must not depend on where the halves run.
FLAGSHIP_RUN = """
import json
from epicross.cross import CrossConfig
from epicross.driver import run_inference
from epicross.epidemic import EpidemicParams, NetworkState, chain_network, ssa_simulate
params = EpidemicParams(1.0, 0.5, 0.01)
data = ssa_simulate(chain_network(9), params, 0.1, 200.0,
                    NetworkState((1,) + (0,) * 8), seed=100)
result = run_inference(data, params, 1.0,
                       CrossConfig(r_max=5, n_max=60, seed=1_000_100, max_sweeps=4))

def summary(r):
    history = [{k: v for k, v in rec.items() if k != "cpu_seconds"} for rec in r.history]
    return json.dumps([r.n_eval, r.cache_hits, r.g_max.bitstring, r.loglik.hex(),
                       r.termination, history])
"""


# How a child interpreter imports epicross: after scipy.sparse, before it,
# and with the kernel module's file not found, so the ordinary import runs.
IMPORT_ORDERS = {
    "sparse_first": """
import sys
import scipy.sparse
kernel = sys.modules["scipy.sparse._sparsetools"]
from epicross import epidemic
assert epidemic._sparsetools is kernel
""",
    "epicross_first": """
import sys
from epicross import epidemic
assert "scipy.sparse" not in sys.modules
""",
    "no_spec": """
import importlib.machinery, os, sys
find_spec = importlib.machinery.PathFinder.find_spec
missed = []

def first_misses(name, path=None, target=None):
    if name == "scipy.sparse._sparsetools" and not missed:
        missed.append(path)
        return None
    return find_spec(name, path, target)

importlib.machinery.PathFinder.find_spec = staticmethod(first_misses)
import scipy
from epicross import epidemic
assert missed == [[os.path.join(scipy.__path__[0], "sparse")]]
assert "scipy.sparse" in sys.modules
""",
}


@pytest.mark.parametrize("order", sorted(IMPORT_ORDERS))
def test_kernel_module_shared_with_scipy_sparse(order):
    # one module object serves epicross and scipy.sparse, whichever is
    # imported first, and scipy.sparse works alongside it
    script = IMPORT_ORDERS[order] + """
import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import spsolve
from scipy.linalg import expm
from epicross.epidemic import (EpidemicParams, SolvePlan, _generator_pattern,
                               build_generator, chain_network, transition_columns)
assert epidemic._sparsetools is _sparsetools is sys.modules["scipy.sparse._sparsetools"]
a = scipy.sparse.csc_array(np.array([[2.0, 1.0], [0.0, 4.0]]))
assert (a @ np.ones(2)).tolist() == [3.0, 4.0]
assert np.allclose(spsolve(a, np.array([3.0, 4.0])), [1.0, 1.0])
rate = build_generator(chain_network(3), EpidemicParams(1.0, 0.5, 0.1))
_, indices, indptr, _, _ = _generator_pattern(3)
q = scipy.sparse.csc_array((rate.data, indices, indptr), shape=(8, 8))
probs = expm(q.toarray() * 0.4)
rows, pos = np.indices((8, 2)).reshape(2, -1)
got = transition_columns(rate, 0.4, SolvePlan(8, [0, 5], (rows, pos))).reshape(8, 2)
assert np.allclose(got, probs[:, [0, 5]], rtol=0.0, atol=1e-12)
print("ok")
"""
    proc = run_child(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.full((2, 2), 2))
        with pytest.raises(ValueError):
            Trajectory(np.array([]), np.zeros((0, 2)))

    def test_arrays_read_only(self):
        times = np.array([0.0, 1.0])
        states = np.array([[1, 0], [0, 1]])
        t = Trajectory(times, states)
        with pytest.raises(ValueError):
            t.times[0] = -1.0
        with pytest.raises(ValueError):
            t.states[0, 0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.times = np.array([0.0, 2.0])
        # the trajectory holds copies, so the caller's arrays stay writable
        # and writing to them leaves the trajectory alone
        times[1] = 5.0
        states[0, 0] = 0
        assert t.times[1] == 1.0 and t.states[0, 0] == 1

    def test_step_groups(self):
        # 3 steps of 0.1 (two of them 0 -> 1) and one of 0.2
        t = Trajectory(np.array([0.0, 0.1, 0.2, 0.3, 0.5]),
                       np.array([[0], [1], [0], [1], [1]]))
        (dt1, plan1, c1), (dt2, plan2, c2) = t.step_groups
        assert (dt1, dt2) == (0.1, 0.2)
        assert plan1.cols.tolist() == [0, 1] and plan1.rows.tolist() == [1, 0]
        assert plan1.pos.tolist() == [0, 1] and c1.tolist() == [2, 1]
        assert plan2.cols.tolist() == [1] and plan2.rows.tolist() == [1]
        assert plan2.pos.tolist() == [0] and c2.tolist() == [1]
        assert t.step_groups is t.step_groups

    def test_equality_is_identity(self):
        a = Trajectory(np.array([0.0, 1.0]), np.array([[1, 0], [0, 1]]))
        b = Trajectory(a.times, a.states)
        assert a == a and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)

    def test_state_indices(self):
        t = Trajectory(np.array([0.0, 1.0]), np.array([[1, 0, 1], [0, 1, 1]]))
        assert t.state_indices().tolist() == [5, 6]
        assert t.n_steps == 1
        assert t.n_nodes == 3


class TestSSA:
    def test_grid_and_shapes(self):
        g = chain_network(4)
        p = EpidemicParams(beta=1.0, gamma=0.5, eps=0.01)
        x0 = NetworkState((1, 0, 0, 0))
        traj = ssa_simulate(g, p, 0.1, 50.0, x0, seed=0)
        assert traj.n_steps == 500
        np.testing.assert_allclose(traj.times, np.arange(501) * 0.1)
        assert traj.states.shape == (501, 4)
        assert tuple(traj.states[0]) == x0.bits

    def test_deterministic_in_seed(self):
        g = chain_network(3)
        p = EpidemicParams(beta=1.0, gamma=0.5, eps=0.05)
        x0 = NetworkState((1, 0, 0))
        a = ssa_simulate(g, p, 0.1, 20.0, x0, seed=42)
        b = ssa_simulate(g, p, 0.1, 20.0, x0, seed=42)
        c = ssa_simulate(g, p, 0.1, 20.0, x0, seed=43)
        np.testing.assert_array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)

    def test_pure_decay_monotone(self):
        # no infection channel: infected set can only shrink
        g = chain_network(4)
        p = EpidemicParams(beta=0.0, gamma=1.0, eps=0.0)
        traj = ssa_simulate(g, p, 0.05, 10.0, NetworkState((1, 1, 1, 1)), seed=1)
        totals = traj.states.sum(axis=1)
        assert (np.diff(totals) <= 0).all()
        assert totals[-1] == 0

    def test_pure_growth_monotone(self):
        g = chain_network(4)
        p = EpidemicParams(beta=0.5, gamma=0.0, eps=0.2)
        traj = ssa_simulate(g, p, 0.05, 30.0, NetworkState((1, 0, 0, 0)), seed=2)
        totals = traj.states.sum(axis=1)
        assert (np.diff(totals) >= 0).all()
        assert totals[-1] == 4

    def test_validation(self):
        g = chain_network(3)
        p = EpidemicParams(beta=1.0, gamma=0.5, eps=0.01)
        with pytest.raises(ValueError):
            ssa_simulate(g, p, 0.0, 1.0, NetworkState((1, 0, 0)), seed=0)
        with pytest.raises(ValueError):
            ssa_simulate(g, p, 1.0, 0.5, NetworkState((1, 0, 0)), seed=0)
        with pytest.raises(ValueError):
            ssa_simulate(g, p, 0.1, 1.0, NetworkState((1, 0)), seed=0)


class TestFileFormats:
    def test_network_roundtrip(self, tmp_path):
        g = chain_network(5)
        path = tmp_path / "net.txt"
        write_network(g, path)
        assert read_network(path) == g
        text = path.read_text()
        assert text.splitlines()[0] == "N 5"
        assert "1 2" in text

    def test_network_bits_form_and_comments(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# comment line\nbits 101001  # chain\n")
        assert read_network(path) == chain_network(4)

    def test_network_errors(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            read_network(path)
        path.write_text("N 3\n3 1\n")
        with pytest.raises(ValueError):
            read_network(path)
        path.write_text("N 3\n1 4\n")
        with pytest.raises(ValueError):
            read_network(path)

    def test_trajectory_roundtrip_exact(self, tmp_path):
        g = chain_network(3)
        p = EpidemicParams(beta=1.0, gamma=0.5, eps=0.05)
        traj = ssa_simulate(g, p, 0.1, 5.0, NetworkState((1, 0, 0)), seed=3)
        path = tmp_path / "data.csv"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        np.testing.assert_array_equal(back.times, traj.times)
        np.testing.assert_array_equal(back.states, traj.states)
        assert path.read_text().splitlines()[0] == "t,x1,x2,x3"

    def test_trajectory_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("time,x1\n0,1\n")
        with pytest.raises(ValueError):
            read_trajectory(path)
