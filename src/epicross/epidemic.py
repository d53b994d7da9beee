"""Networks, epsilon-SIS dynamics and transition probabilities.

A contact network on N nodes is handled as a binary vector of length
d = N(N-1)/2 listing the upper triangle of the adjacency matrix column by
column: (g_12, g_13, g_23, g_14, g_24, g_34, ...).  Epidemic states live on
{0,1}^N and are enumerated by the linear index sum_n x_n 2^(n-1), so node 1
sits in the least significant bit.

Transition probabilities come from one routine, transition_columns: the
entries of exp(Q dt) the caller names, from uniformized columns, each with
a checked relative error bound.  A solve builds no scipy matrix: the
generator is a value vector on a sparsity pattern shared by every network
of N nodes, and each series term is scipy's CSC kernel run into reused
buffers.  A large block of columns is split between the caller and one
helper process, with the same bytes as the serial series.

Importing this module loads numpy, the top-level scipy package and one
compiled module of scipy.sparse, its CSC kernels (_load_sparsetools), but
not the scipy.sparse package.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import importlib.machinery
import importlib.util
import math
import os
import signal
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy


def _load_sparsetools():
    """scipy.sparse._sparsetools, the compiled CSC kernels, loaded from its
    file without importing the scipy.sparse package, which costs a quarter
    of a second and some 20 MB (its array-API shim loads numpy.testing,
    numpy.f2py, numpy.random and numpy.ma).  scipy itself is imported, as
    its __init__ sets up the bundled shared libraries on some platforms.
    Registered in sys.modules, the one module object serves scipy.sparse
    too, imported before or after; it is reachable by import but is no
    attribute of the scipy.sparse package.  Without the file, the ordinary
    import runs, the library's only import of the scipy.sparse package.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "sparse")])
    if spec is None:
        from scipy.sparse import _sparsetools
        return _sparsetools
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools()


def pair_order(n_nodes: int) -> list[tuple[int, int]]:
    """Return the (m, n) node pairs, 0-based, in adjacency-vector order."""
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    return [(m, n) for n in range(1, n_nodes) for m in range(n)]


def nodes_from_pair_count(d: int) -> int:
    """Invert d = N(N-1)/2, raising if d is not of that form."""
    n = (1 + math.isqrt(1 + 8 * d)) // 2
    if n * (n - 1) // 2 != d:
        raise ValueError(f"{d} is not N(N-1)/2 for any integer N")
    return n


@dataclass(frozen=True)
class AdjacencyVector:
    """Upper-triangle bit vector of a simple undirected graph.

    Parameters
    ----------
    bits : tuple of int
        Edge indicators in column-wise upper-triangle order, length
        N(N-1)/2.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("adjacency bits must be 0 or 1")
        nodes_from_pair_count(len(bits))  # raises on impossible length
        object.__setattr__(self, "bits", bits)

    @property
    def n_nodes(self) -> int:
        return nodes_from_pair_count(len(self.bits))

    @property
    def n_pairs(self) -> int:
        return len(self.bits)

    @property
    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_bitstring(cls, s: str) -> "AdjacencyVector":
        s = s.strip()
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"not a 01-string: {s!r}")
        return cls(tuple(int(c) for c in s))

    @classmethod
    def empty(cls, n_nodes: int) -> "AdjacencyVector":
        return cls((0,) * (n_nodes * (n_nodes - 1) // 2))

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "AdjacencyVector":
        """Build from an iterable of 0-based (m, n) pairs, any order."""
        pos = {p: i for i, p in enumerate(pair_order(n_nodes))}
        bits = [0] * len(pos)
        for m, n in edges:
            m, n = int(m), int(n)
            if m > n:
                m, n = n, m
            if m == n or not (0 <= m < n < n_nodes):
                raise ValueError(f"invalid edge ({m}, {n}) for {n_nodes} nodes")
            bits[pos[(m, n)]] = 1
        return cls(tuple(bits))

    def edges(self) -> list[tuple[int, int]]:
        return [p for p, b in zip(pair_order(self.n_nodes), self.bits) if b]

    def flip(self, k: int) -> "AdjacencyVector":
        bits = list(self.bits)
        bits[k] ^= 1
        return AdjacencyVector(tuple(bits))


def chain_network(n_nodes: int) -> AdjacencyVector:
    """Linear chain 1-2-3-...-N."""
    return AdjacencyVector.from_edges(n_nodes, [(i, i + 1) for i in range(n_nodes - 1)])


def pack_adjacency(matrix) -> AdjacencyVector:
    """Convert a symmetric binary adjacency matrix to an AdjacencyVector."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency matrix must be symmetric")
    if np.any(np.diag(a) != 0):
        raise ValueError("adjacency matrix must have zero diagonal")
    if not np.isin(a, (0, 1)).all():
        raise ValueError("adjacency matrix must be binary")
    n = a.shape[0]
    return AdjacencyVector(tuple(int(a[m, n_]) for m, n_ in pair_order(n)))


@functools.cache
def _pair_endpoints(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (m, n) endpoint arrays of the pairs in pair_order."""
    ends = np.array(pair_order(n_nodes), dtype=np.intp).reshape(-1, 2).T.copy()
    ends.flags.writeable = False
    return ends[0], ends[1]


def unpack_adjacency(g: AdjacencyVector) -> np.ndarray:
    """Expand an AdjacencyVector into a full symmetric 0/1 matrix."""
    n = g.n_nodes
    m, n_ = _pair_endpoints(n)
    a = np.zeros((n, n), dtype=np.int64)
    a[m, n_] = a[n_, m] = g.bits
    return a


def network_error(g: AdjacencyVector, g_star: AdjacencyVector) -> int:
    """Hamming distance between two adjacency vectors of equal length."""
    if len(g.bits) != len(g_star.bits):
        raise ValueError("adjacency vectors have different lengths")
    return sum(a != b for a, b in zip(g.bits, g_star.bits))


@dataclass(frozen=True)
class EpidemicParams:
    """Rates of the epsilon-SIS model: infection beta per infected neighbour,
    recovery gamma, and spontaneous (self) infection epsilon."""

    beta: float
    gamma: float
    eps: float

    def __post_init__(self):
        for name in ("beta", "gamma", "eps"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class NetworkState:
    """Infection pattern x in {0,1}^N; node n occupies bit n-1 of the index."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if not bits or any(b not in (0, 1) for b in bits):
            raise ValueError("state bits must be a nonempty 0/1 tuple")
        object.__setattr__(self, "bits", bits)

    @property
    def n_nodes(self) -> int:
        return len(self.bits)

    @property
    def linear_index(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))

    @classmethod
    def from_index(cls, idx: int, n_nodes: int) -> "NetworkState":
        if not 0 <= idx < (1 << n_nodes):
            raise ValueError(f"index {idx} out of range for {n_nodes} nodes")
        return cls(tuple((idx >> i) & 1 for i in range(n_nodes)))


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Infinitesimal generator of the epidemic CTMC, column convention:
    q[y, x] is the rate of jumping from state x to state y.

    `data` holds the CSC values on the sparsity pattern that every
    generator of `dim` states shares (_generator_pattern), `diag` the
    positions of the diagonal entries q[x, x] in it.  Generators compare by
    identity.
    """

    dim: int
    data: np.ndarray
    diag: np.ndarray

    def exit_rates(self) -> np.ndarray:
        return -self.data[self.diag]


@functools.cache
def _generator_pattern(n_nodes: int):
    """The part of the N-node generator that no network changes.

    Column x of Q holds x and its N single-flip neighbours.  Returns the
    (2^N, N) state bits, the CSC `indices` and `indptr` of that pattern
    (rows sorted within each column), the data positions of the diagonal
    entries, and the gather that orders a (2^N, N+1) array of
    [flip rates | diagonal] into the data vector.  All arrays are
    read-only, as every generator of N nodes shares them.
    """
    n = n_nodes
    dim = 1 << n
    states = np.arange(dim, dtype=np.int64)
    bits = (states[:, None] >> np.arange(n)) & 1                  # (dim, n)
    rows = np.concatenate([states[:, None] ^ (np.int64(1) << np.arange(n)),
                           states[:, None]], axis=1)              # (dim, n+1)
    order = np.argsort(rows, axis=1)
    indices = np.take_along_axis(rows, order, axis=1).ravel().astype(np.int32)
    indptr = np.arange(0, dim * (n + 1) + 1, n + 1, dtype=np.int32)
    gather = (order + states[:, None] * (n + 1)).ravel()
    diag = np.flatnonzero(order.ravel() == n)
    for a in (bits, indices, indptr, gather, diag):
        a.flags.writeable = False
    return bits, indices, indptr, diag, gather


def build_generator(g: AdjacencyVector, params: EpidemicParams) -> RateMatrix:
    """Assemble the 2^N x 2^N generator of the epsilon-SIS chain on network g.

    A susceptible node n flips up at rate I_n(x) beta + eps where I_n counts
    its infected neighbours; an infected node flips down at rate gamma.
    Columns sum to zero.  The sparsity pattern (every single-flip entry and
    the diagonal, zero rates stored explicitly) is built once per N and
    shared; per network only the value vector is filled, and no scipy
    matrix is built.
    """
    n = g.n_nodes
    dim = 1 << n
    bits, _, _, diag, gather = _generator_pattern(n)
    n_inf = bits @ unpack_adjacency(g)
    flip_rate = np.where(bits == 0, n_inf * params.beta + params.eps, params.gamma)
    full = np.empty((dim, n + 1))
    full[:, :n] = flip_rate
    full[:, n] = -flip_rate.sum(axis=1)
    return RateMatrix(dim=dim, data=full.ravel()[gather], diag=diag)


RTOL = 1e-12          # relative accuracy of the entries transition_columns names
MAX_TERMS = 2000      # series terms per substep before giving up on RTOL
INNER_TARGET = RTOL * np.finfo(float).tiny  # neglected mass of inner substeps
# states x columns from which a block is split between two processes: the
# break-even of the exchange, 15 000 to 20 000 on a 2-vCPU machine
SPLIT_MIN_WORK = 20_000


def transition_columns(rate: RateMatrix, dt: float, cols, entries) -> np.ndarray:
    """Named entries of exp(Q dt) by uniformization, with a checked bound.

    `entries`, index arrays (rows, pos), names the entries the caller
    needs: returns p with p[i] = exp(Q dt)[rows[i], cols[pos[i]]].  The
    jump chain P = I + Q/lam, lam the largest exit rate, is applied to the
    indicator vectors of `cols` and summed with Poisson(lam dt) weights.
    All terms are nonnegative, so the neglected Poisson mass, bounded from
    the next weight by w_{j+1} / (1 - mu/(j+2)), bounds the error of every
    entry; the series stops once it is at most RTOL times the smallest
    named entry.  A named entry still exactly zero after 2N terms (N nodes)
    is structural, as every state is at most 2N flips away, and stays zero.
    Large lam dt is split into substeps of mean <= 200; all but the last
    run to RTOL times the smallest normal double.  Missing the bound within
    MAX_TERMS terms of a substep raises ArithmeticError.

    When the process may run on two or more CPUs and the block holds at
    least SPLIT_MIN_WORK entries (states times columns), the second half
    of the columns is propagated by a helper process while the caller
    propagates the first; the result is byte for byte the serial one.
    """
    cols, series = _prepare(rate, dt, cols)
    if series is None:  # exp(Q dt) = I
        return (cols[entries[1]] == entries[0]).astype(float)
    if rate.dim * cols.size >= SPLIT_MIN_WORK and _cpus() > 1:
        split = _split_block(series, cols, entries)
        if split is not None:
            return split
    return _block(series, cols, entries)[0]


class _Series(NamedTuple):
    """What every block of columns of one transition_columns call shares:
    the jump chain P = I + Q/lam as plain CSC arrays (values on the shared
    pattern of Q), so a block pickles to the helper as arrays, and the
    Poisson schedule."""

    indptr: np.ndarray   # CSC column pointers of P, the pattern of Q
    indices: np.ndarray  # CSC row indices of P
    data: np.ndarray     # values of P
    mu: float            # Poisson mean of one substep
    n_sub: int           # substeps
    min_terms: int       # terms after which a zero named entry is structural


def _prepare(rate: RateMatrix, dt: float, cols) -> tuple[np.ndarray, _Series | None]:
    """Validated source columns and the series that propagates them, or
    None when exp(Q dt) is the identity (no rate or no time)."""
    dt = float(dt)
    if not math.isfinite(dt) or dt < 0:
        raise ValueError(f"dt must be finite and nonnegative, got {dt}")
    cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
    if cols.size and (cols.min() < 0 or cols.max() >= rate.dim):
        raise ValueError("column indices out of range")
    lam = float(rate.exit_rates().max(initial=0.0))
    if lam == 0.0 or dt == 0.0:
        return cols, None
    n_sub = max(1, math.ceil(lam * dt / 200.0))  # exp(-mu) far from underflow
    # P = I + Q/lam, entrywise >= 0, on the pattern of Q; scaled by the
    # reciprocal as a scipy matrix's q / lam is, so the entries match it
    # bit for bit
    data = rate.data * (1.0 / lam)
    data[rate.diag] += 1.0
    n = rate.dim.bit_length() - 1
    _, indices, indptr, _, _ = _generator_pattern(n)
    return cols, _Series(indptr, indices, data, lam * dt / n_sub, n_sub, 2 * n)


def _block(series: _Series, cols: np.ndarray, entries,
           agree=None) -> tuple[np.ndarray, bool]:
    """The series of transition_columns on one block of source columns.

    Columns never mix (each term is P applied to each column on its own),
    so a block's sums are bit for bit those columns of the whole.  Only the
    last substep's stopping index j depends on the columns: at the first j
    where this block's test holds, `agree(j)` returns the index to stop at
    instead (j itself without `agree`).  Returns the named entries of the
    sums and whether the test holds at the index stopped at.

    Each term is written by scipy's private CSC kernel
    `_sparsetools.csc_matvecs` into one of two reused, zero-filled buffers
    and weighted in one scratch buffer, so no array is allocated per term.
    The kernel is the one `csc_array @` calls (csc_matvec for one column
    does the same arithmetic), so the bytes are those of `jump @ term`;
    test_columns_bit_identical_to_scipy_jump_matrix pins them.
    """
    indptr, indices, data, mu, n_sub, min_terms = series
    dim = indptr.size - 1
    v = np.zeros((dim, cols.size))  # the indicator vectors of cols
    v[cols, np.arange(cols.size)] = 1.0
    # the two alternating terms and the weighted-term scratch, flat
    bufs = (np.empty(v.size), np.empty(v.size))
    scratch = np.empty(v.size)
    lost = 0.0  # neglected mass of the finished substeps
    terms = 0   # jumps applied so far, over all substeps
    for s in range(n_sub):
        last = s == n_sub - 1
        w = math.exp(-mu)
        term = v.reshape(-1)
        acc = w * v
        flat_acc = acc.reshape(-1)
        stop = None  # the agreed stopping index of the last substep
        for j in range(MAX_TERMS + 1):
            # bound on sum_{i > j} w_i; the ratios w_{i+1}/w_i fall below
            # mu/(j+2) < 1 once j + 2 > mu
            w_next = w * mu / (j + 1)
            tail = w_next / (1.0 - mu / (j + 2)) if j + 2 > mu else math.inf
            if stop is None or j == stop:
                if not last:
                    target = INNER_TARGET
                else:
                    target = RTOL - lost
                    if tail <= target:
                        p = acc[entries]
                        if terms + j >= min_terms:
                            p = p[p > 0.0]
                        target = RTOL * p.min(initial=1.0) - lost
                held = 0.0 < target and tail <= target
                if j == stop or (held and not last):
                    break
                if held:
                    stop = j if agree is None else agree(j)
                    if stop == j:
                        break
            if j == MAX_TERMS:
                raise ArithmeticError(
                    f"uniformization missed relative accuracy {RTOL:g} within "
                    f"{MAX_TERMS} terms (Poisson mean {mu:.6g})")
            nxt = bufs[j & 1]
            nxt.fill(0.0)  # the kernel adds P @ term into it
            _sparsetools.csc_matvecs(dim, dim, cols.size, indptr, indices, data, term, nxt)
            term = nxt
            w = w_next
            np.multiply(term, w, out=scratch)
            flat_acc += scratch
        lost += tail
        terms += j
        v = acc
    return v[entries], held


# -- the split ----------------------------------------------------------------
#
# The serial series stops at the first j where 0 < target and tail <= target,
# target = RTOL * (smallest named entry) - lost.  The smallest entry over all
# columns is the smaller of the blocks' smallest, so the serial test is the
# AND of the block tests, and each block test, once true, stays true (the
# tail falls, the sums only grow, the zero filter only raises the minimum).
# So the serial index is the larger of the blocks' first indices, and both
# blocks run on to it.  Each block checks its test again there, and a failed
# check falls back to the serial series: the bytes never rest on that argument.
#
# The helper is one forked process per process that splits.  It is started on
# the first split, never while other threads run, and stopped (hung up on and
# reaped) when it fails, when it dies and at exit; a forked child of the
# caller drops the parent's and starts its own.

_helper_lock = threading.Lock()  # one split at a time; a busy helper means serial
_helper = None  # (pid, connection) of this process's helper, once started


def _cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _split_block(series: _Series, cols: np.ndarray, entries) -> np.ndarray | None:
    """The named entries, the second half of `cols` propagated by the helper.

    Returns None, and the caller runs the series serially, when the helper
    is busy (another thread's solve), cannot start or has died.  An
    exception raised in the helper is raised here.
    """
    if not _helper_lock.acquire(blocking=False):
        return None
    try:
        helper = _running_helper()
        if helper is None:
            return None
        pid, conn = helper
        _keep_apart(pid)
        half = cols.size // 2
        rows, pos = (np.asarray(a) for a in entries)
        first = pos < half
        mine, theirs = (rows[first], pos[first]), (rows[~first], pos[~first] - half)
        try:
            conn.send((series, cols[half:], theirs))
            p_mine, held = _block(series, cols[:half], mine, lambda j: _agree(conn, j))
            p_theirs, held_theirs = _receive(conn)
        except (EOFError, OSError):  # the helper has died
            _stop_helper()
            return None
        except BaseException:  # the helper may be mid-exchange: start afresh
            _stop_helper()
            raise
    finally:
        _helper_lock.release()
    if not (held and held_theirs):
        return None
    p = np.empty(rows.shape)
    p[first], p[~first] = p_mine, p_theirs
    return p


def _keep_apart(pid: int) -> None:
    """Keep the helper off the CPU this thread runs on.

    A message wakes its reader on the writer's CPU (a synchronous
    wake-up), so left to the scheduler the helper and its caller end up
    taking turns on one CPU.
    """
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        os.sched_setaffinity(pid, os.sched_getaffinity(0) - {cpu})
    except (OSError, ValueError, IndexError):
        pass  # nothing to read or no CPU to spare: the scheduler places it


def _agree(conn, j: int) -> int:
    """Stop both blocks at the later of their first stopping indices."""
    stop = max(j, _receive(conn))
    conn.send(stop)
    return stop


def _receive(conn):
    msg = conn.recv()
    if isinstance(msg, BaseException):
        raise msg
    return msg


def _running_helper():
    """This process's helper, started on first use; None when it cannot
    start: forking while other threads run is unsafe, or the fork failed."""
    global _helper
    if _helper is None and threading.active_count() == 1:
        # imported here, so that importing epicross stays as quick as before
        from multiprocessing.connection import Pipe
        caller_end, helper_end = Pipe()
        try:
            pid = os.fork()
        except OSError:
            caller_end.close()
            helper_end.close()
            return None
        if pid == 0:  # the helper: never returns into the caller's code
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's
                caller_end.close()
                _serve(helper_end)
            finally:
                os._exit(0)
        helper_end.close()
        _helper = (pid, caller_end)
    return _helper


def _serve(conn) -> None:
    """The helper's loop: run each block it is sent until the caller hangs
    up (EOF here, or a broken pipe mid-exchange)."""
    def agree(j):
        conn.send(j)
        return conn.recv()

    while True:
        try:
            series, cols, entries = conn.recv()
        except EOFError:
            return
        try:
            reply = _block(series, cols, entries, agree)  # (named entries, held)
        except Exception as exc:  # raised again in the caller
            reply = exc
        conn.send(reply)


def _stop_helper() -> None:
    """Hang up on the helper, which exits on EOF, and reap it."""
    global _helper
    if _helper is not None:
        pid, conn = _helper
        _helper = None
        conn.close()
        with contextlib.suppress(ChildProcessError):  # reaped elsewhere
            os.waitpid(pid, 0)


def _forget_helper() -> None:
    """In a forked child: the helper and its lock are the parent's."""
    global _helper, _helper_lock
    if _helper is not None:
        _helper[1].close()  # this process's copy only
    _helper, _helper_lock = None, threading.Lock()


atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States observed on a regular time grid.

    Attributes
    ----------
    times : (K+1,) float array, strictly increasing.
    states : (K+1, N) 0/1 array; row k is the state at times[k].

    Both are private read-only copies, so `step_groups`, computed on first
    use, stays valid for the life of the trajectory.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        states = np.asarray(self.states)
        if times.ndim != 1 or states.ndim != 2:
            raise ValueError("times must be 1-d and states 2-d")
        if times.shape[0] != states.shape[0]:
            raise ValueError("times and states have mismatched lengths")
        if times.size == 0:
            raise ValueError("trajectory must contain at least one observation")
        if np.any(np.diff(times) <= 0):
            raise ValueError("observation times must be strictly increasing")
        if not np.isin(states, (0, 1)).all():
            raise ValueError("states must be binary")
        states = states.astype(np.int8)
        for name, value in (("times", times), ("states", states)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    def state_indices(self) -> np.ndarray:
        weights = np.int64(1) << np.arange(self.n_nodes, dtype=np.int64)
        return self.states.astype(np.int64) @ weights

    @functools.cached_property
    def step_groups(self) -> tuple:
        """The observed steps, grouped by length and counted per state pair.

        One (dt, sources, entries, counts) tuple per distinct step length
        dt, in increasing order: `sources` are the distinct states the
        group's steps leave from, `entries` = (next states, positions into
        `sources`) names each distinct (prev, next) pair, and `counts`
        says how often it was observed.  Grid times built as k*dt differ
        by ulps, so lengths equal to 12 significant digits share a group
        and dt is the exact decimal value of those digits.
        """
        dim = 1 << self.n_nodes
        idx = self.state_indices()
        dts = np.diff(self.times)
        # each distinct rounded length (not each step) is rendered once
        scale = 10.0 ** (np.floor(np.log10(dts)) - 11)
        uniq, group = np.unique(np.round(dts / scale) * scale, return_inverse=True)
        lengths, merge = np.unique([float(f"{v:.12g}") for v in uniq], return_inverse=True)
        pair = (merge[group] * dim + idx[:-1]) * dim + idx[1:]
        pair, counts = np.unique(pair, return_counts=True)
        key, nxt = np.divmod(pair, dim)
        key, prev = np.divmod(key, dim)
        groups = []
        for k, dt in enumerate(lengths):
            sel = key == k
            sources, pos = np.unique(prev[sel], return_inverse=True)
            entries, n_obs = (nxt[sel], pos), counts[sel]
            for a in (sources, *entries, n_obs):
                a.flags.writeable = False  # shared by every solve
            groups.append((float(dt), sources, entries, n_obs))
        return tuple(groups)


def ssa_simulate(g: AdjacencyVector, params: EpidemicParams, dt: float,
                 t_max: float, x0: NetworkState, seed) -> Trajectory:
    """Gillespie simulation of the epsilon-SIS chain, sampled on a grid.

    Runs the exact stochastic simulation algorithm from state x0 and
    records the state at times 0, dt, 2dt, ..., K dt with K = floor(t_max/dt).
    Grid points coinciding with an event time get the post-event state.
    """
    if x0.n_nodes != g.n_nodes:
        raise ValueError("initial state size does not match network")
    dt = float(dt)
    t_max = float(t_max)
    if dt <= 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive, got {dt}")
    if t_max < dt:
        raise ValueError("t_max must cover at least one step")
    n = g.n_nodes
    k_steps = int(math.floor(t_max / dt + 1e-9))
    grid = np.arange(k_steps + 1) * dt
    adj = unpack_adjacency(g)
    rng = np.random.default_rng(seed)

    x = np.array(x0.bits, dtype=np.int64)
    out = np.empty((k_steps + 1, n), dtype=np.int8)
    out[0] = x
    t = 0.0
    k = 1
    while k <= k_steps:
        rates = np.where(x == 1, params.gamma,
                         (adj @ x) * params.beta + params.eps).astype(float)
        total = rates.sum()
        if total <= 0.0:
            out[k:] = x
            break
        t_event = t + rng.exponential(1.0 / total)
        while k <= k_steps and grid[k] < t_event:
            out[k] = x
            k += 1
        if k > k_steps:
            break
        u = rng.random() * total
        node = min(int(np.searchsorted(np.cumsum(rates), u, side="right")), n - 1)
        x[node] ^= 1
        t = t_event
    return Trajectory(times=grid, states=out)


# ---------------------------------------------------------------------------
# file formats

def write_network(g: AdjacencyVector, path) -> None:
    """Edge-list text format: a header line `N <n>` then one `m n` line per
    edge with 1-based endpoints, m < n."""
    with open(path, "w") as fh:
        fh.write(f"N {g.n_nodes}\n")
        for m, n in g.edges():
            fh.write(f"{m + 1} {n + 1}\n")


def read_network(path) -> AdjacencyVector:
    """Read the edge-list format of write_network.

    Lines starting with `#` are ignored.  As an alternative to the edge
    list, a single line `bits <01string>` gives the adjacency vector
    directly.
    """
    lines = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
    if not lines:
        raise ValueError(f"empty network file: {path}")
    head = lines[0].split()
    if head[0] == "bits":
        if len(head) != 2 or len(lines) > 1:
            raise ValueError("bits form must be a single `bits <01string>` line")
        return AdjacencyVector.from_bitstring(head[1])
    if head[0] != "N" or len(head) != 2:
        raise ValueError(f"expected `N <int>` or `bits <01string>`, got {lines[0]!r}")
    n_nodes = int(head[1])
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {line!r}")
        m, n = int(parts[0]), int(parts[1])
        if not (1 <= m < n <= n_nodes):
            raise ValueError(f"edge ({m}, {n}) out of range, need 1 <= m < n <= {n_nodes}")
        edges.append((m - 1, n - 1))
    return AdjacencyVector.from_edges(n_nodes, edges)


def write_trajectory(traj: Trajectory, path) -> None:
    """CSV with header t,x1,...,xN; times carry full double precision."""
    n = traj.n_nodes
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
        for t, row in zip(traj.times, traj.states):
            fh.write(f"{t:.17g}," + ",".join(str(int(b)) for b in row) + "\n")


def read_trajectory(path) -> Trajectory:
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if not cols or cols[0] != "t" or any(c != f"x{i + 1}" for i, c in enumerate(cols[1:])):
            raise ValueError(f"bad trajectory header: {header!r}")
        n = len(cols) - 1
        if n == 0:
            raise ValueError("trajectory file has no state columns")
        times = []
        states = []
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n + 1:
                raise ValueError(f"row has {len(parts)} fields, expected {n + 1}")
            times.append(float(parts[0]))
            states.append([int(p) for p in parts[1:]])
    return Trajectory(times=np.array(times), states=np.array(states))
