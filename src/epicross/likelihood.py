"""Trajectory likelihood under a candidate network, tempering, caching.

The data are snapshots x_0, ..., x_K of the epidemic on a time grid.  By
the Markov property the likelihood of a network g factorizes over steps,
L(g) = prod_k Prob(x_{k-1} -> x_k | g), each factor an entry of
exp(Q(g) dt_k).  Only those observed entries are computed, by uniformization
of the observed source states, each to a checked relative accuracy.
Everything downstream works with log L; the optimizer sees the tempered
value exp((log L - shift) / tau).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .epidemic import (
    AdjacencyVector,
    EpidemicParams,
    Trajectory,
    build_generator,
    transition_columns,
)


def log_likelihood(g: AdjacencyVector, data: Trajectory,
                   params: EpidemicParams) -> float:
    """Exact log-likelihood of `g` for the observed trajectory.

    Steps are grouped by length (equal to 12 significant digits, so grid
    times differing in ulps share a group) and counted per distinct
    (prev, next) state pair, c_ab.  Per group, only the columns of
    exp(Q dt) of the distinct source states are propagated, by
    uniformization certified to relative accuracy RTOL on the observed
    entries p_ab, and log L = sum c_ab log p_ab.  Returns -inf when some
    observed step is structurally impossible.
    """
    if g.n_nodes != data.n_nodes:
        raise ValueError(f"network has {g.n_nodes} nodes, data has {data.n_nodes}")
    if data.n_steps == 0:
        return 0.0
    rate = build_generator(g, params)
    idx = data.state_indices()
    dts = np.diff(data.times)
    # grid times built as k*dt differ by ulps, so steps are grouped by their
    # length rounded to 12 significant digits; each distinct rounded length
    # (not each step) is then rendered once to take its exact decimal value
    scale = 10.0 ** (np.floor(np.log10(dts)) - 11)
    uniq, group = np.unique(np.round(dts / scale) * scale, return_inverse=True)
    lengths, merge = np.unique([float(f"{v:.12g}") for v in uniq], return_inverse=True)
    pair = (merge[group] * rate.dim + idx[:-1]) * rate.dim + idx[1:]
    pair, counts = np.unique(pair, return_counts=True)
    key, nxt = np.divmod(pair, rate.dim)
    key, prev = np.divmod(key, rate.dim)
    total = 0.0
    for k, dt in enumerate(lengths):
        sel = key == k
        sources, pos = np.unique(prev[sel], return_inverse=True)
        entries = (nxt[sel], pos)
        p = transition_columns(rate, dt, sources, entries)[entries]
        if np.any(p <= 0.0):
            return -math.inf
        total += float(counts[sel] @ np.log(p))
    return total


@dataclass(frozen=True)
class TemperConfig:
    """Temperature tau and log-domain shift of the optimization target
    exp((log L - log_shift) / tau)."""

    tau: float
    log_shift: float = 0.0

    def __post_init__(self):
        tau = float(self.tau)
        shift = float(self.log_shift)
        if not math.isfinite(tau) or tau <= 0:
            raise ValueError(f"tau must be finite and positive, got {tau}")
        if not math.isfinite(shift):
            raise ValueError(f"log_shift must be finite, got {shift}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "log_shift", shift)


class TemperOverflowError(FloatingPointError):
    """Tempered likelihood left double range; carries the offending network."""

    def __init__(self, g: str | None, loglik: float, config: TemperConfig):
        self.g = g
        self.loglik = loglik
        self.config = config
        where = f" at g={g}" if g else ""
        super().__init__(
            f"exp(({loglik:.6g} - {config.log_shift:.6g}) / {config.tau:g}) "
            f"overflows{where}; raise tau or the shift")


def tempered_objective(loglik: float, config: TemperConfig,
                       g: str | None = None) -> float:
    """Map a log-likelihood to the positive optimization target.

    Zero-probability networks (loglik = -inf) map to 0.  Overflow aborts
    with TemperOverflowError rather than returning inf.
    """
    if loglik == -math.inf:
        return 0.0
    if not math.isfinite(loglik):
        raise ValueError(f"log-likelihood must be finite or -inf, got {loglik}")
    z = (loglik - config.log_shift) / config.tau
    try:
        return math.exp(z)
    except OverflowError:
        raise TemperOverflowError(g, loglik, config) from None


class EvalCache:
    """Map from adjacency bitstrings to log-likelihoods, solved at most once.

    `n_evaluations` counts solver calls (misses), `n_hits` counts lookups
    answered from the store.  Storing logs rather than tempered values lets
    one cache serve several temperatures.  Thread-safe: a miss on a key
    whose solve is already in flight in another thread waits for that solve
    and counts as a hit, so each key is computed once.  If the solve raises,
    one of the waiters takes over.
    """

    def __init__(self):
        self._store: dict[str, float] = {}
        self._best: tuple[float, str] | None = None
        self._lock = threading.Lock()
        self._pending: dict[str, threading.Event] = {}
        self.n_evaluations = 0
        self.n_hits = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def _record(self, key: str, value: float) -> None:
        if key not in self._store:
            self._store[key] = value
            if value > -math.inf:
                cand = (-value, key)  # min over this pair = max ll, then smallest string
                if self._best is None or cand < self._best:
                    self._best = cand

    def get_or_compute(self, key: str, compute) -> float:
        while True:
            with self._lock:
                if key in self._store:
                    self.n_hits += 1
                    return self._store[key]
                done = self._pending.get(key)
                if done is None:
                    done = self._pending[key] = threading.Event()
                    break
            done.wait()
        try:
            value = float(compute())
            with self._lock:
                self.n_evaluations += 1
                self._record(key, value)
                return self._store[key]
        finally:
            with self._lock:
                del self._pending[key]
            done.set()

    def lookup(self, key: str) -> float | None:
        return self._store.get(key)

    def argmax(self) -> tuple[str, float]:
        """Best network seen so far: largest log-likelihood, ties broken by
        the lexicographically smallest bitstring."""
        if self._best is None:
            raise ValueError("cache holds no finite log-likelihood")
        neg, key = self._best
        return key, -neg

    @property
    def hit_fraction(self) -> float:
        total = self.n_evaluations + self.n_hits
        return self.n_hits / total if total else 0.0

    def items(self):
        return self._store.items()

    def save(self, path) -> None:
        """Dump as CSV `g,loglik`, full double precision, keys sorted."""
        with open(path, "w") as fh:
            fh.write("g,loglik\n")
            for key in sorted(self._store):
                fh.write(f"{key},{self._store[key]:.17g}\n")

    @classmethod
    def load(cls, path) -> "EvalCache":
        """Rebuild from a dump; loaded entries count as neither evaluations
        nor hits."""
        cache = cls()
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "g,loglik":
                raise ValueError(f"bad cache header: {header!r}")
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                key, _, value = line.partition(",")
                AdjacencyVector.from_bitstring(key)  # validate
                cache._record(key, float(value))
        return cache


def evaluate_cached(g: AdjacencyVector, data: Trajectory, params: EpidemicParams,
                    config: TemperConfig, cache: EvalCache) -> float:
    """Tempered objective at `g`, computing the log-likelihood only on a
    cache miss."""
    key = g.bitstring
    ll = cache.get_or_compute(key, lambda: log_likelihood(g, data, params))
    return tempered_objective(ll, config, g=key)


def cache_argmax(cache: EvalCache) -> tuple[AdjacencyVector, float]:
    key, ll = cache.argmax()
    return AdjacencyVector.from_bitstring(key), ll


class TemperedObjective:
    """Callable bits -> exp((log L - shift)/tau) with the counter and argmax
    surface the cross optimizer expects.

    The call accepts a tuple of 0/1 ints (one per node pair).  All
    evaluations go through the shared EvalCache.
    """

    def __init__(self, data: Trajectory, params: EpidemicParams,
                 config: TemperConfig, cache: EvalCache | None = None):
        self.data = data
        self.params = params
        self.config = config
        self.cache = cache if cache is not None else EvalCache()

    def __call__(self, bits) -> float:
        g = AdjacencyVector(tuple(bits))
        return evaluate_cached(g, self.data, self.params, self.config, self.cache)

    @property
    def n_evaluations(self) -> int:
        return self.cache.n_evaluations

    @property
    def n_hits(self) -> int:
        return self.cache.n_hits

    def argmax(self) -> tuple[tuple[int, ...], float]:
        key, ll = self.cache.argmax()
        return tuple(int(c) for c in key), tempered_objective(ll, self.config, g=key)

    @property
    def max_value(self) -> float:
        try:
            _, value = self.argmax()
        except ValueError:
            return 0.0
        return value

    def retemper(self, config: TemperConfig) -> "TemperedObjective":
        """Same data and cache under a different temperature or shift."""
        return TemperedObjective(self.data, self.params, config, cache=self.cache)
