"""Greedy tensor-train cross interpolation for maximizing black-box tensors.

A function f on {0,1}^d is viewed as a d-way tensor and approximated from a
small set of evaluated entries by the interpolation chain

    f(g) ~ F_1[g_1] A_1^{-1} F_2[g_2] A_2^{-1} ... F_d[g_d]

where F_k collects fibers over nested prefix sets (left of bond k) and
suffix sets (right of it) and A_k = f(prefixes x suffixes) is the cross
matrix at bond k.  Sweeps over bonds enlarge the sets one greedily chosen
pivot at a time; the pivot is the largest residual entry found by a rook
search on the 2r x 2r subtensor spanned by neighbouring sets.  Because
residuals vanish on already-interpolated rows and columns, the largest
residual both improves the approximation and steers evaluations toward the
maximal entry, which is tracked as a side effect.  Crossing fibers ask for
the same entry many times, so entries come through a Memo that solves each
index once; log-likelihood values are tempered on top of it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

# crossing this many modes makes materializing the interpolant (2^d entries)
# more expensive than the search itself, so the final argmax harvest skips it
ARGMAX_ENUM_LIMIT = 20
# pivots whose residual is below this times the entry's own magnitude are
# floating-point noise and are not admitted
PIVOT_RTOL = 1e-14
# rounds of the alternating column/row maximization in a rook search
ROOK_MAX_ITERS = 3


@dataclass(frozen=True)
class CrossConfig:
    """Knobs of the greedy cross optimizer.

    r_max bounds every bond rank; n_max budgets objective evaluations, a
    few of which may run past it (see cross_optimize); seed drives the
    random probes of the rook searches; max_sweeps, when set, bounds the
    number of sweeps.
    """

    r_max: int = 10
    n_max: int = 10_000
    seed: int = 0
    max_sweeps: int | None = None

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {self.r_max}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.max_sweeps is not None and self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


class Memo:
    """At-most-once memo of a function on indices, with the counters and
    argmax the optimizer reads.

    `memo(bits)` returns fn(bits) and solves it at most once per index,
    also across threads: a miss on an index whose solve is in flight in
    another thread waits for that solve and counts as a hit, and if the
    solve raises, the next caller solves again.  Indices are keys as given,
    normally the 0/1 tuples the interpolant holds.  `n_evaluations` counts
    solves and `n_hits` lookups answered from the store; values read by
    `load` count as neither.  NaN is rejected, solved or loaded.
    """

    def __init__(self, fn):
        self.fn = fn
        self.n_evaluations = 0
        self.n_hits = 0
        self._values: dict = {}
        self._pending: dict = {}
        self._lock = threading.Lock()
        self._best = None
        self._best_value = -math.inf

    def __len__(self) -> int:
        return len(self._values)

    def __call__(self, bits) -> float:
        # an index in flight maps to a lock its solver holds until the solve
        # ends; a waiter takes and drops it, then looks the index up again
        while True:
            with self._lock:
                value = self._values.get(bits)
                if value is not None:
                    self.n_hits += 1
                    return value
                done = self._pending.get(bits)
                if done is None:
                    done = self._pending[bits] = threading.Lock()
                    done.acquire()
                    break
            with done:
                pass
        try:
            value = float(self.fn(bits))
            with self._lock:
                self._store(bits, value)
                self.n_evaluations += 1
            return value
        finally:
            with self._lock:
                del self._pending[bits]
            done.release()

    def _store(self, key, value: float) -> None:
        if math.isnan(value):
            raise ValueError(f"NaN value at {key}")
        self._values[key] = value
        if value > self._best_value or (value == self._best_value
                                        and self._best is not None and key < self._best):
            self._best, self._best_value = key, value

    def lookup(self, bits) -> float | None:
        """Stored value of an index, or None; solves and counts nothing."""
        return self._values.get(bits)

    def argmax(self) -> tuple:
        """(index, value) of the largest stored value; ties go to the
        lexicographically smallest index, and -inf never counts."""
        if self._best is None:
            raise ValueError("memo holds no value above -inf")
        return self._best, self._best_value

    def save(self, path) -> None:
        """Dump as CSV `g,loglik`: the index as a 01-string, the value at
        full double precision, indices sorted."""
        with open(path, "w") as fh:
            fh.write("g,loglik\n")
            for key in sorted(self._values):
                fh.write(f"{''.join(map(str, key))},{self._values[key]:.17g}\n")

    @classmethod
    def load(cls, path) -> "Memo":
        """Rebuild from a dump, keyed by 0/1 tuples; the result answers the
        indices the file holds and has no function to solve others.  An
        index listed twice, or a value of +inf (no log-likelihood), raises
        ValueError, as neither can come from `save`."""
        memo = cls(None)
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "g,loglik":
                raise ValueError(f"bad cache header: {header!r}")
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                key, _, value = line.partition(",")
                if not key or set(key) - {"0", "1"}:
                    raise ValueError(f"not a 01-string: {key!r}")
                bits, value = tuple(int(c) for c in key), float(value)
                if bits in memo._values:
                    raise ValueError(f"index {key} listed twice")
                if value == math.inf:
                    raise ValueError(f"value +inf at {key}")
                memo._store(bits, value)
        return memo


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


def tempered_objective(loglik: float, config: TemperConfig) -> float:
    """Map a log-likelihood to the positive optimization target.

    Zero-probability networks (loglik = -inf) map to 0.  A target beyond
    double range raises OverflowError (from math.exp); cross_optimize
    answers it by re-anchoring the shift.
    """
    if loglik == -math.inf:
        return 0.0
    if not math.isfinite(loglik):
        raise ValueError(f"log-likelihood must be finite or -inf, got {loglik}")
    return math.exp((loglik - config.log_shift) / config.tau)


class SubtensorView:
    """Lazy window onto one bond: entries come from the objective, the
    interpolant prediction is precomputed, residual = entry - prediction."""

    def __init__(self, shape, entry, approx):
        self.shape = shape
        self._entry = entry
        self._approx = approx

    def residual(self, i: int, j: int) -> float:
        return self._entry(i, j) - float(self._approx[i, j])

    def scale(self, i: int, j: int) -> float:
        """Magnitude of entry (i, j): reference for deciding whether its
        residual is genuine or cancellation noise."""
        return max(abs(self._entry(i, j)), abs(float(self._approx[i, j])))


@dataclass(frozen=True)
class RookResult:
    pivot: tuple[int, int] | None
    max_error: float
    converged: bool


def matrix_cross_step(view: SubtensorView, row_set, col_set, rng,
                      exhausted=lambda: False) -> RookResult:
    """One greedy pivot search on a matrix view.

    Seeds from the largest-residual entry among min(M, N) probes drawn
    uniformly without replacement from the grid of unused rows x unused
    columns, then alternates column/row argmax (a rook search) for at most
    ROOK_MAX_ITERS rounds.  Rows in row_set and columns in col_set are
    already interpolated (residual zero by construction) and excluded.
    Returns no pivot when nothing is free or every probed residual is
    exactly zero.  Ties break toward the smallest row-major linear index.
    `exhausted()`, asked before each probe and scan, stops the search once true.
    """
    n_rows, n_cols = view.shape
    free_rows = sorted(set(range(n_rows)) - set(row_set))
    free_cols = sorted(set(range(n_cols)) - set(col_set))
    if not free_rows or not free_cols:
        return RookResult(None, 0.0, False)

    n_free = len(free_rows) * len(free_cols)
    n_probe = min(min(n_rows, n_cols), n_free)
    flat = rng.choice(n_free, size=n_probe, replace=False)
    probes = sorted((free_rows[f // len(free_cols)], free_cols[f % len(free_cols)])
                    for f in flat)
    best = 0.0
    seed = None
    for i, j in probes:
        if exhausted():
            break
        r = abs(view.residual(i, j))
        if r > best:
            best, seed = r, (i, j)
    if seed is None:
        return RookResult(None, 0.0, False)

    i_star, j_star = seed
    converged = False
    for _ in range(ROOK_MAX_ITERS):
        if exhausted():
            break
        col = [abs(view.residual(i, j_star)) for i in free_rows]
        i_star = free_rows[_argmax(col)]
        if exhausted():
            break
        row = [abs(view.residual(i_star, j)) for j in free_cols]
        j_new = free_cols[_argmax(row)]
        if j_new == j_star:
            converged = True
            break
        j_star = j_new
    max_error = abs(view.residual(i_star, j_star))
    return RookResult((i_star, j_star), max_error, converged)


def _argmax(values: list) -> int:
    """Position of the first largest value of a list, NaN ranking below
    every number (inf * 0 in a prediction gives NaN residuals, which
    measure nothing); 0 when no value is above -inf."""
    best, pos = -math.inf, 0
    for i, v in enumerate(values):
        if v > best:
            best, pos = v, i
    return pos


class CrossInterpolant:
    """Nested-index cross interpolant of a function on {0,1}^d.

    State per bond k (1 <= k <= d-1): prefix set left[k] (tuples of length
    k), suffix set right[k] (tuples covering bits k..d-1), both of size
    r_k, with left[k] nested in left[k-1] x {0,1} and right[k] in
    {0,1} x right[k+1].  fiber[k] holds f on left[k-1] x {0,1} x right[k];
    the cross matrix A_k = f(left[k] x right[k]) is read from fiber[k] and
    solved where it is used.
    Initialized at rank one from a pivot index g0, which must have a
    nonzero objective value.  `objective` is called once per entry lookup;
    `evaluations()` returns the solves spent so far, which the sweeps hold
    to the budget (default: objective.n_evaluations, the Memo counter).
    """

    def __init__(self, objective, d: int, g0, evaluations=None):
        self.objective = objective
        self.evaluations = evaluations or (lambda: objective.n_evaluations)
        self.d = int(d)
        g0 = tuple(int(b) for b in g0)
        if len(g0) != self.d or any(b not in (0, 1) for b in g0):
            raise ValueError(f"g0 must be a 0/1 tuple of length {self.d}")
        if self.d < 1:
            raise ValueError("need at least one dimension")
        self.g0 = g0

        f0 = objective(g0)
        if not f0 > 0:
            raise ValueError(
                f"objective must be positive at the initial index, got {f0}")

        self.left = [[g0[:k]] for k in range(self.d)]
        self.right = [None] + [[g0[k:]] for k in range(1, self.d + 1)]
        self.left_pos = [{g0[:k]: 0} for k in range(self.d)]
        self.right_pos = [None] + [{g0[k:]: 0} for k in range(1, self.d + 1)]
        self.fibers = [None] * (self.d + 1)
        for k in range(1, self.d + 1):
            fib = np.empty((1, 2, 1))
            b = g0[k - 1]
            fib[0, b, 0] = f0
            fib[0, 1 - b, 0] = objective(g0[:k - 1] + (1 - b,) + g0[k:])
            self.fibers[k] = fib

    # -- bookkeeping -------------------------------------------------------

    def rank(self, k: int) -> int:
        """Bond rank r_k; r_0 = r_d = 1."""
        if k == 0 or k == self.d:
            return 1
        return len(self.left[k])

    def ranks(self) -> list[int]:
        return [self.rank(k) for k in range(self.d + 1)]

    def _cross_matrix(self, k: int) -> np.ndarray:
        a = np.empty((len(self.left[k]), len(self.right[k])))
        for i, q in enumerate(self.left[k]):
            a[i, :] = self.fibers[k][self.left_pos[k - 1][q[:-1]], q[-1], :]
        return a

    # -- bond access -------------------------------------------------------

    def bond_view(self, k: int) -> tuple[SubtensorView, set, set]:
        """View of the objective on (left[k-1] x {0,1}) x ({0,1} x right[k+1])
        at bond k, with the current interpolant as prediction.

        Row i maps to prefix left[k-1][i // 2] + (i % 2,), column j to
        suffix (j // r_{k+1},) + right[k+1][j % r_{k+1}].
        """
        if not 1 <= k <= self.d - 1:
            raise ValueError(f"bond index {k} out of range 1..{self.d - 1}")
        r_next = len(self.right[k + 1])
        f_left = self.fibers[k].reshape(-1, len(self.right[k]))
        # near the double-range ceiling the prediction may overflow to inf
        # (or be inf * 0 = NaN); that only marks the entry as a maximal (or
        # unmeasured) residual, and if its value overflows too, evaluating it
        # re-anchors the run, so silence the warnings
        with np.errstate(over="ignore", invalid="ignore"):
            growth = np.linalg.solve(self._cross_matrix(k),
                                     self.fibers[k + 1].reshape(len(self.left[k]), -1))
            approx = f_left @ growth

        def entry(i, j):
            prefix = self.left[k - 1][i // 2] + (i % 2,)
            suffix = (j // r_next,) + self.right[k + 1][j % r_next]
            return self.objective(prefix + suffix)

        view = SubtensorView(approx.shape, entry, approx)
        row_set = {self.left_pos[k - 1][q[:-1]] * 2 + q[-1] for q in self.left[k]}
        col_set = {q[0] * r_next + self.right_pos[k + 1][q[1:]] for q in self.right[k]}
        return view, row_set, col_set

    def admit(self, k: int, i: int, j: int) -> None:
        """Grow bond k by the pivot at view entry (i, j).

        Appends the pivot's prefix to left[k] and suffix to right[k] and
        extends the two adjacent fibers, which hold the grown A_k.  All new
        objective values are gathered before any state is mutated, so a
        failed evaluation leaves the interpolant unchanged.
        """
        r_next = len(self.right[k + 1])
        prefix = self.left[k - 1][i // 2] + (i % 2,)
        suffix = (j // r_next,) + self.right[k + 1][j % r_next]
        if prefix in self.left_pos[k] or suffix in self.right_pos[k]:
            raise ValueError(f"pivot ({i}, {j}) at bond {k} reuses an index")

        new_col = np.empty((len(self.left[k - 1]), 2, 1))
        for p, pre in enumerate(self.left[k - 1]):
            for b in (0, 1):
                new_col[p, b, 0] = self.objective(pre + (b,) + suffix)
        new_row = np.empty((1, 2, len(self.right[k + 1])))
        for b in (0, 1):
            for s, suf in enumerate(self.right[k + 1]):
                new_row[0, b, s] = self.objective(prefix + (b,) + suf)

        self.left_pos[k][prefix] = len(self.left[k])
        self.left[k].append(prefix)
        self.right_pos[k][suffix] = len(self.right[k])
        self.right[k].append(suffix)
        self.fibers[k] = np.concatenate([self.fibers[k], new_col], axis=2)
        self.fibers[k + 1] = np.concatenate([self.fibers[k + 1], new_row], axis=0)

    def bond_saturated(self, k: int) -> bool:
        """No free rows or no free columns left at bond k."""
        r_k = self.rank(k)
        return r_k == 2 * self.rank(k - 1) or r_k == 2 * self.rank(k + 1)

    def tensor_train(self) -> "TensorTrain":
        """Explicit TT cores of the current interpolant:
        core_k = F_k A_k^{-1} for k < d and core_d = F_d."""
        cores = []
        for k in range(1, self.d):
            r_prev = self.fibers[k].shape[0]
            flat = self.fibers[k].reshape(-1, len(self.right[k]))
            solved = np.linalg.solve(self._cross_matrix(k).T, flat.T).T
            cores.append(solved.reshape(r_prev, 2, -1).copy())
        cores.append(self.fibers[self.d].copy())
        return TensorTrain(cores)


@dataclass
class TensorTrain:
    """Tensor in TT form: cores[k] has shape (r_k, 2, r_{k+1}), r_0 = r_d = 1."""

    cores: list[np.ndarray]

    def __post_init__(self):
        if not self.cores:
            raise ValueError("tensor train needs at least one core")
        self.cores = [np.asarray(c, dtype=float) for c in self.cores]
        for k, c in enumerate(self.cores):
            if c.ndim != 3 or c.shape[1] != 2:
                raise ValueError(f"core {k} must have shape (r, 2, r'), got {c.shape}")
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks must be 1")
        for a, b in zip(self.cores, self.cores[1:]):
            if a.shape[2] != b.shape[0]:
                raise ValueError("core ranks do not chain")

    @property
    def d(self) -> int:
        return len(self.cores)

    def ranks(self) -> list[int]:
        return [1] + [c.shape[2] for c in self.cores]

    def eval(self, bits) -> float:
        bits = tuple(int(b) for b in bits)
        if len(bits) != self.d:
            raise ValueError(f"index must have length {self.d}")
        v = self.cores[0][:, bits[0], :]
        for k in range(1, self.d):
            v = v @ self.cores[k][:, bits[k], :]
        return float(v[0, 0])


def tensor_argmax(tt: TensorTrain) -> tuple[int, ...]:
    """Exact argmax index of the materialized tensor.

    Enumerates all 2^d entries by blockwise contraction (d is capped at
    ARGMAX_ENUM_LIMIT to bound time and memory); ties go to the smallest
    index in lexicographic order, and NaN (inf * 0) ranks lowest."""
    if tt.d > ARGMAX_ENUM_LIMIT:
        raise ValueError(
            f"{tt.d} modes exceed the enumeration limit {ARGMAX_ENUM_LIMIT}")
    with np.errstate(over="ignore", invalid="ignore"):
        block = tt.cores[0].reshape(2, -1)
        for core in tt.cores[1:]:
            block = (block @ core.reshape(core.shape[0], -1))
            block = block.reshape(-1, core.shape[2])
    # row index has bit k at weight 2^(d-1-k), so numeric order of rows is
    # lexicographic order of indices and argmax's first-hit rule breaks ties
    values = block[:, 0]
    idx = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))
    return tuple((idx >> (tt.d - 1 - k)) & 1 for k in range(tt.d))


def save_tt_cores(tt: TensorTrain, path) -> None:
    """Text format: a line with d, then per core a shape line `r 2 r'`
    followed by its entries row-major, 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(f"{tt.d}\n")
        for core in tt.cores:
            r0, _, r1 = core.shape
            fh.write(f"{r0} 2 {r1}\n")
            for i in range(r0):
                for b in range(2):
                    fh.write(" ".join(f"{v:.17g}" for v in core[i, b, :]) + "\n")


def load_tt_cores(path) -> TensorTrain:
    with open(path) as fh:
        tokens = fh.read().split()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(tokens):
            raise ValueError("truncated tensor-train file")
        out = tokens[pos:pos + n]
        pos += n
        return out

    d = int(take(1)[0])
    if d < 1:
        raise ValueError(f"bad dimension count {d}")
    cores = []
    for _ in range(d):
        r0, two, r1 = (int(t) for t in take(3))
        if two != 2:
            raise ValueError("mode size must be 2")
        vals = np.array([float(t) for t in take(r0 * 2 * r1)])
        cores.append(vals.reshape(r0, 2, r1))
    if pos != len(tokens):
        raise ValueError("trailing data in tensor-train file")
    return TensorTrain(cores)


@dataclass(frozen=True)
class SweepReport:
    bond_errors: dict[int, float]
    max_error: float
    pivots_added: int


def sweep(interp: CrossInterpolant, direction: str, rng, config: CrossConfig) -> SweepReport:
    """One pass over all bonds, admitting at most one pivot per bond.

    direction is "lr" (bond 1 to d-1) or "rl" (reverse).  Bonds already at
    r_max are skipped and excluded from the error report; searched bonds
    without a pivot record an error of zero.  Pivots whose residual falls
    below the noise floor of their own entry are searched but not
    admitted, and a NaN residual (inf * 0 in the prediction) is never
    admitted and records no error.  The pass stops once the budget is
    spent, checked before each bond and inside its rook search.
    """
    if direction not in ("lr", "rl"):
        raise ValueError(f"direction must be 'lr' or 'rl', got {direction!r}")
    bonds = range(1, interp.d) if direction == "lr" else range(interp.d - 1, 0, -1)
    errors: dict[int, float] = {}
    added = 0

    def exhausted() -> bool:
        return interp.evaluations() >= config.n_max

    for k in bonds:
        if exhausted():
            break
        if interp.rank(k) >= config.r_max:
            continue
        view, row_set, col_set = interp.bond_view(k)
        step = matrix_cross_step(view, row_set, col_set, rng, exhausted)
        if step.pivot is None:
            errors[k] = 0.0
            continue
        if not math.isnan(step.max_error):
            errors[k] = step.max_error
        # residuals below the pivot's own floating-point scale are
        # cancellation noise; admitting them buys nothing and risks a
        # singular cross matrix
        if not step.max_error > PIVOT_RTOL * view.scale(*step.pivot):
            continue
        interp.admit(k, *step.pivot)
        added += 1
    max_error = max(errors.values(), default=0.0)
    return SweepReport(bond_errors=errors, max_error=max_error, pivots_added=added)


@dataclass
class SweepRecord:
    sweep: int
    n_evaluations: int
    max_error: float
    g_max: tuple
    # target value of g_max on the scale in force when the sweep ended
    value: float
    # CPU time of all of this process's threads since the optimizer started;
    # the helper process that takes half of a split solve is not counted, so
    # a run with split solves can read less CPU time than wall time
    cpu_seconds: float


@dataclass
class CrossResult:
    """Outcome of cross_optimize: the best index seen and its target value
    on the final scale, diagnostics per sweep, and the final interpolant's
    ranks and TT form (None if a cross matrix is singular; [] and None if
    the budget ran out as the run re-anchored)."""

    g_max: tuple
    value: float
    n_evaluations: int
    termination: str
    history: list[SweepRecord]
    ranks: list[int]
    tensor: TensorTrain | None


def _one_flip_maximum(memo, g, budget: int) -> bool:
    """Whether g, the memo's argmax, beats or ties every index one bit flip
    away.  Flips missing from the memo are solved in bit order, at most
    `budget` of them, until one takes the argmax from g."""
    for k in range(len(g)):
        flip = g[:k] + (1 - g[k],) + g[k + 1:]
        if memo.lookup(flip) is None:
            if budget <= 0:
                return False
            budget -= 1
            memo(flip)
            if memo.argmax()[0] != g:
                return False
    return True


def cross_optimize(objective, d: int, g0, config: CrossConfig,
                   tau: float | None = None) -> CrossResult:
    """Maximize a function on {0,1}^d by greedy cross sweeps.

    `objective` is called once per entry lookup.  A bare callable on index
    tuples is wrapped in a Memo; an object with the Memo counters, argmax
    and lookup (a Memo, or anything forwarding to one) is used as it is, so
    one memo can serve several runs.  The n_max budget, the result's
    n_evaluations and the history count this run's own solves.  With tau
    None the values are maximized as they are; otherwise tau is checked
    before anything is solved, the values are log-likelihoods and the
    target is
    tempered_objective(objective(bits), TemperConfig(tau, shift)), the shift
    starting at objective(g0), where the target is exactly 1.  Pivots do
    not change under positive scaling, so when a tempered value overflows
    or a cross matrix is singular, a tempered run re-anchors: the shift
    becomes the memo's best log-likelihood and the interpolant restarts at
    rank one from that network, keeping the rng, the budget and the count
    of sweeps completed (a sweep cut short by a re-anchor does not count).
    Without tau, or with no network above the shift, the error propagates.
    Values in the result and the history are on the scale in force when
    recorded.  Sweeps alternate direction.  After each, the run stops on the
    first of: the budget ("budget"), no residual left on any searched bond
    ("converged"), every bond capped or saturated ("rank_saturated"), a sweep
    admitting no pivot ("stalled") and, from the second sweep on and below the
    sweep cap ("max_sweeps", checked before each sweep), a memo argmax that is a
    one-flip maximum ("local_max"): its d flips are looked up and the missing
    ones solved, within the budget, until one is better.  That check draws
    nothing from the rng and changes no value the sweeps see, so the pivot path
    up to the stop is the one the run would take without it while the budget
    does not bind and no re-anchor restarts it.  Every stop harvests: with d <=
    ARGMAX_ENUM_LIMIT and budget left, the final interpolant's argmax is solved
    too.  A harvest better than a one-flip maximum sends the run on; one whose
    tempered value overflows re-anchors it there, and it goes on.  A final
    interpolant with a singular cross matrix is neither exported nor harvested.

    The budget is checked before each bond, each probe and step of its
    rook search, each re-anchored restart and each solve of the one-flip
    check.  So the d + 1 lookups of the start always run, a restart (begun
    below n_max) solves at most the d flips of its network, and the bond in
    progress when the budget runs out finishes its search and admission,
    at bond k at most 2 (r_{k-1} + r_{k+1} - r_k) - 2 <= 4 (r_max - 1)
    solves past n_max: a run solves at most
    max(d + 1, n_max + max(d - 1, 4 (r_max - 1))) indices.  A run whose
    budget is spent as it re-anchors ends "budget" with no interpolant, as
    its old one is on the old scale: no ranks, no tensor, no harvest.
    """
    memo = objective if hasattr(objective, "n_evaluations") else Memo(objective)
    g0 = tuple(int(b) for b in g0)
    ev0 = memo.n_evaluations
    rng = np.random.default_rng(config.seed)
    t0 = time.process_time()
    history: list[SweepRecord] = []

    def spent() -> int:
        return memo.n_evaluations - ev0

    if tau is None:
        temper, value = None, memo
    else:
        temper = TemperConfig(tau)  # reject a bad tau before the first solve
        ll0 = memo(g0)
        if ll0 == -math.inf:
            raise ValueError(
                "initial network has zero likelihood; start from a different one")
        temper = TemperConfig(tau=tau, log_shift=ll0)

        def value(bits):
            return tempered_objective(memo(bits), temper)

    def best():
        g, v = memo.argmax()
        return g, (v if temper is None else tempered_objective(v, temper))

    interp = tensor = None
    sweeps_done = 0
    while True:
        try:
            if interp is None:
                interp = CrossInterpolant(value, d, g0, spent)
            stop = None
            if spent() >= config.n_max:
                stop = "budget"
            elif config.max_sweeps is not None and sweeps_done >= config.max_sweeps:
                stop = "max_sweeps"
            else:
                report = sweep(interp, "rl" if sweeps_done % 2 else "lr", rng, config)
                # count the sweep once its best value is on scale, so a sweep
                # that ends in a re-anchor leaves no gap in the history
                g_best, v = best()
                sweeps_done += 1
                history.append(SweepRecord(sweep=sweeps_done, n_evaluations=spent(),
                                           max_error=report.max_error, g_max=g_best,
                                           value=v,
                                           cpu_seconds=time.process_time() - t0))
                if spent() >= config.n_max:
                    stop = "budget"
                # bonds at r_max or with a NaN residual record no error; a sweep
                # of only those has not converged (all at r_max is saturation)
                elif report.bond_errors and report.max_error == 0.0:
                    stop = "converged"
                elif all(interp.rank(k) >= config.r_max or interp.bond_saturated(k)
                         for k in range(1, d)):
                    stop = "rank_saturated"
                elif report.pivots_added == 0:
                    stop = "stalled"
                elif ((config.max_sweeps is None or sweeps_done < config.max_sweeps)
                      and sweeps_done > 1
                      and _one_flip_maximum(memo, g_best, config.n_max - spent())):
                    stop = "local_max"
            # the sweeps only ever sample crosses, so an exactly interpolated
            # objective can stall with its maximizer never evaluated; when the
            # index space is enumerable, every stop claims the interpolant's argmax
            if stop is not None:
                try:
                    tensor = interp.tensor_train()
                except np.linalg.LinAlgError:
                    tensor = None
                if (tensor is not None and tensor.d <= ARGMAX_ENUM_LIMIT
                        and spent() < config.n_max):
                    value(tensor_argmax(tensor))
                if stop == "local_max" and memo.argmax()[0] != g_best:
                    stop = None  # the harvest beat the one-flip maximum: sweep on
        except (OverflowError, np.linalg.LinAlgError):
            if temper is None:
                raise
            g0, ll_best = memo.argmax()
            if not ll_best > temper.log_shift:
                raise
            # re-anchor: restart from the best network, whose target is 1
            temper = TemperConfig(tau=tau, log_shift=ll_best)
            interp = tensor = None
            stop = "budget" if spent() >= config.n_max else None
        if stop is not None:
            break
    g_best, v = best()
    return CrossResult(g_max=g_best, value=v, n_evaluations=spent(), termination=stop,
                       history=history, ranks=[] if interp is None else interp.ranks(),
                       tensor=tensor)
