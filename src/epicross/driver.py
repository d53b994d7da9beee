"""Inference entry points: initial guess, brute force, cross runs, experiments.

A run ties the pieces together: score a trajectory to get an initial
network, then hand a memo of the log-likelihood to the cross optimizer,
which tempers it so the target starts at exactly one.  The
experiment harness repeats that over simulated datasets and temperatures
and aggregates error statistics.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .epidemic import (
    AdjacencyVector,
    EpidemicParams,
    NetworkState,
    Trajectory,
    chain_network,
    network_error,
    pack_adjacency,
    ssa_simulate,
    write_trajectory,
)
from .likelihood import log_likelihood
from .cross import CrossConfig, Memo, TemperConfig, TensorTrain, cross_optimize

SCORE_THRESHOLD = 0.2

# optimizer seeds are offset from dataset seeds so the two stream families
# never collide when runs are enumerated from one base seed
OPTIMIZER_SEED_OFFSET = 1_000_000


class CapacityError(RuntimeError):
    """Requested operation exceeds the configured size limit."""


def score_init(data: Trajectory, threshold: float = SCORE_THRESHOLD) -> AdjacencyVector:
    """Heuristic initial network from per-node infection-rate regressions.

    A node's chance of flipping susceptible -> infected over one step is
    linear in its neighbours' infection states, so for each node we least-
    squares regress its flip indicator (over the steps it starts
    susceptible) on the other nodes' states plus an intercept.  Raw pair
    counts are badly confounded at endemic prevalence, where epidemic
    waves make every pair co-occur; the partial regression coefficients
    suppress that.  The score of pair (m, n) is the symmetrized positive
    part of the two coefficients; pairs scoring at least `threshold` times
    the best score get an edge, and a trajectory with no usable infection
    events maps to the empty network.
    """
    states = data.states.astype(np.float64)
    n = data.n_nodes
    up = ((states[1:] == 1) & (states[:-1] == 0)).astype(np.float64)
    sus = states[:-1] == 0
    inf_prev = states[:-1] == 1.0
    scores = np.zeros((n, n))
    for m in range(n):
        rows = sus[:, m]
        if int(rows.sum()) < 2 or up[rows, m].sum() == 0:
            continue
        others = [j for j in range(n) if j != m]
        design = np.column_stack([inf_prev[np.ix_(rows, others)].astype(np.float64),
                                  np.ones(int(rows.sum()))])
        coef, *_ = np.linalg.lstsq(design, up[rows, m], rcond=None)
        scores[m, others] = coef[:-1]
    scores = np.maximum(scores, 0.0)
    scores = scores + scores.T
    np.fill_diagonal(scores, 0.0)
    s_max = scores.max(initial=0.0)
    if s_max <= 0.0:
        return AdjacencyVector.empty(n)
    adj = (scores >= threshold * s_max).astype(np.int64)
    np.fill_diagonal(adj, 0)
    return pack_adjacency(adj)


def likelihood_memo(data: Trajectory, params: EpidemicParams) -> Memo:
    """Memo of log_likelihood on the pair bits of candidate networks."""
    return Memo(lambda bits: log_likelihood(AdjacencyVector(bits), data, params))


def brute_force_mle(data: Trajectory, params: EpidemicParams,
                    d_limit: int = 20,
                    cache: Memo | None = None) -> tuple[AdjacencyVector, float]:
    """Exhaustive maximum-likelihood network over all 2^d candidates.

    Refuses d > d_limit pair bits (the default 20 caps the sweep at about
    a million likelihood solves); ties go to the lexicographically
    smallest bitstring.  Pass a likelihood_memo to keep the full table.
    """
    n = data.n_nodes
    d = n * (n - 1) // 2
    if d > d_limit:
        raise CapacityError(
            f"{d} pair bits exceed the exhaustive limit {d_limit}; "
            "use run_inference instead")
    memo = cache if cache is not None else likelihood_memo(data, params)
    for code in range(1 << d):
        memo(tuple((code >> i) & 1 for i in range(d)))
    bits, ll = memo.argmax()
    return AdjacencyVector(bits), ll


@dataclass
class RunResult:
    """One inference run: best network, diagnostics, per-sweep history.

    `tensor` holds the final interpolant in TT form (not serialized)."""

    g_max: AdjacencyVector
    loglik: float
    n_eval: int
    cache_hits: int
    termination: str
    history: list[dict]
    tau: float
    link_error: int | None = None
    tensor: TensorTrain | None = None

    def to_json_dict(self) -> dict:
        out = {
            "g_max": self.g_max.bitstring,
            "loglik": self.loglik,
            "n_eval": self.n_eval,
            "cache_hits": self.cache_hits,
            "termination": self.termination,
            "history": self.history,
            "tau": self.tau,
        }
        if self.link_error is not None:
            out["link_error"] = self.link_error
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def _resolve_init(init, data: Trajectory) -> AdjacencyVector:
    if isinstance(init, AdjacencyVector):
        return init
    if init == "score":
        return score_init(data)
    if init == "zero":
        return AdjacencyVector.empty(data.n_nodes)
    raise ValueError(f"init must be 'score', 'zero' or an AdjacencyVector, got {init!r}")


def run_inference(data: Trajectory, params: EpidemicParams, tau: float,
                  config: CrossConfig, truth: AdjacencyVector | None = None,
                  init="score", cache: Memo | None = None) -> RunResult:
    """Infer the network behind one trajectory by tempered cross maximization.

    The optimizer shifts the log-likelihood by its value at the initial
    network, so it starts from an objective value of exactly one, and
    moves the shift to the best network seen if the tempered objective
    leaves double range.  A shared `cache` (a likelihood_memo)
    serves lookups across runs; n_eval and cache_hits count this run's own.
    """
    g0 = _resolve_init(init, data)
    if g0.n_nodes != data.n_nodes:
        raise ValueError("initial network size does not match data")
    memo = cache if cache is not None else likelihood_memo(data, params)
    hits0 = memo.n_hits
    res = cross_optimize(memo, g0.n_pairs, g0.bits, config, tau)
    g_best = AdjacencyVector(res.g_max)
    history = []
    for rec in res.history:
        g_sweep = AdjacencyVector(rec.g_max)
        history.append({
            "sweep": rec.sweep,
            "n_eval": rec.n_evaluations,
            "cpu_seconds": rec.cpu_seconds,
            "max_error": rec.max_error,
            "g_max": g_sweep.bitstring,
            "loglik": memo.lookup(rec.g_max),
            "link_error": (network_error(g_sweep, truth)
                           if truth is not None else None),
        })
    return RunResult(
        g_max=g_best,
        loglik=memo.lookup(res.g_max),
        n_eval=res.n_evaluations,
        cache_hits=memo.n_hits - hits0,
        termination=res.termination,
        history=history,
        tau=tau,
        link_error=(network_error(g_best, truth) if truth is not None else None),
        tensor=res.tensor,
    )


@dataclass
class ExperimentConfig:
    """Protocol for a batch of simulated-data inference runs.

    Ground truth defaults to the linear chain on n_nodes nodes (override
    with truth_bits); every trajectory starts from node 1 infected.
    Dataset i is simulated with seed base_seed + i and optimized with seed
    base_seed + 1_000_000 + i, one fresh cache per (dataset, tau) run.
    """

    n_nodes: int
    beta: float
    gamma: float
    eps: float
    dt: float
    t_max: float
    taus: tuple[float, ...] = (1.0, 10.0, 100.0)
    n_datasets: int = 10
    base_seed: int = 0
    r_max: int = 5
    n_max: int = 100_000
    max_sweeps: int | None = 4
    init: str = "score"
    truth_bits: str | None = None

    def __post_init__(self):
        # check temperatures, cross settings and truth before any dataset is simulated
        self.taus = tuple(TemperConfig(t).tau for t in self.taus)
        if not self.taus:
            raise ValueError("need at least one temperature")
        if self.n_datasets < 1:
            raise ValueError("need at least one dataset")
        self.cross_config(self.base_seed)
        self.truth  # raises on a bad truth_bits

    @property
    def params(self) -> EpidemicParams:
        return EpidemicParams(beta=self.beta, gamma=self.gamma, eps=self.eps)

    @property
    def truth(self) -> AdjacencyVector:
        if self.truth_bits is not None:
            g = AdjacencyVector.from_bitstring(self.truth_bits)
            if g.n_nodes != self.n_nodes:
                raise ValueError("truth_bits does not match n_nodes")
            return g
        return chain_network(self.n_nodes)

    def cross_config(self, seed: int) -> CrossConfig:
        return CrossConfig(r_max=self.r_max, n_max=self.n_max, seed=seed,
                           max_sweeps=self.max_sweeps)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        missing = {"n_nodes", "beta", "gamma", "eps", "dt", "t_max"} - set(raw)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**raw)

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["taus"] = list(self.taus)
        return out


def summarize_runs(runs_by_tau: dict[float, list[RunResult]],
                   n_pairs: int) -> list[dict]:
    """Per-temperature averages along the sweep axis.

    Runs without a sweep record are excluded.  A run that terminated
    before sweep s contributes its final record to checkpoint s, so curves
    stay flat after termination.  Errors are relative (links / n_pairs);
    err_std is the population standard deviation.
    """
    rows = []
    for tau, runs in runs_by_tau.items():
        completed = [r for r in runs if r.history]
        if not completed:
            continue
        if any(rec["link_error"] is None for r in completed for rec in r.history):
            raise ValueError("summaries need runs with ground truth")
        n_checkpoints = max(len(r.history) for r in completed)
        for s in range(1, n_checkpoints + 1):
            recs = [r.history[min(s, len(r.history)) - 1] for r in completed]
            errs = np.array([rec["link_error"] / n_pairs for rec in recs])
            rows.append({
                "tau": tau,
                "sweep": s,
                "n_eval": float(np.mean([rec["n_eval"] for rec in recs])),
                "cpu_seconds_mean": float(np.mean([rec["cpu_seconds"] for rec in recs])),
                "err_mean": float(errs.mean()),
                "err_std": float(errs.std()),
                "runs_included": len(completed),
            })
    return rows


def write_summary(rows: list[dict], path) -> None:
    with open(path, "w") as fh:
        fh.write("tau,n_eval,cpu_seconds_mean,err_mean,err_std,runs_included\n")
        for row in rows:
            fh.write(f"{row['tau']:g},{row['n_eval']:.17g},"
                     f"{row['cpu_seconds_mean']:.17g},{row['err_mean']:.17g},"
                     f"{row['err_std']:.17g},{row['runs_included']}\n")


def _error_histogram(runs: list[RunResult]) -> list[tuple[int, int]]:
    counts: dict[int, int] = {}
    for r in runs:
        if r.link_error is None:
            continue
        counts[r.link_error] = counts.get(r.link_error, 0) + 1
    return sorted(counts.items())


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Simulate datasets, run inference per temperature, write artifacts.

    Writes data/ (trajectories), runs/ (per-run JSON), hist_tau*.csv
    (final-error histograms), summary.csv and experiment.json under
    out_dir.  Returns the in-memory runs and summary rows.
    """
    out = Path(out_dir)
    (out / "data").mkdir(parents=True, exist_ok=True)
    (out / "runs").mkdir(parents=True, exist_ok=True)
    params = config.params
    g_star = config.truth
    x0 = NetworkState((1,) + (0,) * (config.n_nodes - 1))
    runs_by_tau: dict[float, list[RunResult]] = {tau: [] for tau in config.taus}
    manifest = []
    t_start = time.perf_counter()
    for i in range(config.n_datasets):
        data = ssa_simulate(g_star, params, config.dt, config.t_max, x0,
                            seed=config.base_seed + i)
        write_trajectory(data, out / "data" / f"ds{i:03d}.csv")
        for tau in config.taus:
            cross_cfg = config.cross_config(
                seed=config.base_seed + OPTIMIZER_SEED_OFFSET + i)
            rr = run_inference(data, params, tau, cross_cfg, truth=g_star,
                               init=config.init)
            run_path = out / "runs" / f"run_ds{i:03d}_tau{tau:g}.json"
            rr.save(run_path)
            runs_by_tau[tau].append(rr)
            manifest.append({
                "dataset": i,
                "tau": tau,
                "file": str(run_path.relative_to(out)),
                "termination": rr.termination,
                "link_error": rr.link_error,
            })
    summary = summarize_runs(runs_by_tau, g_star.n_pairs)
    write_summary(summary, out / "summary.csv")
    for tau, runs in runs_by_tau.items():
        hist = _error_histogram(runs)
        with open(out / f"hist_tau{tau:g}.csv", "w") as fh:
            fh.write("link_error,count\n")
            for err, count in hist:
                fh.write(f"{err},{count}\n")
    with open(out / "experiment.json", "w") as fh:
        json.dump({
            "config": config.to_json_dict(),
            "truth": g_star.bitstring,
            "runs": manifest,
            "wall_seconds": time.perf_counter() - t_start,
        }, fh, indent=2)
        fh.write("\n")
    return {"runs": runs_by_tau, "summary": summary}
