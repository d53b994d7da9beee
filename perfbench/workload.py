"""One benchmark workload in its own process: inputs, set-up, timed operations.

    python3 workload.py gen   <workload> <seed> <dir>   write the inputs, print the versions
    python3 workload.py setup <workload> <seed> <dir>   time set-up only
    python3 workload.py run   <workload> <seed> <dir> <seconds> <trace>

`run` prints one JSON object with the set-up time, peak RSS, one record
per operation and, when traced, the per-layer span totals.  The caller
(run.py) pins BLAS to one thread and puts the checkout's `src/` first on
PYTHONPATH.  Nothing here imports numpy or epicross at module level,
because set-up time starts just before `import epicross`; `spans` imports
neither.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from spans import Tracer, installed, layer_totals
from pathlib import Path

BETA, GAMMA, EPS, DT = 1.0, 0.5, 0.01, 0.1
TAU = 1.0
# dataset i of seed s is simulated with seed 100*s + i and optimized with
# that plus the offset, the convention of driver.run_experiment
OPTIMIZER_SEED_OFFSET = 1_000_000
LOGLIK_TOL = 1e-9

# chain: run_inference on a chain-network trajectory of t_max / DT steps
# brute: brute_force_mle on such a trajectory
# tt: cross_optimize on TensorTrain.eval of a random positive rank-`rank` TT
WORKLOADS = {
    # the flagship protocol (N=9, 2000 steps, tau 1, rank cap 5, 4 sweeps)
    # capped at n_max solves: the full 60 s run does not fit a benchmark run,
    # and the capped run follows the same pivot path up to the cap
    "chain9_flagship": dict(kind="chain", n_nodes=9, t_max=200.0, n_datasets=2,
                            r_max=5, n_max=60, max_sweeps=4),
    "chain6_small": dict(kind="chain", n_nodes=6, t_max=200.0, n_datasets=6,
                         r_max=5, n_max=100_000, max_sweeps=4),
    "brute5_oracle": dict(kind="brute", n_nodes=5, t_max=100.0, n_datasets=4),
    "tt_cross_d66": dict(kind="tt", d=66, rank=12, n_datasets=3,
                         r_max=10, n_max=100_000, max_sweeps=10),
}


def dataset_seed(seed: int, i: int) -> int:
    return 100 * seed + i


def input_path(directory: Path, spec: dict, i: int) -> Path:
    name = f"tt{i}.txt" if spec["kind"] == "tt" else f"ds{i}.csv"
    return Path(directory) / name


def generate(name: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs for `seed`; return library versions."""
    import numpy as np
    import scipy
    from epicross import epidemic, cross

    spec = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(spec["n_datasets"]):
        s = dataset_seed(seed, i)
        if spec["kind"] == "tt":
            d, r = spec["d"], spec["rank"]
            rng = np.random.default_rng(s)
            cores = [rng.uniform(0.0, 1.0, (1 if k == 0 else r, 2, 1 if k == d - 1 else r))
                     for k in range(d)]
            cross.save_tt_cores(cross.TensorTrain(cores), input_path(directory, spec, i))
        else:
            n = spec["n_nodes"]
            params = epidemic.EpidemicParams(beta=BETA, gamma=GAMMA, eps=EPS)
            x0 = epidemic.NetworkState((1,) + (0,) * (n - 1))
            traj = epidemic.ssa_simulate(epidemic.chain_network(n), params, DT,
                                         spec["t_max"], x0, seed=s)
            epidemic.write_trajectory(traj, input_path(directory, spec, i))

    def blas(config):
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts"))}


@dataclass
class Dataset:
    """One input: `op` is the timed operation, `check` turns its result into
    (n_eval, memo hits or None, link error or None, result key, problems)."""

    op: Callable[[], object]
    check: Callable[[object], tuple]


def setup(name: str, seed: int, directory: Path) -> tuple[list[Dataset], float]:
    """Import epicross, read the inputs and build configs; return the
    datasets and the seconds this took."""
    t0 = time.perf_counter()
    import epicross  # noqa: F401  (the import is part of set-up time)
    from epicross import cross, driver, epidemic, likelihood

    spec = WORKLOADS[name]
    paths = [input_path(directory, spec, i) for i in range(spec["n_datasets"])]
    if spec["kind"] == "tt":
        tts = [cross.load_tt_cores(p) for p in paths]
        configs = [cross.CrossConfig(r_max=spec["r_max"], n_max=spec["n_max"],
                                     seed=OPTIMIZER_SEED_OFFSET + dataset_seed(seed, i),
                                     max_sweeps=spec["max_sweeps"])
                   for i in range(len(tts))]
        setup_s = time.perf_counter() - t0
        return [_tt_dataset(cross, tt, cfg) for tt, cfg in zip(tts, configs)], setup_s
    data = [epidemic.read_trajectory(p) for p in paths]
    params = epidemic.EpidemicParams(beta=BETA, gamma=GAMMA, eps=EPS)
    truth = epidemic.chain_network(spec["n_nodes"])
    if spec["kind"] == "brute":
        setup_s = time.perf_counter() - t0
        return [_brute_dataset(driver, likelihood, traj, params, truth)
                for traj in data], setup_s
    configs = [cross.CrossConfig(r_max=spec["r_max"], n_max=spec["n_max"],
                                 seed=OPTIMIZER_SEED_OFFSET + dataset_seed(seed, i),
                                 max_sweeps=spec["max_sweeps"])
               for i in range(len(data))]
    setup_s = time.perf_counter() - t0
    return [_chain_dataset(driver, likelihood, traj, params, cfg, truth)
            for traj, cfg in zip(data, configs)], setup_s


# Operations look functions up on their module at call time, so the traced
# run's wrappers are the ones called.

def _chain_dataset(driver, likelihood, data, params, config, truth) -> Dataset:
    def op():
        return driver.run_inference(data, params, TAU, config, truth=truth)

    def check(rr):
        problems = []
        if rr.termination == "overflow":
            problems.append("run ended in overflow")
        fresh = likelihood.log_likelihood(rr.g_max, data, params)
        if not abs(rr.loglik - fresh) <= LOGLIK_TOL:
            problems.append(f"loglik {rr.loglik!r} != rescore {fresh!r}")
        return rr.n_eval, rr.cache_hits, rr.link_error, rr.g_max.bitstring, problems

    return Dataset(op, check)


def _brute_dataset(driver, likelihood, data, params, truth) -> Dataset:
    d = truth.n_pairs
    ll_truth = []  # computed on first check, outside the timed operation

    def op():
        return driver.brute_force_mle(data, params)

    def check(result):
        g, ll = result
        if not ll_truth:
            ll_truth.append(likelihood.log_likelihood(truth, data, params))
        problems = []
        if not ll >= ll_truth[0]:
            problems.append(f"optimum {ll!r} below the true network's {ll_truth[0]!r}")
        fresh = likelihood.log_likelihood(g, data, params)
        if not abs(ll - fresh) <= LOGLIK_TOL:
            problems.append(f"optimum {ll!r} != rescore {fresh!r}")
        return 2 ** d, None, None, g.bitstring, problems

    return Dataset(op, check)


def _tt_dataset(cross, tt, config) -> Dataset:
    g0 = (0,) * tt.d

    def op():
        return cross.cross_optimize(tt.eval, tt.d, g0, config)

    def check(res):
        problems = []
        exact = tt.eval(res.g_max)
        if res.value != exact:
            problems.append(f"value {res.value!r} != tt.eval(g_max) {exact!r}")
        key = "".join(str(int(b)) for b in res.g_max)
        return res.n_evaluations, None, None, key, problems

    return Dataset(op, check)


def run_op(i: int, ds: Dataset, tracer, first: dict) -> dict:
    """Time one operation (under the tracer's wrappers if given) and check it.

    An operation that raises or fails a check is recorded as failed; so is
    one whose n_eval or result differs from the first repeat of its input.
    """
    rec = {"dataset": i, "traced": tracer is not None, "wall_s": None,
           "n_eval": None, "hits": None, "link_error": None, "problems": []}
    try:
        with installed(tracer) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            out = ds.op()
            wall = time.perf_counter() - t0
        n_eval, hits, link_error, key, problems = ds.check(out)
    except Exception as exc:  # one failed operation must not end the run
        traceback.print_exc(file=sys.stderr)
        rec["problems"].append(f"{type(exc).__name__}: {exc}")
        return rec
    seen = first.setdefault(i, (n_eval, key))
    if seen != (n_eval, key):
        problems.append(f"repeat gave n_eval={n_eval} g_max={key}, first gave "
                        f"n_eval={seen[0]} g_max={seen[1]}")
    rec.update(wall_s=wall, n_eval=n_eval, hits=hits, link_error=link_error,
               problems=problems)
    return rec


def measure(datasets: list[Dataset], seconds: float, trace: bool) -> dict:
    """Closed loop, one operation at a time, in whole cycles over the
    datasets while another cycle fits in `seconds` (at least one).  When
    traced, untraced and traced cycles alternate in pairs, so both halves
    cover every input equally."""
    tracer = Tracer() if trace else None
    group = 2 if trace else 1
    records: list[dict] = []
    first: dict = {}
    start = time.perf_counter()
    cycles = 0
    while True:
        for c in range(group):
            traced = tracer if c == 1 else None
            records.extend(run_op(i, ds, traced, first) for i, ds in enumerate(datasets))
            cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles * group > seconds:
            break
    out = {"cycles": cycles, "ops": records}
    if tracer is not None:
        out["layers"] = layer_totals(tracer.spans)
        out["max_rank"] = tracer.max_rank
    return out


def traced_read_s(name: str, seed: int, directory: Path) -> float:
    """Seconds in read_trajectory for one set-up, from a traced re-read."""
    tracer = Tracer()
    with installed(tracer):
        setup(name, seed, directory)
    return layer_totals(tracer.spans).get("epidemic.read_trajectory", {}).get("self_s", 0.0)


def main(argv: list[str]) -> int:
    cmd, name, *rest = argv
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}")
    seed, directory = int(rest[0]), Path(rest[1])
    if cmd == "gen":
        print(json.dumps(generate(name, seed, directory)))
        return 0
    datasets, setup_s = setup(name, seed, directory)
    if cmd == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    seconds, trace = float(rest[2]), rest[3] == "1"
    out = {"setup_s": setup_s}
    out.update(measure(datasets, seconds, trace))
    if trace:
        out["read_trajectory_s"] = traced_read_s(name, seed, directory)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
