"""Fingerprint the optimizer's results on a fixed corpus, to show that a
change leaves them byte-identical.

    python3 tools/fingerprint.py OUT

Writes one line per input to OUT: its name, then n_eval, cache hits, g_max,
termination, the exact (hex) log-likelihood or target value, the bond ranks,
a digest of the final TT cores and the per-sweep history without its CPU
times.  The inputs are the benchmark's chain and tensor-train inputs of seeds
1-3 (`perfbench/workload.py` writes them to a temporary directory), the
`brute5_oracle` inputs of seeds 1-3 (one line each: the exhaustive argmax and
the hex log-likelihood of every one of the 1024 networks), the 20 runs of
the A3 and A5 acceptance protocols (9-node chain, datasets 0-9 at tau 1 and
0-4 at tau 10 and 100) and a fixed set of seeded random `cross_optimize` runs
on small tables, tempered and not, many of which re-anchor.  It takes about
a minute on 2 vCPUs.  The package is imported from this
checkout's `src/`, so to compare a change with its parent, run the copy of
this file in each checkout and diff the two outputs:

    mkdir -p /tmp/parent/tools && git archive PARENT | tar -x -C /tmp/parent
    cp tools/fingerprint.py /tmp/parent/tools/
    python3 /tmp/parent/tools/fingerprint.py before.txt
    python3 tools/fingerprint.py after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workload  # noqa: E402
from epicross import cross, driver, epidemic  # noqa: E402

SEEDS = (1, 2, 3)
WORKLOADS = ("chain9_flagship", "chain6_small", "tt_cross_d66")
BRUTE = "brute5_oracle"
N_RANDOM = 1500


def hexf(x) -> str | None:
    return None if x is None else float(x).hex()


def tensor_digest(tensor) -> str | None:
    if tensor is None:
        return None
    h = hashlib.sha1()
    for core in tensor.cores:
        h.update(repr(core.shape).encode())
        h.update(np.ascontiguousarray(core).tobytes())
    return h.hexdigest()[:16]


def bits(g) -> str:
    return "".join(str(int(b)) for b in g)


def line(name: str, fields: dict) -> str:
    return name + " " + json.dumps(fields, separators=(",", ":"))


def run_fields(rr) -> dict:
    """Fields of a driver.RunResult."""
    return {"n_eval": rr.n_eval, "cache_hits": rr.cache_hits,
            "g_max": rr.g_max.bitstring, "termination": rr.termination,
            "loglik": hexf(rr.loglik),
            "ranks": rr.tensor.ranks() if rr.tensor is not None else None,
            "tensor": tensor_digest(rr.tensor),
            "history": [[h["sweep"], h["n_eval"], hexf(h["max_error"]), h["g_max"],
                         hexf(h["loglik"]), h["link_error"]] for h in rr.history]}


def cross_fields(res, hits=None) -> dict:
    """Fields of a cross.CrossResult."""
    return {"n_eval": res.n_evaluations, "cache_hits": hits,
            "g_max": bits(res.g_max), "termination": res.termination,
            "value": hexf(res.value), "ranks": res.ranks,
            "tensor": tensor_digest(res.tensor),
            "history": [[r.sweep, r.n_evaluations, hexf(r.max_error), bits(r.g_max),
                         hexf(r.value)] for r in res.history]}


def benchmark_lines():
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name in WORKLOADS:
                directory = Path(tmp) / f"{name}-{seed}"
                workload.generate(name, seed, directory)
                datasets, _ = workload.setup(name, seed, directory)
                for i, ds in enumerate(datasets):
                    out = ds.op()
                    fields = (cross_fields(out) if isinstance(out, cross.CrossResult)
                              else run_fields(out))
                    yield line(f"{name}/seed{seed}/{i}", fields)


def brute_lines():
    """Every network's log-likelihood on the brute-force inputs."""
    spec = workload.WORKLOADS[BRUTE]
    params = epidemic.EpidemicParams(workload.BETA, workload.GAMMA, workload.EPS)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            directory = Path(tmp) / f"{BRUTE}-{seed}"
            workload.generate(BRUTE, seed, directory)
            for i in range(spec["n_datasets"]):
                data = epidemic.read_trajectory(workload.input_path(directory, spec, i))
                memo = driver.likelihood_memo(data, params)
                g, ll = driver.brute_force_mle(data, params, cache=memo)
                d = g.n_pairs
                table = [hexf(memo.lookup(tuple((code >> b) & 1 for b in range(d))))
                         for code in range(1 << d)]
                yield line(f"{BRUTE}/seed{seed}/{i}",
                           {"g_max": g.bitstring, "loglik": hexf(ll), "table": table})


def acceptance_lines():
    """The nine-node runs of the A3 (tau 1, datasets 0-9) and A5 (tau 10
    and 100, datasets 0-4) protocols, as tests/test_acceptance.py runs them."""
    params = epidemic.EpidemicParams(1.0, 0.5, 0.01)
    truth = epidemic.chain_network(9)
    x0 = epidemic.NetworkState((1,) + (0,) * 8)
    for tau, datasets in ((1.0, range(10)), (10.0, range(5)), (100.0, range(5))):
        for i in datasets:
            data = epidemic.ssa_simulate(truth, params, 0.1, 200.0, x0, seed=i)
            config = cross.CrossConfig(r_max=5, n_max=100_000, max_sweeps=4,
                                       seed=driver.OPTIMIZER_SEED_OFFSET + i)
            rr = driver.run_inference(data, params, tau, config, truth=truth)
            yield line(f"acceptance/tau{tau:g}/{i}", run_fields(rr))


def random_logs(rng, d: int) -> np.ndarray:
    """Log-values on {0,1}^d, indexed by the bits, of one of four shapes."""
    kind = int(rng.integers(4))
    if kind == 0:  # featureless, spread over 4.6 nats
        return rng.uniform(math.log(0.01), 0.0, size=(2,) * d)
    if kind == 1:  # a positive tensor train of rank 2-4, materialized
        r = int(rng.integers(2, 5))
        ranks = [1] + [r] * (d - 1) + [1]
        full = np.ones((1, 1))
        for k in range(d):
            core = rng.uniform(0.1, 1.0, size=(ranks[k], 2, ranks[k + 1]))
            full = (full @ core.reshape(ranks[k], -1)).reshape(-1, ranks[k + 1])
        return np.log(full[:, 0]).reshape((2,) * d)
    if kind == 2:  # separable up to small noise
        w = rng.uniform(-1.0, 1.0, d)
        return (np.tensordot(w, np.indices((2,) * d), axes=1)
                + rng.uniform(0.0, 0.05, size=(2,) * d))
    return rng.uniform(-800.0, 800.0, size=(2,) * d)  # overflows at any tau here


def random_lines():
    for i in range(N_RANDOM):
        rng = np.random.default_rng(i)
        d = int(rng.integers(2, 11))
        logs = random_logs(rng, d)
        g0 = tuple(int(b) for b in rng.integers(0, 2, d))
        config = cross.CrossConfig(r_max=int(rng.integers(1, 7)),
                                   n_max=int(rng.integers(5, 400)), seed=i,
                                   max_sweeps=(None, 1, 2, 3, 6)[int(rng.integers(5))])
        tau = (None, 1.0, 1e-3, 10.0)[i % 4]
        if tau is None:  # plain values within 20 nats, all positive
            scale = max(1.0, float(np.ptp(logs)) / 20.0)
            values = np.exp((logs - logs.max()) / scale)
            objective = cross.Memo(lambda g, values=values: float(values[g]))
        else:
            objective = cross.Memo(lambda g, logs=logs: float(logs[g]))
        # every fifth tempered run shares its memo with a second run
        taus = (tau,) if tau is None or i % 5 else (tau, 1.0 if tau != 1.0 else 1e-3)
        for j, t in enumerate(taus):
            hits0 = objective.n_hits
            res = cross.cross_optimize(objective, d, g0, config, t)
            yield line(f"random/{i}/{j}", cross_fields(res, objective.n_hits - hits0))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__.strip().split("\n\n")[1])
    with open(argv[0], "w") as fh:
        for lines in (benchmark_lines(), brute_lines(), acceptance_lines(), random_lines()):
            for text in lines:
                fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
