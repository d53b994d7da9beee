"""Command-line interface: simulate, loglik, brute, infer, experiment."""

from __future__ import annotations

import argparse
import json
import sys

from .epidemic import (
    EpidemicParams,
    NetworkState,
    read_network,
    read_trajectory,
    ssa_simulate,
    write_trajectory,
)
from .likelihood import log_likelihood
from .cross import CrossConfig, TemperConfig, save_tt_cores
from .driver import (
    CapacityError,
    ExperimentConfig,
    brute_force_mle,
    likelihood_memo,
    run_experiment,
    run_inference,
)


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, required=True,
                        help="infection rate per infected neighbour")
    parser.add_argument("--gamma", type=float, required=True, help="recovery rate")
    parser.add_argument("--eps", type=float, required=True,
                        help="spontaneous infection rate")


def _params(args) -> EpidemicParams:
    return EpidemicParams(beta=args.beta, gamma=args.gamma, eps=args.eps)


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    g = read_network(args.network)
    if args.x0 is not None:
        if len(args.x0) != g.n_nodes or set(args.x0) - {"0", "1"}:
            raise SystemExit(f"--x0 must be a 01-string of length {g.n_nodes}")
        x0 = NetworkState(tuple(int(c) for c in args.x0))
    else:
        x0 = NetworkState((1,) + (0,) * (g.n_nodes - 1))
    traj = ssa_simulate(g, _params(args), args.dt, args.tmax, x0, seed=args.seed)
    write_trajectory(traj, args.out)
    print(f"wrote {args.out}: {traj.n_steps} steps of dt={args.dt:g} "
          f"on {g.n_nodes} nodes")
    return 0


def _cmd_loglik(args) -> int:
    data = read_trajectory(args.data)
    g = read_network(args.network)
    ll = log_likelihood(g, data, _params(args))
    print(f"{ll:.17g}")
    return 0


def _cmd_brute(args) -> int:
    data = read_trajectory(args.data)
    params = _params(args)
    cache = likelihood_memo(data, params)
    g_best, ll = brute_force_mle(data, params, d_limit=args.dlimit, cache=cache)
    payload = {
        "g_max": g_best.bitstring,
        "loglik": ll,
        "n_eval": cache.n_evaluations,
        "cache_hits": cache.n_hits,
        "termination": "exhaustive",
        "history": [],
    }
    _write_json(payload, args.out)
    if args.cache_out:
        cache.save(args.cache_out)
    print(f"g_max={g_best.bitstring} loglik={ll:.10g} n_eval={cache.n_evaluations}")
    return 0


def _resolve_cli_init(choice: str, n_nodes: int):
    if choice in ("score", "zero"):
        return choice
    if choice.startswith("file:"):
        g = read_network(choice[len("file:"):])
        if g.n_nodes != n_nodes:
            raise SystemExit(f"--init network has {g.n_nodes} nodes, data has {n_nodes}")
        return g
    raise SystemExit(f"--init must be score, zero or file:PATH, got {choice!r}")


def _cmd_infer(args) -> int:
    TemperConfig(args.tau)  # bad settings fail before the data is read
    config = CrossConfig(r_max=args.rank_max, n_max=args.budget, seed=args.seed,
                         max_sweeps=args.sweeps)
    data = read_trajectory(args.data)
    truth = read_network(args.truth) if args.truth else None
    init = _resolve_cli_init(args.init, data.n_nodes)
    params = _params(args)
    cache = likelihood_memo(data, params)
    result = run_inference(data, params, args.tau, config, truth=truth,
                           init=init, cache=cache)
    result.save(args.out)
    if args.cache_out:
        cache.save(args.cache_out)
    if args.cores_out:
        if result.tensor is None:
            print("the run has no final tensor train (a singular cross matrix, or "
                  "no budget left to re-anchor); skipping --cores-out", file=sys.stderr)
        else:
            save_tt_cores(result.tensor, args.cores_out)
    print(f"g_max={result.g_max.bitstring} loglik={result.loglik:.10g} "
          f"termination={result.termination} n_eval={result.n_eval} "
          f"cache_hits={result.cache_hits}")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config)  # checked before anything is written
    out = run_experiment(config, args.out)
    n_runs = sum(len(v) for v in out["runs"].values())
    print(f"{n_runs} runs -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epicross",
        description="Contact-network inference for epsilon-SIS epidemics "
                    "by greedy tensor-train cross maximization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Gillespie-simulate a trajectory on a grid")
    p.add_argument("--network", required=True, help="network file (edge list or bits)")
    _add_params(p)
    p.add_argument("--dt", type=float, required=True, help="observation interval")
    p.add_argument("--tmax", type=float, required=True, help="time horizon")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", default=None,
                   help="initial state as 01-string, default node 1 infected")
    p.add_argument("--out", required=True, help="trajectory CSV to write")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("loglik", help="log-likelihood of a network for a trajectory")
    p.add_argument("--data", required=True, help="trajectory CSV")
    p.add_argument("--network", required=True)
    _add_params(p)
    p.set_defaults(fn=_cmd_loglik)

    p = sub.add_parser("brute", help="exhaustive maximum-likelihood network")
    p.add_argument("--data", required=True)
    _add_params(p)
    p.add_argument("--dlimit", type=int, default=20,
                   help="refuse more than this many pair bits")
    p.add_argument("--cache-out", default=None, help="dump the likelihood table")
    p.add_argument("--out", required=True, help="result JSON to write")
    p.set_defaults(fn=_cmd_brute)

    p = sub.add_parser("infer", help="cross-optimized maximum-likelihood network")
    p.add_argument("--data", required=True)
    _add_params(p)
    p.add_argument("--tau", type=float, default=1.0, help="temperature")
    p.add_argument("--rank-max", type=int, default=5, help="bond rank cap (r_max)")
    p.add_argument("--budget", type=int, default=100_000,
                   help="likelihood evaluation budget (n_max)")
    p.add_argument("--sweeps", type=int, default=None, help="sweep cap (max_sweeps)")
    p.add_argument("--init", default="score", help="score, zero or file:PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", default=None,
                   help="network file for link-error reporting")
    p.add_argument("--cache-out", default=None)
    p.add_argument("--cores-out", default=None,
                   help="dump the final interpolant cores")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("experiment", help="batch of simulate+infer runs")
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, CapacityError, OSError) as exc:  # malformed JSON, unreadable files
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
