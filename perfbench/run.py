"""epicross benchmark: one workload per call, closed loop, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of an epicross checkout.  The seed generates the inputs
(trajectory CSVs via write_trajectory, or TT cores) before any timed
process starts.  Set-up is then timed in several fresh processes, and one
more process runs the workload's operations one at a time for about
`--seconds` seconds with BLAS pinned to one thread.  With `--trace 0` the
last stdout line carries the end-to-end metrics; with `--trace 1` it
carries the per-layer metrics of a run whose untraced and traced cycles
alternate.  Every metric is also printed above it by name with its unit,
and the full results with an environment block go to
perfbench/_work/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

from spans import CROSS_SELF  # noqa: E402
from workload import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
# set-up-only processes before the run and again after it; set-up is short
# enough to land in one slow or fast spell of a shared machine, so the
# samples are spread over the run, and with the run's own they make seven
SETUP_PROBES = 3

# gated in BENCHMARK.json: (name, unit)
END_TO_END = (("setup_s", "s"), ("run_wall_s", "s"), ("solves_per_s", "1/s"),
              ("n_eval", "count"), ("peak_rss_mb", "MB"))
# reported and checked, not gated: zero on some or all workloads
REPORTED = (("cache_hit_frac", "ratio"), ("link_error", "edges"), ("failed_frac", "ratio"))

# per-layer metric -> (span name, field); fields are per traced operation
PER_LAYER_SPANS = {
    "epidemic.expm.calls": ("epidemic.expm", "calls"),
    "epidemic.expm.self_s": ("epidemic.expm", "self_s"),
    "epidemic.columns.calls": ("epidemic.columns", "calls"),
    "epidemic.columns.self_s": ("epidemic.columns", "self_s"),
    "epidemic.generator.calls": ("epidemic.generator", "calls"),
    "epidemic.generator.self_s": ("epidemic.generator", "self_s"),
    "likelihood.loglik.calls": ("likelihood.loglik", "calls"),
    "likelihood.loglik.self_s": ("likelihood.loglik", "self_s"),
    "likelihood.memo.hits": ("likelihood.memo", "hits"),
    "cross.rook.calls": ("cross.rook", "calls"),
    "cross.rook.self_s": ("cross.rook", "self_s"),
    "cross.bond_view.self_s": ("cross.bond_view", "self_s"),
    "cross.admit.calls": ("cross.admit", "calls"),
    "cross.admit.self_s": ("cross.admit", "self_s"),
    "cross.harvest.self_s": ("cross.harvest", "self_s"),
    "cross.sweeps": ("cross.sweep", "calls"),
    "cross.tt_eval.calls": ("cross.tt_eval", "calls"),
    "cross.tt_eval.self_s": ("cross.tt_eval", "self_s"),
    "driver.score_init_s": ("driver.score_init", "self_s"),
    "driver.self_s": ("driver.run_inference", "self_s"),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_yield")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def call(args: list[str], timeout: float) -> dict:
    """Run workload.py with `args` and parse its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload.py {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(run: dict, setup_s: list[float], kind: str) -> dict:
    """End-to-end metrics from the untraced operations of a run."""
    ops = run["ops"]
    plain = [r for r in ops if not r["traced"] and not r["problems"]]
    if not plain:
        raise RuntimeError("no untraced operation succeeded")
    per_input = {}
    for r in plain:
        per_input.setdefault(r["dataset"], r)
    firsts = list(per_input.values())
    out = {
        "setup_s": statistics.median(setup_s),
        "run_wall_s": statistics.median(r["wall_s"] for r in plain),
        "solves_per_s": sum(r["n_eval"] for r in plain) / sum(r["wall_s"] for r in plain),
        "n_eval": statistics.fmean(r["n_eval"] for r in firsts),
        "peak_rss_mb": run["peak_rss_mb"],
        "cache_hit_frac": None,
        "link_error": None,
        "failed_frac": sum(1 for r in ops if r["problems"]) / len(ops),
    }
    if kind == "chain":
        hits = sum(r["hits"] for r in firsts)
        out["cache_hit_frac"] = hits / (hits + sum(r["n_eval"] for r in firsts))
        out["link_error"] = statistics.fmean(r["link_error"] for r in firsts)
    return out


def per_layer(run: dict) -> dict:
    """Per-layer metrics, per traced operation, from the span totals."""
    layers = run["layers"]
    traced = [r for r in run["ops"] if r["traced"]]
    n = len(traced)

    def total(span, field):
        return layers.get(span, {}).get(field, 0)

    out = {m: total(span, field) / n for m, (span, field) in PER_LAYER_SPANS.items()}
    out["likelihood.memo.misses"] = total("likelihood.loglik", "calls") / n
    # outside log_likelihood: lookups through the objective run_inference
    # hands to cross_optimize, and brute_force_mle's key building and writes
    out["likelihood.memo.self_s"] = (total("likelihood.memo", "self_s")
                                     + total("driver.brute_force", "self_s")) / n
    out["cross.self_s"] = sum(total(s, "self_s") for s in CROSS_SELF) / n
    rooks = total("cross.rook", "calls")
    out["cross.pivot_yield"] = total("cross.admit", "calls") / rooks if rooks else 0.0
    out["cross.max_rank"] = run["max_rank"]
    out["epidemic.read_trajectory_s"] = run["read_trajectory_s"]
    plain = [r["wall_s"] for r in run["ops"] if not r["traced"] and not r["problems"]]
    walls = [r["wall_s"] for r in traced if not r["problems"]]
    if plain and walls:
        base = statistics.median(plain)
        out["trace.overhead_frac"] = (statistics.median(walls) - base) / base
    else:
        out["trace.overhead_frac"] = 0.0
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "epicross" / "__init__.py").is_file():
        print(f"error: no epicross sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    name, seed, trace = args.workload, args.seed, args.trace
    inputs = WORK / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    try:
        env = call(["gen", name, str(seed), str(inputs)], timeout=120)
        probe = ["setup", name, str(seed), str(inputs)]
        setup_s = [call(probe, timeout=30)["setup_s"] for _ in range(SETUP_PROBES)]
        run = call(["run", name, str(seed), str(inputs), str(args.seconds), str(trace)],
                   timeout=args.seconds + 90)
        setup_s += [call(probe, timeout=30)["setup_s"] for _ in range(SETUP_PROBES)]
        setup_s.append(run["setup_s"])
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    env.update(cpu=cpu_model(), nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
               seed=seed, commit=git_commit())
    kind = WORKLOADS[name]["kind"]
    e2e = end_to_end(run, setup_s, kind)
    layers = per_layer(run) if trace else None
    attempted = len(run["ops"])
    failed = sum(1 for r in run["ops"] if r["problems"])

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"BENCH_{name}_seed{seed}_trace{trace}.json", "w") as fh:
        json.dump({"workload": name, "environment": env, "seconds": args.seconds,
                   "cycles": run["cycles"], "setup_s_samples": setup_s,
                   "end_to_end": e2e, "per_layer": layers, "ops": run["ops"]},
                  fh, indent=2)
        fh.write("\n")

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {name}: {attempted} operations in {run['cycles']} cycles, "
          f"{failed} failed, trace {trace}")
    for r in run["ops"]:
        for problem in r["problems"]:
            print(f"  FAILED dataset {r['dataset']}: {problem}")
    units = dict(END_TO_END + REPORTED)
    for metric, unit in units.items():
        value = e2e[metric]
        shown = "n/a (chain workloads only)" if value is None else f"{value:.6g} {unit}"
        print(f"  {metric:<28} {shown}")
    if layers is not None:
        for metric, value in layers.items():
            print(f"  {metric:<28} {value:.6g} {unit_of(metric)}")
        metrics = {m: {"value": v, "unit": unit_of(m)} for m, v in layers.items()}
    else:
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
