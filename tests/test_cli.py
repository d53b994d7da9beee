import json
import re
from pathlib import Path

import numpy as np
import pytest

from epicross.cli import main
from epicross.cross import CrossConfig, Memo, load_tt_cores
from epicross.epidemic import (
    AdjacencyVector,
    EpidemicParams,
    NetworkState,
    chain_network,
    read_trajectory,
    ssa_simulate,
    write_network,
    write_trajectory,
)
from epicross.likelihood import log_likelihood
from epicross.driver import brute_force_mle, run_inference

PARAMS = ["--beta", "1.0", "--gamma", "0.5", "--eps", "0.01"]
EP = EpidemicParams(beta=1.0, gamma=0.5, eps=0.01)


@pytest.fixture
def chain3(tmp_path):
    path = tmp_path / "chain3.txt"
    write_network(chain_network(3), path)
    return path


@pytest.fixture
def data4(tmp_path):
    x0 = NetworkState((1, 0, 0, 0))
    traj = ssa_simulate(chain_network(4), EP, 0.1, 30.0, x0, seed=2)
    path = tmp_path / "ds.csv"
    write_trajectory(traj, path)
    return path, traj


def test_simulate_matches_library(tmp_path, chain3, capsys):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--network", str(chain3), *PARAMS,
               "--dt", "0.5", "--tmax", "10.0", "--seed", "4",
               "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    got = read_trajectory(out)
    want = ssa_simulate(chain_network(3), EP, 0.5, 10.0,
                        NetworkState((1, 0, 0)), seed=4)
    np.testing.assert_array_equal(got.states, want.states)
    np.testing.assert_allclose(got.times, want.times)


def test_simulate_x0_override(tmp_path, chain3):
    out = tmp_path / "traj.csv"
    main(["simulate", "--network", str(chain3), *PARAMS,
          "--dt", "0.5", "--tmax", "2.0", "--x0", "011", "--out", str(out)])
    got = read_trajectory(out)
    assert list(got.states[0]) == [0, 1, 1]
    for bad in ("01", "120", "1a0"):
        with pytest.raises(SystemExit, match="--x0 must be a 01-string"):
            main(["simulate", "--network", str(chain3), *PARAMS,
                  "--dt", "0.5", "--tmax", "2.0", "--x0", bad, "--out", str(out)])


def test_loglik_prints_value(tmp_path, chain3, capsys):
    traj = ssa_simulate(chain_network(3), EP, 0.5, 10.0,
                        NetworkState((1, 0, 0)), seed=5)
    data = tmp_path / "d.csv"
    write_trajectory(traj, data)
    rc = main(["loglik", "--data", str(data), "--network", str(chain3), *PARAMS])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed == f"{log_likelihood(chain_network(3), traj, EP):.17g}"


def test_brute_outputs(tmp_path, capsys):
    traj = ssa_simulate(chain_network(3), EP, 0.1, 10.0,
                        NetworkState((1, 0, 0)), seed=6)
    data = tmp_path / "d.csv"
    write_trajectory(traj, data)
    out = tmp_path / "res.json"
    cache_out = tmp_path / "cache.csv"
    rc = main(["brute", "--data", str(data), *PARAMS,
               "--out", str(out), "--cache-out", str(cache_out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    g_ref, ll_ref = brute_force_mle(traj, EP)
    assert payload["g_max"] == g_ref.bitstring
    assert payload["loglik"] == ll_ref
    assert payload["termination"] == "exhaustive"
    assert payload["n_eval"] == 8
    assert "tau" not in payload  # exhaustive search has no temperature
    loaded = Memo.load(cache_out)
    assert len(loaded) == 8
    assert f"g_max={g_ref.bitstring}" in capsys.readouterr().out


def test_brute_dlimit(tmp_path, data4):
    data, _ = data4
    with pytest.raises(SystemExit, match="^brute: 6 pair bits exceed the exhaustive limit 5"):
        main(["brute", "--data", str(data), *PARAMS, "--dlimit", "5",
              "--out", str(tmp_path / "r.json")])


def test_infer_matches_library(tmp_path, data4, capsys):
    data, traj = data4
    truth = tmp_path / "truth.txt"
    write_network(chain_network(4), truth)
    out = tmp_path / "res.json"
    cache_out = tmp_path / "cache.csv"
    cores_out = tmp_path / "cores.txt"
    rc = main(["infer", "--data", str(data), *PARAMS, "--tau", "1.0",
               "--rank-max", "3", "--budget", "1000", "--sweeps", "2",
               "--seed", "7", "--truth", str(truth),
               "--cache-out", str(cache_out), "--cores-out", str(cores_out),
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    cfg = CrossConfig(r_max=3, n_max=1000, seed=7, max_sweeps=2)
    ref = run_inference(traj, EP, 1.0, cfg, truth=chain_network(4))
    assert payload["g_max"] == ref.g_max.bitstring
    assert payload["n_eval"] == ref.n_eval
    assert payload["termination"] == ref.termination
    assert payload["link_error"] == ref.link_error
    bits = tuple(int(c) for c in payload["g_max"])
    loaded = Memo.load(cache_out)
    assert loaded.lookup(bits) == payload["loglik"]
    tt = load_tt_cores(cores_out)
    assert tt.d == 6
    assert np.isfinite(tt.eval(bits))
    assert "termination=" in capsys.readouterr().out


def test_infer_init_file(tmp_path, data4):
    data, traj = data4
    g0_path = tmp_path / "g0.txt"
    write_network(AdjacencyVector.from_bitstring("100001"), g0_path)
    out = tmp_path / "res.json"
    rc = main(["infer", "--data", str(data), *PARAMS, "--budget", "300",
               "--rank-max", "2", "--sweeps", "1",
               "--init", f"file:{g0_path}", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["n_eval"] >= 1

    with pytest.raises(SystemExit):
        main(["infer", "--data", str(data), *PARAMS, "--init", "best",
              "--out", str(out)])
    wrong = tmp_path / "wrong.txt"
    write_network(chain_network(3), wrong)
    with pytest.raises(SystemExit):
        main(["infer", "--data", str(data), *PARAMS,
              "--init", f"file:{wrong}", "--out", str(out)])


def test_infer_overflow_run(tmp_path, data4, capsys):
    # at tau 1e-4 the tempered likelihood overflows; the run re-anchors
    # and ends on the exhaustive optimum
    data, traj = data4
    out = tmp_path / "res.json"
    rc = main(["infer", "--data", str(data), *PARAMS, "--tau", "1e-4",
               "--init", "zero", "--budget", "1000", "--sweeps", "4",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    g_brute, ll_brute = brute_force_mle(traj, EP)
    assert payload["g_max"] == g_brute.bitstring
    assert payload["loglik"] == ll_brute


def test_cores_out_skipped_on_singular_cross_matrix(tmp_path, capsys):
    # this run's final interpolant has an exactly singular cross matrix
    traj = ssa_simulate(chain_network(4), EP, 0.1, 50.0,
                        NetworkState((1, 0, 0, 0)), seed=9)
    data = tmp_path / "ds.csv"
    write_trajectory(traj, data)
    out, cores_out = tmp_path / "res.json", tmp_path / "cores.txt"
    rc = main(["infer", "--data", str(data), *PARAMS, "--tau", "0.01",
               "--rank-max", "3", "--budget", "1000", "--seed", "10",
               "--sweeps", "4", "--cores-out", str(cores_out), "--out", str(out)])
    assert rc == 0
    assert "skipping --cores-out" in capsys.readouterr().err
    assert not cores_out.exists()
    assert json.loads(out.read_text())["g_max"] == brute_force_mle(traj, EP)[0].bitstring


def test_readme_quick_start(tmp_path, capsys, monkeypatch):
    # the README's simulate + infer example prints the line it shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    expected = re.search(r"^# (g_max=.*)$", readme, re.MULTILINE).group(1)
    monkeypatch.chdir(tmp_path)
    write_network(chain_network(4), "chain4.txt")
    assert main(["simulate", "--network", "chain4.txt", *PARAMS,
                 "--dt", "0.1", "--tmax", "50", "--seed", "0",
                 "--out", "traj.csv"]) == 0
    capsys.readouterr()
    assert main(["infer", "--data", "traj.csv", *PARAMS,
                 "--tau", "1", "--rank-max", "4", "--sweeps", "4",
                 "--seed", "1000000", "--truth", "chain4.txt",
                 "--out", "result.json"]) == 0
    assert capsys.readouterr().out.strip() == expected


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = {"n_nodes": 3, "beta": 1.0, "gamma": 0.5, "eps": 0.05,
           "dt": 0.1, "t_max": 5.0, "taus": [1.0], "n_datasets": 1,
           "r_max": 2, "n_max": 200, "max_sweeps": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "exp"
    rc = main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "experiment.json").exists()
    assert "1 runs ->" in capsys.readouterr().out


def test_bad_arguments_exit(tmp_path):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["simulate", "--beta", "1.0"])
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    # a bad temperature or cross setting exits with one line before
    # anything is read: the data file is missing
    args = ["--data", str(tmp_path / "missing.csv"), *PARAMS, "--out", "r.json"]
    for flag, value, message in (("--tau", "0", "tau must be finite and positive"),
                                 ("--tau", "nan", "tau must be finite and positive"),
                                 ("--rank-max", "0", "r_max must be >= 1"),
                                 ("--budget", "0", "n_max must be >= 1"),
                                 ("--sweeps", "0", "max_sweeps must be >= 1")):
        with pytest.raises(SystemExit, match=f"^infer: {message}, got"):
            main(["infer", *args, flag, value])
    # so does a bad experiment config, before anything is written
    base = '{"n_nodes": 3, "beta": 1, "gamma": 0.5, "eps": 0.05, "dt": 0.1, "t_max": 5'
    cfg, out = tmp_path / "bad.json", tmp_path / "exp"
    for extra, message in ((', "colour": 1}', r"unknown config keys: \['colour'\]"),
                           (', "taus": [0]}', "tau must be finite and positive"),
                           (', "r_max": 0}', "r_max must be >= 1"), (",", "Expecting"),
                           (', "truth_bits": "1"}', "truth_bits does not match n_nodes"),
                           (', "n_datasets": 1.5}', "n_datasets must be an integer, got 1.5"),
                           (', "taus": 5}', "taus must be a list of temperatures, got 5"),
                           (', "beta": -1}', "beta must be finite and nonnegative"),
                           (', "dt": 0}', "need 0 < dt <= t_max < inf"),
                           (', "init": "foo"}', "init must be 'score' or 'zero', got 'foo'"),
                           (', "truth_bits": 101}', "truth_bits must be a 01-string, got 101")):
        cfg.write_text(base + extra)
        with pytest.raises(SystemExit, match=f"^experiment: {message}"):
            main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()
    # and so does a bad value met while a command runs
    net3, net4, data3 = tmp_path / "n3.txt", tmp_path / "n4.txt", tmp_path / "d3.csv"
    write_network(chain_network(3), net3)
    write_network(chain_network(4), net4)
    write_trajectory(ssa_simulate(chain_network(3), EP, 0.1, 5.0, NetworkState((1, 0, 0)),
                                  seed=1), data3)
    sim = ["simulate", "--network", str(net3), "--tmax", "5", "--out", str(tmp_path / "s.csv")]
    for argv, message in (
            ([*sim, *PARAMS, "--dt", "0"], "simulate: dt must be positive, got 0.0"),
            ([*sim, *PARAMS, "--dt", "0.1", "--beta", "-1"],
             "simulate: beta must be finite and nonnegative, got -1.0"),
            (["loglik", "--data", str(data3), "--network", str(net4), *PARAMS],
             "loglik: network has 4 nodes, data has 3"),
            (["brute", "--data", str(data3), *PARAMS, "--dlimit", "2",
              "--out", str(tmp_path / "b.json")],
             "brute: 3 pair bits exceed the exhaustive limit 2")):
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}"):
            main(argv)
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "b.json").exists()


def test_missing_file_exits_with_one_line(tmp_path, chain3):
    # a file that cannot be read exits with `<command>: <message>`, not a
    # traceback, and writes nothing
    missing = tmp_path / "missing"
    out = tmp_path / "out"
    for argv in (["loglik", "--data", f"{missing}.csv", "--network", str(chain3), *PARAMS],
                 ["experiment", "--config", f"{missing}.json", "--out", str(out)]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = str(info.value.code)
        assert message.startswith(f"{argv[0]}: [Errno 2] No such file or directory")
        assert str(missing) in message and "\n" not in message
    assert not out.exists()
