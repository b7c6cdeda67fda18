"""End-to-end tests of the command line driver."""
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bslab
from bslab import cli
from bslab.bounds import FORMULAS
from bslab.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_manifest(out):
    with open(out / "manifest.json") as fh:
        return json.load(fh)


def test_q0_stdout_values(capsys, tmp_path):
    assert main(["q0", "--d", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0.41163600931" in out
    assert main(["q0", "--d", "2", "--closed-form", "--out", str(tmp_path)]) == 0
    assert "0.41163600931" in capsys.readouterr().out
    assert main(["q0", "--d", "4", "--out", str(tmp_path)]) == 0
    assert "0.2145549758" in capsys.readouterr().out
    assert main(["q0", "--d", "2", "--simple", "--out", str(tmp_path)]) == 0
    assert "0.34464578" in capsys.readouterr().out


def test_theta_stdout_value(capsys, tmp_path):
    rc = main(["theta", "--L", "14", "--p", "0.0015", "--d", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert "0.7338074612091289" in capsys.readouterr().out


def test_exact_csv_and_manifest(tmp_path):
    rc = main(
        ["exact", "--graph", "cycle:6", "--p", "0.3", "--seed", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "stationary.csv")
    assert rows[0] == ["state_bits", "probability"]
    mass = sum(float(r[1]) for r in rows[1:])
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert len(rows) == 1 + 64
    marg = read_csv(tmp_path / "marginals.csv")
    v0 = [r for r in marg[1:] if r[0] == "vertex_one" and r[1] == "0"]
    assert len(v0) == 1
    assert float(v0[0][2]) == pytest.approx(0.47152274085201795, abs=1e-8)
    man = read_manifest(tmp_path)
    assert man["command"] == "exact"
    assert set(man["outputs"]) == {"stationary.csv", "marginals.csv"}
    assert set(man["versions"]) == {"artifact", "python", "numpy", "scipy", "mpmath"}
    assert man["wall_time_s"] >= 0.0
    assert man["arguments"]["p"] == 0.3


def test_mc_schema_and_thread_invariance(tmp_path):
    argv = [
        "mc", "--graph", "cycle:8", "--p", "0.3", "--seed", "5",
        "--budget", "4000", "--replicas", "2", "--batches", "8",
    ]
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert main(argv + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(argv + ["--threads", "4", "--out", str(out4)]) == 0
    b1 = (out1 / "mc_estimates.csv").read_bytes()
    b4 = (out4 / "mc_estimates.csv").read_bytes()
    assert b1 == b4
    rows = read_csv(out1 / "mc_estimates.csv")
    assert rows[0] == [
        "functional", "param_p", "graph", "estimate", "stderr",
        "ci_lo", "ci_hi", "batches", "seed",
    ]
    names = [r[0] for r in rows[1:]]
    assert "marginal_one(0)" in names
    assert "expected_zeros" in names
    for r in rows[1:]:
        assert r[1] == "0.3"
        assert r[2] == "cycle:8"
        assert 0 <= float(r[4])


def test_seed_env_fallback_and_missing_seed(tmp_path, monkeypatch, capsys):
    argv = [
        "mc", "--graph", "cycle:4", "--p", "0.5",
        "--budget", "800", "--replicas", "1", "--batches", "8",
    ]
    rc = main(argv + ["--out", str(tmp_path / "noseed")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    monkeypatch.setenv("BSLAB_SEED", "7")
    out_env = tmp_path / "env"
    assert main(argv + ["--out", str(out_env)]) == 0
    out_flag = tmp_path / "flag"
    monkeypatch.delenv("BSLAB_SEED")
    assert main(argv + ["--seed", "7", "--out", str(out_flag)]) == 0
    assert (out_env / "mc_estimates.csv").read_bytes() == (out_flag / "mc_estimates.csv").read_bytes()


def test_config_defaults_and_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.25, "graph": "cycle:6", "budget": 2000,
                               "replicas": 1, "batches": 8}))
    out1 = tmp_path / "fromcfg"
    rc = main(["mc", "--config", str(cfg), "--seed", "3", "--out", str(out1)])
    assert rc == 0
    man = read_manifest(out1)
    assert man["arguments"]["p"] == 0.25
    assert man["arguments"]["graph"] == "cycle:6"
    out2 = tmp_path / "override"
    rc = main(["mc", "--config", str(cfg), "--p", "0.3", "--seed", "3", "--out", str(out2)])
    assert rc == 0
    assert read_manifest(out2)["arguments"]["p"] == 0.3


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    rc = main(["q0", "--d", "2", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err


def test_exit_codes_for_known_failures(tmp_path, capsys):
    # state space over budget: plain input error
    rc = main(["exact", "--graph", "cycle:21", "--p", "0.3", "--seed", "1",
               "--out", str(tmp_path / "a")])
    assert rc == 2
    capsys.readouterr()
    # exhaustive scan over budget: dedicated exit code
    rc = main(["drift", "--graph", "cycle:17", "--q", "0.3", "--seed", "1",
               "--out", str(tmp_path / "b")])
    assert rc == 3


def test_simulate_outputs(tmp_path):
    rc = main([
        "simulate", "--graph", "cycle:6", "--p", "0.3", "--seed", "2",
        "--horizon", "5", "--snapshot-every", "1.0", "--out", str(tmp_path),
    ])
    assert rc == 0
    events = read_csv(tmp_path / "events.csv")
    assert events[0] == ["time", "vertex", "applied", "marks"]
    assert len(events) > 1
    snaps = read_csv(tmp_path / "snapshots.csv")
    assert snaps[0] == ["time", "configuration"]
    assert len(snaps) >= 5
    for r in snaps[1:]:
        assert set(r[1]) <= {"0", "1"}
        assert len(r[1]) == 6


def test_simulate_embedded(tmp_path):
    rc = main([
        "simulate", "--graph", "cycle:5", "--p", "0.4", "--seed", "2",
        "--flavor", "embedded", "--steps", "50", "--init", "ones",
        "--snapshot-every", "10", "--out", str(tmp_path),
    ])
    assert rc == 0
    snaps = read_csv(tmp_path / "snapshots.csv")
    assert snaps[0] == ["step", "configuration"]
    assert [r[0] for r in snaps[1:]] == ["10", "20", "30", "40", "50"]


def test_drift_cli(tmp_path, capsys):
    rc = main(["drift", "--graph", "cycle:6", "--q", "0.3", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bounds hold" in out
    rows = read_csv(tmp_path / "drift_scan.csv")
    assert rows[0] == ["graph", "q", "h", "config_bits", "cond_type", "m",
                       "exact_drift", "bound", "margin"]
    assert len(rows) > 1


def test_chains_cli(tmp_path):
    rc = main(["chains", "--graph", "cycle:8", "--mode", "longest", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "chains.csv")
    assert rows[0] == ["kind", "length", "vertices"]
    assert rows[1][1] == "6"
    assert rows[1][2].count("-") == 5


def test_blocks_cli_stick(tmp_path):
    rc = main([
        "blocks", "--graph", "cycle:12", "--p", "0.01", "--flavor", "stick",
        "--n-samples", "2000", "--base", "0", "--seed", "4", "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = read_csv(tmp_path / "block_stats.csv")
    assert rows[0][0] == "flavor"
    assert rows[1][0] == "stick"
    assert 0.0 <= float(rows[1][5]) <= 1.0


def test_percolate_modes(tmp_path):
    rc = main([
        "percolate", "--mode", "connect", "--N", "3", "--K", "2", "--theta", "0.9",
        "--x", "0", "--y", "0", "--n-samples", "200", "--seed", "5",
        "--out", str(tmp_path / "c"),
    ])
    assert rc == 0
    rows = read_csv(tmp_path / "c" / "percolation.csv")
    assert rows[0] == ["N", "theta", "K", "h", "functional", "estimate", "stderr",
                       "n_samples", "seed"]
    assert rows[1][4] == "prob_connect"
    rc = main([
        "percolate", "--mode", "contour", "--N", "10", "--theta", "0.95",
        "--h", "0.75", "--seed", "5", "--out", str(tmp_path / "k"),
    ])
    assert rc == 0
    names = [r[4] for r in read_csv(tmp_path / "k" / "percolation.csv")[1:]]
    assert "contour_short_sum" in names
    assert "contour_long_term" in names


def test_formulas_cli(tmp_path, capsys):
    rc = main(["formulas", "--d", "2", "--p", "0.01", "--L", "5", "--a", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "formulas.csv")
    assert rows[0] == ["formula", "inputs", "value", "flags"]
    # every formula is computable from these inputs; rows follow the table
    names = [r[0] for r in rows[1:]]
    assert names == list(FORMULAS) == [
        "stick_good_lb", "block2_nice_lb", "hat_L", "theta_4block", "tilde_L",
        "block2_asymptote", "theta_asymptote", "domination_density",
        "T1", "T2", "q0_simple", "q0",
    ]
    # with only d given, just the threshold formulas are computable
    rc = main(["formulas", "--d", "2", "--out", str(tmp_path / "dn")])
    assert rc == 0
    capsys.readouterr()
    names = {r[0] for r in read_csv(tmp_path / "dn" / "formulas.csv")[1:]}
    assert names == {"q0", "q0_simple"}


def test_preset_thread_invariance(tmp_path):
    argv = ["preset", "--name", "percolation_sweep", "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(argv + ["--threads", "2", "--out", str(out2)]) == 0
    assert (out1 / "percolation.csv").read_bytes() == (out2 / "percolation.csv").read_bytes()
    man = read_manifest(out1)
    assert man["command"] == "preset:percolation_sweep"
    assert "percolation.csv" in man["outputs"]


def test_unknown_preset_fails(tmp_path, capsys):
    rc = main(["preset", "--name", "nope", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    """The console script declared in pyproject.toml runs the CLI as its own
    process, prints the right output and passes ``main``'s return value
    through as the exit status.

    The declared target is started the way a generated console script starts
    it, with this checkout's package first on the child's path, so the check
    needs no install. When a ``bslab`` executable is on PATH, that generated
    script is run with the same assertions.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["bslab"] == "bslab.cli:main"
    launcher = "import sys; from bslab.cli import main; sys.argv[0] = 'bslab'; sys.exit(main())"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(bslab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = [[sys.executable, "-c", launcher]]
    exe = shutil.which("bslab")
    if exe is not None:
        commands.append([exe])

    def run(cmd, *args):
        return subprocess.run(
            cmd + list(args), capture_output=True, text=True, env=env, cwd=tmp_path
        )

    for cmd in commands:
        res = run(cmd, "q0", "--d", "4")
        assert res.returncode == 0, res.stderr
        assert "0.2145549758" in res.stdout
        res = run(cmd, "--version")
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"bslab {project['version']}\n"
        # main returns 2 here without raising SystemExit
        res = run(cmd, "exact", "--graph", "cycle:21", "--p", "0.3", "--seed", "1",
                  "--out", str(tmp_path / "exact"))
        assert res.returncode == 2
        assert "error:" in res.stderr


def test_import_loads_no_slow_scipy_modules():
    """`import bslab` and `bslab.cli` leave the slow-to-import modules to the
    code paths that need them, so CLI start-up stays short."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bslab.__file__)))
    slow = ["scipy.stats", "scipy.sparse.linalg", "scipy.linalg", "mpmath"]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bslab, bslab.cli; "
        f"print(bslab.cli.__file__); print([m for m in {slow!r} if m in sys.modules])"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    where, loaded = res.stdout.splitlines()
    assert where.startswith(src)
    assert loaded == "[]"


@pytest.mark.parametrize("every", ["0.5", "2.5", "-1", "nan", "inf"])
def test_simulate_embedded_rejects_fractional_snapshot_steps(tmp_path, capsys, every):
    rc = main([
        "simulate", "--graph", "cycle:5", "--p", "0.4", "--seed", "2",
        "--flavor", "embedded", "--steps", "10", "--snapshot-every", every,
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 2
    assert "--snapshot-every" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_mc_rejects_vertex_before_sampling(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("replicas ran before the vertex check")

    monkeypatch.setattr(cli, "run_batches", no_run)
    for vertex in ("8", "99", "-1"):
        rc = main(["mc", "--graph", "cycle:8", "--p", "0.3", "--seed", "1",
                   "--vertex", vertex, "--out", str(tmp_path)])
        assert rc == 2
        assert "vertex out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv,skipped", [
    (["--d", "2", "--p", "0.3"], {"tilde_L"}),
    (["--d", "2", "--q", "0.3"], {"tilde_L"}),
    (["--d", "1", "--p", "0.01"], {"q0"}),
])
def test_formulas_skip_only_formulas_outside_their_domain(tmp_path, capsys, argv, skipped):
    rc = main(["formulas", *argv, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    names = [r[0] for r in read_csv(tmp_path / "formulas.csv")[1:]]
    computable = [n for n, f in FORMULAS.items() if set(f.inputs) <= {"p", "q", "d"}]
    assert names == [n for n in computable if n not in skipped]
    for name in skipped:
        assert f"{name}: not computed" in out
    assert out.count("not computed") == len(skipped)


def test_formulas_exit_2_when_nothing_is_computable(tmp_path, capsys):
    rc = main(["formulas", "--d", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "no formula is computable" in capsys.readouterr().err
    assert not (tmp_path / "formulas.csv").exists()


@pytest.mark.parametrize("mode", ["connect", "sweep"])
def test_percolate_target_off_level_leaves_no_directory(tmp_path, capsys, mode):
    """With K = 3 and N = 5, level 15 holds only odd sites, so the default
    y = 0 is refused before --out is created."""
    out = tmp_path / "p"
    rc = main(["percolate", "--mode", mode, "--N", "5", "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert "y=0 is not a site of level 15" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["percolate", "--mode", mode, "--N", "5", "--x", "1", "--seed", "1",
               "--out", str(out)])
    assert rc == 2
    assert "x=1 is not a site of level 0" in capsys.readouterr().err
    assert not out.exists()
