"""End-to-end tests of the command line driver."""
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bslab
from bslab import cli
from bslab.blocks import (
    block4_independence_check,
    sample_block2_stats,
    sample_block4_stats,
    sample_stick_stats,
)
from bslab.bounds import FORMULAS, choose_h, hat_L, q0_highprec, theta_4block, tilde_L
from bslab.cli import main
from bslab.drift import verify_all_bounds
from bslab.dynamics import (
    ModelParams,
    classical_fitness_samples,
    random_configuration,
    replay,
    sample_graphical,
)
from bslab.exact import build_kernel, marginals, stationary
from bslab.graphs import chain_cover, closed_neighbourhood, parse_graph_spec, shortest_path
from bslab.montecarlo import (
    expected_zeros_from_batches,
    marginal_from_batches,
    proportion_tail_from_batches,
    run_batches,
    tail_fit_from_batches,
    zeros_tail_from_batches,
)
from bslab.percolation import LevelSet, contour_bounds, prob_good_level, sites_at_level
from bslab.rng import substream
from oracle_utils import (
    block_stats_rows_oracle,
    event_log_rows_oracle,
    scan_rows_oracle,
    stationary_rows_oracle,
    write_lines_oracle,
    write_rows_oracle,
)

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


@pytest.mark.parametrize("argv", [
    ["q0", "--d", "2"],
    ["q0", "--d", "3", "--dps", "20"],
    ["theta", "--L", "14", "--p", "0.0015", "--d", "2"],
], ids=["q0", "q0-dps", "theta"])
def test_print_only_commands_write_nothing(tmp_path, capsys, argv):
    assert main([*argv, "--seed", "1", "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out
    assert not (tmp_path / "run").exists()


def test_simulate_without_files_still_records_its_run(tmp_path):
    """An embedded run without snapshots writes no CSV, but its seed and
    arguments still go into the manifest."""
    assert main(["simulate", "--graph", "cycle:5", "--p", "0.4", "--seed", "2",
                 "--flavor", "embedded", "--steps", "20", "--out", str(tmp_path / "run")]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["manifest.json"]
    man = read_manifest(tmp_path / "run")
    assert man["command"] == "simulate"
    assert man["seed"] == 2
    assert man["outputs"] == []


def test_manifest_versions_load_neither_scipy_nor_mpmath(tmp_path):
    """A simulate run needs neither scipy nor mpmath, and its manifest
    reads their versions from the installed package metadata, so neither
    module is imported; the strings are the modules' own."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bslab.__file__)))
    out = tmp_path / "run"
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); from bslab.cli import main; "
        f"rc = main(['simulate', '--graph', 'cycle:5', '--p', '0.4', '--seed', '2', "
        f"'--flavor', 'embedded', '--steps', '20', '--out', {str(out)!r}]); "
        f"loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')); "
        f"import scipy, mpmath; "
        f"print(json.dumps([rc, loaded, scipy.__version__, mpmath.__version__]))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    rc, loaded, scipy_version, mpmath_version = json.loads(res.stdout.splitlines()[-1])
    assert rc == 0
    assert loaded == []
    versions = read_manifest(out)["versions"]
    assert (versions["scipy"], versions["mpmath"]) == (scipy_version, mpmath_version)
    assert versions["numpy"] == np.__version__


def test_exact_on_an_undrawable_regular_graph_exits_2(tmp_path, capsys):
    """Six-regular pairings on 12 vertices are almost never simple: the
    draw gives up, and the command reports it as a bad argument."""
    rc = main(["exact", "--graph", "regular:12:6", "--p", "0.3", "--seed", "1",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n = 12, d = 6" in err and "1000 attempts" in err
    assert not (tmp_path / "run").exists()


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


def test_import_leaves_scipy_special_unloaded():
    """The t quantiles import scipy.special where they are computed, so
    `import bslab` does not pay for it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bslab.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bslab; "
        f"print(bslab.__file__); print('scipy.special' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    where, loaded = res.stdout.splitlines()
    assert where.startswith(src)
    assert loaded == "False"


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
    (["--d", "2", "--p", "0.1", "--L", "nan", "--a", "2"],
     {"stick_good_lb", "block2_nice_lb", "theta_4block"}),
    (["--d", "2", "--p", "0.1", "--L", "inf", "--a", "2"],
     {"stick_good_lb", "block2_nice_lb", "theta_4block"}),
    (["--d", "2000", "--p", "0.5"], {"tilde_L", "q0"}),
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


def test_stationary_rows_format(tmp_path):
    rc = main(["exact", "--graph", "cycle:4", "--p", "0.4", "--flavor", "embedded",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "stationary.csv")[1:]
    assert len(rows) == 16
    assert rows[0][0] == "0000"
    total = sum(float(p) for _, p in rows)
    assert abs(total - 1.0) < 1e-9
    # vertex 0 is the first character: rows with bit 0 set sum to its marginal
    g = parse_graph_spec("cycle:4")
    mg = marginals(stationary(build_kernel(g, ModelParams(p=0.4)), flavor="embedded"), g)
    m0 = sum(float(p) for bits, p in rows if bits[0] == "1")
    assert m0 == pytest.approx(mg.vertex_one[0], abs=1e-10)


def test_block_stats_rows_format(tmp_path):
    rc = main(["blocks", "--graph", "cycle:12", "--p", "0.05", "--flavor", "stick",
               "--base", "3", "--a-size", "2", "--L", "1.0", "--n-samples", "2000",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = read_csv(tmp_path / "block_stats.csv")
    assert len(lines) == 2
    assert lines[0][0] == "flavor"
    cells = lines[1]
    assert cells[0] == "stick"
    assert float(cells[1]) == pytest.approx(0.05)
    assert int(cells[4]) == 2000
    assert 0.0 <= float(cells[5]) <= 1.0


def test_scan_rows_and_report_rows(tmp_path):
    q = 0.3
    blanks = 0
    for spec in ("cycle:5", "path:5"):
        out = tmp_path / spec.replace(":", "")
        rc = main(["drift", "--graph", spec, "--q", str(q), "--out", str(out)])
        assert rc == 0
        rep = verify_all_bounds(parse_graph_spec(spec), ModelParams.from_q(q), choose_h(q, 2))
        rows = read_csv(out / "drift_scan.csv")[1:]
        assert len(rows) == len(rep.rows)
        for row in rows:
            assert len(row) == 9
            assert row[0] == spec
            assert float(row[1]) == pytest.approx(q)
            assert row[4] in ("1", "2")
            float(row[6])
            # bound and margin are blank only together
            assert (row[7] == "") == (row[8] == "")
            if row[7]:
                assert float(row[7]) - float(row[6]) == pytest.approx(float(row[8]), abs=1e-12)
            else:
                blanks += 1
    # the irregular path leaves every bound blank
    assert blanks > 0


def test_event_log_rows_format(tmp_path):
    rc = main(["simulate", "--graph", "cycle:4", "--p", "0.5", "--horizon", "2.0",
               "--init", "zeros", "--seed", "31", "--out", str(tmp_path)])
    assert rc == 0
    g = parse_graph_spec("cycle:4")
    gc = sample_graphical(g, ModelParams(p=0.5), 2.0, seed=31)
    rows = read_csv(tmp_path / "events.csv")[1:]
    assert len(rows) == sum(len(t) for t in gc.times)
    for t_str, x_str, applied, marks in rows:
        assert float(t_str) > 0
        assert applied in ("0", "1")
        assert set(marks) <= {"0", "1"}
        assert len(marks) == len(closed_neighbourhood(g, int(x_str)))
    times = [float(r[0]) for r in rows]
    assert times == sorted(times)


def _stationary_oracle(path, graph, p, flavor, allones):
    g = parse_graph_spec(graph)
    sd = stationary(build_kernel(g, ModelParams(p=p), allones=allones), flavor=flavor)
    write_rows_oracle(path, ("state_bits", "probability"), stationary_rows_oracle(sd, g))


def _events_oracle(path, graph, p, horizon, seed):
    g = parse_graph_spec(graph, seed=seed)
    params = ModelParams(p=p)
    config0 = random_configuration(g, params, substream(seed, 11))
    res = replay(g, config0, sample_graphical(g, params, horizon, seed))
    write_rows_oracle(path, ("time", "vertex", "applied", "marks"), event_log_rows_oracle(g, res))


def _block_stats_oracle(path, flavor, p, L, n_samples, seed):
    g, params = parse_graph_spec("torus2d:5x5"), ModelParams(p=p)
    if flavor == "stick":
        st = sample_stick_stats(g, params, 0, closed_neighbourhood(g, 0)[:2], L, n_samples, seed)
    elif flavor == "two":
        st = sample_block2_stats(g, params, 0, 1, L, n_samples, seed)
    else:
        st = sample_block4_stats(g, params, (0, 1, 2, 7, 12), 0, L, n_samples, seed)
    write_lines_oracle(path, block_stats_rows_oracle([st]))


def _block_bounds_oracle(path, seed):
    stats = []
    for d, spec in ((2, "cycle:12"), (4, "torus2d:5x5")):
        g = parse_graph_spec(spec)
        chain = tuple(range(10)) if d == 2 else shortest_path(g, 0, 12).vertices
        A = closed_neighbourhood(g, chain[0])
        for p in (0.02, 0.01, 0.005, 0.0015):
            params = ModelParams(p=p)
            Lh, Lt = hat_L(p, d), tilde_L(p, d)
            stats.append(sample_stick_stats(g, params, chain[0], A, Lh, 20_000, seed))
            stats.append(sample_block2_stats(g, params, chain[0], chain[1], Lh, 20_000, seed))
            stats.append(sample_block4_stats(g, params, chain, 0, Lt, 20_000, seed))
    write_lines_oracle(path, block_stats_rows_oracle(stats))


def _drift_oracle(path, graph, q):
    g, params = parse_graph_spec(graph), ModelParams.from_q(q)
    rep = verify_all_bounds(g, params, choose_h(params.q, g.max_degree), keep_rows=True)
    header = ("graph", "q", "h", "config_bits", "cond_type", "m", "exact_drift", "bound", "margin")
    write_rows_oracle(path, header, scan_rows_oracle(rep, graph))


@pytest.mark.parametrize("argv,name,oracle,oracle_args", [
    (["exact", "--graph", "cycle:6", "--p", "0.3"], "stationary.csv",
     _stationary_oracle, ("cycle:6", 0.3, "continuous", "resample")),
    (["exact", "--graph", "torus2d:3x3", "--p", "0.2", "--flavor", "embedded",
      "--allones", "frozen"], "stationary.csv",
     _stationary_oracle, ("torus2d:3x3", 0.2, "embedded", "frozen")),
    (["simulate", "--graph", "cycle:6", "--p", "0.3", "--horizon", "5", "--seed", "2"],
     "events.csv", _events_oracle, ("cycle:6", 0.3, 5.0, 2)),
    *[
        (["blocks", "--graph", "torus2d:5x5", "--p", "0.01", "--flavor", flavor,
          "--chain", "0,1,2,7,12", "--L", "3.0", "--n-samples", "3000", "--seed", "8"],
         "block_stats.csv", _block_stats_oracle, (flavor, 0.01, 3.0, 3000, 8))
        for flavor in ("stick", "two", "four")
    ],
    (["preset", "--name", "block_bounds", "--seed", "3"], "block_bounds.csv",
     _block_bounds_oracle, (3,)),
    (["drift", "--graph", "cycle:6", "--q", "0.3"], "drift_scan.csv",
     _drift_oracle, ("cycle:6", 0.3)),
    (["drift", "--graph", "path:6", "--q", "0.25"], "drift_scan.csv",
     _drift_oracle, ("path:6", 0.25)),
], ids=["exact-continuous", "exact-embedded", "simulate", "blocks-stick", "blocks-two",
        "blocks-four", "preset-block_bounds", "drift-regular", "drift-irregular"])
def test_csv_bytes_match_the_row_builder_oracles(tmp_path, argv, name, oracle, oracle_args):
    """cli formats every cell itself; its files equal what the library's
    row builders and the second line writer used to write."""
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0
    oracle(tmp_path / "oracle.csv", *oracle_args)
    assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# `blocks` runs that a window length not positive and finite used to crash
# with numpy's message or, at zero, to run
_BAD_WINDOWS = [("independence", "nan"), ("independence", "inf"), ("two", "inf"),
                ("stick", "inf"), ("four", "inf"), ("stick", "0"), ("two", "0")]


@pytest.mark.parametrize("argv", [
    ["percolate", "--mode", "connect", "--N", "4", "--n-samples", "1", "--seed", "1"],
    ["percolate", "--N", "4", "--theta", "1.5", "--seed", "1"],
    ["exact", "--graph", "complete:20", "--p", "0.3"],
    ["simulate", "--graph", "cycle:5", "--p", "0.3", "--init", "0101", "--seed", "1"],
    ["blocks", "--graph", "cycle:8", "--p", "0.01", "--chain", "0,2,4", "--seed", "1"],
    ["chains", "--graph", "cycle:8", "--mode", "shortest", "--u", "-1", "--v", "3"],
    ["chains", "--graph", "cycle:8", "--mode", "shortest", "--u", "0", "--v", "9"],
    ["blocks", "--graph", "cycle:8", "--p", "0.01", "--flavor", "stick", "--base", "-1", "--seed", "1"],
    ["blocks", "--graph", "cycle:8", "--p", "0.01", "--flavor", "stick", "--a-size", "-1", "--seed", "1"],
    ["blocks", "--graph", "cycle:8", "--p", "0.01", "--flavor", "two", "--chain", "3", "--seed", "1"],
    ["percolate", "--N", "4", "--K", "0", "--y", "2", "--seed", "1"],
    *[["mc", "--graph", "cycle:6", "--p", "0.5", "--budget", "1000", "--burn-frac", frac,
       "--seed", "1"] for frac in ("-3", "inf", "nan")],
    *[["simulate", "--graph", "cycle:5", "--p", "0.3", "--horizon", horizon, "--seed", "1"]
      for horizon in ("nan", "inf")],
    ["simulate", "--graph", "cycle:5", "--p", "0.3", "--flavor", "embedded", "--steps", "-5",
     "--seed", "1"],
    *[["simulate", "--graph", "cycle:5", "--p", "0.3", "--snapshot-every", every, "--seed", "1"]
      for every in ("-1", "nan")],
    ["formulas", "--d", "0", "--p", "0.1"],
    ["theta", "--L", "nan", "--p", "0.1", "--d", "2"],
    *[["blocks", "--graph", "cycle:16", "--p", "0.01", "--flavor", flavor, "--L", L, "--seed", "1"]
      for flavor, L in _BAD_WINDOWS],
    ["theta", "--L", "inf", "--p", "0.1", "--d", "2"],
    *[["q0", "--d", d, "--dps", "20"] for d in ("1", "0", "-1")],
    ["q0", "--d", "3", "--closed-form"],
    *[["percolate", "--mode", "contour", "--N", N, "--K", K, "--theta", "0.95"]
      for N, K in (("-2", "3"), ("0", "3"), ("4", "-3"))],
    *[["mc", "--graph", "cycle:6", "--p", "0.5", "--budget", "1000", "--replicas", replicas,
       "--threads", "0", "--seed", "1"] for replicas in ("4", "1")],
    ["drift", "--graph", "cycle:6"],
    ["drift", "--graph", "cycle:6", "--p", "0.5", "--q", "0.5"],
    ["blocks", "--graph", "complete:5", "--p", "0.01", "--flavor", "four", "--seed", "1"],
    ["q0", "--d", "2000"],
    ["q0", "--d", "2000", "--dps", "30"],
], ids=["percolate-one-sample", "percolate-theta", "exact-too-large", "simulate-init-length",
        "blocks-not-a-chain", "chains-u-negative", "chains-v-past-end", "blocks-base-negative",
        "blocks-a-size-negative", "blocks-two-one-site", "percolate-no-levels",
        "mc-burn-frac-negative", "mc-burn-frac-inf", "mc-burn-frac-nan",
        "simulate-horizon-nan", "simulate-horizon-inf", "simulate-steps-negative",
        "simulate-snapshot-every-negative", "simulate-snapshot-every-nan",
        "formulas-degree-zero", "theta-L-nan",
        *[f"blocks-{flavor}-L-{L}" for flavor, L in _BAD_WINDOWS],
        "theta-L-inf", "q0-dps-d-1", "q0-dps-d-0", "q0-dps-d-negative", "q0-closed-form-d-3",
        "percolate-contour-N-negative", "percolate-contour-N-zero", "percolate-contour-K-negative",
        "mc-threads-zero", "mc-threads-zero-one-replica", "drift-neither-p-nor-q",
        "drift-both-p-and-q", "blocks-four-no-chain", "q0-d-2000", "q0-dps-d-2000"])
def test_failed_command_leaves_no_directory(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("config,seed_env,message", [
    ("[]", None, "config file must hold a JSON object"),
    (None, "seven", "BSLAB_SEED must be an integer"),
], ids=["config-not-an-object", "seed-env-not-an-integer"])
def test_bad_config_or_seed_env_leaves_no_directory(tmp_path, capsys, monkeypatch,
                                                     config, seed_env, message):
    argv = ["mc", "--graph", "cycle:6", "--p", "0.5", "--out", str(tmp_path / "run")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.json")]
    if seed_env is not None:
        monkeypatch.setenv("BSLAB_SEED", seed_env)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flavor", ["stick", "two", "four", "independence"])
@pytest.mark.parametrize("L", ["nan", "inf", "0"])
def test_blocks_refuses_a_window_length_that_is_not_positive_and_finite(tmp_path, capsys,
                                                                        flavor, L):
    argv = ["blocks", "--graph", "cycle:16", "--p", "0.01", "--flavor", flavor, "--L", L,
            "--seed", "1", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: window length must be positive and finite\n"


@pytest.mark.parametrize("flavor,pair,sites", [
    ("two", "same_level", 2),
    ("four", "same_level", 4),
    ("independence", "same_level", 12),
    ("independence", "adjacent_level", 8),
])
def test_blocks_defaults_match_the_library_on_the_auto_chain(tmp_path, flavor, pair, sites):
    """Without --L or --chain, `blocks` runs at hat_L (two) or tilde_L (four,
    independence) on the chain that _auto_chain picks for the flavor's sites."""
    p, n, seed = 0.01, 1500, 4
    assert main(["blocks", "--graph", "cycle:16", "--p", str(p), "--flavor", flavor,
                 "--pair", pair, "--n-samples", str(n), "--seed", str(seed),
                 "--out", str(tmp_path / "run")]) == 0
    g, params = parse_graph_spec("cycle:16"), ModelParams(p=p)
    chain = cli._auto_chain(g, sites)
    oracle = tmp_path / "oracle.csv"
    if flavor == "independence":
        rep = block4_independence_check(g, chain, params, tilde_L(p, 2), n, seed, pair=pair)
        write_rows_oracle(
            oracle,
            ("pair", "n_samples", "rate_a", "rate_b", "corr", "threshold", "within", "notes"),
            [(rep.pair, str(rep.n_samples), *(repr(float(x)) for x in
              (rep.rate_a, rep.rate_b, rep.corr, rep.threshold)),
              str(int(rep.within)), ";".join(rep.notes))],
        )
        name = "independence.csv"
    else:
        if flavor == "two":
            st = sample_block2_stats(g, params, chain[0], chain[1], hat_L(p, 2), n, seed)
        else:
            st = sample_block4_stats(g, params, chain, 0, tilde_L(p, 2), n, seed)
        write_lines_oracle(oracle, block_stats_rows_oracle([st]))
        name = "block_stats.csv"
    assert (tmp_path / "run" / name).read_bytes() == oracle.read_bytes()


def test_formulas_reject_both_p_and_q(tmp_path, capsys):
    out = tmp_path / "f"
    rc = main(["formulas", "--d", "2", "--p", "0.3", "--q", "0.5", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "give at most one of --p or --q" in captured.err
    assert not out.exists()


def _float_cells(*xs):
    return [repr(float(x)) for x in xs]


@pytest.mark.parametrize("tail_fit", [False, True], ids=["estimates", "tail-fit"])
def test_mc_csv_matches_the_library(tmp_path, capsys, tail_fit):
    """`mc` writes its four estimates, and with --tail-fit the fitted slope
    c2, in the interval columns, with the fit's point count as batches."""
    p, seed = 0.7, 3
    argv = ["mc", "--graph", "cycle:8", "--p", str(p), "--budget", "8000", "--replicas", "2",
            "--batches", "8", "--threads", "1", "--seed", str(seed), "--out", str(tmp_path / "run")]
    assert main(argv + ["--tail-fit"] * tail_fit) == 0
    bd = run_batches(parse_graph_spec("cycle:8"), ModelParams(p=p), 8000, seed,
                     n_replicas=2, n_batches=8)
    pairs = [
        ("marginal_one(0)", marginal_from_batches(bd, 0)),
        ("proportion_ones_ge(0.5)", proportion_tail_from_batches(bd, 0.5)),
        ("zeros_ge(1)", zeros_tail_from_batches(bd, 1)),
        ("expected_zeros", expected_zeros_from_batches(bd)),
    ]
    rows = [(name, "0.7", "cycle:8", *_float_cells(est.mean, est.stderr, *est.ci95),
             str(est.n_batches), str(seed)) for name, est in pairs]
    if tail_fit:
        fit = tail_fit_from_batches(bd)
        assert fit is not None and fit.ks == (1, 2, 3, 4, 5)
        rows.append(("tail_fit_c2(k=1..5)", "0.7", "cycle:8",
                     *_float_cells(fit.c2, fit.c2_stderr, *fit.c2_ci95), "5", str(seed)))
    oracle = tmp_path / "oracle.csv"
    write_rows_oracle(oracle, ("functional", "param_p", "graph", "estimate", "stderr", "ci_lo",
                               "ci_hi", "batches", "seed"), rows)
    assert (tmp_path / "run" / "mc_estimates.csv").read_bytes() == oracle.read_bytes()
    assert capsys.readouterr().out == "".join(
        f"{name} = {est.mean!r} +- {est.stderr!r}"
        + (f"  [{'; '.join(est.notes)}]" if est.notes else "") + "\n"
        for name, est in pairs
    )


def test_mc_tail_fit_drops_a_point_of_rounding_width(tmp_path):
    """P(zeros >= 1) = 1 - 2e-16 with a stderr of 6e-17 is rounding noise; its
    weight near 1e16 made the fit's normal matrix singular."""
    argv = ["mc", "--graph", "regular:12:3", "--p", "0.25", "--budget", "20000",
            "--threads", "1", "--seed", "6", "--tail-fit", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    rows = (tmp_path / "run" / "mc_estimates.csv").read_text().splitlines()
    assert rows[-1].startswith("tail_fit_c2(k=2..12),")


def test_mc_tail_fit_skips_with_too_few_points(tmp_path, capsys):
    argv = ["mc", "--graph", "cycle:4", "--p", "0.95", "--budget", "800", "--replicas", "2",
            "--batches", "8", "--threads", "1", "--seed", "3", "--tail-fit"]
    assert main(argv + ["--out", str(tmp_path / "fit")]) == 0
    assert "tail fit skipped: too few usable points" in capsys.readouterr().out
    assert main(argv[:-1] + ["--out", str(tmp_path / "plain")]) == 0
    assert ((tmp_path / "fit" / "mc_estimates.csv").read_bytes()
            == (tmp_path / "plain" / "mc_estimates.csv").read_bytes())


def _theorem_chains(spec, params, seed):
    """The theorem presets' chains: 4 continuous replicas x 250k updates, 16 batches."""
    return run_batches(parse_graph_spec(spec), params, 250_000, seed,
                       n_replicas=4, n_batches=16, flavor="continuous", n_jobs=2)


def _estimate_cells(functional, param, est):
    return (functional, param, *_float_cells(est.mean, est.stderr, *est.ci95),
            str(est.n_batches), str(est.total_budget), ";".join(est.notes))


def _survival_oracle(seed):
    bd = _theorem_chains("cycle:200", ModelParams(p=0.001), seed)
    return [
        _estimate_cells("marginal_one", "0", marginal_from_batches(bd, 0)),
        _estimate_cells("proportion_ones_ge", "0.5", proportion_tail_from_batches(bd, 0.5)),
        _estimate_cells("zeros_ge", "100", zeros_tail_from_batches(bd, 100)),
        _estimate_cells("expected_zeros", "", expected_zeros_from_batches(bd)),
    ]


def _extinction_oracle(seed):
    bd = _theorem_chains("cycle:50", ModelParams.from_q(0.3), seed)
    rows = [_estimate_cells("zeros_ge", str(k), zeros_tail_from_batches(bd, k))
            for k in range(13)]
    fit = tail_fit_from_batches(bd)
    assert fit is not None
    rows.append(("tail_fit_c2", f"k={fit.ks[0]}..{fit.ks[-1]}",
                 *_float_cells(fit.c2, fit.c2_stderr, *fit.c2_ci95),
                 str(len(fit.ks)), "1000000", f"rms={fit.rms!r}"))
    return rows


@pytest.mark.parametrize("name,csv_name,oracle", [
    ("thm1_survival", "survival.csv", _survival_oracle),
    ("thm3_extinction", "tail.csv", _extinction_oracle),
], ids=["thm1_survival", "thm3_extinction"])
def test_theorem_preset_csv_matches_the_library(tmp_path, name, csv_name, oracle):
    seed = 2
    assert main(["preset", "--name", name, "--seed", str(seed), "--threads", "2",
                 "--out", str(tmp_path / "run")]) == 0
    path = tmp_path / "oracle.csv"
    write_rows_oracle(path, ("functional", "param", "estimate", "stderr", "ci_lo", "ci_hi",
                             "n_batches", "total_budget", "notes"), oracle(seed))
    assert (tmp_path / "run" / csv_name).read_bytes() == path.read_bytes()


def test_classic_preset_csv_matches_the_library(tmp_path, capsys):
    """classic_eta_c writes the mass of the classical model's fitness
    samples on cycle:1000 in 50 equal bins of [0, 1]."""
    seed = 2
    assert main(["preset", "--name", "classic_eta_c", "--seed", str(seed),
                 "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out == "preset classic_eta_c: wrote classic.csv\n"
    values = classical_fitness_samples(parse_graph_spec("cycle:1000"), steps=400_000,
                                       burn_in=100_000, sample_every=2_000, seed=seed)
    edges = np.linspace(0.0, 1.0, 51)
    hist, _ = np.histogram(values, bins=edges)
    oracle = tmp_path / "oracle.csv"
    write_rows_oracle(oracle, ("bin_lo", "bin_hi", "mass"),
                      [_float_cells(lo, hi, m / len(values))
                       for lo, hi, m in zip(edges, edges[1:], hist)])
    assert (tmp_path / "run" / "classic.csv").read_bytes() == oracle.read_bytes()
    assert read_manifest(tmp_path / "run")["command"] == "preset:classic_eta_c"


def test_percolate_good_matches_the_library(tmp_path, capsys):
    N, K, theta, h, n, seed = 4, 2, 0.9, 0.75, 300, 5
    assert main(["percolate", "--mode", "good", "--N", str(N), "--K", str(K),
                 "--theta", str(theta), "--h", str(h), "--n-samples", str(n),
                 "--seed", str(seed), "--out", str(tmp_path / "run")]) == 0
    B = LevelSet.from_sites(N, 0, list(sites_at_level(N, 0)))
    est = prob_good_level(N, theta, K, h, B, n, seed)
    oracle = tmp_path / "oracle.csv"
    write_rows_oracle(
        oracle,
        ("N", "theta", "K", "h", "functional", "estimate", "stderr", "n_samples", "seed"),
        [("4", "0.9", "2", "0.75", "prob_good_level", *_float_cells(est.mean, est.stderr),
          str(n), str(seed))],
    )
    assert (tmp_path / "run" / "percolation.csv").read_bytes() == oracle.read_bytes()
    assert capsys.readouterr().out == f"P[(1-h)-good level] = {est.mean!r} +- {est.stderr!r}\n"


@pytest.mark.parametrize("graph,argv", [
    ("torus2d:4x4", ["--mode", "shortest", "--u", "0", "--v", "10"]),
    ("path:5", ["--mode", "cover", "--min-len", "4"]),
    ("torus2d:3x3", ["--mode", "cover", "--min-len", "4"]),
], ids=["shortest", "cover", "cover-fails"])
def test_chains_shortest_and_cover_match_the_library(tmp_path, capsys, graph, argv):
    assert main(["chains", "--graph", graph, *argv, "--out", str(tmp_path / "run")]) == 0
    g = parse_graph_spec(graph)
    if argv[1] == "shortest":
        path = shortest_path(g, 0, 10)
        rows = [("shortest", str(path.length), "-".join(map(str, path.vertices)))]
        line = f"shortest 0->10: {path.length} vertices (a chain)"
    else:
        cover = chain_cover(g, 4)
        rows = [(f"cover_{i}", str(ch.length), "-".join(map(str, ch.vertices)))
                for i, ch in enumerate(cover.chains)]
        line = (f"covered by {cover.k} chains of >= 4 vertices" if cover.covered
                else f"cover FAILED; uncovered: {cover.uncovered}")
    oracle = tmp_path / "oracle.csv"
    write_rows_oracle(oracle, ("kind", "length", "vertices"), rows)
    assert (tmp_path / "run" / "chains.csv").read_bytes() == oracle.read_bytes()
    assert capsys.readouterr().out == line + "\n"


def test_q0_dps_prints_the_high_precision_bisection(tmp_path, capsys):
    assert main(["q0", "--d", "3", "--dps", "30", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{q0_highprec(3, dps=30)!r}\n"


def test_blocks_self_pair_default_chain_needs_four_sites(tmp_path):
    """The self pair compares one four-site cell with itself, so its default
    chain needs four sites; cycle:8, whose longest chain has six, runs."""
    p, n, seed = 0.01, 1500, 4
    assert main(["blocks", "--graph", "cycle:8", "--p", str(p), "--flavor", "independence",
                 "--pair", "self", "--n-samples", str(n), "--seed", str(seed),
                 "--out", str(tmp_path / "run")]) == 0
    g = parse_graph_spec("cycle:8")
    rep = block4_independence_check(g, cli._auto_chain(g, 4), ModelParams(p=p),
                                    tilde_L(p, 2), n, seed, pair="self")
    assert rep.within
    oracle = tmp_path / "oracle.csv"
    write_rows_oracle(
        oracle,
        ("pair", "n_samples", "rate_a", "rate_b", "corr", "threshold", "within", "notes"),
        [("self", str(n), *_float_cells(rep.rate_a, rep.rate_b, rep.corr, rep.threshold),
          "1", ";".join(rep.notes))],
    )
    assert (tmp_path / "run" / "independence.csv").read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("argv,message", [
    (["--dps", "-3"], "dps must be >= 1"),
    (["--dps", "0"], "dps must be >= 1"),
    (["--simple", "--closed-form"], "give at most one of --simple, --closed-form or --dps"),
    (["--closed-form", "--dps", "30"], "give at most one of --simple, --closed-form or --dps"),
], ids=["dps-negative", "dps-zero", "simple-and-closed-form", "closed-form-and-dps"])
def test_q0_refuses_bad_digits_and_mixed_modes(tmp_path, capsys, argv, message):
    assert main(["q0", "--d", "2", *argv, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("L", ["3000", "300"])
def test_theta_past_the_double_range(tmp_path, capsys, L):
    """`theta` prints the log-space value where the direct product under- or
    overflows: 6.55e-147 at L 300 (was 0.0), 0.0 at L 3000 (was an
    OverflowError traceback)."""
    assert main(["theta", "--L", L, "--p", "0.1", "--d", "2", "--out", str(tmp_path / "run")]) == 0
    want = theta_4block(float(L), 0.1, 2)
    assert capsys.readouterr().out == f"{want!r}\n"
    assert want > 0.0 or L == "3000"


@pytest.mark.parametrize("argv", [
    ["--d", "2", "--p", "0.1", "--L", "3000", "--a", "2"],
    ["--d", "1", "--p", "0.1", "--L", "1e308"],
], ids=["theta-L-3000", "block2-d1-L-1e308"])
def test_formulas_past_the_double_range(tmp_path, capsys, argv):
    """`formulas` prints every formula that is defined at a huge L, with
    the two window bounds at 0.0, no NaN and no traceback."""
    assert main(["formulas", *argv, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    rows = {r[0]: r[2] for r in read_csv(tmp_path / "formulas.csv")[1:]}
    assert rows["block2_nice_lb"] == rows["theta_4block"] == "0.0"


def test_blocks_four_bound_past_the_double_range(tmp_path, capsys):
    """The four-block analytic bound at L 1e6 is 0.0, not an OverflowError."""
    assert main(["blocks", "--graph", "cycle:16", "--p", "0.01", "--seed", "1", "--flavor", "four",
                 "--L", "1e6", "--n-samples", "10", "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out.endswith(", analytic lb 0.0\n")


@pytest.mark.parametrize("N,theta,h", [
    ("855", "0.95", "0.75"), ("863", "0.95", "0.75"), ("700", "0.9", "0.001"),
], ids=["short-sum-was-nan", "short-sum-overflowed", "long-term-overflowed"])
def test_percolate_contour_past_the_double_range(tmp_path, capsys, N, theta, h):
    """The contour sums print the library's finite short sum and, where the
    side condition fails, an infinite long term: no nan and no traceback."""
    out = tmp_path / "run"
    assert main(["percolate", "--mode", "contour", "--N", N, "--theta", theta, "--h", h,
                 "--out", str(out)]) == 0
    rep = contour_bounds(int(N), float(theta), float(h), 3)
    assert np.isfinite(rep.short_sum)
    side = "ok" if rep.side_ok else "FAILS"
    assert capsys.readouterr().out == f"short {rep.short_sum!r}, long {rep.long_term!r}, side condition {side}\n"
    assert "nan" not in (out / "percolation.csv").read_text()

