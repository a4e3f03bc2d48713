import json
import math
import subprocess
import sys

import numpy as np
import pytest

import fluxring as fr


def run_cli(*args, env_extra=None, cwd=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fluxring.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.fixture
def ring3(tmp_path):
    path = tmp_path / "ring3.json"
    fr.save_model(fr.make_spec(3, 3), path)
    return str(path)


@pytest.fixture
def ring4(tmp_path):
    path = tmp_path / "ring4.json"
    fr.save_model(fr.make_spec(4, 2), path)
    return str(path)


def test_scan_emits_csv(ring3, tmp_path):
    out = tmp_path / "c.csv"
    res = run_cli("scan", "--model", ring3, "--grid", "360", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,energy"
    assert len(lines) == 361
    phi, energy = lines[1].split(",")
    # E_3(0) = F_1(0) + F_2(0) = -1 + -2 on the uniform half-filled ring
    assert phi == "0" and float(energy) == pytest.approx(-3.0, abs=1e-10)
    assert out.read_bytes().endswith(b"\n") and b"\r" not in out.read_bytes()


def test_scan_rerun_byte_identical(ring3, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("scan", "--model", ring3, "--grid", "90", "--out", str(a))
    run_cli("scan", "--model", ring3, "--grid", "90", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_scan_of_a_chosen_sector_matches_its_family(tmp_path):
    # --two-sz 2 scans the sector of one more up spin than the minimal one
    rng = np.random.default_rng(11)
    spec = fr.make_spec(6, 4, rng.uniform(0.5, 2, 6), None, rng.normal(0, 1, 6), 3.0)
    path, out = tmp_path / "ring6.json", tmp_path / "s.csv"
    fr.save_model(spec, path)
    res = run_cli("scan", "--model", str(path), "--grid", "24", "--two-sz", "2",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    family = fr.flux_family(spec, fr.enumerate_sector(6, 4, 2))
    energies = fr.scan_flux(family, grid_size=24)
    grid = fr.analysis.flux_grid(24)
    want = ["phi,energy"] + [f"{p:.12g},{v:.12g}" for p, v in zip(grid, energies)]
    assert out.read_text().splitlines() == want


def test_verify_odd_passes(tmp_path):
    path = tmp_path / "ring5rand.json"
    fr.save_model(fr.gen_fixture("random-hop", seed=7, L=5), path)
    res = run_cli("verify", "odd", "--model", str(path), "--seeds", "2", "--grid", "32")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    assert len(payload["instances"]) == 3


def test_verify_singlet_control_exits_one(ring4):
    res = run_cli("verify", "singlet", "--model", ring4, "--phi", "pi")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["passed"] is False
    assert payload["measured"]["minimal_sector_spins"] == [0.0, 1.0]


def test_verify_singlet_passes_at_optimal_flux(ring4):
    res = run_cli("verify", "singlet", "--model", ring4)
    assert res.returncode == 0


def test_spectrum_subcommand(ring4):
    res = run_cli("spectrum", "--model", ring4, "--nup", "1", "--ndown", "1",
                  "--phi", "pi", "--dense")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["energy"] == pytest.approx(-2 * math.sqrt(2), abs=1e-10)
    assert data["degeneracy"] == 4
    assert data["spin_content"] == [0.0, 1.0]
    assert set(data) == {"energy", "degeneracy", "gap", "spin_content"}
    from fluxring import cli
    with pytest.raises(ValueError):              # JSON holds no inf or NaN
        cli._json_text({"gap": math.inf})


def test_blocks_subcommand(tmp_path):
    path = tmp_path / "hc.json"
    fr.save_model(fr.make_spec(6, 4, U=fr.INFINITY), path)
    res = run_cli("blocks", "--model", str(path))
    assert res.returncode == 0
    blocks = json.loads(res.stdout)
    assert sorted((b["period"], b["dimension"]) for b in blocks) == [(2, 30), (4, 60)]
    assert all(set(b) == {"period", "dimension", "representative"} for b in blocks)


def test_gen_fixture_uniform(tmp_path):
    out = tmp_path / "u.json"
    res = run_cli("gen-fixture", "uniform", "--L", "3", "--out", str(out))
    assert res.returncode == 0
    spec = fr.load_model(out)
    assert spec == fr.make_spec(3, 3)


def test_gen_fixture_remark5(tmp_path):
    out = tmp_path / "r5.json"
    run_cli("gen-fixture", "remark5", "--t", "50", "--out", str(out))
    spec = fr.load_model(out)
    assert spec.hop_mag == (1.0, math.sqrt(2.0), 50.0, math.sqrt(2.0), 1.0)
    assert spec.V == (0.0, 0.0, 50.0, 50.0, 0.0)


def test_gen_fixture_random_hop_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen-fixture", "random-hop", "--L", "5", "--seed", "7", "--out", str(a))
    run_cli("gen-fixture", "random-hop", "--L", "5", "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    spec = fr.load_model(a)
    assert all(0.5 <= m <= 2.0 for m in spec.hop_mag)


def test_seed_env_override(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen-fixture", "random-hop", "--L", "4", "--out", str(a),
            env_extra={"FLUXRING_SEED": "123"})
    run_cli("gen-fixture", "random-hop", "--L", "4", "--seed", "123", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_thermo_csv(ring3, tmp_path):
    out = tmp_path / "t.csv"
    res = run_cli("thermo", "--model", ring3, "--beta", "0.5", "--beta", "1",
                  "--grid", "12", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,beta,log_partition"
    assert len(lines) == 1 + 2 * 12


def test_usage_errors_exit_two(tmp_path, ring4):
    res = run_cli("scan", "--model", str(tmp_path / "missing.json"))
    assert res.returncode == 2
    res = run_cli("gen-fixture", "nonsense")
    assert res.returncode == 2
    res = run_cli("verify", "odd", "--model", ring4)  # N != L: hypotheses violated
    assert res.returncode == 2


def test_grids_below_eight_points_exit_two(tmp_path, ring4):
    hc = tmp_path / "hc.json"
    fr.save_model(fr.make_spec(4, 2, U=fr.INFINITY), hc)
    # -3 used to pass with no point checked, 0 to end in ZeroDivisionError
    for argv in (("verify", "doubling", "--model", ring4, "--grid", "-3"),
                 ("verify", "doubling", "--model", ring4, "--grid", "0"),
                 ("verify", "blocks", "--model", str(hc), "--grid", "0"),
                 ("verify", "thermo", "--model", ring4, "--grid", "0"),
                 ("thermo", "--model", ring4, "--grid", "0")):
        res = run_cli(*argv)
        assert res.returncode == 2, (argv, res.stdout)
        assert "at least 8" in res.stderr and "internal error" not in res.stderr
        assert res.stdout == ""


def test_verify_even_filled_hardcore_ring_exits_two(tmp_path):
    for L in (4, 6):
        path = tmp_path / f"full{L}.json"
        fr.save_model(fr.make_spec(L, L, U=fr.INFINITY), path)
        res = run_cli("verify", "even", "--model", str(path))
        assert res.returncode == 2
        assert "N < L" in res.stderr


def test_verify_thermo_filled_hardcore_ring_exits_two(tmp_path):
    path = tmp_path / "full6.json"
    fr.save_model(fr.make_spec(6, 6, U=fr.INFINITY), path)
    res = run_cli("verify", "thermo", "--model", str(path), "--grid", "12")
    assert res.returncode == 2
    assert "N < L" in res.stderr and "internal error" not in res.stderr
    assert res.stdout == ""


def test_verify_thermo_odd_n_away_from_free_half_filling_exits_two(tmp_path, capsys):
    from fluxring import cli

    for k, spec in enumerate((fr.make_spec(5, 3), fr.make_spec(5, 3, U=fr.INFINITY),
                              fr.make_spec(5, 5, U=2.0))):
        path = tmp_path / f"odd{k}.json"
        fr.save_model(spec, path)
        assert cli.run(["verify", "thermo", "--model", str(path), "--grid", "12"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "free half filling" in err and "internal error" not in err


def test_verifiers_on_hop_free_sectors_exit_two(tmp_path):
    # N = 0, hard-core N = 0 and free N = 2L: flat curves, not failed claims
    for name, spec in (("empty", fr.make_spec(4, 0)),
                       ("empty-hc", fr.make_spec(4, 0, U=fr.INFINITY)),
                       ("full", fr.make_spec(4, 8))):
        path = tmp_path / f"{name}.json"
        fr.save_model(spec, path)
        for claim in ("even", "thermo"):
            res = run_cli("verify", claim, "--model", str(path), "--grid", "12")
            assert res.returncode == 2, (name, claim, res.stdout)
            assert "internal error" not in res.stderr and res.stdout == ""
    res = run_cli("verify", "blocks", "--model", str(tmp_path / "empty-hc.json"), "--grid", "12")
    assert res.returncode == 2 and "no particle can hop" in res.stderr


def test_blocks_of_empty_hardcore_sector(tmp_path):
    path = tmp_path / "empty.json"
    fr.save_model(fr.make_spec(4, 0, U=fr.INFINITY), path)
    res = run_cli("blocks", "--model", str(path))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [{"period": 1, "dimension": 1, "representative": ""}]


@pytest.mark.parametrize("t,betas", [(300.0, ["4"]), (20.0, [])], ids=["t300", "t20"])
def test_verify_thermo_strong_hopping_exits_zero(tmp_path, t, betas):
    # uniform L=3 N=3 rings are exact critical points at pi/2 and 3pi/2;
    # P = Tr exp(-beta H) overflows a float at |t| = 300, beta = 4, and at
    # |t| = 20 (default betas) its derivative was rounding noise up to 4e48
    path = tmp_path / "strong.json"
    fr.save_model(fr.make_spec(3, 3, hop_mag=t), path)
    res = run_cli("verify", "thermo", "--model", str(path),
                  *[arg for b in betas for arg in ("--beta", b)])
    assert res.returncode == 0, res.stdout + res.stderr
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    assert payload["tolerance"] == {"critical_point_log_derivative": 1e-8}


@pytest.mark.parametrize("t,beta", [(20.0, "1e4"), (1.0, "1e6")], ids=["t20", "t1"])
def test_verify_thermo_window_at_large_beta_exits_zero(tmp_path, t, beta):
    # exact critical points whose rounding noise in d log P/dphi passes 1e-8
    path = tmp_path / "ring.json"
    fr.save_model(fr.make_spec(3, 3, hop_mag=t), path)
    res = run_cli("verify", "thermo", "--model", str(path), "--beta", beta, "--grid", "12")
    assert res.returncode == 0, res.stdout + res.stderr
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    assert payload["tolerance"]["critical_point_log_derivative"] > 1e-8


def test_verify_spiral_beyond_the_sign_search_exits_two(tmp_path):
    path = tmp_path / "hc.json"
    fr.save_model(fr.make_spec(11, 10, U=fr.INFINITY), path)
    res = run_cli("verify", "spiral", "--model", str(path))
    assert res.returncode == 2
    assert "26 blocks exceed" in res.stderr and "internal error" not in res.stderr


def test_verify_spiral_on_a_degenerate_polarized_ground_exits_two(tmp_path, monkeypatch,
                                                                   capsys):
    from dataclasses import replace

    from fluxring import analysis, cli

    solve = analysis.ground
    monkeypatch.setattr(analysis, "ground", lambda *a, **k: replace(solve(*a, **k), degeneracy=2))
    path = tmp_path / "hc.json"
    fr.save_model(fr.make_spec(6, 2, U=fr.INFINITY), path)
    assert cli.run(["verify", "spiral", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert "2-fold" in err and "internal error" not in err


def test_verify_relation_beyond_eight_ground_states_exits_zero(tmp_path):
    # hard-core L=11 N=10: 26 ground states in Sz = 0, one per block; a
    # deflation over the whole sector locked 8 and exited 2
    path = tmp_path / "hc.json"
    fr.save_model(fr.make_spec(11, 10, np.random.default_rng(5).uniform(0.5, 2, 11), None,
                               None, fr.INFINITY), path)
    res = run_cli("verify", "relation", "--model", str(path))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["measured"]["ground_spins_pi"] == [0.0, 1.0, 2.0, 3.0, 5.0]


def test_verify_relation_on_a_saturated_block_exits_two(tmp_path, monkeypatch, capsys):
    # one locked vector and no pass past it: each block's ground level is
    # left uncleared, so its multiplets may be cut
    from fluxring import analysis, cli

    solve = analysis.ground
    monkeypatch.setattr(analysis, "ground",
                        lambda h, **k: solve(h, method="lanczos", max_degeneracy=0, **k))
    path = tmp_path / "hc.json"
    fr.save_model(fr.make_spec(8, 6, np.random.default_rng(1).uniform(0.5, 2, 8), None, None,
                               fr.INFINITY), path)
    assert cli.run(["verify", "relation", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert "multiplet may be cut" in err and "internal error" not in err


def test_sector_over_the_memory_budget_exits_two(ring4, monkeypatch, capsys):
    from fluxring import basis, cli

    monkeypatch.setattr(basis, "MEMORY_BUDGET", 1)
    assert cli.run(["verify", "singlet", "--model", ring4]) == 2
    err = capsys.readouterr().err
    assert "budget" in err and "internal error" not in err


def test_verify_thermo_extreme_beta(ring4):
    # P = Tr exp(-beta H) overflows a float at beta = 300; log P does not
    res = run_cli("verify", "thermo", "--model", ring4, "--beta", "300", "--grid", "12")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    assert payload["measured"]["argmax"] == {"300.0": 0.0}


def test_non_finite_numbers_exit_two(ring4, tmp_path, capsys):
    # each used to exit 0 with NaN rows, or 2 as an internal error or as a
    # failure deep in a solve
    from fluxring import cli

    def refused(argv, words):
        assert cli.run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and words in err and "internal error" not in err, (argv, err)

    for phi in ("1/0pi", "nan", "inf"):
        refused(["verify", "singlet", "--model", ring4, "--phi", phi], "cannot parse angle")
    for beta in ("nan", "inf"):
        for argv in (["thermo", "--model", ring4], ["verify", "thermo", "--model", ring4]):
            refused([*argv, "--grid", "12", "--beta", beta], "beta must be finite")
    # model files: json reads NaN and -Infinity
    data = fr.model.to_dict(fr.make_spec(4, 2))
    for k, (key, value, words) in enumerate((
            ("hop", [{"mag": math.nan, "theta": 0.0}] + data["hop"][1:], "hop_mag"),
            ("V", [0.0, -math.inf, 0.0, 0.0], "V has a non-finite entry"),
            ("U", -math.inf, "U has a NaN or -inf entry"))):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps({**data, key: value}))
        refused(["verify", "singlet", "--model", str(path)], words)


def test_unexpected_error_exits_two(ring4, monkeypatch, capsys):
    from fluxring import analysis, cli

    def broken(spec, grid_size):
        raise OverflowError("math range error")

    monkeypatch.setattr(analysis, "verify_doubling", broken)
    assert cli.run(["verify", "doubling", "--model", ring4]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "internal error: OverflowError" in err and "math range error" in err


def test_verify_report_rerun_byte_identical(ring3, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("verify", "doubling", "--model", ring3, "--grid", "16", "--out", str(a))
    run_cli("verify", "doubling", "--model", ring3, "--grid", "16", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_spiral_and_thermo_claims(tmp_path):
    hc = tmp_path / "hc.json"
    fr.save_model(fr.make_spec(5, 2, U=fr.INFINITY), hc)
    res = run_cli("verify", "spiral", "--model", str(hc))
    assert res.returncode == 0
    assert json.loads(res.stdout)["measured"]["spin_expectation"] < 1e-8

    ring3 = tmp_path / "u3.json"
    fr.save_model(fr.make_spec(3, 3), ring3)
    res = run_cli("verify", "thermo", "--model", str(ring3), "--beta", "1",
                  "--grid", "36")
    assert res.returncode == 0

    res = run_cli("verify", "even", "--model", str(hc), "--grid", "64")
    assert res.returncode == 0
    res = run_cli("verify", "blocks", "--model", str(hc), "--grid", "24")
    assert res.returncode == 0
    res = run_cli("verify", "relation", "--model", str(hc))
    assert res.returncode == 0


def test_spectrum_cut_multiplet_exits_two(tmp_path):
    # hard-core L = N = 6 has no allowed hop: all 20 Sz=0 states are ground
    # states, more than the 9 vectors the Lanczos deflation locks
    path = tmp_path / "full.json"
    fr.save_model(fr.make_spec(6, 6, U=fr.INFINITY), path)
    res = run_cli("spectrum", "--model", str(path), "--nup", "3", "--ndown", "3", "--lanczos")
    assert res.returncode == 2
    assert "multiplet may be cut" in res.stderr


def test_ring_beyond_64_modes_exits_two(tmp_path):
    path = tmp_path / "ring33.json"
    fr.save_model(fr.make_spec(33, 1), path)
    res = run_cli("spectrum", "--model", str(path), "--nup", "1", "--ndown", "0")
    assert res.returncode == 2
    assert "64-bit" in res.stderr


def test_in_process_runs_each_get_their_own_defaults(ring4, tmp_path, capsys):
    # one parser serves every run in a process: options given to one run,
    # of the same or another subcommand, leave the next run's defaults alone
    from fluxring import cli

    seeded, plain, csv = (tmp_path / name for name in ("seeded.json", "plain.json", "s.csv"))
    assert cli.run(["verify", "singlet", "--model", ring4, "--phi", "pi",
                    "--seeds", "1", "--out", str(seeded)]) == 1
    assert cli.run(["scan", "--model", ring4, "--grid", "8", "--out", str(csv)]) == 0
    assert cli.run(["verify", "singlet", "--model", ring4, "--out", str(plain)]) == 0
    assert len(json.loads(seeded.read_text())["instances"]) == 2
    report = json.loads(plain.read_text())              # flux 0 again, no variants
    assert "instances" not in report and report["passed"] is True
    assert len(csv.read_text().splitlines()) == 9
    assert cli.run(["scan", "--model", ring4, "--out", str(csv)]) == 0
    assert len(csv.read_text().splitlines()) == 721          # the default grid again
    assert capsys.readouterr().out == ""
