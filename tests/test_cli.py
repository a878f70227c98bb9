"""CLI surface: exit codes, record output, config files, selftest."""
import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopcs import cli, geometry
from loopcs.records import json_to_result, result_to_json


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return cli.main(argv)


def child(code, *args, blas_threads=None, **kwargs):
    """A fresh interpreter running ``code`` with ``args`` as ``sys.argv[1:]``
    and the package source on its path.  ``OPENBLAS_NUM_THREADS`` is
    ``blas_threads``, or unset as in a fresh shell when that is None."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env, **kwargs)


def test_verify_flat_torus_passes(capsys):
    assert run(["verify", "--metric", "flat_torus3"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out and "0.000e+00" in out


def test_verify_ypq_includes_einstein(capsys):
    assert run(["verify", "--metric", "ypq", "--p", "7", "--q", "3",
                "--samples", "30"]) == 0
    out = capsys.readouterr().out
    assert "einstein_ric_4g" in out


def test_verify_makes_one_curvature_pass(monkeypatch, capsys):
    # The identity suite and the Einstein check read the same jets and pack.
    calls = {"metric_jets": 0, "curvature_pack": 0}
    for name in calls:
        real = getattr(geometry, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(geometry, name, counted)
    assert run(["verify", "--metric", "ypq", "--p", "7", "--q", "3",
                "--samples", "30"]) == 0
    assert "einstein_ric_4g" in capsys.readouterr().out
    assert calls == {"metric_jets": 1, "curvature_pack": 1}


def test_headline_run_solves_no_eigenproblem(monkeypatch, capsys):
    # Every metric of the default (7,3) run clears the condition guard with
    # the inverse the curvature needs anyway.
    monkeypatch.setattr(geometry, "_condition_number",
                        lambda g: pytest.fail("exact condition check"))
    assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                "--action", "rotate:alpha"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["pi4_multiple"] == {"num": -432, "den": 6125}


def test_verify_bad_parameters_exit_2(capsys):
    assert run(["verify", "--metric", "ypq", "--p", "3", "--q", "3"]) == 2


def test_verify_requires_metric():
    assert run(["verify"]) == 2


def test_verify_bad_samples_exit_2(capsys):
    for samples in ("0", "-4", "1025"):
        assert run(["verify", "--metric", "round_sphere3", "--samples", samples]) == 2
        assert "--samples must be >= 1" in capsys.readouterr().err


def test_over_budget_run_refused_before_any_evaluation(monkeypatch, capsys):
    from loopcs import cycles, quadrature

    calls = []
    monkeypatch.setattr(quadrature, "MAX_LEVEL_POINTS", 1000)
    monkeypatch.setattr(cycles, "riemann", lambda *args: calls.append(args))
    # alpha, the rotation axis, is not gridded: 8^4 points at the refined level
    assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                "--action", "rotate:alpha", "--no-mask", "--nodes", "4"]) == 2
    assert "4096 points" in capsys.readouterr().err
    # non-Killing rotation axis x0, likewise shared: 32^2 points
    assert run(["wcs", "--metric", "perturbed_torus3", "--action", "rotate:x0",
                "--no-mask", "--nodes", "16"]) == 2
    assert "1024 points" in capsys.readouterr().err
    assert calls == []


def test_budget_charges_exactly_the_finest_level(capsys):
    # The fine level of the two gridded sphere axes at 1024 nodes is exactly
    # 2048^2 = 2^22 points, the budget; at 1025 nodes it is 2050^2 points,
    # over it, although the coarse level is not.
    sphere = ["wcs", "--metric", "round_sphere3", "--action", "trivial"]
    assert run(sphere + ["--nodes", "1024"]) == 0
    assert run(sphere + ["--nodes", "1025"]) == 2
    assert "would evaluate 4202500 points" in capsys.readouterr().err


def test_wcs_record_round_trips(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                "--action", "rotate:alpha", "--nodes", "8", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    data = json.loads(text)
    assert data["pi4_multiple"] == {"num": -432, "den": 6125}
    assert result_to_json(json_to_result(text)) == text
    prov = data["provenance"]
    assert prov["orientation"] == "phi^theta^y^psi^alpha"
    assert "speed_convention" in prov and "normalization" in prov


def test_wcs_trivial_action_zero(tmp_path):
    out = tmp_path / "res.json"
    assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                "--action", "trivial", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == 0


def test_wcs_zero_speed_is_the_trivial_action(monkeypatch, capsys):
    # A rotation at speed 0 is the constant loop: no density is evaluated and
    # the record is the trivial action's, apart from the action's name and
    # its speed.  The plan's refusals still hold for it.
    from loopcs import cycles

    calls = []
    monkeypatch.setattr(cycles, "riemann", lambda *args: calls.append(args))
    ypq = ["wcs", "--metric", "ypq", "--p", "7", "--q", "3", "--nodes", "4"]
    torus = ["wcs", "--metric", "perturbed_torus3", "--no-mask", "--nodes", "4"]
    for argv, axis, index in ((ypq, "alpha", 4), (torus, "x0", 0)):
        records = []
        for action in (f"rotate:{axis}:0", f"iterate:{axis}:0"):
            capsys.readouterr()
            assert run(argv + ["--action", action]) == 0
            records.append(json.loads(capsys.readouterr().out))
        zero, trivial = records
        assert zero["provenance"].pop("action") == f"rotate(axis={index}, speed=0.0)"
        assert trivial["provenance"].pop("action") == "trivial"
        assert zero["provenance"].pop("orbit_speed") == 0
        assert trivial["provenance"].pop("orbit_speed") is None
        del zero["wall_time"], trivial["wall_time"]
        assert zero == trivial
        assert zero["value"] == 0 and zero["pi4_multiple"] == {"num": 0, "den": 1}
        assert not any(zero["node_counts"])
    assert calls == []
    for action in ("rotate:theta:0", "rotate:alpha:nan", "rotate:alpha:0.1"):
        assert run(ypq + ["--action", action]) == 2, action


def test_wcs_sphere_k2_vanishes(tmp_path):
    out = tmp_path / "res.json"
    assert run(["wcs", "--metric", "round_sphere3", "--action", "rotate:phi",
                "--nodes", "8", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["value"]) < 1e-10


def test_wcs_unicode_axis_alias(tmp_path):
    out = tmp_path / "res.json"
    assert run(["wcs", "--metric", "round_sphere3", "--action", "rotate:φ",
                "--nodes", "4", "--out", str(out)]) == 0


def test_wcs_bad_action_exit_2(capsys):
    assert run(["wcs", "--metric", "round_sphere3", "--action", "spin:phi"]) == 2
    assert run(["wcs", "--metric", "round_sphere3", "--action", "rotate:w"]) == 2
    # theta is not periodic: the orbit would leave the chart
    assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                "--action", "rotate:theta"]) == 2
    # a speed whose winding is not finite, or rounds to zero turns, is
    # refused by name, not by a traceback or a near-zero value
    for speed in ("inf", "nan", "1e308", "1e-10", "-1e-12"):
        capsys.readouterr()
        assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                    "--action", f"rotate:alpha:{speed}"]) == 2, speed
        assert "speed" in capsys.readouterr().err, speed


def test_wcs_bad_rule_flags_exit_2(monkeypatch, capsys):
    from loopcs import cycles

    calls = []
    monkeypatch.setattr(cycles, "riemann", lambda *args: calls.append(args))
    ypq = ["wcs", "--metric", "ypq", "--p", "7", "--q", "3", "--action", "rotate:alpha"]
    trivial = ["wcs", "--metric", "round_sphere3", "--action", "trivial"]
    torus = ["wcs", "--metric", "perturbed_torus3", "--action", "rotate:x0", "--no-mask"]
    for argv, flags, needle in [(ypq, ["--workers", "0"], "workers"),
                                (torus, ["--workers", "-3"], "workers"),
                                (trivial, ["--workers", "0"], "workers"),
                                (trivial, ["--nodes", "1"], "at least 2"),
                                (trivial, ["--nodes", "2048"], "budget")]:
        assert run(argv + flags) == 2
        assert needle in capsys.readouterr().err
    assert calls == []


def test_workers_over_the_cap_exit_2_before_any_pool(monkeypatch, capsys):
    # A pool forks all its workers at its first map, so a count over the cap
    # is refused before any pool is built; this test starts no process.
    from loopcs import quadrature

    def no_pool(*args, **kwargs):
        pytest.fail("a pool was constructed")

    monkeypatch.setattr(quadrature, "ProcessPoolExecutor", no_pool)
    over = ["--workers", str(quadrature.MAX_WORKERS + 1)]
    torus = ["wcs", "--metric", "perturbed_torus3", "--action", "rotate:x0", "--no-mask"]
    for argv in (torus + over, ["sweep", "--sweep-pq", "7:3", "--nodes", "4"] + over):
        assert run(argv) == 2, argv
        assert f"workers must be 1 to {quadrature.MAX_WORKERS}," in capsys.readouterr().err, argv


def test_removed_form_settings_exit_2(tmp_path, capsys):
    # The degree is fixed by the dimension, both brackets give the same
    # cycle integral, the loop cap is the constant cycles.LOOP_CAP and a
    # cycle integral is two fixed quadrature levels, the fine one at twice
    # the nodes, so none is a setting: flags and config keys exit 2.
    sphere = ["wcs", "--metric", "round_sphere3", "--action", "rotate:phi"]
    sweep = ["sweep", "--sweep-pq", "7:3", "--nodes", "4"]
    for argv in (sphere, sweep):
        for flags in (["--k", "3"], ["--loop-nodes", "64"], ["--tol", "1e-9"],
                      ["--max-refinements", "2"], ["--refine-factor", "1"]):
            assert run(argv + flags) == 2, argv + flags
    assert run(sphere + ["--variant", "full"]) == 2
    cfg = tmp_path / "run.cfg"
    for entry in ("variant = reduced", "k = 3", "loop_nodes = 64", "tol = 1e-9",
                  "max_refinements = 2", "refine_factor = 1"):
        cfg.write_text(f"{entry}\n")
        assert run(sphere + ["--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err


def test_ignored_family_flags_exit_2(monkeypatch, capsys):
    from loopcs import cycles

    calls = []
    monkeypatch.setattr(cycles, "riemann", lambda *args: calls.append(args))
    ypq = ["--metric", "ypq", "--p", "7", "--q", "3"]
    sphere = ["--metric", "round_sphere3"]
    family_a = ["--metric", "ypq-a", "--a", "0.6"]
    for argv, flag in [(["wcs", *ypq, "--ell", "5"], "--ell"),
                       (["wcs", *ypq, "--a", "0.9"], "--a"),
                       (["wcs", *sphere, "--p", "7"], "--p"),
                       (["wcs", *family_a, "--q", "3"], "--q"),
                       (["verify", *sphere, "--ell", "2"], "--ell"),
                       (["verify", *ypq, "--a", "0.5"], "--a"),
                       (["sweep", "--sweep-pq", "7:3", "--ell", "5"], "--ell"),
                       (["sweep", "--scan-p-max", "7", "--ell", "5"], "--ell")]:
        assert run(argv) == 2, argv
        assert flag in capsys.readouterr().err, argv
    assert calls == []
    # the flags each family reads still reach it
    assert run(["wcs", *family_a, "--ell", "0.7", "--action", "trivial"]) == 0
    assert run(["sweep", "--sweep-a", "0.6", "--ell", "0.7", "--nodes", "2"]) == 0


def test_bad_ypq_a_inputs_exit_2(monkeypatch, capsys):
    # An a outside (0, 1) or an ell that is not finite and > 0 is an input error, refused
    # before any evaluation; a sweep refuses the shared ell before any row.
    from loopcs import cycles

    calls = []
    monkeypatch.setattr(cycles, "riemann", lambda *args: calls.append(args))
    wcs = ["wcs", "--metric", "ypq-a", "--action", "rotate:alpha", "--nodes", "4"]
    sweep = ["sweep", "--nodes", "4", "--sweep-a"]
    for argv, needle in [(wcs + ["--a", "1.5"], "degenerate"),
                         (wcs + ["--a", "0.5", "--ell", "0"], "ell must be > 0"),
                         (wcs + ["--a", "0.5", "--ell", "-1"], "ell must be > 0"),
                         (wcs + ["--a", "0.5", "--ell", "nan"], "ell must be > 0"),
                         (wcs + ["--a", "0.5", "--ell", "inf"], "ell must be > 0 and finite"),
                         (sweep + ["0.5", "--ell", "-1"], "ell must be > 0"),
                         (sweep + ["0.5,1.5", "--sweep-pq", "7:3", "--ell", "0"],
                          "ell must be > 0")]:
        assert run(argv) == 2, argv
        assert needle in capsys.readouterr().err, argv
    assert calls == []


def test_overflowing_value_is_a_numeric_failure(tmp_path, capsys):
    # An ell this large passes the input checks, but the cycle value
    # overflows: no record is written, and sweep rows become error rows
    # with no fitted exponent.
    out = tmp_path / "res.json"
    assert run(["wcs", "--metric", "ypq-a", "--a", "0.5", "--ell", "1e300",
                "--action", "rotate:alpha", "--nodes", "4", "--out", str(out)]) == 1
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()
    csv = tmp_path / "sweep.csv"
    assert run(["sweep", "--sweep-a", "0.5,0.6", "--ell", "1e300", "--nodes", "4",
                "--out", str(csv)]) == 0
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(",error," in row and "overflows" in row for row in rows)
    # A non-finite --s-scale is refused as an input, not reported as overflow.
    assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3", "--action",
                "rotate:alpha", "--nodes", "4", "--s-scale", "inf"]) == 2
    assert "s_scale must be finite" in capsys.readouterr().err


def test_sweep_refused_settings_exit_2(monkeypatch, capsys):
    # A setting every member shares is refused once, before any member is
    # evaluated, instead of becoming one error row per member.
    from loopcs import cycles

    calls = []
    monkeypatch.setattr(cycles, "riemann", lambda *args: calls.append(args))
    sweep = ["sweep", "--sweep-pq", "7:3,3:3", "--nodes", "4"]
    for flags, needle in [(["--workers", "0"], "workers"),
                          (["--nodes", "1"], "at least 2"),
                          (["--action", "rotate:theta"], "non-periodic"),
                          (["--no-mask", "--nodes", "64"], "budget")]:
        assert run(sweep + flags) == 2, flags
        assert needle in capsys.readouterr().err, flags
    assert calls == []


def _csv_values(path):
    return [float(line.split(",")[4]) for line in path.read_text().splitlines()[1:]]


def test_sweep_refuses_an_orbit_that_closes_on_one_member_only(monkeypatch, capsys):
    # Speed 0.15 closes the alpha orbit of (7,3) (ell = 3/20) but not that
    # of (5,3): the sweep exits 2 before its first integral, not after the
    # (7,3) row.
    from loopcs import cycles

    calls = []
    monkeypatch.setattr(cycles, "integrate_cycle", lambda *args, **kwargs: calls.append(args))
    assert run(["sweep", "--sweep-pq", "7:3,5:3", "--action", "rotate:alpha:0.15",
                "--nodes", "4"]) == 2
    assert "is not an integer" in capsys.readouterr().err
    assert calls == []


def test_sweep_a_rows_take_an_explicit_closing_speed(tmp_path):
    # At ell = 1 the alpha period is 2 pi, so speed 1 is the default
    # rotation, winding once: the same values and fitted exponent.
    out = tmp_path / "sweep.csv"
    values = []
    for action in ("rotate:alpha:1", "rotate:alpha"):
        assert run(["sweep", "--sweep-a", "0.4,0.6", "--action", action, "--nodes", "4",
                    "--out", str(out)]) == 0
        values.append(_csv_values(out))
    assert values[0] == values[1] and len(values[0]) == 3


def test_sweep_pq_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--sweep-pq", "7:3,3:3", "--nodes", "6",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kind,")
    assert any("error" in line and "3" in line for line in lines[1:])
    assert any(line.startswith("result,7,3") and ",ok," in line for line in lines[1:])
    # every quadrature flag reaches the sweep: bitwise equal to wcs
    flags = ["--nodes", "2", "--no-mask"]
    assert run(["sweep", "--sweep-pq", "7:3", *flags, "--out", str(out)]) == 0
    rec = tmp_path / "wcs.json"
    assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                "--action", "rotate:alpha", *flags, "--out", str(rec)]) == 0
    data = json.loads(rec.read_text())
    assert data["node_counts"] == [4, 4, 4, 4, 4]
    assert _csv_values(out) == [data["value"]]


def test_sweep_scan_exact_pairs(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["sweep", "--scan-p-max", "7", "--nodes", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any(line.startswith("result,7,3") for line in lines)
    assert any(line.startswith("result,7,5") for line in lines)


def test_sweep_scan_bound_refused_up_front(capsys, monkeypatch):
    # The pair scan is quadratic in N and each exact pair is integrated:
    # over the bound, exit 2 naming it, before any pair is scanned.
    scanned = []
    monkeypatch.setattr(cli, "_exact_pairs", scanned.append)
    for n in (cli.MAX_SCAN_P + 1, 100000):
        assert run(["sweep", "--scan-p-max", str(n)]) == 2
        assert f"--scan-p-max must be at most {cli.MAX_SCAN_P}" in capsys.readouterr().err
    assert scanned == []


def test_sweep_a_grid_appends_exponent(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--sweep-a", "0.4,0.6", "--nodes", "6",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("fitted_exponent")
    # --s-scale reaches the a-grid rows and stays exactly linear
    values = {}
    for s in ("1", "2"):
        assert run(["sweep", "--sweep-a", "0.5", "--s-scale", s, "--nodes", "6",
                    "--out", str(out)]) == 0
        values[s] = _csv_values(out)
    assert values["2"] == [2.0 * v for v in values["1"]]


def test_sweep_empty_exit_2():
    assert run(["sweep"]) == 2
    assert run(["sweep", "--sweep-a", ""]) == 2
    assert run(["sweep", "--sweep-pq", "7:3", "--action", "spin:alpha"]) == 2
    # the sweep picks its own family members: metric flags are refused
    for flag, val in (("--metric", "round_sphere3"), ("--p", "1"), ("--q", "1"), ("--a", "0.5")):
        assert run(["sweep", flag, val, "--scan-p-max", "7"]) == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("metric = ypq\np = 7\nq = 3\nsamples = 25  # comment\n")
    assert run(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "25 interior points" in out
    # explicit flag beats the file
    assert run(["verify", "--config", str(cfg), "--metric", "flat_torus3"]) == 0
    out = capsys.readouterr().out
    assert "flat_torus3" in out
    # an explicit flag wins even when it equals the flag's default
    assert run(["verify", "--config", str(cfg), "--samples", "100"]) == 0
    assert "100 interior points" in capsys.readouterr().out


def test_command_line_parsed_again_only_for_config_tokens(tmp_path, capsys, monkeypatch):
    # Without --config the command line is parsed once; a config file that
    # adds tokens parses it again, with the file's flags first.
    calls = []
    real = argparse.ArgumentParser.parse_args

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
    assert run(["verify", "--metric", "flat_torus3", "--samples", "12"]) == 0
    assert len(calls) == 1
    assert "12 interior points" in capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 10\n")
    calls.clear()
    assert run(["verify", "--config", str(cfg), "--metric", "flat_torus3"]) == 0
    assert len(calls) == 2
    assert "10 interior points" in capsys.readouterr().out


def test_config_unknown_key_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("metricc = ypq\n")
    assert run(["verify", "--config", str(cfg), "--metric", "flat_torus3"]) == 2
    cfg.write_text("metric = round_sphere3\n")  # not a sweep flag
    assert run(["sweep", "--config", str(cfg), "--scan-p-max", "7"]) == 2
    # values are checked like the flags' own type and choices
    for entry in ("s_scale = bogus", "nodes = 4.5", "no_mask = ture"):
        cfg.write_text(f"metric = round_sphere3\naction = rotate:phi\n{entry}\n")
        assert run(["wcs", "--config", str(cfg)]) == 2


def test_config_store_true_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "res.json"
    argv = ["wcs", "--config", str(cfg), "--metric", "ypq", "--p", "7", "--q", "3",
            "--action", "rotate:alpha", "--nodes", "2", "--out", str(out)]
    for raw, counts in (("yes", [4, 4, 4, 4, 4]), ("off", [0, 4, 0, 4, 0])):
        cfg.write_text(f"no_mask = {raw}\n")
        assert run(argv) == 0
        assert json.loads(out.read_text())["node_counts"] == counts


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert out.count("PASS") >= 7


def test_selftest_names_broken_suite(monkeypatch, capsys):
    # Inject a sign error into the curvature pipeline: the identity suite
    # must fail and the selftest must name it.
    real = geometry.curvature_pack

    def broken(g, dg, d2g):
        pack = real(g, dg, d2g)
        bad_down = pack.riemann_down.copy()
        bad_down[..., 0, 1, :, :] *= -1.0  # breaks first-pair antisymmetry
        return geometry.CurvaturePack(
            g=pack.g, gamma=pack.gamma,
            riemann_up=pack.riemann_up, riemann_down=bad_down)

    monkeypatch.setattr(geometry, "curvature_pack", broken)
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "curvature_identities" in out


def test_version_flag():
    assert run(["--version"]) == 0


def test_closed_stdout_exits_141_quietly():
    # The child waits for stdin to close, so its stdout pipe has no reader
    # before it writes: as ``loopcs selftest | head -0`` would see it.
    code = ("import sys; sys.stdin.read(); from loopcs.cli import main; "
            "raise SystemExit(main(sys.argv[1:]))")
    for argv in (["verify", "--metric", "round_sphere3", "--samples", "2"], ["selftest"]):
        proc = child(code, *argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE)
        proc.stdout.close()
        proc.stdin.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 141, (argv, err)
        assert err == b"", argv


def test_import_leaves_the_pool_machinery_unloaded():
    # concurrent.futures is imported when a pool is first wanted, so a
    # one-worker run never pays for it.
    code = "import sys, loopcs; print('concurrent.futures' in sys.modules)"
    proc = child(code, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=300)
    assert out.split() == ["False"], err


def _child_words(code, blas_threads=None):
    """The whitespace-separated words ``code`` prints in a fresh interpreter."""
    proc = child(code, blas_threads=blas_threads, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
def test_import_runs_blas_on_one_thread():
    # Importing loopcs sets OPENBLAS_NUM_THREADS=1 before numpy loads, so no
    # BLAS helper thread is started; a value the caller set is kept.
    code = ("import os, loopcs; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert _child_words(code) == ["1", "1"]
    assert _child_words(code, blas_threads="3")[1] == "3"


def test_results_do_not_depend_on_blas_threads():
    # The headline at 8 nodes and the orbit problem, in fresh interpreters:
    # the default one BLAS thread and two set by the caller give the same bits.
    code = """if True:
        from loopcs import metrics
        from loopcs.cycles import CircleAction, integrate_cycle
        from loopcs.quadrature import QuadratureSpec
        runs = [(metrics.ypq_metric(metrics.solve_ypq(7, 3)), 4, 3, QuadratureSpec(nodes=8)),
                (metrics.perturbed_torus(3), 0, 2, QuadratureSpec(nodes=6, mask=()))]
        for metric, axis, k, spec in runs:
            r = integrate_cycle(metric, CircleAction.rotation(axis=axis), k, quad=spec)
            print(r.value.hex(), r.error_estimate.hex())
        """
    default = _child_words(code)
    assert _child_words(code, blas_threads="2") == default
    assert default == ["-0x1.b7b35e85b71a3p+2", "0x1.7781c4adffb3dp-24",
                       "0x1.37c036d88ab66p-56", "0x1.0a1d61a72fa97p-55"]


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_warm_orbit_integral_keeps_its_heap():
    # Importing loopcs keeps freed batch arrays in the heap, so a second orbit
    # integral reuses the first one's pages: 0-2 minor faults measured,
    # 6,400-7,200 when glibc hands every batch a fresh mapping and trims it.
    code = ("import json, resource; "
            "from loopcs import CircleAction, QuadratureSpec, integrate_cycle, metrics\n"
            "def faults():\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    integrate_cycle(metrics.perturbed_torus(3), CircleAction.rotation(axis=0), 2,\n"
            "                    QuadratureSpec(nodes=6, mask=()))\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "print(json.dumps([faults(), faults()]))")
    proc = child(code, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=300)
    cold, warm = json.loads(out)
    assert warm <= 200, (cold, warm, err)


def test_headline_run_imports_nothing_after_cli():
    # Import-time traps (numpy.ma behind np.unique(axis=0) without
    # return_inverse, numpy.random behind a seeded generator) cost a fresh
    # interpreter milliseconds: neither the headline run nor an orbit run on
    # the perturbed torus adds a module to sys.modules.  (A loop, not
    # parametrize, so the test keeps the id the suite reports.)
    code = ("import json, sys; import loopcs.cli; before = set(sys.modules); "
            "code = loopcs.cli.main(sys.argv[1:]); "
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))")
    runs = [["--metric", "ypq", "--p", "7", "--q", "3", "--action", "rotate:alpha",
             "--nodes", "8"],
            ["--metric", "perturbed_torus3", "--action", "rotate:x0", "--no-mask",
             "--nodes", "4"]]
    for argv in runs:
        proc = child(code, "wcs", *argv, "--out", os.devnull,
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=300)
        assert json.loads(out) == [0, []], (argv, err)


@pytest.mark.parametrize("argv,message", [
    (["wcs", "--metric", "ypq", "--p", "7"], "--metric ypq requires --p and --q"),
    (["wcs", "--metric", "ypq-a", "--action", "rotate:alpha"], "--metric ypq-a requires --a"),
    (["wcs", "--metric", "ypq", "--p", "7", "--q", "3", "--action", "rotate:7"],
     "axis index 7 out of range for dim 5"),
    (["wcs", "--metric", "ypq", "--p", "7", "--q", "3", "--action", "rotate:alpha:1:2"],
     "expected rotate:AXIS or rotate:AXIS:SPEED"),
    (["wcs", "--metric", "ypq", "--p", "7", "--q", "3", "--action", "iterate:alpha"],
     "expected iterate:AXIS:N"),
    (["sweep", "--sweep-pq", "7-3"], "bad (p, q) entry '7-3'; expected P:Q"),
], ids=["ypq-without-q", "ypq-a-without-a", "axis-out-of-range", "rotate-extra-field",
        "iterate-without-n", "pq-without-colon"])
def test_malformed_inputs_exit_2_with_their_message(argv, message, monkeypatch, capsys):
    from loopcs import cycles

    monkeypatch.setattr(cycles, "riemann", lambda *args: pytest.fail("evaluated"))
    assert run(argv) == 2
    assert message in capsys.readouterr().err


def test_config_line_without_equals_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("metric = flat_torus3\nnodes 4\n")
    assert run(["wcs", "--config", str(cfg)]) == 2
    assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err


def test_rotation_with_no_box_axis_probes_no_orbit(tmp_path, monkeypatch):
    # Every axis of the flat 3-torus is constant, so the rotation leaves no
    # grid axis to probe: the ratio is never evaluated, the value is 0 and
    # every axis is weighted by its extent.
    from loopcs import cycles

    monkeypatch.setattr(cycles, "_ratio_batch", lambda *args: pytest.fail("probed"))
    out = tmp_path / "res.json"
    assert run(["wcs", "--metric", "flat_torus3", "--action", "rotate:x0", "--nodes", "4",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["value"] == 0 and data["node_counts"] == [0, 0, 0]
    assert data["provenance"]["masked_axes"] == ["x0", "x1", "x2"]
