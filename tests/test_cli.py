"""CLI surface: exit codes, record output, config files, selftest."""
import json

from loopcs import cli, geometry
from loopcs.records import json_to_result, result_to_json


def run(argv):
    return cli.main(argv)


def test_verify_flat_torus_passes(capsys):
    assert run(["verify", "--metric", "flat_torus3"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out and "0.000e+00" in out


def test_verify_ypq_includes_einstein(capsys):
    assert run(["verify", "--metric", "ypq", "--p", "7", "--q", "3",
                "--samples", "30"]) == 0
    out = capsys.readouterr().out
    assert "einstein_ric_4g" in out


def test_verify_bad_parameters_exit_2(capsys):
    assert run(["verify", "--metric", "ypq", "--p", "3", "--q", "3"]) == 2


def test_verify_requires_metric():
    assert run(["verify"]) == 2


def test_over_budget_run_refused_before_any_evaluation(monkeypatch, capsys):
    from loopcs import cycles, quadrature

    calls = []
    monkeypatch.setattr(quadrature, "MAX_LEVEL_POINTS", 1000)
    monkeypatch.setattr(cycles, "_density_batch", lambda *args: calls.append(args))
    assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                "--action", "rotate:alpha", "--no-mask", "--nodes", "4"]) == 2
    assert "32768 points" in capsys.readouterr().err  # 8^5 at the refined level
    assert calls == []


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


def test_wcs_sphere_k2_vanishes(tmp_path):
    out = tmp_path / "res.json"
    assert run(["wcs", "--metric", "round_sphere3", "--action", "rotate:phi",
                "--nodes", "8", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["value"]) < 1e-10


def test_wcs_unicode_axis_alias(tmp_path):
    out = tmp_path / "res.json"
    assert run(["wcs", "--metric", "round_sphere3", "--action", "rotate:φ",
                "--nodes", "4", "--out", str(out)]) == 0


def test_wcs_bad_action_exit_2():
    assert run(["wcs", "--metric", "round_sphere3", "--action", "spin:phi"]) == 2
    assert run(["wcs", "--metric", "round_sphere3", "--action", "rotate:w"]) == 2
    # theta is not periodic: the orbit would leave the chart
    assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                "--action", "rotate:theta"]) == 2


def test_wcs_bad_rule_flags_exit_2(monkeypatch, capsys):
    from loopcs import cycles

    calls = []
    monkeypatch.setattr(cycles, "_density_batch", lambda *args: calls.append(args))
    ypq = ["wcs", "--metric", "ypq", "--p", "7", "--q", "3", "--action", "rotate:alpha"]
    torus = ["wcs", "--metric", "perturbed_torus3", "--action", "rotate:x0", "--no-mask"]
    for argv, flags, needle in [(ypq, ["--max-refinements", "-1"], "max_refinements"),
                                (ypq, ["--loop-nodes", "0"], "loop_nodes"),
                                (torus, ["--loop-nodes", "0"], "loop_nodes")]:
        assert run(argv + flags) == 2
        assert needle in capsys.readouterr().err
    assert calls == []


def _csv_values(path):
    return [float(line.split(",")[4]) for line in path.read_text().splitlines()[1:]]


def test_sweep_pq_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--sweep-pq", "7:3,3:3", "--nodes", "6",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kind,")
    assert any("error" in line and "3" in line for line in lines[1:])
    assert any(line.startswith("result,7,3") and ",ok," in line for line in lines[1:])
    # every quadrature flag reaches the sweep: bitwise equal to wcs
    flags = ["--nodes", "3", "--refine-factor", "1", "--no-mask"]
    assert run(["sweep", "--sweep-pq", "7:3", *flags, "--out", str(out)]) == 0
    rec = tmp_path / "wcs.json"
    assert run(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                "--action", "rotate:alpha", *flags, "--out", str(rec)]) == 0
    data = json.loads(rec.read_text())
    assert data["node_counts"] == [3, 3, 3, 3, 3]
    assert _csv_values(out) == [data["value"]]


def test_sweep_scan_exact_pairs(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["sweep", "--scan-p-max", "7", "--nodes", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any(line.startswith("result,7,3") for line in lines)
    assert any(line.startswith("result,7,5") for line in lines)


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


def test_config_unknown_key_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("metricc = ypq\n")
    assert run(["verify", "--config", str(cfg), "--metric", "flat_torus3"]) == 2
    cfg.write_text("metric = round_sphere3\n")  # not a sweep flag
    assert run(["sweep", "--config", str(cfg), "--scan-p-max", "7"]) == 2
    # values are checked like the flags' own type and choices
    for entry in ("variant = bogus", "nodes = 4.5"):
        cfg.write_text(f"metric = round_sphere3\naction = rotate:phi\n{entry}\n")
        assert run(["wcs", "--config", str(cfg)]) == 2


def test_config_store_true_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "res.json"
    argv = ["wcs", "--config", str(cfg), "--metric", "ypq", "--p", "7", "--q", "3",
            "--action", "rotate:alpha", "--nodes", "3", "--refine-factor", "1",
            "--out", str(out)]
    for raw, counts in (("yes", [3, 3, 3, 3, 3]), ("off", [0, 3, 0, 3, 0])):
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
    real = geometry.riemann

    def broken(metric, x):
        pack = real(metric, x)
        bad_down = pack.riemann_down.copy()
        bad_down[..., 0, 1, :, :] *= -1.0  # breaks first-pair antisymmetry
        return geometry.CurvaturePack(
            g=pack.g, ginv=pack.ginv, gamma=pack.gamma,
            riemann_up=pack.riemann_up, riemann_down=bad_down, ricci=pack.ricci)

    monkeypatch.setattr(geometry, "riemann", broken)
    assert run(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "curvature_identities" in out


def test_version_flag():
    assert run(["--version"]) == 0
