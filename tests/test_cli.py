import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dne import checks, cli
from dne.cli import DEFAULT_CHECKS, main
from dne.io_utils import field_from_csv, write_field_csv
from dne.meshing import interpolate
from dne.scenario import load_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CONFIG = """
[mesh]
dimension = 1
extents = 0 1
resolution = 40

[exponent]
kind = constant
value = 2.5

[problem]
q = 1.25

[source]
enabled = true
g = constant 1.0
gamma = 1.0
beta = 0.0

[potential]
kind = constant
profile = bump 1.0

[initial]
profile = bump 0.5

[run]
horizon = 0.5
steps = 5
lambda = 1.0
seed = 4242

[sweep]
kind = lambda
lambdas = 0.5 1 2 4
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(textwrap.dedent(CONFIG))
    return str(path)


class TestFieldCsvRoundTrip:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_full_precision(self, tmp_path, dim, mesh_1d, mesh_2d):
        mesh = mesh_1d if dim == 1 else mesh_2d
        v = interpolate(mesh, lambda x: np.sin(np.pi * x[:, 0]) / 3.0)
        path = tmp_path / "field.csv"
        write_field_csv(v, str(path))
        back = field_from_csv(mesh, str(path))
        np.testing.assert_array_equal(back.values, v.values)

    def test_header_format(self, tmp_path, mesh_1d):
        path = tmp_path / "f.csv"
        write_field_csv(interpolate(mesh_1d, lambda x: x[:, 0]), str(path))
        assert open(path).readline().strip() == "# columns: x,value"

    def test_interior_row_text(self, tmp_path, mesh_2d):
        v = interpolate(mesh_2d, lambda x: np.sin(np.pi * x[:, 0])
                        * np.sin(np.pi * x[:, 1]) / 3.0)
        path = tmp_path / "f.csv"
        write_field_csv(v, str(path))
        lines = open(path).read().splitlines()
        k = int(mesh_2d.interior[len(mesh_2d.interior) // 2])
        x, y = (float(c) for c in mesh_2d.vertices[k])
        val = float(v.values[k])
        assert lines[k + 1] == f"{x!r},{y!r},{val!r}"


class TestCommands:
    def test_solve_elliptic(self, config_path, tmp_path):
        out = tmp_path / "o1"
        assert main(["solve-elliptic", "--config", config_path, "--out", str(out)]) == 0
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["seed"] == 4242
        assert manifest["regime"] == "mixed"
        assert (out / "solution.csv").exists()

    def test_stationary(self, config_path, tmp_path):
        out = tmp_path / "o2"
        assert main(["stationary", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "stationary.csv").exists()

    def test_evolve_manifest_links_stabilization(self, config_path, tmp_path):
        out = tmp_path / "o3"
        assert main(["evolve", "--config", config_path, "--out", str(out)]) == 0
        manifest = json.load(open(out / "manifest.json"))
        assert "stabilization_error_final" in manifest
        assert manifest["dissipation_ok"] is True
        assert len(manifest["diagnostics"]) == 5
        assert manifest["config_echo"].strip().startswith("[mesh]")
        assert (out / "field_00005.csv").exists()

    def test_verify_subset(self, config_path, tmp_path):
        out = tmp_path / "o4"
        code = main(["verify", "--config", config_path, "--out", str(out),
                     "--check", "alg-inequality", "--check", "picone",
                     "--seed", "7"])
        assert code == 0
        report = json.load(open(out / "report.json"))
        assert [r["check_name"] for r in report] == ["alg-inequality", "picone"]
        assert all(r["passed"] for r in report)

    def test_sweep_slope(self, config_path, tmp_path):
        out = tmp_path / "o5"
        assert main(["sweep", "--config", config_path, "--out", str(out)]) == 0
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["fitted_slope"] == pytest.approx(1.0 / 1.5, abs=0.02)
        rows = [l for l in open(out / "summary.csv") if not l.startswith("#")]
        assert len(rows) == 4

    def test_sweep_pq_grid(self, config_path, tmp_path):
        text = textwrap.dedent(CONFIG).replace(
            "kind = lambda\nlambdas = 0.5 1 2 4",
            "kind = pq\np_values = 0.9 2.5 3.0\nq_values = 1.2 1.4")
        cfg = tmp_path / "pq.cfg"
        cfg.write_text(text)
        out = tmp_path / "opq"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l.strip().split(",") for l in open(out / "summary.csv")
                if not l.startswith("#")]
        assert len(rows) == 6
        # no exponent field exists for p <= 1: such a cell is inadmissible
        # like any cell outside 1 < q < p
        assert rows[:2] == [["0.9", q, "invalid", "nan"] for q in ("1.2", "1.4")]
        regimes = {(r[0], r[1]): r[2] for r in rows}
        assert regimes[("3.0", "1.2")] == "slow-diffusion"
        assert regimes[("2.5", "1.4")] == "fast-diffusion"

    def test_unknown_check_fails(self, config_path, tmp_path):
        code = main(["verify", "--config", config_path, "--out",
                     str(tmp_path / "o6"), "--check", "nope"])
        assert code == 2

    @pytest.mark.parametrize("old, new", [
        ("q = 1.25", "q = 3.0"),
        ("steps = 5", "steps = 0"),
        ("horizon = 0.5", "horizon = -1.0"),
        ("resolution = 40", "resolution = 1"),
        ("extents = 0 1", "extents = 1 0"),
        ("profile = bump 0.5", "profile = constant 0.0"),
        ("steps = 5", "steps = 5\nstore_stride = 0"),
        ("steps = 5", "steps = 5\nstore_stride = -3"),
        ("lambda = 1.0", "lambda = 0.0"),
        ("lambdas = 0.5 1 2 4", "lambdas = -1 1 2 4"),
    ], ids=["q", "steps", "horizon", "resolution", "extents", "initial",
            "stride-0", "stride-negative", "lambda", "sweep-lambdas"])
    def test_invalid_config_exit_code(self, tmp_path, capsys, old, new):
        # a violated hypothesis or a malformed value is a configuration error
        # (exit 2), not a failed check (exit 1) or a traceback
        bad = tmp_path / "bad.cfg"
        bad.write_text(textwrap.dedent(CONFIG).replace(old, new, 1))
        code = main(["evolve", "--config", str(bad), "--out", str(tmp_path / "o7")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_config_exit_code(self, tmp_path):
        code = main(["evolve", "--config", str(tmp_path / "none.cfg"), "--out",
                     str(tmp_path / "o8")])
        assert code == 2

    def test_commands_do_not_rebuild_the_scenario(self, config_path, tmp_path,
                                                  monkeypatch):
        # every command runs on the setup built at load; building any part of
        # the scenario a second time trips one of these
        scenario = load_scenario(config_path)

        def rebuilt(*args, **kwargs):
            raise AssertionError("scenario rebuilt after load")

        for name in ("LerayLionsOperator", "EvolutionSetup", "interpolate",
                     "interval_mesh"):
            monkeypatch.setattr(f"dne.scenario.{name}", rebuilt)
        # five steps are too few for the stabilization check to pass
        suite = [name for name in DEFAULT_CHECKS if name != "stabilization"]
        for command in ("solve-elliptic", "stationary", "evolve", "verify", "sweep"):
            assert cli.run(command, scenario, str(tmp_path / command),
                           checks=suite) == 0


class TestVerifyPipeline:
    def test_shared_artifacts_built_once(self, config_path, tmp_path, monkeypatch):
        calls = {}

        def counting(name):
            inner = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)
            return wrapper

        for name in ("evolve", "make_subsolution", "make_supersolution",
                     "solve_stationary"):
            monkeypatch.setattr(cli, name, counting(name))
        main(["verify", "--config", config_path, "--out", str(tmp_path / "o")])
        # base run, shrunk start, two bracket runs, full stabilization run
        assert calls == {"evolve": 5, "make_subsolution": 1,
                         "make_supersolution": 1, "solve_stationary": 1}

    def test_suite_entries_match_single_checks(self, config_path, tmp_path):
        main(["verify", "--config", config_path, "--out", str(tmp_path / "all")])
        suite = json.load(open(tmp_path / "all" / "report.json"))
        alone = []
        for name in DEFAULT_CHECKS:
            out = tmp_path / name
            main(["verify", "--config", config_path, "--out", str(out),
                  "--check", name])
            alone.extend(json.load(open(out / "report.json")))
        assert alone == suite

    def test_unknown_check_rejected_before_any_check(self, config_path, tmp_path,
                                                     monkeypatch):
        ran = []
        monkeypatch.setattr(checks, "check_alg_inequality",
                            lambda *args, **kwargs: ran.append(args))
        out = tmp_path / "o"
        code = main(["verify", "--config", config_path, "--out", str(out),
                     "--check", "alg-inequality", "--check", "nope"])
        assert code == 2
        assert ran == []
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
    def test_default_suite_passes_on_shipped_config(self, config, tmp_path):
        out = tmp_path / "o"
        assert main(["verify", "--config", str(CONFIGS / config),
                     "--out", str(out)]) == 0
        assert all(r["passed"] for r in json.load(open(out / "report.json")))
