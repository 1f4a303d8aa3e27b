import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dne import checks, cli, elliptic
from dne.cli import DEFAULT_CHECKS, main
from dne.io_utils import atomic_open, field_to_csv, read_field_csv, write_json
from dne.meshing import DiscreteField, interpolate, interval_mesh, rectangle_mesh
from dne.scenario import ParseError, ValidationError, load_scenario

from oracles import evolve, seeded_rng

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

# a scenario whose potential is set by the caller's [potential] lines
CONE_CONFIG = """
[mesh]
dimension = 1
resolution = 100

[exponent]
value = 2.5

[problem]
q = 1.25

[potential]
kind = constant
{potential}

[initial]
profile = bump 0.5

[run]
horizon = 1.0
steps = 5
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
        path.write_text(field_to_csv(v))
        back = read_field_csv(str(path), mesh.vertices, "mesh vertices")
        np.testing.assert_array_equal(back, v.values)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_extreme_magnitudes(self, tmp_path, dim, mesh_1d, mesh_2d):
        # repr text read back by np.loadtxt is the same double, 1e-300 to 1e300
        mesh = mesh_1d if dim == 1 else mesh_2d
        rng = seeded_rng(7, f"field-csv-{dim}d")
        vals = np.zeros(mesh.n_vertices)
        vals[mesh.interior] = (rng.choice([-1.0, 1.0], mesh.interior.size)
                               * 10.0 ** rng.uniform(-300, 300, mesh.interior.size))
        path = tmp_path / "field.csv"
        path.write_text(field_to_csv(DiscreteField(mesh, vals)))
        back = read_field_csv(str(path), mesh.vertices, "mesh vertices")
        assert back.tobytes() == vals.tobytes()

    def write_rows(self, path, rows):
        path.write_text("# columns: x,value\n"
                        + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        return str(path)

    def test_wrong_row_count_rejected(self, tmp_path, mesh_1d):
        xs = mesh_1d.vertices[:-1, 0].tolist()
        path = self.write_rows(tmp_path / "f.csv", [(x, 0.0) for x in xs])
        with pytest.raises(ValueError, match=f"has {len(xs)} values for "
                                             f"{len(xs) + 1} mesh vertices"):
            read_field_csv(path, mesh_1d.vertices, "mesh vertices")

    @pytest.mark.parametrize("shift, extra", [(1e-9, False), (0.0, True),
                                              (float("nan"), False)],
                             ids=["off-the-points", "extra-column", "nan"])
    def test_mismatched_coordinates_rejected(self, tmp_path, mesh_1d, shift, extra):
        rows = [(x + shift, *([x] if extra else []), 0.0)
                for x in mesh_1d.vertices[:, 0].tolist()]
        path = self.write_rows(tmp_path / "f.csv", rows)
        with pytest.raises(ValueError, match="does not match the mesh vertices"):
            read_field_csv(path, mesh_1d.vertices, "mesh vertices")

    def test_unreadable_path_is_oserror(self, tmp_path, mesh_1d):
        # the CLI reports it as an i/o error with exit code 2
        # (test_missing_initial_file_exit_code)
        with pytest.raises(OSError):
            read_field_csv(str(tmp_path / "missing.csv"), mesh_1d.vertices,
                           "mesh vertices")

    def test_header_format(self, tmp_path, mesh_1d):
        path = tmp_path / "f.csv"
        path.write_text(field_to_csv(interpolate(mesh_1d, lambda x: x[:, 0])))
        assert open(path).readline().strip() == "# columns: x,value"

    def test_interior_row_text(self, tmp_path, mesh_2d):
        v = interpolate(mesh_2d, lambda x: np.sin(np.pi * x[:, 0])
                        * np.sin(np.pi * x[:, 1]) / 3.0)
        path = tmp_path / "f.csv"
        path.write_text(field_to_csv(v))
        lines = open(path).read().splitlines()
        k = int(mesh_2d.interior[len(mesh_2d.interior) // 2])
        x, y = (float(c) for c in mesh_2d.vertices[k])
        val = float(v.values[k])
        assert lines[k + 1] == f"{x!r},{y!r},{val!r}"


    def test_whole_files(self, tmp_path):
        # every byte of a 1D and a 2D field file: header, vertex order,
        # full-precision coordinates and values
        interval = interval_mesh(0.0, 1.0, 5)
        rectangle = rectangle_mesh(0.0, 1.0, 0.0, 1.5, 3, 3)
        fields = {
            "1d": interpolate(interval, lambda x: np.sin(np.pi * x[:, 0]) / 3.0),
            "2d": interpolate(rectangle, lambda x: (x[:, 0] + x[:, 1]) / 7.0)}
        expected = {
            "1d": ("# columns: x,value\n"
                   "0.0,0.0\n"
                   "0.2,0.19592841743082437\n"
                   "0.4,0.31701883876505116\n"
                   "0.6000000000000001,0.31701883876505116\n"
                   "0.8,0.19592841743082443\n"
                   "1.0,0.0\n"),
            "2d": ("# columns: x,y,value\n"
                   "0.0,0.0,0.0\n"
                   "0.0,0.5,0.0\n"
                   "0.0,1.0,0.0\n"
                   "0.0,1.5,0.0\n"
                   "0.3333333333333333,0.0,0.0\n"
                   "0.3333333333333333,0.5,0.11904761904761904\n"
                   "0.3333333333333333,1.0,0.19047619047619047\n"
                   "0.3333333333333333,1.5,0.0\n"
                   "0.6666666666666666,0.0,0.0\n"
                   "0.6666666666666666,0.5,0.16666666666666666\n"
                   "0.6666666666666666,1.0,0.23809523809523808\n"
                   "0.6666666666666666,1.5,0.0\n"
                   "1.0,0.0,0.0\n"
                   "1.0,0.5,0.0\n"
                   "1.0,1.0,0.0\n"
                   "1.0,1.5,0.0\n")}
        for name, field in fields.items():
            path = tmp_path / f"{name}.csv"
            # twice on one mesh: the second file reads the cached coordinates
            for _ in range(2):
                path.write_text(field_to_csv(field))
                assert path.read_bytes() == expected[name].encode()


class TestWriteJson:
    @staticmethod
    def nested_payload(keys=300):
        """Several hundred keys at three depths, with the value types a
        manifest holds."""
        return {f"key{i:03d}": {"index": i, "value": i / 7.0, "flag": i % 2 == 0,
                                "none": None, "text": f"row {i}",
                                "items": [i, -0.5 * i, [f"k{i}", 1e-300]]}
                for i in range(keys)}

    def test_bytes_match_one_dumps(self, tmp_path):
        payload = self.nested_payload()
        path = tmp_path / "out.json"
        write_json(payload, str(path))
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode()
        assert sorted(os.listdir(tmp_path)) == ["out.json"]

    def test_encoder_error_leaves_no_temporary_file(self, tmp_path):
        # the unserializable value sorts last, so the encoder fails after the
        # temporary file was made and many chunks were handed to it; an
        # existing file is left as it was
        payload = self.nested_payload()
        payload["zzz"] = {"bad": object()}
        path = tmp_path / "out.json"
        path.write_text("old\n")
        with pytest.raises(TypeError):
            write_json(payload, str(path))
        assert sorted(os.listdir(tmp_path)) == ["out.json"]
        assert path.read_text() == "old\n"

    def test_streams_the_text(self, tmp_path):
        # the encoder's chunks go to the file as they come: the peak of the
        # write stays below the length of the text (a joined `json.dumps`
        # holds about 8 times it)
        payload = self.nested_payload(3000)
        length = len(json.dumps(payload, indent=2, sort_keys=True))
        assert length > 500_000
        tracemalloc.start()
        try:
            write_json(payload, str(tmp_path / "out.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length


class TestAtomicOpen:
    # for a block that raises, see
    # `TestWriteJson.test_encoder_error_leaves_no_temporary_file`
    def test_replaces_the_file_in_a_new_directory(self, tmp_path):
        path = tmp_path / "new" / "out.csv"
        for text in ("first\n", "second\n"):
            with atomic_open(str(path)) as handle:
                handle.write(text)
            assert sorted(os.listdir(path.parent)) == ["out.csv"]
            assert path.read_text() == text


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

    def test_evolve_manifest_solver_entries_are_the_reports(self, config_path,
                                                             tmp_path):
        # each step's `solver` entry writes its report's fields, as
        # `dataclasses.asdict` of the report does
        out = tmp_path / "o"
        assert main(["evolve", "--config", config_path, "--out", str(out)]) == 0
        manifest = json.load(open(out / "manifest.json"))
        reports = evolve(load_scenario(config_path).setup).reports
        assert [d["solver"] for d in manifest["diagnostics"]] == [
            dataclasses.asdict(r) for r in reports]

    def test_evolve_manifest_marks_repeated_steps(self, tmp_path):
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(CONFIGS / "smoke_2d.cfg"),
                     "--out", str(out)]) == 0
        manifest = json.load(open(out / "manifest.json"))
        assert [d["solver"]["repeated"] for d in manifest["diagnostics"]] == [False] * 10

    def test_evolve_store_stride_thins_only_the_written_fields(self, config_path,
                                                                tmp_path):
        cfg = tmp_path / "stride.cfg"
        cfg.write_text(open(config_path).read().replace(
            "steps = 5", "steps = 10\nstore_stride = 4"))
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.load(open(out / "manifest.json"))
        # every stride-th step plus the last one
        assert manifest["stored_indices"] == [0, 4, 8, 10]
        assert sorted(f.name for f in out.glob("field_*.csv")) == [
            f"field_{n:05d}.csv" for n in (0, 4, 8, 10)]
        assert [d["index"] for d in manifest["diagnostics"]] == list(range(1, 11))
        assert [d["time"] for d in manifest["diagnostics"]] == manifest["times"][1:]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_evolve_renders_each_distinct_field_once(self, config_path, tmp_path,
                                                      monkeypatch, stride):
        # past the discrete steady state every step returns the same field
        # object, whose text is rendered once and written to each of its files
        cfg = tmp_path / "steady.cfg"
        cfg.write_text(open(config_path).read().replace("horizon = 0.5", "horizon = 20.0")
                       .replace("steps = 5", f"steps = 40\nstore_stride = {stride}"))
        runs, rendered = [], []

        class RecordedRun(cli.Run):
            def __init__(self, setup):
                super().__init__(setup)
                runs.append(self)

        def render(field_):
            rendered.append(field_)
            return field_to_csv(field_)

        monkeypatch.setattr(cli, "Run", RecordedRun)
        monkeypatch.setattr(cli, "field_to_csv", render)
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        stored = json.load(open(out / "manifest.json"))["stored_indices"]
        fields = [runs[0].head().fields[n] for n in stored]
        distinct = {id(f) for f in fields}
        assert len(distinct) < len(stored)  # the run reached its steady state
        assert len(rendered) == len({id(f) for f in rendered}) == len(distinct)
        for n, field_ in zip(stored, fields):
            assert (out / f"field_{n:05d}.csv").read_text() == field_to_csv(field_)

    def test_verify_subset(self, config_path, tmp_path):
        out = tmp_path / "o4"
        # a name given twice runs once, where it is first named
        code = main(["verify", "--config", config_path, "--out", str(out),
                     "--check", "alg-inequality", "--check", "picone",
                     "--check", "alg-inequality"])
        assert code == 0
        report = json.load(open(out / "report.json"))
        assert [r["check_name"] for r in report] == ["alg-inequality", "picone"]
        assert all(r["passed"] for r in report)

    def test_picone_report_does_not_depend_on_the_seed(self, tmp_path):
        # no check draws its locations: the whole report is the same
        reports = []
        for seed in ("1", "2"):
            cfg = tmp_path / f"seed{seed}.cfg"
            cfg.write_text(textwrap.dedent(CONFIG).replace("seed = 4242",
                                                           f"seed = {seed}"))
            out = tmp_path / f"seed{seed}"
            assert main(["verify", "--config", str(cfg), "--out", str(out),
                         "--check", "picone", "--check", "alg-inequality"]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("seed", ["0", "1", "20240801"])
    def test_power_inequality_passes_at_large_q(self, seed, tmp_path):
        # p = 4, q = 3, gamma = 2 is admissible; a sampled power inequality
        # failed here by roundoff at b = 0, for some seeds and not others
        text = (CONFIGS / "default_1d.cfg").read_text()
        for old, new in [("value = 2.5", "value = 4.0"), ("q = 1.25", "q = 3.0"),
                         ("gamma = 1.0", "gamma = 2.0"),
                         ("seed = 20240801", f"seed = {seed}")]:
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "p4.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--check", "alg-inequality"]) == 0
        [report] = json.load(open(out / "report.json"))
        assert report["worst_margin"] > 0.0 and report["slack"] == 0.0

    def test_run_seed_changes_no_output(self, tmp_path, capsys):
        # `[run] seed` is echoed by the manifest and read by nothing else
        text = (CONFIGS / "default_1d.cfg").read_text()
        for old, new in [("resolution = 100", "resolution = 20"),
                         ("steps = 400", "steps = 20")]:
            assert old in text
            text = text.replace(old, new)
        outputs = []
        for seed in ("1", "2"):
            cfg = tmp_path / f"seed{seed}.cfg"
            cfg.write_text(text.replace("seed = 20240801", f"seed = {seed}"))
            files = {}
            for command in ("evolve", "verify", "stationary", "solve-elliptic"):
                out = tmp_path / f"seed{seed}" / command
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
                files[f"{command} stdout, stderr"] = capsys.readouterr()
                for path in sorted(out.iterdir()):
                    data = path.read_bytes()
                    if path.name == "manifest.json":
                        manifest = json.loads(data)
                        assert manifest.pop("seed") == int(seed)
                        assert manifest.pop("config_echo") == cfg.read_text()
                        data = json.dumps(manifest)
                    files[f"{command}/{path.name}"] = data
            outputs.append(files)
        assert "verify/report.json" in outputs[0]
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("command", ["solve-elliptic", "stationary", "evolve",
                                         "sweep"])
    def test_check_on_other_command_rejected(self, config_path, tmp_path, capsys,
                                             command):
        out = tmp_path / "o"
        code = main([command, "--config", config_path, "--out", str(out),
                     "--check", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: --check applies only to verify\n"
        assert not out.exists()

    def test_unknown_check_fails(self, config_path, tmp_path, capsys):
        out = tmp_path / "o6"
        code = main(["verify", "--config", config_path, "--out", str(out),
                     "--check", "nope"])
        assert code == 2
        # rejected before `--out` is created, as `--check` on another command is
        assert capsys.readouterr().err.startswith("error: unknown check 'nope'")
        assert not out.exists()

    def test_positivity_hopf_on_coarse_rectangle(self, tmp_path, capsys):
        # with at most 5 cells per axis the corner bands hold every boundary
        # probe, so the check reads the interior minimum alone
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text((CONFIGS / "smoke_2d.cfg").read_text().replace(
            "resolution = 12", "resolution = 4"))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--check", "positivity-hopf"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        [report] = json.load(open(out / "report.json"))
        assert report["samples"] == 1

    @pytest.mark.parametrize("old, new, error", [
        ("q = 1.25", "q = 3.0", ValidationError),
        ("steps = 5", "steps = 0", ParseError),
        ("horizon = 0.5", "horizon = -1.0", ParseError),
        ("resolution = 40", "resolution = 1", ParseError),
        ("extents = 0 1", "extents = 1 0", ParseError),
        ("profile = bump 0.5", "profile = constant 0.0", ParseError),
        ("steps = 5", "steps = 5\nstore_stride = 0", ParseError),
        ("steps = 5", "steps = 5\nstore_stride = -3", ParseError),
        ("lambda = 1.0", "lambda = 0.0", ParseError),
        ("lambdas = 0.5 1 2 4", "lambdas = -1 1 2 4", ParseError),
        ("horizon = 0.5", "horizon = inf", ParseError),
        ("horizon = 0.5", "horizon = nan", ParseError),
        ("lambda = 1.0", "lambda = inf", ParseError),
        ("gamma = 1.0", "gamma = inf", ParseError),
        ("beta = 0.0", "beta = nan", ParseError),
        ("seed = 4242", "seed = -3", ParseError),
        ("kind = lambda\nlambdas = 0.5 1 2 4", "kind = pq\np_values = inf 2.5\n"
         "q_values = 1.2", ParseError),
        ("kind = constant\nprofile = bump 1.0",
         "kind = tabulated\ntimes = 0 nan\nprofile.1 = bump 1.0\n"
         "profile.2 = bump 1.0", ParseError),
        ("extents = 0 1", "extents = 0 inf", ParseError),
        ("profile = bump 1.0", "profile = constant inf", ParseError),
        ("kind = constant\nvalue = 2.5", "kind = affine\nvalue = 2.5\nslope = 0.0 5.0",
         ParseError),
        ("profile = bump 1.0", "profile = affine 1.0 0.0 7.0", ParseError),
        ("kind = lambda", "kind = lamda", ParseError),
        ("dimension = 1", "dimension = 3", ParseError),
        ("extents = 0 1", "extents = 0 1 2", ParseError),
        ("resolution = 40", "resolution = 40 40", ParseError),
        ("kind = constant\nvalue = 2.5", "kind = cubic\nvalue = 2.5", ParseError),
        ("kind = constant\nprofile = bump 1.0", "kind = periodic\nprofile = bump 1.0",
         ParseError),
        ("kind = lambda\nlambdas = 0.5 1 2 4", "kind = lambda", ParseError),
        ("kind = lambda\nlambdas = 0.5 1 2 4", "kind = pq\np_values = 2.5", ParseError),
        ("kind = lambda\nlambdas = 0.5 1 2 4", "kind = pq\np_values = 2.5\n"
         "q_values = 1.2 nan", ParseError),
        ("enabled = true", "enabled = ture", ParseError),
        # (H_h) fails only off the evenly sampled times: at a knot, or in the
        # large-time limit
        ("kind = constant\nprofile = bump 1.0",
         "kind = tabulated\ntimes = 0 0.25 0.26 0.27 1\n"
         "profile.1 = constant 1.0\nprofile.2 = constant 1.0\n"
         "profile.3 = constant -10\nprofile.4 = constant 1.0\n"
         "profile.5 = constant 1.0\nlower_envelope = constant 0.5", ValidationError),
        ("kind = constant\nprofile = bump 1.0",
         "kind = tabulated\ntimes = 0 1 100\nprofile.1 = constant 1.0\n"
         "profile.2 = constant 1.0\nprofile.3 = constant 0\n"
         "lower_envelope = constant 0.5", ValidationError),
        ("kind = constant\nprofile = bump 1.0",
         "kind = decaying\nprofile = constant 0.4\nlower_envelope = constant 0.5",
         ValidationError),
    ], ids=["q", "steps", "horizon", "resolution", "extents", "initial",
            "stride-0", "stride-negative", "lambda", "sweep-lambdas",
            "horizon-inf", "horizon-nan", "lambda-inf", "gamma-inf", "beta-nan",
            "seed-negative", "sweep-p-inf", "tabulated-times-nan", "extents-inf",
            "potential-inf", "exponent-slope-past-axes", "potential-slope-past-axes",
            "sweep-kind", "dimension", "extents-count", "resolution-count",
            "exponent-kind", "potential-kind", "sweep-lambda-empty", "sweep-pq-empty",
            "sweep-pq-q-nan", "source-enabled-word", "tabulated-dip-between-samples",
            "tabulated-limit-past-horizon", "decaying-limit-below-envelope"])
    def test_invalid_config_exit_code(self, tmp_path, capsys, old, new, error):
        # a violated hypothesis or a malformed value is a configuration error
        # (exit 2), not a failed check (exit 1) or a traceback
        bad = tmp_path / "bad.cfg"
        bad.write_text(textwrap.dedent(CONFIG).replace(old, new, 1))
        code = main(["evolve", "--config", str(bad), "--out", str(tmp_path / "o7")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        # q = 3.0 and the last three potentials break a hypothesis; every
        # other case is a malformed value
        with pytest.raises(error):
            load_scenario(str(bad))

    @pytest.mark.parametrize("old, new, key", [
        ("steps = 5", "stepz = 5", "[run] stepz"),
        ("steps = 5", "Steps = 5", "[run] Steps"),
        ("[potential]", "[potentail]", "[potentail] kind"),
        ("value = 2.5", "value = 2.5\nslope = 0.5", "[exponent] slope"),
        ("[problem]", "[operator]\npartition = 1\nweight.2 = constant 2.0\n\n[problem]",
         "[operator] weight.2"),
        ("profile = bump 0.5", "file = {v0}\nprofile = bump 0.5", "[initial] profile"),
        ("enabled = true", "enabled = false", "[source] g"),
        ("[mesh]", "[DEFAULT]\nresolution = 40\n\n[mesh]", "[DEFAULT] resolution"),
        ("lambdas = 0.5 1 2 4", "lambdas = 0.5 1 2 4\np_values = 2.5", "[sweep] p_values"),
    ], ids=["misspelt", "capitalised", "misspelt-section", "slope-under-constant",
            "weight-past-blocks", "profile-beside-file", "g-when-disabled",
            "default-section", "grid-under-lambda"])
    def test_unread_key_exit_code(self, tmp_path, capsys, old, new, key):
        # a key dne does not read would change nothing, so it is an error, not
        # a setting silently dropped
        v0 = tmp_path / "v0.csv"
        v0.write_text(field_to_csv(interpolate(interval_mesh(0.0, 1.0, 40),
                                               lambda x: np.sin(np.pi * x[:, 0]))))
        bad = tmp_path / "bad.cfg"
        bad.write_text(textwrap.dedent(CONFIG).replace(old, new.format(v0=v0), 1))
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {key} is not a setting dne reads\n"
        assert not out.exists()

    def test_stray_percent_exit_code(self, tmp_path, capsys):
        # configparser interpolates every value as the sections are read, an
        # unread section's too: a lone % is a malformed file, not a traceback
        bad = tmp_path / "bad.cfg"
        bad.write_text(textwrap.dedent(CONFIG) + "\n[notes]\nx = 50% faster\n")
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: malformed scenario file {bad}: '%' must be")
        assert not out.exists()

    # h within ENVELOPE_TOL of its envelope but negative near x = 0 (the
    # envelope is about 1e-72 there), and h identically zero above a nonzero
    # envelope below 1e-12: both are rejected at load, before --out exists
    @pytest.mark.parametrize("command", ["stationary", "solve-elliptic", "evolve",
                                         "verify"])
    @pytest.mark.parametrize("potential", [
        "profile = affine -1e-13 1e-11\nlower_envelope = power-of-delta 1e-3 30",
        "profile = constant 0.0\nlower_envelope = constant 1e-13",
    ], ids=["negative", "zero"])
    def test_potential_outside_the_cone_exit_code(self, tmp_path, capsys, command,
                                                  potential):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONE_CONFIG.format(potential=potential))
        out = tmp_path / "o"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [(H_h)] ") and "Traceback" not in err
        assert not out.exists()

    def test_sweep_without_a_kind_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "nosweep.cfg"
        cfg.write_text(textwrap.dedent(CONFIG).split("[sweep]")[0])
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: scenario has no [sweep] kind\n"
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("beta = 0.0", "beta = 0.3", "[(f_1)] beta = 0.3 must lie in [0, q-1) = [0, 0.25)"),
        ("gamma = 1.0", "gamma = -0.5",
         "[(f_2)] beta + gamma = -0.5 must exceed q - 3/2 = -0.25"),
    ], ids=["f1", "f2"])
    def test_source_exponents_outside_the_q_bounds_exit_code(self, tmp_path, capsys,
                                                             old, new, message):
        # the setup checks the source's exponents against its q at load
        bad = tmp_path / "bad.cfg"
        bad.write_text(textwrap.dedent(CONFIG).replace(old, new, 1))
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_initial_datum_with_a_negative_node_exit_code(self, tmp_path, capsys,
                                                          command):
        # one node of 41 at -1e-3 leaves every element mean positive: the
        # setup rejects the datum at load, before a solve projects it or a
        # check raises a power of it
        mesh = interval_mesh(0.0, 1.0, 40)
        v0 = interpolate(mesh, lambda x: 2.0 * x[:, 0] * (1.0 - x[:, 0]))
        values = v0.values.copy()
        values[20] = -1e-3
        field_file = tmp_path / "v0.csv"
        field_file.write_text(field_to_csv(v0.with_values(values)))
        bad = tmp_path / "bad.cfg"
        bad.write_text(textwrap.dedent(CONFIG).replace("profile = bump 0.5",
                                                       f"file = {field_file}", 1))
        out = tmp_path / "o"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.rstrip().endswith("initial datum must be nonnegative at the mesh vertices")
        assert not out.exists()

    @pytest.mark.parametrize("bound, value, message", [
        ("MU_FLOOR", 2.0, "no mu above the floor"),
        ("KAPPA_CEIL", 0.5, "no kappa below the ceiling"),
    ])
    def test_no_sandwich_bracket_exit_code(self, config_path, tmp_path, capsys,
                                           monkeypatch, bound, value, message):
        # a sub- or supersolution that no scaling fits is a failed solve
        monkeypatch.setattr(elliptic, bound, value)
        out = tmp_path / "o"
        assert main(["verify", "--config", config_path, "--out", str(out),
                     "--check", "sandwich"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"solver failure: {message}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve-elliptic", "stationary", "evolve",
                                         "sweep"])
    def test_manifest_opens_with_the_scenario(self, tmp_path, command):
        # p(x) = 2.5 + 0.5 x at the barycenters of the 40 cells spans
        # [2.50625, 2.99375], above 2q = 2.5: slow diffusion
        text = textwrap.dedent(CONFIG).replace(
            "kind = constant\nvalue = 2.5", "kind = affine\nvalue = 2.5\nslope = 0.5")
        cfg = tmp_path / "affine.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.load(open(out / "manifest.json"))
        head = {"config_echo": text, "seed": 4242, "regime": "slow-diffusion",
                "p_minus": pytest.approx(2.50625), "p_plus": pytest.approx(2.99375),
                "q": 1.25}
        assert {key: manifest[key] for key in head} == head

    def test_unknown_command_rejected(self, config_path, tmp_path):
        with pytest.raises(ParseError, match="unknown command 'nope'"):
            cli.run("nope", load_scenario(config_path), str(tmp_path / "o"))

    def test_missing_config_exit_code(self, tmp_path):
        code = main(["evolve", "--config", str(tmp_path / "none.cfg"), "--out",
                     str(tmp_path / "o8")])
        assert code == 2

    def test_missing_initial_file_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text(textwrap.dedent(CONFIG).replace("profile = bump 0.5",
                                                       "file = missing.csv", 1))
        code = main(["evolve", "--config", str(bad), "--out", str(tmp_path / "o9")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "Traceback" not in err

    def test_solver_failure_exit_code(self, config_path, tmp_path, capsys,
                                      monkeypatch):
        monkeypatch.setitem(elliptic.DEFAULT_TOL, 1, 0.0)
        code = main(["evolve", "--config", config_path, "--out", str(tmp_path / "o10")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: step 1") and "Traceback" not in err

    def test_module_entry_point(self, config_path, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "o11"
        proc = subprocess.run([sys.executable, "-m", "dne", "stationary", "--config",
                               config_path, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (out / "stationary.csv").exists()

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
                           checks=suite if command == "verify" else None) == 0


class TestVerifyPipeline:
    def test_shared_artifacts_built_once(self, config_path, tmp_path, monkeypatch):
        calls = {}

        def counting(name):
            inner = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)
            return wrapper

        for name in ("Run", "make_subsolution", "make_supersolution",
                     "solve_stationary"):
            monkeypatch.setattr(cli, name, counting(name))
        main(["verify", "--config", config_path, "--out", str(tmp_path / "o")])
        # the scenario's own run (shared by sandwich, contraction-parabolic
        # and stabilization), the shrunk start and the two bracket runs
        assert calls == {"Run": 4, "make_subsolution": 1,
                         "make_supersolution": 1, "solve_stationary": 1}

    def test_every_report_is_built_by_one_constructor(self, config_path, tmp_path,
                                                     monkeypatch):
        built = []
        report = checks._report

        def recording(*args, **kwargs):
            built.append(report(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(checks, "_report", recording)
        main(["verify", "--config", config_path, "--out", str(tmp_path / "o")])
        written = json.load(open(tmp_path / "o" / "report.json"))
        assert len(written) == 11
        assert [dataclasses.asdict(r) for r in built] == written

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

    def test_stabilization_ignores_store_stride(self, tmp_path):
        # store_stride thins what evolve writes; the check reads every step
        text = (CONFIGS / "decaying_1d.cfg").read_text()
        text = text.replace("horizon = 100.0", "horizon = 20.0").replace(
            "steps = 2000", "steps = 400")
        assert "store_stride = 20" in text
        reports = []
        for stride in (20, 1):
            cfg = tmp_path / f"stride{stride}.cfg"
            cfg.write_text(text.replace("store_stride = 20",
                                        f"store_stride = {stride}"))
            out = tmp_path / f"o{stride}"
            assert main(["verify", "--config", str(cfg), "--out", str(out),
                         "--check", "stabilization"]) == 0
            reports.append((out / "report.json").read_text())
        assert reports[0] == reports[1]

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

    @pytest.mark.parametrize("resolution", [99, 100, 101])
    def test_picone_passes_on_odd_and_even_1d_meshes(self, resolution, tmp_path):
        # on an odd mesh a barycenter sits at the midpoint, where the
        # symmetric library pairs have a pointwise gap of exactly 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text((CONFIGS / "default_1d.cfg").read_text().replace(
            "resolution = 100", f"resolution = {resolution}"))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--check", "picone"]) == 0
        [report] = json.load(open(out / "report.json"))
        assert report["passed"] and report["worst_margin"] > 0.0
