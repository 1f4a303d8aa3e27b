import textwrap
import warnings

import numpy as np
import pytest

from dne.operators import Regime, classify_regime
from dne.scenario import ParseError, Primitive, ValidationError, load_scenario

MINIMAL = """
[mesh]
dimension = 1
extents = 0 1
resolution = 50

[exponent]
kind = constant
value = 2.5

[problem]
q = 1.25

[potential]
kind = constant
profile = bump 1.0

[initial]
profile = bump 0.5
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


class TestLoadScenario:
    def test_minimal_config_defaults(self, tmp_path):
        sc = load_scenario(write(tmp_path, MINIMAL))
        assert sc.setup.mesh.dimension == 1
        assert sc.setup.mesh.resolution == (50,)
        assert sc.setup.q == 1.25
        assert sc.setup.steps == 20 and sc.setup.horizon == 1.0  # documented defaults
        assert sc.setup.source is None

    def test_builds_runtime_objects(self, tmp_path):
        setup = load_scenario(write(tmp_path, MINIMAL)).setup
        assert setup.mesh.n_elements == 50
        assert setup.op.exponent.p_minus == 2.5
        # 2q = 2.5 = p exactly: the boundary case classifies as mixed
        assert classify_regime(setup.op.exponent, setup.q) is Regime.MIXED

    def test_missing_file_is_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/scenario.cfg")

    def test_malformed_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(write(tmp_path, "not a config\n[mesh"))

    def test_q_range_violation_tagged(self, tmp_path):
        bad = MINIMAL.replace("value = 2.5", "value = 1.8").replace(
            "q = 1.25", "q = 2.0")
        with pytest.raises(ValidationError) as err:
            load_scenario(write(tmp_path, bad))
        assert err.value.tag == "q ∈ (1, p_-)"

    def test_exponent_below_one_tagged(self, tmp_path):
        bad = MINIMAL.replace("value = 2.5", "value = 0.9")
        with pytest.raises(ValidationError) as err:
            load_scenario(write(tmp_path, bad))
        assert err.value.tag == "1 < p_-"

    def test_zero_envelope_tagged(self, tmp_path):
        bad = MINIMAL + "\n[potential]\nkind = constant\nprofile = bump 1.0\n" \
                        "lower_envelope = constant 0.0\n"
        # configparser rejects duplicate sections; build a fresh text instead
        text = MINIMAL.replace("profile = bump 1.0",
                               "profile = bump 1.0\nlower_envelope = constant 0.0")
        with pytest.raises(ValidationError) as err:
            load_scenario(write(tmp_path, text))
        assert err.value.tag == "(H_h)"

    def test_source_beta_violation_tagged(self, tmp_path):
        text = MINIMAL + textwrap.dedent("""
            [source]
            enabled = true
            g = constant 1.0
            gamma = 1.0
            beta = 0.3
            """)
        with pytest.raises(ValidationError) as err:
            load_scenario(write(tmp_path, text))
        assert err.value.tag == "(f_1)"

    def test_source_gamma_violation_tagged(self, tmp_path):
        text = MINIMAL + textwrap.dedent("""
            [source]
            enabled = true
            g = constant 1.0
            gamma = -0.3
            beta = 0.0
            """)
        with pytest.raises(ValidationError) as err:
            load_scenario(write(tmp_path, text))
        assert err.value.tag == "(f_2)"

    def test_negative_weight_tagged(self, tmp_path):
        text = MINIMAL + "\n[operator]\npartition = 1\nweight.1 = constant -1.0\n"
        with pytest.raises(ValidationError) as err:
            load_scenario(write(tmp_path, text))
        assert err.value.tag == "(A_1)"

    def test_removed_tolerance_key_rejected(self, tmp_path):
        # the solver's stopping policy is fixed; the old override must not be
        # silently ignored
        text = MINIMAL + "\n[run]\ntolerance = 1e-6\n"
        with pytest.raises(ParseError, match="removed.*fixed"):
            load_scenario(write(tmp_path, text))

    def test_bad_run_value_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="store_stride"):
            load_scenario(write(tmp_path, MINIMAL + "\n[run]\nstore_stride = 0\n"))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("section, line", [
        ("run", "horizon = {}"),
        ("run", "lambda = {}"),
        ("sweep", "lambdas = 1 {}"),
    ], ids=["horizon", "lambda", "sweep-lambdas"])
    def test_nonfinite_run_value_is_parse_error(self, tmp_path, section, line, value):
        text = MINIMAL + f"\n[{section}]\n{line.format(value)}\n"
        key = line.split()[0]
        # rejected before the potential is sampled on [0, horizon], so no
        # numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=rf"\[{section}\] {key}"):
                load_scenario(write(tmp_path, text))


class TestPrimitives:
    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Primitive.parse("unknown 1.0")
        with pytest.raises(ParseError):
            Primitive.parse("constant")
        with pytest.raises(ParseError):
            Primitive.parse("bump a")

    def test_evaluation(self, mesh_1d):
        pts = mesh_1d.vertices
        assert np.allclose(Primitive.parse("constant 2.5")(pts, mesh_1d), 2.5)
        aff = Primitive.parse("affine 1.0 2.0")(pts, mesh_1d)
        assert np.allclose(aff, 1.0 + 2.0 * pts[:, 0])
        bump = Primitive.parse("bump 3.0")(np.array([[0.5]]), mesh_1d)
        assert bump[0] == pytest.approx(3.0)
        sp = Primitive.parse("sin-product 1.0")(np.array([[0.5]]), mesh_1d)
        assert sp[0] == pytest.approx(1.0)
        pd = Primitive.parse("power-of-delta 2.0 1.0")(np.array([[0.25]]), mesh_1d)
        assert pd[0] == pytest.approx(0.5)


class TestPotentialKinds:
    def test_decaying_reaches_limit(self, tmp_path):
        text = MINIMAL.replace("kind = constant\nprofile = bump 1.0",
                               "kind = decaying\nprofile = bump 1.0\neta = 0.5")
        pot = load_scenario(write(tmp_path, text)).setup.potential
        assert pot.limit is not None
        h0 = pot(0.0)
        h_late = pot(1e6)
        assert np.all(h0 >= pot.limit)
        np.testing.assert_allclose(h_late, pot.limit, rtol=1e-8)
        # decay satisfies the O(t^-(1+eta)) envelope used for stabilization
        t = 100.0
        drift = np.max(np.abs(pot(t) - pot.limit))
        assert drift <= np.max(pot.limit) * (1.0 + t) ** (-1.5) + 1e-15

    def test_decaying_eta_at_most_minus_one_rejected(self, tmp_path):
        # for eta <= -1 the potential does not decay to its profile (below -1
        # it grows without bound), so limit = profile and, below -1, the
        # declared sup-norm 2 max|profile| would be false
        text = MINIMAL.replace("kind = constant\nprofile = bump 1.0",
                               "kind = decaying\nprofile = bump 1.0\neta = -2")
        with pytest.raises(ParseError, match="eta"):
            load_scenario(write(tmp_path, text))

    def test_tabulated_interpolation(self, tmp_path):
        text = MINIMAL.replace(
            "kind = constant\nprofile = bump 1.0",
            "kind = tabulated\ntimes = 0 1\nprofile.1 = constant 1.0\n"
            "profile.2 = constant 2.0\nlower_envelope = constant 1.0")
        pot = load_scenario(write(tmp_path, text)).setup.potential
        assert pot(0.5)[0] == pytest.approx(1.5)
        assert pot(5.0)[0] == pytest.approx(2.0)  # clamped at the last profile


class TestInitialFromFile:
    def test_round_trip(self, tmp_path):
        from dne.io_utils import write_field_csv
        from dne.meshing import interpolate

        mesh = load_scenario(write(tmp_path, MINIMAL)).setup.mesh
        v = interpolate(mesh, lambda x: 0.25 * np.sin(np.pi * x[:, 0]))
        path = tmp_path / "v0.csv"
        write_field_csv(v, str(path))
        text = MINIMAL.replace("profile = bump 0.5", f"file = {path}")
        v2 = load_scenario(write(tmp_path, text, name="file_init.cfg")).setup.initial
        np.testing.assert_array_equal(v2.values, v.values)


class TestTabulatedExponent:
    @staticmethod
    def exponent_file(tmp_path, xs, ps):
        path = tmp_path / "p.csv"
        rows = [f"{float(x)!r},{float(p)!r}" for x, p in zip(xs, ps)]
        path.write_text("\n".join(["# columns: x,value"] + rows) + "\n")
        return path

    def test_round_trip(self, tmp_path):
        mesh = load_scenario(write(tmp_path, MINIMAL)).setup.mesh
        xb = mesh.barycenters[:, 0]
        ps = 2.2 + 0.6 * xb
        path = self.exponent_file(tmp_path, xb, ps)
        text = MINIMAL.replace("kind = constant\nvalue = 2.5",
                               f"kind = tabulated\nfile = {path}")
        exponent = load_scenario(write(tmp_path, text, "tab.cfg")).setup.op.exponent
        np.testing.assert_array_equal(exponent.values, ps)
        assert exponent.p_minus == ps.min() and exponent.p_plus == ps.max()

    def test_wrong_length_is_parse_error(self, tmp_path):
        # a malformed file, not a violated 1 < p_- hypothesis
        xs = np.linspace(0.01, 0.99, 49)
        path = self.exponent_file(tmp_path, xs, np.full(xs.size, 2.5))
        text = MINIMAL.replace("kind = constant\nvalue = 2.5",
                               f"kind = tabulated\nfile = {path}")
        with pytest.raises(ParseError, match=r"\[exponent\] file") as err:
            load_scenario(write(tmp_path, text, "tab.cfg"))
        assert not isinstance(err.value, ValidationError)
        assert "49" in str(err.value) and "50" in str(err.value)

    @pytest.mark.parametrize("xs", [np.linspace(7.0, 9.0, 50),
                                    (np.arange(50) + 0.5) / 50 + 1e-9,
                                    np.column_stack([np.linspace(0.01, 0.99, 50)] * 2)],
                             ids=["elsewhere", "shifted", "two-columns"])
    def test_coordinates_off_the_barycenters_are_parse_error(self, tmp_path, xs):
        # a file written for another mesh with the same element count: its
        # coordinates are checked, as the vertices of an [initial] file are
        path = tmp_path / "p.csv"
        rows = [",".join(map(repr, np.atleast_1d(x).tolist())) + ",2.5" for x in xs]
        path.write_text("\n".join(["# columns: x,value"] + rows) + "\n")
        text = MINIMAL.replace("kind = constant\nvalue = 2.5",
                               f"kind = tabulated\nfile = {path}")
        with pytest.raises(ParseError, match=r"\[exponent\] file .* barycenters"):
            load_scenario(write(tmp_path, text, "tab.cfg"))
