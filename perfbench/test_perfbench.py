"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the root)."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

import worker
from run import END_TO_END
from tracing import LAYERS, PER_LAYER, Tracer, dne_namespaces, layer_metrics, self_times
from workloads import DEFAULT_SEED, WORKLOADS, draw, make_config

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEEDS = [DEFAULT_SEED, 1, 2, 3, 12345]


def _load(tmp_path, text):
    from dne.scenario import load_scenario
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return load_scenario(str(path))


# -- generator --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_in_the_seed(name):
    assert make_config(name, 7) == make_config(name, 7)
    assert make_config(name, 7) != make_config(name, 8)
    assert draw(name, 7)["run_seed"] != draw(name, 8)["run_seed"]
    shipped = make_config(name, DEFAULT_SEED)
    w = WORKLOADS[name]
    assert f"profile = bump {w.initial!r}" in shipped
    assert f"profile = bump {w.potential!r}" in shipped
    assert "seed = 20240801" in shipped


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_admissible_and_keeps_work_fixed(name, tmp_path):
    base = _load(tmp_path, make_config(name, DEFAULT_SEED))
    for seed in SEEDS:
        params = draw(name, seed)
        w = WORKLOADS[name]
        assert abs(params["initial"] / w.initial - 1.0) <= w.initial_spread
        assert abs(params["potential"] / w.potential - 1.0) <= w.potential_spread
        scenario = _load(tmp_path, make_config(name, seed))
        assert scenario.seed == params["run_seed"]
        assert (scenario.resolution, scenario.steps, scenario.horizon) == \
            (base.resolution, base.steps, base.horizon)


def test_inadmissible_draw_fails_at_setup_with_the_tag(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    # seed 0 has potential amplitude 1.0 and initial amplitude 0.5
    config.write_text(make_config("stabilize-1d", DEFAULT_SEED).replace(
        "profile = bump 1.0", "profile = bump -1.0"))
    rc = worker.main(["--workload", "stabilize-1d", "--config", str(config),
                      "--out", str(tmp_path / "out"), "--mode", "run"])
    assert rc == 2
    assert "(H_h)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no solve ran


# -- span arithmetic --------------------------------------------------------

def test_self_time_of_nested_spans():
    #        root [0,10]: A [1,4] (with G [2,3]) and B [5,6]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    assert self_times(parent, start, end) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_of_overlapping_spans():
    # children overlap each other and the last one runs past its parent: only
    # the union of the children inside the parent is subtracted
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 7.0, 12.0]
    assert self_times(parent, start, end)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_busy_counts_nested_calls_of_one_group_once():
    keys = ["elliptic.solve", "operators.eval_A"]
    name = [0, 0, 1]
    parent = [-1, 0, 1]
    start = [0.0, 1.0, 1.5]
    end = [4.0, 2.0, 1.75]
    m = layer_metrics(keys, name, parent, start, end, {}, [])
    assert m["elliptic.solve.calls"] == 2
    assert m["elliptic.solve.busy_s"] == pytest.approx(4.0)
    assert m["elliptic.solve.self_s"] == pytest.approx(3.0 + 0.75)
    assert m["elliptic.busy_s"] == pytest.approx(4.0)
    assert m["operators.self_s"] == pytest.approx(0.25)


def test_speed_samples_are_left_out_of_busy_time():
    keys = ["evolution.evolve", "evolution.step", "speed.sample"]
    name = [0, 1, 2, 1]
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 4.0, 5.0, 8.0]
    m = layer_metrics(keys, name, parent, start, end, {}, [])
    assert m["evolution.evolve.busy_s"] == pytest.approx(9.0)
    assert m["evolution.evolve.self_s"] == pytest.approx(3.0)
    assert m["evolution.busy_s"] == pytest.approx(9.0)
    assert m["evolution.step.busy_s"] == pytest.approx(6.0)
    assert not any(k.startswith("speed.") for k in m)


# -- names ------------------------------------------------------------------

def test_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


# -- wrappers ---------------------------------------------------------------

def test_wrappers_are_installed_in_every_dne_namespace(tmp_path):
    tracer = Tracer("test")
    tracer.install_linalg()
    import dne  # noqa: F401
    import dne.cli  # noqa: F401
    tracer.install_dne()
    try:
        originals = {id(orig): attr for owner, attr, orig in tracer._patched
                     if owner.__name__.startswith("dne")}
        for namespace in dne_namespaces():
            for attr, obj in vars(namespace).items():
                assert id(obj) not in originals, f"{namespace.__name__}.{attr} unwrapped"
        elliptic = importlib.import_module("dne.elliptic")
        for namespace in ("dne", "dne.evolution", "dne.checks", "dne.cli"):
            assert importlib.import_module(namespace).solve is elliptic.solve
        assert elliptic.solve.__traced__ == "elliptic.solve"
        assert elliptic.spla.spsolve.__traced__ == "linalg.spsolve"

        scenario = _load(tmp_path, make_config("stabilize-1d", 1)
                         .replace("resolution = 100", "resolution = 20")
                         .replace("steps = 400", "steps = 3")
                         .replace("horizon = 20.0", "horizon = 0.15"))
        assert dne.cli.run("evolve", scenario, str(tmp_path / "out")) == 0
    finally:
        tracer.uninstall()
    assert not hasattr(importlib.import_module("dne.elliptic").solve, "__traced__")
    m = tracer.metrics()
    assert m["evolution.step.calls"] == 3
    assert m["io_utils.write_field_csv.calls"] == 2  # stride 20: initial and final
    assert m["elliptic.dirs_per_step"] > 0 and m["elliptic.evals_per_dir"] > 0
    assert m["linalg.solve.calls"] == m["operators.flux_jacobian_batch.calls"]
    assert m["linalg.unknowns"] == 19
    produced = {k for k in m if any(k.startswith(layer + ".") for layer in
                                    [*LAYERS, "linalg", "trace"])}
    # bytes_written and the overhead are filled in by the worker and run.py;
    # evolve builds no sub- or supersolution
    expected = {n for n, _ in PER_LAYER} - {"io_utils.bytes_written", "trace.overhead",
                                            "elliptic.make_subsolution.busy_s",
                                            "elliptic.make_supersolution.busy_s"}
    assert expected <= produced
