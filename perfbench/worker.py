"""One benchmark operation in a fresh process: set up, run, check outputs.

    python3 perfbench/worker.py --workload NAME --config FILE --out DIR
                                [--mode setup|run|trace] [--spans FILE]
                                [--reference FILE --reference-tol X]

`setup_s` covers `import dne` plus `load_scenario` (parse and validate), the
cost every CLI invocation pays.  In `run` mode the only instrumentation is one
timer around `dne.evolution.step`, which also samples the machine speed
between steps (speed.py); `trace` mode wraps every layer as well (see
tracing.py).  The command runs in process through `dne.cli.run`.  The last
stdout line is one JSON object with the timings, normalized to reference
seconds and raw, and the output-check failures; the exit code is 0 whenever
that line was written.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from speed import SpeedProbe
from tracing import PROBE, Tracer, dne_namespaces
from workloads import WORKLOADS

# default threshold of dne.checks.check_stabilization, fixed here so a change
# to the program cannot loosen the benchmark's check
STABILIZATION_THRESHOLD = 1e-3
# KKT residual every step must reach: the solver's default tolerances
# (dne.elliptic.DEFAULT_TOL), fixed here for the same reason
TOLERANCE = {1: 1e-11, 2: 1e-8}
SETUP_SPEED_SAMPLES = 10
# every report of the default verify suite ("monotone" reports both directions)
VERIFY_REPORTS = {"alg-inequality", "picone", "picone-pair", "lambda-scaling",
                  "positivity-hopf", "contraction-elliptic", "contraction-parabolic",
                  "sandwich", "monotone-nondecreasing", "monotone-nonincreasing",
                  "stabilization"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], default="run")
    parser.add_argument("--spans", help="trace mode: write the span dump here")
    parser.add_argument("--reference", help="compare the final field with this file")
    parser.add_argument("--reference-tol", type=float, default=0.0,
                        help="largest nodal difference from the reference")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = perf_counter()
    tracer = None
    if args.mode == "trace":
        tracer = Tracer(run_id=os.path.basename(args.out))
        tracer.install_linalg()
    import dne.cli
    import dne.scenario
    if tracer is not None:
        tracer.install_dne()
    try:
        scenario = dne.scenario.load_scenario(args.config)
    except dne.scenario.ValidationError as exc:
        print(f"inadmissible draw: {exc}", file=sys.stderr)
        return 2
    setup_s = perf_counter() - t0
    probe = SpeedProbe(scenario.dimension)
    for _ in range(SETUP_SPEED_SAMPLES):
        probe.sample()
    result = {"setup_s": setup_s * probe.factor(), "setup_raw_s": setup_s,
              "python": sys.version.split()[0],
              "numpy": sys.modules["numpy"].__version__,
              "scipy": sys.modules["scipy"].__version__}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    steps = []
    probe = SpeedProbe(scenario.dimension)
    if tracer is not None:
        probe.sample = tracer.wrap(probe.sample, PROBE)
    _time_steps(steps, probe)
    rc = None
    t1 = perf_counter()
    try:
        rc = dne.cli.run(workload.command, scenario, args.out)
    except Exception:
        traceback.print_exc()
    wall_s = perf_counter() - t1 - probe.spent()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not probe.samples:
        probe.sample()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["layers"]["io_utils.bytes_written"] = _bytes_in(args.out)
        if args.spans:
            tracer.dump(args.spans)
    failures = [f"exit code {rc}"] if rc != 0 else []
    if rc is not None:
        failures += check_outputs(workload, scenario, args.out, args.reference,
                                  args.reference_tol)
    factor = probe.factor()
    result.update(wall_s=wall_s * factor, wall_raw_s=wall_s,
                  step_ms=[1e3 * d * probe.local_factor(t) for t, d in steps],
                  step_raw_ms=[1e3 * d for _, d in steps],
                  slowdown=1.0 / factor,
                  rss_mb=rss_mb, rc=rc, failures=failures)
    print(json.dumps(result))
    return 0


def _time_steps(samples: list, probe: SpeedProbe) -> None:
    """Time every implicit Euler step, as (start, seconds), with one timer
    around the public step, rebound wherever `dne` binds it; sample the
    machine speed between steps."""
    import dne.evolution
    original = dne.evolution.step

    def timed(*args, **kwargs):
        t = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append((t, perf_counter() - t))
            probe.maybe_sample()

    for module in dne_namespaces():
        for attr, obj in list(vars(module).items()):
            if obj is original:
                setattr(module, attr, timed)


def _bytes_in(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory))


def _read_values(path: str):
    import numpy as np
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1]


def check_outputs(workload, scenario, out: str, reference, reference_tol) -> list:
    """Intrinsic output checks; they hold on every seed.  Returns failures."""
    import numpy as np
    failures = []
    if workload.command == "verify":
        with open(os.path.join(out, "report.json")) as handle:
            reports = json.load(handle)
        failures += [f"check {r['check_name']} failed" for r in reports
                     if not r["passed"]]
        missing = VERIFY_REPORTS - {r["check_name"] for r in reports}
        failures += [f"check {name} did not report" for name in sorted(missing)]
        return failures
    with open(os.path.join(out, "manifest.json")) as handle:
        manifest = json.load(handle)
    tol = TOLERANCE[scenario.dimension]
    for d in manifest["diagnostics"]:
        if not d["solver"]["final_gradient_norm"] <= tol:
            failures.append(f"step {d['index']}: residual "
                            f"{d['solver']['final_gradient_norm']:g} > {tol:g}")
    if not manifest["dissipation_ok"]:
        failures.append("dissipation budget violated")
    if (workload.name == "stabilize-1d"
            and not manifest["stabilization_error_final"] < STABILIZATION_THRESHOLD):
        failures.append(f"stabilization error {manifest['stabilization_error_final']:g}"
                        f" >= {STABILIZATION_THRESHOLD:g}")
    interior = scenario.build_mesh().interior
    final = f"field_{manifest['stored_indices'][-1]:05d}.csv"
    for n in manifest["stored_indices"]:
        name = f"field_{n:05d}.csv"
        values = _read_values(os.path.join(out, name))
        if not np.all(values[interior] > 0.0):
            failures.append(f"{name}: nonpositive interior node")
    if reference:
        diff = float(np.max(np.abs(_read_values(os.path.join(out, final))
                                   - _read_values(reference))))
        if not diff <= reference_tol:
            failures.append(f"final field differs from the reference by {diff:g}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
