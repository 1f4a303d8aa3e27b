"""Benchmark of the `dne` CLI: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout of the repository.  Workloads are listed in
workloads.py.  Each operation is one run of the workload's command in its own
fresh Python process (worker.py), with BLAS/OpenMP pinned to one thread and
`src` on the path.  Operations run one after another until `--seconds` have
passed (at least one).

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced
operation as the overhead baseline, then traced ones, and reports the
per-layer metrics.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the full result, with the
environment, goes to .bench_out/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("step_ms_mean", "ms"),
              ("step_ms_p90", "ms"), ("peak_rss_mb", "MB")]
SETUP_SAMPLES = 7        # set-up timings per run, the median is reported
DEADLINE_S = 170.0       # the whole run, including set-up probes
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class SetupFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t0 = perf_counter()
        self.dir = OUT / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "scenario.cfg"
        self.config.write_text(make_config(workload, seed))
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED)
        self.versions: dict = {}
        self.n_ops = 0

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.t0)

    def worker(self, mode: str, extra=()) -> tuple[dict | None, str]:
        """Run worker.py; returns (its result or None, stderr)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--config", str(self.config), "--mode", mode, *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return None, f"{mode} worker exceeded the {DEADLINE_S:g} s deadline"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, proc.stderr
        result = json.loads(lines[-1])
        self.versions = {k: result[k] for k in ("python", "numpy", "scipy")}
        return result, proc.stderr

    def setup_probe(self) -> dict:
        result, err = self.worker("setup", ["--out", str(self.dir)])
        if result is None:
            raise SetupFailed(err.strip().splitlines()[-1] if err.strip() else
                              "set-up worker failed")
        return result

    def operation(self, mode: str) -> dict:
        self.n_ops += 1
        out = self.dir / f"op{self.n_ops}"
        extra = ["--out", str(out)]
        if mode == "trace":
            extra += ["--spans", str(OUT / f"spans-{self.workload}-seed{self.seed}"
                                     f"-op{self.n_ops}.json.gz")]
        ref = reference_for(self.workload) if self.seed == DEFAULT_SEED else None
        if ref is not None:
            extra += ["--reference", str(REFERENCE / ref["file"]),
                      "--reference-tol", repr(ref["nodal_tolerance"])]
        result, err = self.worker(mode, extra)
        if result is None:
            sys.stderr.write(err)
            return {"failures": ["worker failed"]}
        if result["failures"]:
            print(f"op{self.n_ops} failed: {'; '.join(result['failures'])} "
                  f"(outputs kept in {out})")
        else:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def loop(self, mode: str, until: float, ops: list) -> None:
        """Append operations to `ops` until the perf_counter() time `until`;
        the next one starts only if an operation of mean length still fits."""
        started = perf_counter()
        while True:
            ops.append(self.operation(mode))
            now = perf_counter()
            mean = (now - started) / len(ops)
            if now + mean > until or self.remaining() < 2.0 * mean + 5.0:
                return


def reference_for(workload: str):
    with open(REFERENCE / "provenance.json") as handle:
        return json.load(handle)["fields"].get(workload)


def environment(versions: dict) -> dict:
    files = sorted((SRC / "dne").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_dne_sha256": digest.hexdigest(),
            "src_dne_lines": lines, **versions,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "blas_pinning": PINNED}


def quantile(values, q: int, n: int = 10) -> float:
    """q-th of n quantiles (exclusive method); the median for a single value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dne" / "__init__.py").is_file():
        print(f"error: no dne package under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    try:
        bench.setup_probe()  # fills caches; an inadmissible draw fails here
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    ops: list = []
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    until = perf_counter() + args.seconds
    if args.trace:
        ops.append(bench.operation("run"))
        traced: list = []
        bench.loop("trace", until, traced)
        timed = [op for op in traced if "layers" in op]
        if "wall_s" not in ops[0] or not timed:
            print("error: no traced operation completed", file=sys.stderr)
            return 1
        layers = {name: statistics.median(op["layers"].get(name, 0) for op in timed)
                  for name, _ in PER_LAYER if name != "trace.overhead"}
        layers["trace.overhead"] = (statistics.median(op["wall_s"] for op in timed)
                                    / ops[0]["wall_s"])
        ops += traced
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
        result["traced_ops"] = len(timed)
    else:
        bench.loop("run", until, ops)
        timed = [op for op in ops if "wall_s" in op]
        if not timed:
            print("error: no operation completed", file=sys.stderr)
            return 1
        setups = list(timed)
        while len(setups) < SETUP_SAMPLES and bench.remaining() > 10.0:
            try:
                setups.append(bench.setup_probe())
            except SetupFailed as exc:
                print(f"error: set-up failed: {exc}", file=sys.stderr)
                return 2
        steps = [s for op in timed for s in op["step_ms"]]
        raw_steps = [s for op in timed for s in op["step_raw_ms"]]
        if not steps:
            print("error: the command ran no implicit Euler step", file=sys.stderr)
            return 1
        values = {
            "setup_s": statistics.median(op["setup_s"] for op in setups),
            "wall_s": statistics.median(op["wall_s"] for op in timed),
            "step_ms_mean": statistics.fmean(steps),
            "step_ms_p90": quantile(steps, 9),
            "peak_rss_mb": statistics.median(op["rss_mb"] for op in timed),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        result.update(
            setup_samples=len(setups), step_samples=len(steps),
            setup_raw_s=[op["setup_raw_s"] for op in setups],
            wall_raw_s=[op["wall_raw_s"] for op in timed],
            slowdown=[op["slowdown"] for op in timed],
            step_ms_p50=statistics.median(steps),
            step_raw_ms={"mean": statistics.fmean(raw_steps),
                         "p50": statistics.median(raw_steps),
                         "p90": quantile(raw_steps, 9)})

    failed = sum(1 for op in ops if op["failures"])
    summary = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
               "metrics": metrics}
    result.update(summary, fail_ratio=failed / len(ops),
                  failures=[op["failures"] for op in ops],
                  environment=environment(bench.versions))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
