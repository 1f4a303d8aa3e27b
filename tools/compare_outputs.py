"""Compare what two `dne` source trees write, byte for byte.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `dne` package, such as the
`src` of two checkouts.  Each tree runs:

- `evolve`, `verify`, `stationary` and `solve-elliptic` on every shipped
  config (`configs/*.cfg`) and on the seed-0 config of every benchmark
  workload (`perfbench/workloads.make_config`);
- `sweep` on `configs/default_1d.cfg` (the lambda sweep) and on
  `default_1d_pq`, its `[sweep] kind = pq` variant, whose grid holds an
  invalid cell (p = 0.9);
- `sweep` on `smoke_2d_lambda`, `configs/smoke_2d.cfg` with a lambda sweep
  appended: 2D pure-load solves under an affine exponent, so its manifest
  carries no fitted slope;
- `evolve` and `verify` on `decaying_1d_tabulated`, `configs/decaying_1d.cfg`
  with a tabulated potential whose lower envelope lies below its limit.

The tool writes the three variants from the shipped configs.  Each command is
one fresh process with BLAS and OpenMP pinned to one thread, run with
relative paths from a work directory of its own.  The tool then compares,
per command, every file it wrote, its stdout, its stderr and its exit code,
prints each difference and exits 1 if there is any, else 0.  The configs and
workloads are those of the checkout holding this script.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS, make_config  # noqa: E402

COMMANDS = ["evolve", "verify", "stationary", "solve-elliptic"]
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}


# name: (shipped config, its text replaced, the replacement, commands run)
VARIANTS = {
    "default_1d_pq": (
        "default_1d", "kind = lambda\nlambdas = 0.5 1 2 4",
        "kind = pq\np_values = 0.9 2.5 3.0\nq_values = 1.2 1.4", ["sweep"]),
    "smoke_2d_lambda": (
        "smoke_2d", "seed = 20240801\n",
        "seed = 20240801\n\n[sweep]\nkind = lambda\nlambdas = 0.5 1 2 4\n", ["sweep"]),
    "decaying_1d_tabulated": (
        "decaying_1d", "kind = decaying\nprofile = bump 1.0\neta = 0.5",
        "kind = tabulated\ntimes = 0 0.7 1.9 4\nprofile.1 = bump 1.0\n"
        "profile.2 = bump 1.5\nprofile.3 = bump 0.8\nprofile.4 = bump 1.0\n"
        "lower_envelope = bump 0.8", ["evolve", "verify"]),
}


def configs() -> dict:
    """Config text by name: the shipped configs, the seed-0 workloads and
    the VARIANTS of shipped configs."""
    texts = {path.stem: path.read_text() for path in sorted((ROOT / "configs").glob("*.cfg"))}
    texts.update({name: make_config(name, DEFAULT_SEED) for name in WORKLOADS})
    for name, (base, old, new, _) in VARIANTS.items():
        if old not in texts[base]:
            raise ValueError(f"{base}.cfg no longer holds {old!r}: update {name}")
        texts[name] = texts[base].replace(old, new)
    return texts


def runs(texts: dict) -> list:
    """(command, config name) of every run."""
    return [(command, name) for name in texts if name not in VARIANTS
            for command in COMMANDS] + [("sweep", "default_1d")] + [
        (command, name) for name, (*_, commands) in VARIANTS.items()
        for command in commands]


def run_tree(src: Path, work: Path, texts: dict) -> dict:
    """Run every command with `src` on the path, from `work`; return
    {(command, config): (exit code, stdout, stderr)}, with `src` itself
    written as <src> in the streams."""
    (work / "configs").mkdir(parents=True)
    for name, text in texts.items():
        (work / "configs" / f"{name}.cfg").write_text(text)
    env = {**os.environ, **THREADS, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    results = {}
    for command, name in runs(texts):
        proc = subprocess.run(
            [sys.executable, "-m", "dne", command, "--config", f"configs/{name}.cfg",
             "--out", f"out/{name}/{command}"],
            cwd=work, env=env, capture_output=True, text=True)
        results[command, name] = (proc.returncode, proc.stdout.replace(str(src), "<src>"),
                                  proc.stderr.replace(str(src), "<src>"))
    return results


def files(root: Path) -> dict:
    """Bytes of every file under `root`, by path relative to it."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def differences(old: tuple, new: tuple) -> list:
    """One line per difference between the two trees' runs and files."""
    (old_runs, old_files), (new_runs, new_files) = old, new
    lines = []
    for (command, name), old_run in old_runs.items():
        for label, a, b in zip(("exit code", "stdout", "stderr"), old_run,
                               new_runs[command, name]):
            if a != b:
                lines.append(f"{command} {name}: {label} differs")
    for path in sorted(old_files.keys() | new_files.keys()):
        if path not in new_files or path not in old_files:
            lines.append(f"{path}: only in {'OLD' if path in old_files else 'NEW'}")
        elif old_files[path] != new_files[path]:
            lines.append(f"{path}: contents differ")
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    for tree in trees:
        if not (tree / "dne" / "__init__.py").is_file():
            print(f"error: {tree} holds no dne package", file=sys.stderr)
            return 2
    texts = configs()
    with tempfile.TemporaryDirectory() as scratch:
        outputs = []
        for label, tree in zip(("old", "new"), trees):
            work = Path(scratch) / label
            outputs.append((run_tree(tree, work, texts), files(work / "out")))
    lines = differences(*outputs)
    n_runs, n_files = len(outputs[0][0]), len(outputs[0][1])
    for line in lines:
        print(line)
    print(f"{n_runs} runs, {n_files} files: "
          f"{len(lines)} difference{'s' if len(lines) != 1 else ''}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
