"""Regenerate the stored reference final fields of the default seed.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose `src/dne` is the version the references
should pin.  Writes reference/<workload>.csv (the final field, as `dne`
writes it) and reference/provenance.json (commit, versions, tolerances).
"""

from __future__ import annotations

import json
import shutil

from run import OUT, REFERENCE, Bench, environment
from workloads import DEFAULT_SEED

# nodal tolerance per workload, and why it sits above solver noise
TOLERANCES = {
    "stabilize-1d": (1e-7, "1D solves stop at a KKT residual of 1e-11; equivalent "
                           "starts differ by up to 8.8e-10 nodally, and 1e-7 is "
                           "over 100x that while far below the O(0.1) field values"),
    "evolve-2d": (1e-5, "2D solves stop at a KKT residual of 1e-8; equivalent "
                        "starts differ by up to 1.0e-6 nodally, and 1e-5 is 10x "
                        "that while far below the O(0.1) field values"),
}


def main() -> int:
    fields = {}
    env = None
    for name, (tol, why) in TOLERANCES.items():
        bench = Bench(name, DEFAULT_SEED)
        out = OUT / name / "reference-run"
        result, err = bench.worker("run", ["--out", str(out)])
        if result is None or result["failures"]:
            print(err or result["failures"])
            return 1
        final = sorted(out.glob("field_*.csv"))[-1]
        shutil.copyfile(final, REFERENCE / f"{name}.csv")
        fields[name] = {"file": f"{name}.csv", "source": final.name,
                        "nodal_tolerance": tol, "why": why}
        env = environment(bench.versions)
    provenance = {"seed": DEFAULT_SEED, "commit": env["commit"],
                  "src_dne_sha256": env["src_dne_sha256"],
                  "python": env["python"], "numpy": env["numpy"],
                  "scipy": env["scipy"], "platform": env["platform"],
                  "fields": fields}
    (REFERENCE / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
