"""Seeded workload generator for the dne benchmark.

Each workload is a scenario class (a config template fixed here, so a change
to the repository's shipped configs cannot change what is measured) plus the
`dne` command run on it.  The benchmark seed perturbs only free parameters
inside the admissible class: `[run] seed`, which drives the sampling checks
of `verify`, and, where the work does not depend on them, the initial-datum
and potential amplitudes, each scaled by a factor drawn uniformly from
[1 - spread, 1 + spread].  Mesh, dt, horizon and store stride stay fixed, so
every seed does comparable work.  Seed DEFAULT_SEED reproduces the shipped
parameters exactly; the stored reference fields belong to it.

The spreads, and why (counts from the traced run at the seed commit):

- verify-1d perturbs no amplitude.  Its near-stationary steps stall at the
  energy's roundoff floor to a degree that jumps with the initial amplitude:
  36k energy evaluations at 0.5, 96k at 0.525, 86k at 0.45.
- stabilize-1d perturbs the initial amplitude by 10% (25.0k-27.5k energy
  evaluations over [0.45, 0.55], Jacobians within 1%) but not the potential:
  its line-search work falls steadily with the potential amplitude (33k
  evaluations at 0.9x, 27k at 1.0x, 8k at 1.09x).  The final stabilization
  error, 4.1e-4 at seed 0, stays well below the check's 1e-3.
- evolve-2d perturbs both by 10%: 946 +- 1 Jacobians over that range.

Amplitudes stay positive, so (H_h) and the positivity of v0 hold by
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
SHIPPED_RUN_SEED = 20240801

_CLASS_1D = """\
[mesh]
dimension = 1
extents = 0 1
resolution = 100

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
"""

_DEFAULT_1D = _CLASS_1D + """
[potential]
kind = constant
profile = bump {potential!r}

[initial]
profile = bump {initial!r}

[run]
horizon = 20.0
steps = 400
lambda = 1.0
seed = {run_seed}
"""

# decaying_1d at the shipped dt = 0.05, cut from 2000 to 400 steps: the
# per-step cost profile is the same (about 3 Newton iterations per start all
# along the run) and the final stabilization error is still 2.4x below the
# check's threshold.
_DECAYING_1D = _CLASS_1D + """
[potential]
kind = decaying
profile = bump {potential!r}
eta = 0.5

[initial]
profile = bump {initial!r}

[run]
horizon = 20.0
steps = 400
lambda = 1.0
seed = {run_seed}
store_stride = 20
"""

# smoke_2d (affine exponent 2.2 + 0.6 x) at resolution 48 and 100 steps of
# dt = 0.05, every step stored.
_SMOKE_2D = """\
[mesh]
dimension = 2
extents = 0 1 0 1
resolution = 48

[exponent]
kind = affine
value = 2.2
slope = 0.6 0.0

[problem]
q = 1.3

[source]
enabled = true
g = constant 1.0
gamma = 1.0
beta = 0.0

[potential]
kind = constant
profile = bump {potential!r}

[initial]
profile = bump {initial!r}

[run]
horizon = 5.0
steps = 100
lambda = 1.0
seed = {run_seed}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    template: str
    initial: float
    potential: float
    initial_spread: float
    potential_spread: float
    why: str


WORKLOADS = {w.name: w for w in [
    Workload("verify-1d", "verify", _DEFAULT_1D, 0.5, 1.0, 0.0, 0.0,
             "default verify suite on default_1d: 700 near-stationary steps, "
             "multistart waste and artifacts verify rebuilds"),
    Workload("stabilize-1d", "evolve", _DECAYING_1D, 0.5, 1.0, 0.1, 0.0,
             "decaying potential, 400 steps: every step does real Newton "
             "work, so line search and energy evaluations dominate"),
    Workload("evolve-2d", "evolve", _SMOKE_2D, 0.3, 1.0, 0.1, 0.1,
             "2D variable exponent, 2401 vertices, 100 steps: sparse solves, "
             "assembly and 101 field CSVs"),
]}


def draw(name: str, seed: int) -> dict:
    """The free parameters of workload `name` for benchmark seed `seed`."""
    w = WORKLOADS[name]
    if seed == DEFAULT_SEED:
        return {"initial": w.initial, "potential": w.potential,
                "run_seed": SHIPPED_RUN_SEED}
    # a str seed is hashed with SHA-512, so the draw does not depend on
    # PYTHONHASHSEED or the platform
    rng = random.Random(f"{name}/{seed}")
    return {"initial": w.initial * rng.uniform(1.0 - w.initial_spread,
                                               1.0 + w.initial_spread),
            "potential": w.potential * rng.uniform(1.0 - w.potential_spread,
                                                   1.0 + w.potential_spread),
            "run_seed": rng.randrange(1, 2 ** 31)}


def make_config(name: str, seed: int) -> str:
    """Scenario file text of workload `name` for benchmark seed `seed`."""
    return WORKLOADS[name].template.format(**draw(name, seed))
