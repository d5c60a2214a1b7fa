"""Seeded input files for the benchmark workloads.

Every workload gets a directory of scenario JSON files written with
``retrolind.dump_scenario`` (or, for the deliberately broken CLI inputs,
derived from its output) plus ``manifest.json``, which lists the files and
the operations of one cycle.  The seed draws every matrix, prior, label
choice and the order of the cycle; the shape of each scenario (dimension,
jump count, ensemble and outcome sizes, window) is fixed per workload, so
runs on different seeds do comparable work.

This module does not import the test suite's scenario factory: test edits
must not move the benchmark.  The draws follow the same recipe (Hamiltonian
spectral radius 0.3..2, jump operator norms 0.2..1, regularised random
density operators, whitened random POMs, Dirichlet priors).
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

import numpy as np
import retrolind
from retrolind.atom import demo_scenario
from retrolind.scenario_io import scenario_to_jsonable

ATOM_GAMMA = 1.0
ATOM_WINDOW = 2.0 * math.log(2.0)  # P(+|+) = 0.75 in closed form
DEMO_DURATION = 5.0

# Cycle sizes (25 and 15 operations) are chosen so that the median and the
# p90 tail fall in the middle of one operation's samples rather than on the
# step between two operations of different cost, where a single slow sample
# would move them.

# infer-random: the hot path of the acceptance suite's random sweep.  Same
# ranges of dimension, jumps, preparations and outcomes and the same
# integrator as that fixture; windows are shorter (0.3..0.6 instead of up to
# 5) so that one run holds several whole cycles.
INFER_CONFIG = (1000, 50)
INFER_SHAPES = (
    # dim, jumps, preparations, outcomes, window
    (2, 1, 2, 2, 0.3),
    (2, 3, 4, 3, 0.6),
    (3, 2, 3, 2, 0.5),
    (3, 1, 4, 3, 0.4),
    (4, 2, 2, 3, 0.3),
    (4, 1, 3, 2, 0.6),
    (4, 3, 4, 3, 0.5),
)
SWEEP_POINTS = 11

# trajectory-dim8: every step is a record point, so the per-record guards,
# generator construction and CSV output carry the cost.
TRAJECTORY_CONFIG = (50, 1)
TRAJECTORY_SHAPES = (
    # dim, jumps, window
    (6, 2, 1.0),
    (8, 1, 1.1),
    (8, 2, 1.0),
    (8, 3, 0.9),
    (8, 2, 0.8),
)
TRAJECTORY_MODES = ("predictive", "pom-backward", "retrodictive")

HELD_OUT_SEED = 9001  # reserved for confirming a claimed gain; never tune on it


def random_hermitian(rng: np.random.Generator, dim: int, spectral_radius: float) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    return h * (spectral_radius / np.max(np.abs(np.linalg.eigvalsh(h))))


def random_jump(rng: np.random.Generator, dim: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a * (norm / np.linalg.norm(a, 2))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T + 1e-3 * np.eye(dim)
    return m / np.trace(m).real


def random_pom_elements(rng: np.random.Generator, dim: int, n_outcomes: int) -> list[np.ndarray]:
    mats = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(g @ g.conj().T + 1e-3 * np.eye(dim))
    vals, vecs = np.linalg.eigh(np.sum(mats, axis=0))
    whitener = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return [whitener @ m @ whitener for m in mats]


def random_model(rng: np.random.Generator, dim: int, n_jumps: int) -> retrolind.LindbladModel:
    hamiltonian = random_hermitian(rng, dim, float(rng.uniform(0.3, 2.0)))
    jumps = tuple(random_jump(rng, dim, float(rng.uniform(0.2, 1.0))) for _ in range(n_jumps))
    return retrolind.LindbladModel(dim, hamiltonian, jumps)


def random_scenario(
    rng: np.random.Generator,
    dim: int,
    n_jumps: int,
    n_prep: int,
    n_out: int,
    window: float,
    config: tuple[int, int],
) -> retrolind.Scenario:
    model = random_model(rng, dim, n_jumps)
    priors = rng.dirichlet(np.ones(n_prep))
    priors = priors / priors.sum()
    ensemble = retrolind.PreparationEnsemble(
        tuple(float(p) for p in priors),
        tuple(retrolind.DensityOperator(random_density(rng, dim)) for _ in range(n_prep)),
        tuple(f"s{i}" for i in range(n_prep)),
    )
    pom = retrolind.Pom(
        tuple(random_pom_elements(rng, dim, n_out)),
        tuple(f"m{j}" for j in range(n_out)),
    )
    return retrolind.Scenario(
        model, ensemble, pom, 0.0, window, retrolind.IntegratorConfig(*config)
    )


def _write_atom(out: Path) -> str:
    path = out / "atom_demo.json"
    retrolind.dump_scenario(demo_scenario(ATOM_GAMMA, ATOM_WINDOW), path)
    return path.name


def _cli_mix(rng: np.random.Generator, out: Path) -> list[dict]:
    atom = str(out / "atom_demo.json")
    doc = scenario_to_jsonable(demo_scenario(ATOM_GAMMA, ATOM_WINDOW))
    for entry in doc["ensemble"]:
        entry["prior"] = 0.6  # priors sum to 1.2: validation error, exit 2
    invalid = out / "invalid_priors.json"
    invalid.write_text(json.dumps(doc, indent=2) + "\n")
    malformed = out / "malformed.json"
    text = (out / "atom_demo.json").read_text()
    malformed.write_text(text.replace('"t_p"', '"t_p" 0.0,', 1))  # JSON syntax error, exit 1
    labels = ("+", "-")

    def label() -> str:
        return labels[int(rng.integers(0, 2))]

    ops = [
        {"kind": "validate-ok", "argv": ["validate", atom], "rc": 0},
        {"kind": "validate-invalid", "argv": ["validate", str(invalid)], "rc": 2},
        {"kind": "validate-malformed", "argv": ["validate", str(malformed)], "rc": 1},
        {"kind": "retrodict", "argv": ["retrodict", atom, "--outcome", "+"], "rc": 0},
        {"kind": "predict", "argv": ["predict", atom, "--preparation", label()], "rc": 0},
        {
            "kind": "sweep",
            "argv": ["sweep", atom, "--preparation", label(), "--outcome", label(),
                     "--points", str(SWEEP_POINTS)],
            "rc": 0,
        },
        {
            "kind": "demo-atom",
            "argv": ["demo-atom", "--gamma", str(ATOM_GAMMA), "--duration", str(DEMO_DURATION)],
            "rc": 0,
        },
        {
            "kind": "evolve",
            "argv": ["evolve", atom, "--mode", "pom-backward", "--initial", label(),
                     "--out", str(out / "evolve.csv")],
            "rc": 0,
        },
    ]
    return ops


def _infer_random(rng: np.random.Generator, out: Path) -> list[dict]:
    ops = []
    for k, (dim, jumps, n_prep, n_out, window) in enumerate(INFER_SHAPES):
        name = f"infer-{k:02d}.json"
        retrolind.dump_scenario(
            random_scenario(rng, dim, jumps, n_prep, n_out, window, INFER_CONFIG), out / name
        )
        ops += [{"kind": "query", "file": name, "outcome": f"m{j}"} for j in range(n_out)]
        ops.append(
            {
                "kind": "sweep",
                "file": name,
                "preparation": f"s{int(rng.integers(0, n_prep))}",
                "outcome": f"m{int(rng.integers(0, n_out))}",
            }
        )
    return ops


def _trajectory_dim8(rng: np.random.Generator, out: Path) -> list[dict]:
    ops = []
    for k, (dim, jumps, window) in enumerate(TRAJECTORY_SHAPES):
        name = f"traj-{k:02d}.json"
        retrolind.dump_scenario(
            random_scenario(rng, dim, jumps, 2, 2, window, TRAJECTORY_CONFIG), out / name
        )
        for mode in TRAJECTORY_MODES:
            prefix = "s" if mode == "predictive" else "m"
            ops.append(
                {"kind": mode, "file": name, "initial": f"{prefix}{int(rng.integers(0, 2))}"}
            )
    return ops


_BUILDERS = {
    "cli-mix": _cli_mix,
    "infer-random": _infer_random,
    "trajectory-dim8": _trajectory_dim8,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files and manifest into out; return the manifest."""
    rng = np.random.default_rng([zlib.crc32(workload.encode()), seed])
    out.mkdir(parents=True, exist_ok=True)
    atom = _write_atom(out)
    ops = _BUILDERS[workload](rng, out)
    order = rng.permutation(len(ops))
    files = [atom] + sorted({op["file"] for op in ops if "file" in op})
    manifest = {
        "workload": workload,
        "seed": seed,
        "atom": {"file": atom, "gamma": ATOM_GAMMA, "window": ATOM_WINDOW},
        "files": files,
        "ops": [ops[i] for i in order],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest
