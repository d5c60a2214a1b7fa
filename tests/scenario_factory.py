"""Random scenario builders shared across the test modules.

Matrix decompositions from numpy.linalg are used freely here to build
random inputs.
"""

from __future__ import annotations

import numpy as np

from retrolind import (
    DensityOperator,
    IntegratorConfig,
    LindbladModel,
    Pom,
    PreparationEnsemble,
    Scenario,
)


def random_hermitian(rng: np.random.Generator, dim: int, spectral_radius: float) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    top = np.max(np.abs(np.linalg.eigvalsh(h)))
    return h * (spectral_radius / top)


def random_jump(rng: np.random.Generator, dim: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a * (norm / np.linalg.norm(a, 2))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T + 1e-3 * np.eye(dim)
    return m / np.trace(m).real


def random_pom_elements(rng: np.random.Generator, dim: int, n_outcomes: int) -> list[np.ndarray]:
    """Complete set built by whitening random positive operators."""
    mats = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(g @ g.conj().T + 1e-3 * np.eye(dim))
    total = np.sum(mats, axis=0)
    vals, vecs = np.linalg.eigh(total)
    whitener = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return [whitener @ m @ whitener for m in mats]


def random_model(
    rng: np.random.Generator,
    dim: int | None = None,
    n_jumps: int | None = None,
    closed: bool = False,
) -> LindbladModel:
    d = dim if dim is not None else int(rng.choice([2, 3, 4]))
    q = 0 if closed else (n_jumps if n_jumps is not None else int(rng.choice([1, 2, 3])))
    hamiltonian = random_hermitian(rng, d, float(rng.uniform(0.3, 2.0)))
    jumps = tuple(random_jump(rng, d, float(rng.uniform(0.2, 1.0))) for _ in range(q))
    return LindbladModel(d, hamiltonian, jumps)


def random_scenario(
    rng: np.random.Generator,
    dim: int | None = None,
    n_jumps: int | None = None,
    max_window: float = 5.0,
    closed: bool = False,
    config: IntegratorConfig = IntegratorConfig(1000, 50),
) -> Scenario:
    model = random_model(rng, dim, n_jumps, closed)
    d = model.dim
    n_prep = int(rng.integers(2, 5))
    priors = rng.dirichlet(np.ones(n_prep))
    priors = priors / priors.sum()
    ensemble = PreparationEnsemble(
        tuple(float(p) for p in priors),
        tuple(DensityOperator(random_density(rng, d)) for _ in range(n_prep)),
        tuple(f"s{i}" for i in range(n_prep)),
    )
    n_out = int(rng.integers(2, 4))
    pom = Pom(
        tuple(random_pom_elements(rng, d, n_out)),
        tuple(f"m{j}" for j in range(n_out)),
    )
    window = float(rng.uniform(0.2, max_window))
    return Scenario(model, ensemble, pom, 0.0, window, config)
