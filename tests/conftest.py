import csv

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_small_polytope(rng, max_vertices=8, max_dim=6):
    k = int(rng.integers(1, max_vertices + 1))
    p = int(rng.integers(1, max_dim + 1))
    return rng.standard_normal((k, p)) * rng.uniform(0.5, 2.0)


def write_data_csv(path, data) -> str:
    """Write ``data`` as columns x1..xp, y under a header row; returns the path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(1, data.p + 1)] + ["y"])
        for x, y in zip(data.X, data.y):
            writer.writerow([*x.tolist(), float(y)])
    return str(path)
