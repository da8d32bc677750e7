"""Input generation for the benchmark workloads.

Inputs are drawn here with NumPy from the workload seed and written to CSV
files; the program only ever sees them through ``load_dataset``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def two_class_blobs(n: int, d: int, seed, distance: float,
                    label_noise: float):
    """Two balanced unit-variance Gaussian classes whose means lie
    ``distance`` apart along a random direction, with label noise.

    Redrawing a share ``label_noise`` of labels among two classes flips half
    of them on average; here exactly that many, round(n * label_noise / 2),
    chosen at random, are flipped.  The mean distance and the number of
    flipped labels are fixed rather than drawn, so that seeds differ only in
    sampling noise: with both drawn at random the work of one path varies
    about twofold between seeds, which would hide any change in the code.
    """
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    means = np.stack([direction, -direction]) * (distance / 2.0)
    labels = np.arange(n, dtype=np.int64) % 2
    features = means[labels] + rng.standard_normal((n, d))
    flip = rng.choice(n, size=int(round(n * label_noise / 2.0)), replace=False)
    labels[flip] = 1 - labels[flip]
    return features, labels


def safety_instance(seed: int):
    """One tiny instance of the acceptance safety sweep.

    Draws exactly what the acceptance suite's ``random_instance`` (20 to 50
    samples, 2 to 5 features, 2 or 3 classes) and ``gaussian_blobs`` draw,
    so instance k of a sweep seeded alike is the same problem in both.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 51))
    d = int(rng.integers(2, 6))
    n_classes = int(rng.choice((2, 3)))
    separation = float(rng.uniform(1.0, 3.0))
    blob_rng = np.random.default_rng(seed + 10_000)
    means = blob_rng.normal(scale=separation, size=(n_classes, d))
    labels = np.arange(n, dtype=np.int64) % n_classes
    features = means[labels] + blob_rng.standard_normal((n, d))
    return features, labels


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray) -> Path:
    """Label in column 0, features at full precision, so a load reads back
    the exact floats."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for label, row in zip(labels, features):
            handle.write(str(int(label)) + ","
                         + ",".join(f"{v:.17g}" for v in row) + "\n")
    return path
