"""Seeded benchmark inputs, drawn with numpy alone.

The library's own samplers are deliberately not used: a rewrite of
``kantorovich.samplers`` must not change what the benchmark runs. Every
function here is a pure function of its generator, so the same ``--seed``
gives the same inputs, and :func:`digest` turns an input set into a sha256
that two commits can compare.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

NORMS = ("l1", "l2", "linf")


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Independent numpy PCG64 stream for one (seed, stream...) tuple."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def grid_points(rng: np.random.Generator, count: int, dim: int) -> list[list[int]]:
    """``count`` distinct integer grid points in ``dim`` dimensions.

    Cells are drawn without replacement from a cube of about ``4 * count``
    cells, so the draw cannot loop however many points are asked for.
    """
    side = math.ceil((4 * count) ** (1.0 / dim))
    cells = rng.choice(side ** dim, size=count, replace=False)
    coords = np.stack(np.unravel_index(cells, (side,) * dim), axis=1)
    return coords.astype(int).tolist()


def distance_table(points, norm: str) -> np.ndarray:
    """Pairwise distances of a roster, computed here rather than by the library."""
    pts = np.asarray(points, dtype=float)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    if norm == "l1":
        return diff.sum(axis=2)
    if norm == "l2":
        return np.sqrt((diff * diff).sum(axis=2))
    return diff.max(axis=2)


def composition(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    """``parts`` positive integers summing to ``total`` with gcd 1.

    With gcd 1 the weights ``k / total`` have ``total`` as their exact
    common denominator, which is what decides the solver route.
    """
    if not 2 <= parts < total:
        raise ValueError(f"cannot split {total} into {parts} coprime positive parts")
    while True:
        cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
        sizes = np.diff(np.concatenate(([0], cuts, [total]))).astype(int).tolist()
        if math.gcd(*sizes) == 1:
            return sizes


def float_weights(rng: np.random.Generator, count: int) -> list[float]:
    """Strictly positive, non-uniform float weights summing to 1 within rounding."""
    raw = rng.random(count) + 0.05
    return (raw / raw.sum()).tolist()


def digest(inputs) -> str:
    """sha256 of a JSON-serializable input set (float reprs are exact)."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
