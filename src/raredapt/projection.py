"""Feature-space projection and the bimodality check.

Features of the last pre-logit layer are projected with plain PCA (mean
center, eigendecompose the covariance, keep the top components with a
deterministic sign convention); ``project_features`` keeps the top two. The
projection is exported as a scatter CSV plus a static SVG, and a quantified
bimodality score replaces eyeballing: 2-means on the rare class's projected
points, scored by balanced accuracy against the real/synthetic labels. 0.5
means the domains are mixed, 1.0 means they form fully separated clusters.
The score is an invented proxy metric, not a published quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_open, write_csv
from .data import Dataset
from .network import Network
from .numerics import make_rng

_KMEANS_STREAM = 30


@dataclass
class ProjectedFeatures:
    """2-D coordinates plus the labels needed for inspection plots."""

    coords: np.ndarray
    class_ids: np.ndarray
    domains: np.ndarray
    splits: np.ndarray
    correct: np.ndarray
    explained_variances: np.ndarray


def pca_fit(data: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PCA via eigendecomposition of the sample covariance.

    Returns (components, explained_variances, mean); components are the top
    eigenvectors as columns, orthonormal, sign-fixed so each component's
    largest-magnitude entry is positive, with variances non-increasing.
    """
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    if n <= n_components:
        raise ValueError(f"need more than {n_components} samples, got {n}")
    if not 1 <= n_components <= d:
        raise ValueError(f"n_components must be in [1, {d}], got {n_components}")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    rank = int(np.sum(evals > max(evals[0], 1e-30) * 1e-10))
    if rank < n_components:
        raise ValueError(
            f"covariance rank {rank} is below the requested {n_components} components"
        )
    components = evecs[:, :n_components]
    for j in range(n_components):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]
    return components, evals[:n_components], mean


def project_features(net: Network, dataset: Dataset, indices: np.ndarray) -> ProjectedFeatures:
    """Project the pre-logit features of the selected samples onto two components.

    Correctness flags come from the classifier head's argmax against the true
    class, so the scatter can distinguish hits from misses.
    """
    indices = np.asarray(indices, dtype=np.int64)
    # [0] drops each forward trace, and with it every hidden activation, at once
    features = net.forward_features(dataset.features[indices])[0]
    logits = net.forward_classifier(features)[0]
    class_ids = dataset.class_ids[indices]  # fancy indexing: each column below is a copy
    components, variances, mean = pca_fit(features, 2)
    return ProjectedFeatures(
        coords=(features - mean) @ components,
        class_ids=class_ids,
        domains=dataset.domains[indices],
        splits=dataset.splits[indices],
        correct=np.argmax(logits, axis=1) == class_ids,
        explained_variances=variances,
    )


_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
    "#aa3377", "#bbbbbb", "#222255", "#ee8866", "#117755",
)


def export_scatter(proj: ProjectedFeatures, prefix) -> tuple[str, str]:
    """Write ``<prefix>.csv`` and ``<prefix>.svg``; returns both paths.

    CSV columns: x,y,class_id,domain,split,correct (1/0). SVG mapping: fill
    color cycles the palette by class id, radius 4 for correct and 2 for
    incorrect predictions, black outline marks synthetic samples, and trans
    splits render at full opacity versus 0.45 for the rest.
    """
    csv_path = f"{prefix}.csv"
    svg_path = f"{prefix}.svg"
    xs, ys = proj.coords.T
    # Python values, which format faster than numpy scalars and the same way
    labels = [a.tolist() for a in (proj.class_ids, proj.domains, proj.splits,
                                   proj.correct.astype(np.int64))]
    write_csv(csv_path, ("x", "y", "class_id", "domain", "split", "correct"),
              zip(xs.tolist(), ys.tolist(), *labels))

    size, margin = 640, 48
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    inner = size - 2 * margin
    px = margin + inner * (xs - x_lo) / x_span
    py = margin + inner * (1.0 - (ys - y_lo) / y_span)
    with atomic_open(svg_path) as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n'
            f'<rect width="{size}" height="{size}" fill="white"/>\n'
            f'<rect x="{margin}" y="{margin}" width="{inner}" height="{inner}" '
            'fill="none" stroke="#999999"/>\n'
        )
        for x, y, class_id, domain, split, correct in zip(px.tolist(), py.tolist(), *labels):
            color = _PALETTE[class_id % len(_PALETTE)]
            r = 4.0 if correct else 2.0
            stroke = ' stroke="black" stroke-width="1"' if domain == "synthetic" else ""
            opacity = 0.9 if split.startswith("trans") else 0.45
            fh.write(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}" '
                f'fill-opacity="{opacity}"{stroke}/>\n'
            )
        fh.write("</svg>\n")
    return csv_path, svg_path


def _two_means(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded 2-means (k-means++ init, Lloyd iterations); returns 0/1 labels.

    Uses only pairwise distances and means, so assignments are invariant under
    rotations of the input coordinates given the same seed.
    """
    n = points.shape[0]
    first = int(rng.integers(n))
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    total = d2.sum()
    if total == 0.0:
        second = int(rng.integers(n))
    else:
        second = int(rng.choice(n, p=d2 / total))
    centers = points[[first, second]].astype(np.float64)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(100):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        for c in range(2):
            if not np.any(new_labels == c):
                new_labels[int(np.argmax(dists.min(axis=1)))] = c
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(2):
            centers[c] = points[labels == c].mean(axis=0)
    return labels


def bimodality_score(proj: ProjectedFeatures, rare_class_id: int) -> float:
    """Domain separability of the rare class in the projected plane.

    Balanced accuracy of a 2-means split against the real/synthetic labels,
    maximized over the two cluster-to-domain assignments, so values land in
    [0.5, 1] up to sampling noise: ~0.5 when domains are mixed, ~1.0 when they
    occupy disjoint clusters.
    """
    rare_rows = proj.class_ids == rare_class_id
    domains = proj.domains[rare_rows]
    is_synth = domains == "synthetic"
    if not is_synth.any() or is_synth.all():
        present = "synthetic" if is_synth.any() else "real"
        raise ValueError(f"rare class has only {present} samples; need both domains")
    points = proj.coords[rare_rows]
    labels = _two_means(points, make_rng(0, _KMEANS_STREAM))
    best = 0.0
    for synth_cluster in (0, 1):
        tpr = float(np.mean(labels[is_synth] == synth_cluster))
        tnr = float(np.mean(labels[~is_synth] != synth_cluster))
        best = max(best, 0.5 * (tpr + tnr))
    return best
