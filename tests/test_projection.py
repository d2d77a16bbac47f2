import csv
from pathlib import Path

import numpy as np
import pytest

from raredapt import ProjectedFeatures, bimodality_score, export_scatter, make_rng, pca_fit


def test_pca_components_are_orthonormal_sign_fixed_and_ordered():
    rng = make_rng(5)
    data = rng.standard_normal((200, 4)) * np.array([3.0, 0.2, 1.5, 0.7]) @ np.linalg.qr(
        rng.standard_normal((4, 4))
    )[0]
    components, variances, mean = pca_fit(data, 3)
    assert components.shape == (4, 3)
    assert np.allclose(components.T @ components, np.eye(3), atol=1e-12)
    for column in components.T:
        assert column[np.argmax(np.abs(column))] > 0
    assert np.all(np.diff(variances) <= 0)
    assert np.allclose(mean, data.mean(axis=0))
    # each variance is the sample variance of the data along its component
    projected = (data - mean) @ components
    assert np.allclose(projected.var(axis=0, ddof=1), variances)
    assert np.allclose(variances, [9.0, 2.25, 0.49], rtol=0.3)


def test_pca_rejects_too_few_rows_too_low_rank_and_bad_component_counts():
    rng = make_rng(6)
    with pytest.raises(ValueError, match="^need more than 2 samples, got 2$"):
        pca_fit(rng.standard_normal((2, 3)), 2)
    line = np.outer(rng.standard_normal(50), [1.0, 2.0, -1.0])  # rank 1
    with pytest.raises(ValueError, match="^covariance rank 1 is below the requested 2 components$"):
        pca_fit(line, 2)
    for n_components in (0, 4):
        with pytest.raises(ValueError, match=r"n_components must be in \[1, 3\]"):
            pca_fit(rng.standard_normal((10, 3)), n_components)


def projected(coords, class_ids, domains, splits=None, correct=None) -> ProjectedFeatures:
    n = len(class_ids)
    return ProjectedFeatures(
        coords=np.asarray(coords, dtype=np.float64),
        class_ids=np.asarray(class_ids),
        domains=np.asarray(domains),
        splits=np.asarray(splits if splits is not None else ["trans_test"] * n),
        correct=np.asarray(correct if correct is not None else [True] * n),
        explained_variances=np.ones(2),
    )


def test_export_scatter_writes_one_row_and_one_circle_per_point(tmp_path):
    coords = make_rng(7).standard_normal((5, 2))
    proj = projected(coords, [0, 1, 3, 3, 3], ["real", "real", "real", "synthetic", "synthetic"],
                     splits=["cis_test", "trans_test", "trans_test", "train", "train"],
                     correct=[True, False, True, True, False])
    csv_path, svg_path = export_scatter(proj, tmp_path / "scatter")
    assert (csv_path, svg_path) == (f"{tmp_path / 'scatter'}.csv", f"{tmp_path / 'scatter'}.svg")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["x"]) for r in rows] == coords[:, 0].tolist()
    assert [float(r["y"]) for r in rows] == coords[:, 1].tolist()
    assert [(r["class_id"], r["domain"], r["split"], r["correct"]) for r in rows] == [
        ("0", "real", "cis_test", "1"),
        ("1", "real", "trans_test", "0"),
        ("3", "real", "trans_test", "1"),
        ("3", "synthetic", "train", "1"),
        ("3", "synthetic", "train", "0"),
    ]
    svg = Path(svg_path).read_text(encoding="utf-8").splitlines()
    circles = [line for line in svg if line.startswith("<circle")]
    assert len(circles) == 5
    assert ['stroke="black"' in c for c in circles] == [False, False, False, True, True]
    assert ['r="4.0"' in c for c in circles] == [True, False, True, True, False]


def test_bimodality_score_separates_two_distant_domains_and_needs_both():
    rng = make_rng(8)
    real = rng.standard_normal((60, 2)) * 0.5
    synthetic = rng.standard_normal((60, 2)) * 0.5 + [10.0, 0.0]
    other = rng.standard_normal((30, 2)) * 0.5 + [5.0, 5.0]  # not rare: ignored
    coords = np.concatenate([real, synthetic, other])
    class_ids = [2] * 120 + [0] * 30
    domains = ["real"] * 60 + ["synthetic"] * 60 + ["real"] * 30
    assert bimodality_score(projected(coords, class_ids, domains), rare_class_id=2) >= 0.95
    with pytest.raises(ValueError, match="rare class has only real samples"):
        bimodality_score(projected(coords, class_ids, ["real"] * 150), rare_class_id=2)
