"""Synthetic data generation, the stratified 6:2:2 split, and the CSV
round-trip with its strict error reporting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evos.data import (
    OOD_KINDS,
    OOD_LABEL,
    Dataset,
    _parse_bulk,
    _parse_lines,
    circle_centers,
    gen_blobs,
    gen_ood,
    load_csv,
    one_hot,
    save_csv,
    split_622,
)
from evos.errors import DataError


# ---------------------------------------------------------------------------
# gen_blobs


def test_blobs_default_benchmark_shape():
    ds = gen_blobs(seed=0)
    assert ds.features.shape == (2500, 2)
    assert ds.n_classes == 5
    assert np.array_equal(np.unique(ds.labels), np.arange(5))
    assert np.bincount(ds.labels).tolist() == [500] * 5


def test_blobs_tiny_sigma_nearest_center_perfect():
    ds = gen_blobs(n_per_class=50, sigma=1e-6, seed=1)
    centers = np.asarray(ds.meta["centers"])
    nearest = np.argmin(
        np.linalg.norm(ds.features[:, None, :] - centers[None], axis=2), axis=1
    )
    assert np.array_equal(nearest, ds.labels)


def test_blobs_deterministic():
    a = gen_blobs(seed=7)
    b = gen_blobs(seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, gen_blobs(seed=8).features)


def test_blobs_class_means_near_centers():
    n = 500
    sigma = 0.9
    ds = gen_blobs(n_per_class=n, sigma=sigma, seed=3)
    centers = np.asarray(ds.meta["centers"])
    for cls, center in enumerate(centers):
        mean = ds.features[ds.labels == cls].mean(axis=0)
        assert np.all(np.abs(mean - center) < 3.0 * sigma / np.sqrt(n))


def test_blobs_rejects_bad_sigma():
    with pytest.raises(DataError):
        gen_blobs(sigma=0.0)
    with pytest.raises(DataError):
        gen_blobs(sigma=-1.0)


def test_circle_centers_geometry():
    centers = circle_centers(5, radius=4.0)
    assert centers.shape == (5, 2)
    assert_allclose(np.linalg.norm(centers, axis=1), 4.0, atol=1e-12)
    # pairwise distinct
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(centers[i] - centers[j]) > 1.0


# ---------------------------------------------------------------------------
# gen_ood


@pytest.fixture(scope="module")
def id_geometry():
    ds = gen_blobs(seed=0)
    return np.asarray(ds.meta["centers"]), 0.9


def test_ood_kinds_enumerated():
    assert set(OOD_KINDS) == {"ring", "far_cluster", "uniform_box"}


def test_ood_far_cluster_margin(id_geometry):
    centers, sigma = id_geometry
    ood = gen_ood("far_cluster", n=300, centers=centers, sigma=sigma, seed=5)
    dists = np.linalg.norm(ood.features[:, None, :] - centers[None], axis=2)
    assert dists.min() > 10.0 * sigma
    assert np.array_equal(ood.labels, np.full(300, OOD_LABEL))


def test_ood_ring_band(id_geometry):
    centers, sigma = id_geometry
    max_radius = np.linalg.norm(centers, axis=1).max()
    ood = gen_ood("ring", n=300, centers=centers, sigma=sigma, seed=5)
    radii = np.linalg.norm(ood.features, axis=1)
    assert radii.min() >= 3.0 * max_radius - 1e-9
    assert radii.max() <= 3.0 * max_radius + 1.0 + 1e-9


def test_ood_uniform_box_outside_id_support(id_geometry):
    centers, sigma = id_geometry
    id_ds = gen_blobs(seed=0)
    lo = id_ds.features.min(axis=0)
    hi = id_ds.features.max(axis=0)
    ood = gen_ood("uniform_box", n=300, centers=centers, sigma=sigma, seed=6)
    inside = np.all((ood.features > lo) & (ood.features < hi), axis=1)
    assert not inside.any()


def test_ood_deterministic(id_geometry):
    centers, sigma = id_geometry
    for kind in OOD_KINDS:
        a = gen_ood(kind, n=50, centers=centers, sigma=sigma, seed=9)
        b = gen_ood(kind, n=50, centers=centers, sigma=sigma, seed=9)
        assert np.array_equal(a.features, b.features), kind


def test_ood_unknown_kind(id_geometry):
    centers, sigma = id_geometry
    with pytest.raises(DataError):
        gen_ood("meteor", n=10, centers=centers, sigma=sigma, seed=0)


# ---------------------------------------------------------------------------
# split_622


def test_split_balanced_100():
    ds = gen_blobs(n_per_class=50, n_classes=2, seed=0)
    tr, va, te = split_622(ds, seed=0)
    assert (len(tr), len(va), len(te)) == (60, 20, 20)
    for part in (tr, va, te):
        counts = np.bincount(part.labels, minlength=2)
        assert counts[0] == counts[1]
    assert np.bincount(tr.labels).tolist() == [30, 30]


def test_split_is_exact_partition():
    ds = gen_blobs(n_per_class=41, n_classes=3, seed=2)  # awkward sizes
    tr, va, te = split_622(ds, seed=2)
    assert len(tr) + len(va) + len(te) == len(ds)
    merged = np.concatenate([p.features for p in (tr, va, te)])
    assert np.array_equal(
        np.sort(merged, axis=0), np.sort(ds.features, axis=0)
    )


def test_split_stratification_within_one():
    ds = gen_blobs(n_per_class=37, n_classes=4, seed=3)
    tr, va, te = split_622(ds, seed=3)
    for part, ratio in ((tr, 0.6), (va, 0.2), (te, 0.2)):
        for cls in range(4):
            got = int(np.sum(part.labels == cls))
            assert abs(got - ratio * 37) <= 1.0


def test_split_deterministic():
    ds = gen_blobs(n_per_class=30, seed=4)
    a = split_622(ds, seed=4)[0]
    b = split_622(ds, seed=4)[0]
    assert np.array_equal(a.features, b.features)


def test_split_rejects_tiny_class():
    feats = np.zeros((5, 2))
    labels = np.array([0, 0, 0, 1, 1])  # class 1 has two samples
    ds = Dataset(features=feats, labels=labels, n_classes=2, name="tiny")
    with pytest.raises(DataError):
        split_622(ds)


# ---------------------------------------------------------------------------
# CSV round-trip


def test_csv_round_trip_bit_exact(tmp_path):
    ds = gen_blobs(n_per_class=20, seed=5)
    path = tmp_path / "blobs.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)  # repr() is lossless
    assert np.array_equal(back.labels, ds.labels)
    assert back.n_classes == ds.n_classes


def test_csv_ood_round_trip(tmp_path):
    centers = circle_centers(5, radius=4.0)
    ood = gen_ood("ring", n=25, centers=centers, sigma=0.9, seed=6)
    path = tmp_path / "ood.csv"
    save_csv(ood, path)
    back = load_csv(path)
    assert np.array_equal(back.labels, np.full(25, OOD_LABEL))
    assert np.array_equal(back.features, ood.features)
    first_line = path.read_text().splitlines()[1]
    assert first_line.endswith(",ood")


def test_csv_small_valid_file(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n-1.5,0.25,ood\n")
    ds = load_csv(path)
    assert len(ds) == 3
    assert ds.labels.tolist() == [0, 1, -1]
    assert_allclose(ds.features, [[1.0, 2.0], [3.0, 4.0], [-1.5, 0.25]])


def test_csv_bad_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,abc,1\n")
    with pytest.raises(DataError, match=r":3.*f1.*'abc'"):
        load_csv(path)


def test_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("f0,f1,label\nnan,2.0,0\n")
    with pytest.raises(DataError, match=r":2.*f0"):
        load_csv(path)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("x,y,label\n1.0,2.0,0\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path)


def test_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(DataError, match=r":3"):
        load_csv(path)


def test_csv_rejects_bad_label(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_text("f0,label\n1.0,maybe\n")
    with pytest.raises(DataError, match="label"):
        load_csv(path)


def test_csv_rejects_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("f0,f1,label\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(header_only)


# ---------------------------------------------------------------------------
# CSV reader: numpy's bulk parse with the line reader behind it

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0 / 3.0]


def _write_rows(path, header, rows, newline="\n", final_newline=True):
    text = newline.join([header] + rows) + (newline if final_newline else "")
    path.write_bytes(text.encode())


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_csv_round_trip_property(tmp_path_factory, dim, n_classes, data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    value = st.one_of(
        st.sampled_from(_EDGE_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    feats = np.array(data.draw(st.lists(value, min_size=n * dim, max_size=n * dim)))
    labels = np.array(
        data.draw(st.lists(st.integers(OOD_LABEL, n_classes - 1), min_size=n, max_size=n))
    )
    ds = Dataset(features=feats.reshape(n, dim), labels=labels, n_classes=n_classes)
    path = tmp_path_factory.mktemp("rt") / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.features.tobytes() == ds.features.tobytes()  # signed zeros too
    assert np.array_equal(back.labels, ds.labels)
    assert back.n_classes == (int(labels.max()) + 1 if np.any(labels >= 0) else 0)
    bulk = _parse_bulk(path)
    assert bulk is not None  # save_csv's output never needs the line reader
    lines = _parse_lines(path)
    for got, want in zip(bulk, lines):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_csv_rejects_negative_label_instead_of_reading_ood(tmp_path):
    path = tmp_path / "neg.csv"
    _write_rows(path, "f0,f1,label", ["1.0,2.0,0", "1.0,2.0,ood", "1.0,2.0,-1"])
    with pytest.raises(DataError, match=r":4: bad label '-1'"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_on_a_late_line(tmp_path, cell):
    rows = [f"{i * 0.5},{-i * 0.25},{i % 3}" for i in range(5000)]
    rows[4321] = f"1.0,{cell},1"
    path = tmp_path / "late.csv"
    _write_rows(path, "f0,f1,label", rows)
    with pytest.raises(DataError, match=rf":4323: field f1 is not finite: '{cell}'"):
        load_csv(path)


def test_csv_rejects_ragged_row_after_ten_thousand_rows(tmp_path):
    rows = [f"{i * 0.5},{-i * 0.25},ood" for i in range(10_050)]
    rows[10_020] = "1.0,2.0,0,7"
    path = tmp_path / "ragged.csv"
    _write_rows(path, "f0,f1,label", rows)
    with pytest.raises(DataError, match=r":10022: expected 3 fields, got 4"):
        load_csv(path)


@pytest.mark.parametrize(
    "raw",
    [
        b"f0,f1,label\n1.0,2.0,0\n\n3.0,4.0,1\n",
        b"f0,f1,label\r\n1.0,2.0,0\r\n\r\n",
        b"f0,f1,label\n1.0,2.0,0\n\r",  # a lone CR ends an empty line
    ],
)
def test_csv_rejects_blank_line_naming_it(tmp_path, raw):
    # numpy's reader skips blank lines; the line reader names them
    path = tmp_path / "blank.csv"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=r":3: expected 3 fields, got 0"):
        load_csv(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_csv_line_endings_and_missing_final_newline(tmp_path, newline, final_newline):
    rows = ["1.0,-0.0,0", "2.5,3e-320,ood", "-4.0,1e308,2"]
    path = tmp_path / "nl.csv"
    _write_rows(path, "f0,f1,label", rows, newline=newline, final_newline=final_newline)
    ds = load_csv(path)
    assert ds.features.tobytes() == np.array([[1.0, -0.0], [2.5, 3e-320], [-4.0, 1e308]]).tobytes()
    assert ds.labels.tolist() == [0, OOD_LABEL, 2]
    assert ds.n_classes == 3


@pytest.mark.parametrize(
    "row",
    [
        "1_0,2.0,1",
        " 1.0 ,2.0, 1",
        "1.0,2.0,+1",
        '"1.0",2.0,"1"',
        "1.0,2.0,0001",
        "1.0,2.0,00000000000000000001",  # wider than numpy's label field
        "\t1.0,2.0,1",
    ],
)
def test_csv_syntax_only_python_accepts_reads_like_the_line_reader(tmp_path, row):
    path = tmp_path / "py.csv"
    _write_rows(path, "f0,f1,label", ["0.5,0.25,0", row])
    ds = load_csv(path)
    feats, labels = _parse_lines(path)
    assert ds.features.tobytes() == feats.tobytes()
    assert np.array_equal(ds.labels, labels)
    assert ds.labels[1] == 1


@pytest.mark.parametrize("row", ["1\x1c,1", "1.5\x1f,1", "2.0,ood\x1e"])
def test_csv_control_bytes_numpy_would_strip_are_rejected(tmp_path, row):
    path = tmp_path / "ctl.csv"
    _write_rows(path, "f0,label", ["0.5,0", row])
    with pytest.raises(DataError, match=r":3: "):
        load_csv(path)


@pytest.mark.parametrize(
    "raw, msg",
    [
        (b"f0,label\n0.5,0\n1.0\r,1\n", "got 1"),  # "1.0\r" is a row of its own
        (b"f0,label\n0.5,0\r\r1.0,1\n", "got 0"),  # CR CR holds an empty row
        (b"f0,label\n0.5,0\r\r\n1.0,1\n", "got 0"),
    ],
)
def test_csv_lone_carriage_return_ends_a_line(tmp_path, monkeypatch, raw, msg):
    # the line reader ends a row at a CR outside a CRLF pair; such a file
    # never reaches numpy's reader, whatever its tokenizer makes of a CR
    path = tmp_path / "cr.csv"
    path.write_bytes(raw)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called on a file with a lone CR")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    assert _parse_bulk(path) is None
    with pytest.raises(DataError, match=rf":3: expected 2 fields, {msg}"):
        load_csv(path)


def test_load_csv_memory_is_bounded(tmp_path):
    ds = gen_blobs(n_per_class=40_000, seed=8)  # 200k rows
    path = tmp_path / "big.csv"
    save_csv(ds, path)
    tracemalloc.start()
    try:
        back = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) == 200_000
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# misc


def test_one_hot():
    y = one_hot(np.array([0, 2, 1]), 3)
    assert np.array_equal(y, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float))


def test_dataset_validates_label_range():
    with pytest.raises(DataError):
        Dataset(
            features=np.zeros((2, 2)),
            labels=np.array([0, 5]),
            n_classes=2,
            name="bad",
        )
