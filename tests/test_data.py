import numpy as np
import pytest

from reckernel.data import (
    IdxFormatError,
    ImageDataset,
    deskew,
    make_variant,
    preprocess,
    read_idx,
    rotate_image,
    shear_coefficient,
    write_idx,
)


def byte_dataset(n=6, seed=0):
    rng = np.random.default_rng(seed)
    imgs = rng.integers(0, 256, size=(n, 28, 28)).astype(np.uint8) / 255.0
    return ImageDataset(imgs, rng.integers(0, 10, n))


# ---------------------------------------------------------------------------
# IDX container
# ---------------------------------------------------------------------------

def test_idx_round_trip(tmp_path):
    ds = byte_dataset()
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx(ds, ip, lp)
    back = read_idx(ip, lp)
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)


def test_idx_pixel_scaling(tmp_path):
    img = np.zeros((1, 2, 2))
    img[0, 0, 0] = 1.0  # byte 255 -> exactly 1.0 after the round trip
    ds = ImageDataset(img, np.array([3]))
    write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
    back = read_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert back.images[0, 0, 0] == 1.0
    assert back.images[0, 1, 1] == 0.0


def test_idx_bad_magic_names_offset(tmp_path):
    ds = byte_dataset(2)
    write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
    blob = (tmp_path / "i.idx").read_bytes()
    (tmp_path / "bad.idx").write_bytes(b"\x00\x00\x08\x05" + blob[4:])
    with pytest.raises(IdxFormatError, match="byte offset 0"):
        read_idx(tmp_path / "bad.idx", tmp_path / "l.idx")


def test_idx_truncated_payload(tmp_path):
    ds = byte_dataset(2)
    write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
    blob = (tmp_path / "i.idx").read_bytes()
    (tmp_path / "short.idx").write_bytes(blob[:-10])
    with pytest.raises(IdxFormatError, match="payload"):
        read_idx(tmp_path / "short.idx", tmp_path / "l.idx")


def test_idx_count_mismatch(tmp_path):
    a = byte_dataset(10)
    b = byte_dataset(9)
    write_idx(a, tmp_path / "i.idx", tmp_path / "la.idx")
    write_idx(b, tmp_path / "j.idx", tmp_path / "lb.idx")
    with pytest.raises(IdxFormatError, match="count mismatch"):
        read_idx(tmp_path / "i.idx", tmp_path / "lb.idx")


def test_dataset_validation():
    with pytest.raises(ValueError, match="labels"):
        ImageDataset(np.zeros((3, 4, 4)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ImageDataset(np.full((1, 2, 2), 1.5), np.array([0]))


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------

def test_rotation_zero_angle_is_identity():
    ds = byte_dataset(4)
    out = make_variant(ds, "rotation", seed=0, angles=np.zeros(4))
    assert np.array_equal(out.images, ds.images)


def test_rotation_half_turn_flips():
    img = np.zeros((3, 3))
    img[0, 1] = 0.7
    img[1, 0] = 0.3
    got = rotate_image(img, np.pi)
    assert got == pytest.approx(img[::-1, ::-1], abs=1e-12)


def test_rotation_preserves_mass_with_margin():
    # content within a 4-pixel margin: bilinear leakage stays under 2%
    rng = np.random.default_rng(1)
    from reckernel.glyphs import make_corpus
    ds = make_corpus(40, seed=23)
    thetas = rng.uniform(0, 2 * np.pi, 40)
    out = make_variant(ds, "rotation", seed=0, angles=thetas)
    for i in range(40):
        before = ds.images[i].sum()
        after = out.images[i].sum()
        assert abs(after - before) <= 0.02 * before


def test_background_zero_patch_is_identity():
    ds = byte_dataset(3)
    out = make_variant(ds, "background", seed=0, patches=np.zeros((3, 28, 28)))
    assert np.array_equal(out.images, ds.images)


def test_background_is_pixelwise_max():
    ds = byte_dataset(3)
    patches = np.full((3, 28, 28), 0.5)
    out = make_variant(ds, "background", seed=0, patches=patches)
    assert np.array_equal(out.images, np.maximum(ds.images, 0.5))


def test_variants_reproducible_byte_for_byte(tmp_path):
    ds = byte_dataset(5)
    for kind in ("rotation", "background", "background_rotation"):
        a = make_variant(ds, kind, seed=42)
        b = make_variant(ds, kind, seed=42)
        assert np.array_equal(a.images, b.images), kind
        assert a.tag == kind
    c = make_variant(ds, "rotation", seed=43)
    assert not np.array_equal(a.images, c.images)


def test_variant_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        make_variant(byte_dataset(1), "blur", seed=0)


# ---------------------------------------------------------------------------
# deskew
# ---------------------------------------------------------------------------

def test_deskew_centered_bar_unchanged():
    bar = np.zeros((28, 28))
    bar[8:20, 13] = 1.0
    bar[8:20, 14] = 1.0  # mass center exactly (13.5, 13.5)
    assert np.abs(deskew(bar) - bar).max() <= 1e-9


def test_deskew_zero_image_unchanged():
    z = np.zeros((28, 28))
    assert np.array_equal(deskew(z), z)


def test_deskew_straightens_slanted_bar():
    img = np.zeros((28, 28))
    for r in range(6, 22):
        img[r, 9 + (r - 6) // 2] = 1.0
    assert abs(shear_coefficient(img)) > 0.3
    assert abs(shear_coefficient(deskew(img))) < 0.02


def test_deskew_approximately_idempotent_on_corpus():
    from reckernel.glyphs import make_corpus
    ds = make_corpus(100, seed=29)
    for img in ds.images:
        once = deskew(img)
        assert abs(shear_coefficient(once)) <= 0.02


def test_deskew_centers_mass():
    rng = np.random.default_rng(2)
    img = np.zeros((28, 28))
    img[3:9, 4:10] = rng.random((6, 6))
    out = deskew(img)
    rr, cc = np.meshgrid(np.arange(28), np.arange(28), indexing="ij")
    mass = out.sum()
    assert (out * rr).sum() / mass == pytest.approx(13.5, abs=0.1)
    assert (out * cc).sum() / mass == pytest.approx(13.5, abs=0.1)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_preprocess_full_pipeline_unit_norm(small_corpus):
    fds = preprocess(small_corpus, ("deskew", "center", "normalize"))
    norms = np.linalg.norm(fds.X, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9
    assert fds.fingerprint == ("deskew", "center", "normalize")
    assert fds.flagged_rows == ()


def test_preprocess_constant_image_flagged():
    ds = ImageDataset(np.full((2, 4, 4), 0.5), np.array([0, 1]))
    fds = preprocess(ds, ("center", "normalize"))
    assert fds.flagged_rows == (0, 1)
    assert np.all(fds.X == 0.0)


def test_preprocess_center_is_mean_zero(small_corpus):
    fds = preprocess(small_corpus, ("center",))
    assert np.abs(fds.X.sum(axis=1)).max() <= 1e-9 * fds.X.shape[1]


def test_preprocess_rejects_bad_steps():
    ds = byte_dataset(1)
    with pytest.raises(ValueError):
        preprocess(ds, ())
    with pytest.raises(ValueError, match="unknown"):
        preprocess(ds, ("sharpen",))


def test_preprocessed_rows_satisfy_kernel_precondition(small_corpus):
    from reckernel.kernel import KernelStack, gram
    fds = preprocess(small_corpus, ("deskew", "center", "normalize"))
    gram(KernelStack(1), fds.X)  # must not raise
