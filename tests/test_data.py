import itertools
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from reckernel import data
from reckernel.activation import builtin_activation
from reckernel.data import (
    FeatureDataset,
    IdxFormatError,
    ImageDataset,
    deskew,
    make_variant,
    preprocess,
    read_idx,
    write_idx,
)
from reckernel.network import HalfspaceFamily, NeuralNet

import oracles
from oracles import preprocess_out_of_place, shear_coefficient


def byte_dataset(n=6, seed=0):
    rng = np.random.default_rng(seed)
    imgs = rng.integers(0, 256, size=(n, 28, 28)).astype(np.uint8) / 255.0
    return ImageDataset(imgs, rng.integers(0, 10, n))


# ---------------------------------------------------------------------------
# IDX container
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls, arguments", [
    (ImageDataset, lambda: dict(images=np.zeros((2, 3, 3)), labels=np.array([0, 1]))),
    (FeatureDataset, lambda: dict(X=np.zeros((2, 4)), labels=np.array([0, 1]),
                                  fingerprint=("normalize",))),
    (NeuralNet, lambda: dict(weights=(np.ones((2, 3)), np.ones((1, 2))),
                             activation=builtin_activation("quadratic"))),
    (HalfspaceFamily, lambda: dict(weights=np.array([[1, -1], [0, 2]]),
                                   offsets=np.array([0, 1]), budget=4)),
], ids=["ImageDataset", "FeatureDataset", "NeuralNet", "HalfspaceFamily"])
def test_constructors_leave_the_callers_arrays_writable(cls, arguments):
    # the constructors used to make the caller's own arrays read-only
    given = arguments()
    obj = cls(**given)
    pairs = []  # (the caller's array, the stored one)
    for name, value in given.items():
        if isinstance(value, np.ndarray):
            pairs.append((value, getattr(obj, name)))
        elif name == "weights":  # a network's tuple of matrices
            pairs += zip(value, getattr(obj, name))
    assert len(pairs) == 2
    for a, b in pairs:
        assert a.flags.writeable
        assert not b.flags.writeable
        assert np.shares_memory(a, b)  # a view, not a copy


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
    nan = np.zeros((2, 4, 4))
    nan[1, 2, 3] = np.nan  # min and max are NaN, and NaN < 0.0 is False
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ImageDataset(nan, np.array([0, 1]))


@pytest.mark.filterwarnings("error")  # the refusal comes before numpy warns
@pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0), (0, 0, 0)])
def test_images_with_no_pixels_are_refused(shape):
    # preprocess used to warn of a mean of an empty slice and go on
    with pytest.raises(ValueError, match=r"h, w >= 1, got shape"):
        preprocess(ImageDataset(np.zeros(shape), np.zeros(shape[0], dtype=int)),
                   ("center", "normalize"))


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
    got = make_variant(ImageDataset(img[None], [0]), "rotation", 0, angles=[np.pi]).images[0]
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


@pytest.mark.parametrize("kind", ["rotation", "background", "background_rotation"])
def test_variant_of_an_empty_dataset_is_empty(kind):
    empty = ImageDataset(np.zeros((0, 28, 28)), np.zeros(0, dtype=int))
    out = make_variant(empty, kind, seed=0)
    assert out.images.shape == (0, 28, 28) and out.labels.shape == (0,)
    assert out.tag == kind


@pytest.mark.filterwarnings("error")  # the hook check fails before numpy warns
@pytest.mark.parametrize("kind", ["rotation", "background_rotation"])
def test_nan_angles_fail_loudly(kind):
    with pytest.raises(ValueError, match="angles must be finite"):
        make_variant(byte_dataset(3), kind, seed=0, angles=[0.0, np.nan, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_patches_fail_loudly(bad):
    patches = np.zeros((3, 28, 28))
    patches[1, 4, 7] = bad
    with pytest.raises(ValueError, match="patches must be finite"):
        make_variant(byte_dataset(3), "background_rotation", seed=0, patches=patches)


@pytest.mark.parametrize("hook, value", [
    ("angles", np.zeros(2)), ("angles", np.zeros(4)), ("angles", np.zeros((3, 1))),
    ("patches", np.zeros((3, 28))), ("patches", np.zeros((1, 28, 28))),
], ids=["2 angles", "4 angles", "angle column", "2-d patches", "1 patch"])
def test_variant_hooks_must_match_the_dataset(hook, value):
    kind, shape = ("rotation", (3,)) if hook == "angles" else ("background", (3, 28, 28))
    with pytest.raises(ValueError, match=re.escape(f"{hook} must have shape {shape}")):
        make_variant(byte_dataset(3), kind, seed=0, **{hook: value})


def resampler_fixture(n):
    """n images: glyphs, and among them a zero image, a one-row stroke (its
    var(row) is 3e-30 from rounding, under the 1e-12 cut but not 0) and a lone
    corner pixel."""
    from reckernel.glyphs import make_corpus
    images = make_corpus(n, seed=37).images.copy()
    for i, k in enumerate(range(0, n, 21)):
        images[k] = 0.0
        if i % 3 == 1:
            images[k, 10, 6:20] = 0.8
        elif i % 3 == 2:
            images[k, 27, 27] = 1.0
    return ImageDataset(images, np.arange(n) % 10)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_block_resampler_is_bit_identical_to_the_per_image_oracle(n):
    ds = resampler_fixture(n)
    thetas = np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, n)
    got = make_variant(ds, "rotation", seed=0, angles=thetas).images
    want = np.stack([oracles.rotate_image(img, t) for img, t in zip(ds.images, thetas)])
    assert np.array_equal(got, np.clip(want, 0.0, 1.0))
    got = preprocess(ds, ("deskew",)).X
    want = np.stack([oracles.deskew(img).ravel() for img in ds.images])
    assert np.array_equal(got, want)
    for img in ds.images[::21]:  # the zero image, the stroke, the corner pixel
        assert np.array_equal(deskew(img), oracles.deskew(img))


def test_bordered_gather_is_bit_identical_to_the_masked_oracle():
    """Blocks of 5 and then 3 images of 7 x 9 share one scratch; coordinates
    go far outside, land on exact integers and on the rows and columns
    -2, -1, h-1, h, h+1; edge pixels are lit so that an off-by-one in the
    flat offset or a swapped stride reads a neighbour's pixel."""
    rng = np.random.default_rng(11)
    b, h, w = 8, 7, 9
    imgs = rng.random((b, h, w))
    imgs[:, [0, -1], :] = rng.uniform(0.9, 1.0, (b, 2, w))
    imgs[:, :, [0, -1]] = rng.uniform(0.9, 1.0, (b, h, 2))

    def coords(n):
        special = [-1e6, -50.5, -3.0, -2.5, -2.0, -1.5, -1.0, -0.25, 0.0, 0.5, n - 1.0,
                   n - 0.5, float(n), n + 0.5, n + 1.0, n + 1.5, n + 2.0, 60.25, 1e6]
        x = rng.uniform(-3.0, n + 3.0, (b, h, w))
        pick = rng.random((b, h, w)) < 0.6
        x[pick] = rng.choice(special, pick.sum())
        return x

    R, C = coords(h), coords(w)
    scratch = {}
    for j in (slice(0, 5), slice(5, b)):
        got = data._bilinear(imgs[j], R[j], C[j], scratch)
        want = np.stack([oracles._bilinear(*a) for a in zip(imgs[j], R[j], C[j])])
        assert got.shape == (j.stop - j.start, h, w)
        assert np.array_equal(got, want)


def test_concurrent_resampling_matches_sequential_bytes():
    """Each resampling call owns its scratch: two threads rotating and
    deskewing different datasets get the bytes of sequential calls."""
    from reckernel.glyphs import make_corpus
    a, b = make_corpus(150, seed=41), make_corpus(140, seed=43)
    calls = (lambda: make_variant(a, "rotation", seed=5).images,
             lambda: preprocess(b, ("deskew",)).X)
    want = [f() for f in calls]
    got = [[], []]

    def run(k):
        for _ in range(4):
            got[k].append(calls[k]())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k in (0, 1):
        assert len(got[k]) == 4
        assert all(np.array_equal(g, want[k]) for g in got[k])


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


@pytest.mark.parametrize("img, match", [
    (np.full((28, 28), np.nan), r"\[0, 1\]"),
    (np.where(np.eye(28) > 0, np.inf, 0.0), r"\[0, 1\]"),
    (np.where(np.eye(28) > 0, 1e308, 0.0), r"\[0, 1\]"),
    (np.full((28, 28), -0.5), r"\[0, 1\]"),
    (np.full((28, 28), 1.5), r"\[0, 1\]"),
    (np.zeros(28), r"\(h, w\)"),
    (np.zeros((1, 28, 28)), r"\(h, w\)"),
], ids=["nan", "inf", "1e308", "negative", "above_one", "1-d", "3-d"])
def test_deskew_refuses_what_a_dataset_refuses(img, match):
    img = img.copy()
    if img.ndim == 2:
        img[:5, :5] = 0.3  # a NaN or overflow among valid pixels fails too
    with pytest.raises(ValueError, match=match):
        deskew(img)


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


def _deskews_after_centering(steps):
    return "center" in steps and "deskew" in steps[steps.index("center"):]


@pytest.mark.parametrize("steps", [("center", "deskew"), ("center", "deskew", "normalize"),
                                   ("normalize", "center", "deskew"),
                                   ("center", "normalize", "deskew")], ids=",".join)
def test_preprocess_refuses_deskew_after_center(steps):
    # a centered image has rounding residue for mass, and deskew divided by
    # it: 8 of these 20 glyphs came out all zero
    from reckernel.glyphs import make_corpus
    ds = make_corpus(20, seed=3)
    with pytest.raises(ValueError, match=f"deskew must come before center, got {','.join(steps)}"):
        preprocess(ds, steps)


def test_preprocessed_rows_satisfy_kernel_precondition(small_corpus):
    from reckernel.kernel import KernelStack, gram
    fds = preprocess(small_corpus, ("deskew", "center", "normalize"))
    gram(KernelStack(1), fds.X)  # must not raise


STEP_ORDERS = [order for r in (1, 2, 3) for order in itertools.permutations(
    ("deskew", "center", "normalize"), r)]


@pytest.mark.parametrize("steps", STEP_ORDERS, ids=",".join)
def test_in_place_preprocess_is_bit_identical_to_the_copying_one(small_corpus, steps):
    images = np.concatenate([small_corpus.images[:20], np.zeros((1, 28, 28)),
                             np.full((1, 28, 28), 0.25), byte_dataset(4).images])
    ds = ImageDataset(images, np.arange(len(images)) % 10)
    before = ds.images.copy()
    if _deskews_after_centering(steps):
        # refused before the copy is made (test_preprocess_refuses_deskew_after_center)
        with pytest.raises(ValueError, match="deskew must come before center"):
            preprocess(ds, steps)
        return
    got = preprocess(ds, steps)
    want = preprocess_out_of_place(ds, steps)
    assert got.X.tobytes() == want.X.tobytes()
    assert got.flagged_rows == want.flagged_rows
    if "normalize" in steps:
        assert 20 in got.flagged_rows  # the zero image
    assert np.array_equal(ds.images, before)


@pytest.mark.parametrize("steps", [("center", "normalize"), ("deskew", "center", "normalize")])
def test_preprocess_memory_is_one_copy_of_the_features(steps):
    ds = byte_dataset(4096, seed=3)
    tracemalloc.start()
    try:
        fds = preprocess(ds, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a step that allocates a new feature array reaches 2x
    assert peak <= 1.5 * fds.X.nbytes
