import hashlib

import numpy as np
import pytest

from reckernel import glyphs
from reckernel.baseline import LogisticConfig, predict_logistic, train_logistic
from reckernel.data import preprocess, write_idx, read_idx
from reckernel.glyphs import make_corpus

# ---------------------------------------------------------------------------
# Reference renderer: the dense all-pairs splat and the per-segment densify
# loop, one glyph at a time, kept as an oracle for the block renderer in the
# library
# ---------------------------------------------------------------------------

_PIXELS = np.stack(np.meshgrid(np.arange(glyphs.SIZE), np.arange(glyphs.SIZE), indexing="ij"),
                   axis=-1).reshape(-1, 2).astype(float)


def _dense_densify(poly, step):
    out = [poly[0]]
    for a, b in zip(poly[:-1], poly[1:]):
        dist = float(np.linalg.norm(b - a))
        k = max(1, int(np.ceil(dist / step)))
        for i in range(1, k + 1):
            out.append(a + (b - a) * (i / k))
    return np.stack(out)


def _dense_splat(pts, thickness, brightness):
    d2 = ((_PIXELS[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    dist = np.sqrt(d2)
    img = np.clip((thickness / 2.0 + 0.4 - dist) / 0.8, 0.0, 1.0) * brightness
    return img.reshape(glyphs.SIZE, glyphs.SIZE)


def _dense_render_glyph(digit, rng):
    strokes = glyphs._TEMPLATE_CACHE[digit]
    theta = rng.normal(0.0, 0.16)
    shear = rng.uniform(-0.22, 0.22)
    sy, sx = rng.uniform(0.72, 1.06, size=2)
    ty, tx = rng.uniform(-1.8, 1.8, size=2)
    thickness = rng.uniform(0.9, 2.0)
    brightness = rng.uniform(0.8, 1.0)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
    shear_m = np.array([[1.0, shear], [0.0, 1.0]])
    affine = rot @ shear_m @ np.diag([sy, sx])
    pts = []
    for poly in strokes:
        wobble = rng.normal(0.0, 0.025, size=poly.shape)
        p = (poly + wobble - 0.5) @ affine.T * glyphs.EXTENT
        p[:, 0] += glyphs.CENTER + ty
        p[:, 1] += glyphs.CENTER + tx
        pts.append(_dense_densify(p, step=0.6))
    return _dense_splat(np.concatenate(pts), thickness, brightness)


def _digest(ds):
    h = hashlib.sha256()
    h.update(np.round(ds.images * 255.0).astype(np.uint8).tobytes())
    h.update(ds.labels.astype(np.uint8).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n, seed, digest", [
    (200, 0, "359a7913bc8679fe7d0c98e865b4af24bbc1bec7393ad744aad2ea9a520d037b"),
    (50, 104729, "7139285c856e3f674c45509ee7a43f5de1b184d289a60d8659d6223bde7a373c"),
])
def test_corpus_digest_is_pinned(n, seed, digest):
    # digests of the dense renderer's output: the corpus must never change
    assert _digest(make_corpus(n, seed=seed)) == digest


def _dense_corpus(n, seed):
    # the same permutation first, then one glyph at a time, then the 1/255 rounding
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % 10)[rng.permutation(n)]
    images = np.stack([_dense_render_glyph(int(c), rng) for c in labels])
    return np.round(images * 255.0) / 255.0, labels


def test_render_matches_dense_reference_bit_for_bit():
    # within one block, exactly one block, and across block edges
    for n in (1, 63, 64, 65, 130, 300):
        got = make_corpus(n, seed=104729)
        images, labels = _dense_corpus(n, seed=104729)
        assert got.labels.tobytes() == labels.tobytes(), f"n={n}: labels differ"
        for i in range(n):
            assert got.images[i].tobytes() == images[i].tobytes(), f"n={n}: glyph {i} differs"


def test_empty_corpus_has_no_images():
    ds = make_corpus(0, seed=1)
    assert ds.images.shape == (0, glyphs.SIZE, glyphs.SIZE)
    assert ds.labels.shape == (0,)


def _splat_one(pts, thickness, brightness):
    pts = np.asarray(pts, dtype=float)
    return glyphs._splat(pts, np.zeros(len(pts), dtype=np.int64), np.array([thickness]),
                         np.array([brightness]))[0]


@pytest.mark.parametrize("pts", [
    [[0.0, 0.0], [0.0, 27.0], [27.0, 0.0], [27.0, 27.0]],             # corners
    [[0.0, 13.3], [27.0, 5.5], [8.5, 0.0], [19.49, 27.0]],            # edges
    [[-0.6, 10.0], [27.6, 3.2], [14.0, -1.39], [6.7, 28.39]],         # just outside
    [[-1.3, -1.3], [28.3, 28.3], [-0.5, 27.5], [12.5, 12.5]],         # outside, ties
])
@pytest.mark.parametrize("thickness", [0.9, 1.37, glyphs.THICKNESS_MAX])
def test_splat_edge_cases_match_dense_reference(pts, thickness):
    got = _splat_one(pts, thickness, 0.93)
    want = _dense_splat(np.asarray(pts, dtype=float), thickness, 0.93)
    assert got.tobytes() == want.tobytes()


def test_splat_random_points_around_the_grid_match_dense_reference():
    # 200 images in one block, each from its own few points, at the widest stroke
    rng = np.random.default_rng(0)
    sets = [rng.uniform(-2.0, 30.0, size=(rng.integers(1, 6), 2)) for _ in range(200)]
    slot = np.repeat(np.arange(200), [len(p) for p in sets])
    got = glyphs._splat(np.concatenate(sets), slot, np.full(200, glyphs.THICKNESS_MAX),
                        np.ones(200))
    for img, pts in zip(got, sets):
        assert img.tobytes() == _dense_splat(pts, glyphs.THICKNESS_MAX, 1.0).tobytes()


def test_splat_keeps_each_glyph_of_a_block_to_its_own_image():
    # glyph 0 reaches past the right edge and glyph 1 past the left edge: in
    # flat indices, column 28 of glyph 0's last row is pixel 0 of glyph 1, and
    # column -1 of glyph 1's first row is the last pixel of glyph 0
    right = np.array([[27.4, 27.6], [27.0, 27.6], [13.0, 27.6], [0.2, 27.6]])
    left = np.array([[0.3, -0.6], [0.0, -0.6], [13.0, -0.6], [27.4, -0.6]])
    thickness, brightness = np.array([glyphs.THICKNESS_MAX, 1.3]), np.array([1.0, 0.9])
    got = glyphs._splat(np.concatenate([right, left]), np.repeat([0, 1], 4), thickness,
                        brightness)
    assert got[0].tobytes() == _dense_splat(right, thickness[0], brightness[0]).tobytes()
    assert got[1].tobytes() == _dense_splat(left, thickness[1], brightness[1]).tobytes()
    assert got[0][:, :20].sum() == 0.0 and got[1][:, 8:].sum() == 0.0


def test_densify_matches_per_segment_loop():
    rng = np.random.default_rng(11)
    polys = [poly * glyphs.EXTENT for strokes in glyphs._TEMPLATE_CACHE.values()
             for poly in strokes]
    polys += [rng.normal(0.0, 5.0, size=(rng.integers(2, 30), 2)) for _ in range(200)]
    polys += [np.array([[3.0, 4.0]]),                        # a single point
              np.array([[1.0, 1.0], [1.0, 1.0], [2.2, 1.0]]),  # zero-length segment
              np.array([[0.0, 0.0], [0.0, 1.8]])]              # length a multiple of step
    for step in (0.6, 0.03):
        wants = [_dense_densify(poly, step) for poly in polys]
        for poly, want in zip(polys, wants):
            got, lengths = glyphs._densify(poly, [len(poly)], step=step)
            assert got.shape == want.shape and lengths.tolist() == [len(want)]
            assert got.tobytes() == want.tobytes()
        # all of them in one call: the joining segments add no points
        got, lengths = glyphs._densify(np.concatenate(polys), [len(p) for p in polys], step)
        assert lengths.tolist() == [len(w) for w in wants]
        assert got.tobytes() == np.concatenate(wants).tobytes()


def test_corpus_deterministic_and_seed_sensitive():
    a = make_corpus(50, seed=3)
    b = make_corpus(50, seed=3)
    c = make_corpus(50, seed=4)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_corpus_is_balanced_and_byte_quantized(tmp_path):
    ds = make_corpus(100, seed=5)
    counts = np.bincount(ds.labels, minlength=10)
    assert np.all(counts == 10)
    # byte quantization makes the IDX round trip exact
    write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
    back = read_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert np.array_equal(back.images, ds.images)


def test_glyphs_keep_rotation_safe_margin():
    # one of each digit, drawn as by ten consecutive glyphs of a corpus
    for img in glyphs._render_block(np.arange(10), np.random.default_rng(6)):
        assert img[:3, :].sum() == 0.0
        assert img[-3:, :].sum() == 0.0
        assert img[:, :3].sum() == 0.0
        assert img[:, -3:].sum() == 0.0
        assert img.sum() > 5.0  # the glyph is actually drawn


@pytest.mark.parametrize("seed", [0, 104729])
def test_corpus_leaves_the_outer_two_pixels_unlit(seed):
    images = make_corpus(2000, seed=seed).images
    assert images.sum(axis=(1, 2)).min() > 5.0
    for band in (images[:, :2, :], images[:, -2:, :], images[:, :, :2], images[:, :, -2:]):
        assert band.max() == 0.0


def test_baseline_learns_the_basic_corpus():
    tr = make_corpus(400, seed=7)
    te = make_corpus(200, seed=8)
    ftr = preprocess(tr, ("deskew", "center", "normalize"))
    fte = preprocess(te, ("deskew", "center", "normalize"))
    W = train_logistic(ftr.X, ftr.labels, LogisticConfig(iters=200))
    err = (predict_logistic(W, fte.X) != fte.labels).mean()
    assert err < 0.15


def test_densify_counts_points_from_the_same_rounded_length():
    # this segment is 2 steps long up to its last bit: a dot product with a
    # fused multiply-add and a plain sum of squares round it to either side
    poly = np.array([[0.0, 0.0], [-2.595639228824825, 9.968998549934648]])
    step = 5.150686242987759
    got, _ = glyphs._densify(poly, [2], step=step)
    assert got.tobytes() == _dense_densify(poly, step).tobytes()
