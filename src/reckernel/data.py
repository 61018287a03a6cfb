"""Image dataset ingestion, perturbation variants, and feature preprocessing.

Images travel as IDX files (big-endian magic + dimension header, one byte per
pixel), are perturbed into rotation / background / combined variants, and are
flattened into unit-norm feature vectors through an ordered pipeline of
deskew, per-image mean centering, and l2 normalization.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .kernel import row_norms

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

VARIANT_KINDS = ("rotation", "background", "background_rotation")
PREPROCESS_STEPS = ("deskew", "center", "normalize")

#: rotation and deskew resample this many images at a time (cf. kernel.ROW_BLOCK)
IMAGE_BLOCK = 64

#: background patches: coarse noise on a NOISE_GRID x NOISE_GRID lattice,
#: upsampled, thresholded at NOISE_THRESHOLD and drawn at NOISE_AMPLITUDE
NOISE_GRID = 5
NOISE_THRESHOLD = 0.7
NOISE_AMPLITUDE = 0.4


class IdxFormatError(ValueError):
    """An IDX file violates the container format."""


def _check_pixels(imgs: np.ndarray) -> None:
    if imgs.size and not (imgs.min() >= 0.0 and imgs.max() <= 1.0):  # NaN fails too
        raise ValueError("pixel values must lie in [0, 1]")


@dataclass(frozen=True)
class ImageDataset:
    """Grayscale images in [0, 1] with integer labels and a provenance tag."""

    images: np.ndarray  # (n, h, w) float64
    labels: np.ndarray  # (n,) int64
    tag: str = "basic"

    def __post_init__(self):
        # read-only views: no copy, and the caller's arrays keep their flags
        imgs = np.asarray(self.images, dtype=float).view()
        labs = np.asarray(self.labels, dtype=np.int64).view()
        if imgs.ndim != 3 or 0 in imgs.shape[1:]:
            raise ValueError(f"images must be (n, h, w) with h, w >= 1, got shape {imgs.shape}")
        if labs.shape != (imgs.shape[0],):
            raise ValueError(
                f"{imgs.shape[0]} images but {labs.shape[0] if labs.ndim else 0} labels")
        _check_pixels(imgs)
        imgs.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.images.shape[0]

    def subset(self, idx) -> "ImageDataset":
        return ImageDataset(self.images[idx], self.labels[idx], self.tag)


@dataclass(frozen=True)
class FeatureDataset:
    """Flattened feature vectors with the preprocessing steps that made them."""

    X: np.ndarray  # (n, d) float64
    labels: np.ndarray
    fingerprint: tuple[str, ...]
    #: rows that had zero norm when normalization was requested
    flagged_rows: tuple[int, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float).view()
        labs = np.asarray(self.labels, dtype=np.int64).view()
        X.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.X.shape[0]


# ---------------------------------------------------------------------------
# IDX container: per file a big-endian uint32 magic, whose low byte is the
# number of dimensions, then each dimension as a big-endian uint32, then one
# byte per entry
# ---------------------------------------------------------------------------

def _read_be32(blob: bytes, offset: int, path) -> int:
    if offset + 4 > len(blob):
        raise IdxFormatError(
            f"{path}: truncated header at byte offset {offset} "
            f"(file has {len(blob)} bytes)")
    return struct.unpack(">I", blob[offset:offset + 4])[0]


def read_idx(images_path, labels_path) -> ImageDataset:
    """Parse an images/labels IDX pair; pixel bytes are scaled by 1/255."""
    arrays = []
    for path, magic in ((images_path, IMAGES_MAGIC), (labels_path, LABELS_MAGIC)):
        with open(path, "rb") as f:
            blob = f.read()
        got = _read_be32(blob, 0, path)
        if got != magic:
            raise IdxFormatError(
                f"{path}: bad magic 0x{got:08x} at byte offset 0, expected 0x{magic:08x}")
        start = 4 + 4 * (magic & 0xFF)
        shape = tuple(_read_be32(blob, i, path) for i in range(4, start, 4))
        size = math.prod(shape)
        if len(blob) != start + size:
            raise IdxFormatError(
                f"{path}: payload of {len(blob) - start} bytes from offset {start}, "
                f"expected {size} for shape {'x'.join(map(str, shape))}")
        arrays.append(np.frombuffer(blob, dtype=np.uint8, offset=start).reshape(shape))
    images, labels = arrays
    if 0 in images.shape[1:]:  # zero images is an empty set, which callers may refuse
        raise IdxFormatError("{}: images are {}x{} pixels; each needs at least "
                             "one row and one column".format(images_path, *images.shape[1:]))
    if len(labels) != len(images):
        raise IdxFormatError(f"count mismatch: {len(images)} images in {images_path} "
                             f"but {len(labels)} labels in {labels_path}")
    return ImageDataset(images=images / 255.0, labels=labels.astype(np.int64))


def write_idx(ds: ImageDataset, images_path, labels_path) -> None:
    """Write the dataset as an IDX pair (pixels quantized to bytes); a label
    outside 0..255 is refused before either file is opened."""
    unsigned = ds.labels.view(np.uint64)  # a negative label is above 255 too
    if unsigned.max(initial=0) > 255:  # one pass over the labels
        row = int(np.argmax(unsigned > 255))
        raise ValueError(f"label {ds.labels[row]} at row {row} is not an IDX label byte 0..255")
    for path, magic, payload in ((images_path, IMAGES_MAGIC, np.round(ds.images * 255.0)),
                                 (labels_path, LABELS_MAGIC, ds.labels)):
        with open(path, "wb") as f:
            f.write(struct.pack(f">{1 + payload.ndim}I", magic, *payload.shape))
            f.write(payload.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _scratch(scratch: dict, name: str, shape, dtype=float) -> np.ndarray:
    """Temporary ``name`` of one resampling call: made zeroed by the first
    block, a leading slice of it for every later one."""
    if name not in scratch:
        scratch[name] = np.zeros(shape, dtype)
    return scratch[name][:shape[0]]


def _bilinear(imgs: np.ndarray, R: np.ndarray, C: np.ndarray, scratch: dict) -> np.ndarray:
    """Sample each image of a (b, h, w) block at its own fractional (row, col)
    coordinates, R and C broadcast to the block; outside is zero.  The block
    sits in a zero border two pixels wide and floor(R), floor(C) are clipped
    to [-2, h], [-2, w], so every corner is in range: outside ones read 0.0."""
    b, h, w = imgs.shape
    W = w + 4
    pad = _scratch(scratch, "pad", (b, h + 4, W))
    pad[:, 2:-2, 2:-2] = imgs
    flat = pad.reshape(-1)
    r0, c0, fr, fc, wt, out = (_scratch(scratch, k, imgs.shape)
                               for k in ("r0", "c0", "fr", "fc", "wt", "out"))
    idx = _scratch(scratch, "idx", imgs.shape, np.int64)
    np.subtract(R, np.floor(R, out=r0), out=fr)
    np.subtract(C, np.floor(C, out=c0), out=fc)
    # flat index of the top-left corner: image base, then padded row and column
    np.clip(r0, -2, h, out=r0)
    r0 *= W
    r0 += np.clip(c0, -2, w, out=c0)
    r0 += (np.arange(b) * ((h + 4) * W) + 2 * W + 2)[:, None, None]
    np.copyto(idx, r0, casting="unsafe")
    gr, gc = np.subtract(1, fr, out=r0), np.subtract(1, fc, out=c0)
    out.fill(0.0)
    for offset, a, z in ((0, gr, gc), (1, gr, fc), (W, fr, gc), (W + 1, fr, fc)):
        vals = np.take(flat[offset:], idx)
        vals *= np.multiply(a, z, out=wt)
        out += vals
    return out


def _rotate(imgs: np.ndarray, thetas: np.ndarray, scratch: dict) -> np.ndarray:
    """Rotate each image of a block by its angle about the image center."""
    _, h, w = imgs.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dr = (np.arange(h) - cy)[:, None]
    dc = np.arange(w) - cx
    cos_t, sin_t = np.cos(thetas)[:, None, None], np.sin(thetas)[:, None, None]
    # (b, h, 1) row terms plus (b, 1, w) column terms
    r_src = np.add(cy + cos_t * dr, sin_t * dc, out=_scratch(scratch, "R", imgs.shape))
    c_src = np.add(cx - sin_t * dr, cos_t * dc, out=_scratch(scratch, "C", imgs.shape))
    return _bilinear(imgs, r_src, c_src, scratch)


def _moments(imgs: np.ndarray):
    """Per image of a (b, h, w) block, as (b, 1, 1) arrays: the mass, the
    intensity-weighted mean row and column, and the shear cov(col, row) /
    var(row).  The shear is 0 where var(row) < 1e-12; means and shear of a
    zero-mass image are 0."""
    _, h, w = imgs.shape
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    mass = imgs.sum(axis=(1, 2), keepdims=True)
    safe = np.where(mass > 0.0, mass, 1.0)

    def mean(a):
        return a.sum(axis=(1, 2), keepdims=True) / safe

    mu_r = mean(imgs * rr)
    mu_c = mean(imgs * cc)
    var_r = mean(imgs * (rr - mu_r) ** 2)
    cov = mean(imgs * (rr - mu_r) * (cc - mu_c))
    shear = np.divide(cov, var_r, out=np.zeros_like(cov), where=~(var_r < 1e-12))
    return mass, mu_r, mu_c, shear


def _deskew(imgs: np.ndarray, scratch: dict) -> np.ndarray:
    """Deskew each image of a (b, h, w) block; see :func:`deskew`."""
    _, h, w = imgs.shape
    mass, mu_r, mu_c, s = _moments(imgs)
    r_src = np.arange(h)[:, None] + (mu_r - (h - 1) / 2.0)
    c_src = np.add(np.arange(w) + (mu_c - (w - 1) / 2.0), s * (r_src - mu_r),
                   out=_scratch(scratch, "C", imgs.shape))
    out = _bilinear(imgs, r_src, c_src, scratch)
    zero = mass.ravel() <= 0.0
    out[zero] = imgs[zero]
    return out


def _by_blocks(resample, src: np.ndarray, dst: np.ndarray, *per_image) -> None:
    """dst = resample(src, *per_image, scratch) over IMAGE_BLOCK images at a
    time; temporaries are O(IMAGE_BLOCK x pixels), in this call's scratch;
    dst may be src."""
    scratch: dict = {}
    for i in range(0, len(src), IMAGE_BLOCK):
        j = slice(i, i + IMAGE_BLOCK)
        dst[j] = resample(src[j], *(a[j] for a in per_image), scratch)


def deskew(img: np.ndarray) -> np.ndarray:
    """Shear columns so the intensity principal axis is vertical, then
    translate the center of mass to the image center.

    Both the shear ``col' = col - s * (row - mu_row)`` and the recentering
    translation are folded into a single bilinear resampling pass.  Zero-mass
    images are returned unchanged.  Raises ValueError unless img is 2-d with
    every pixel in [0, 1].
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"image must be (h, w), got shape {img.shape}")
    _check_pixels(img)
    return _deskew(img[None], {})[0]


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------

def _noise_weights(h: int, w: int) -> np.ndarray:
    """(NOISE_GRID**2, h*w) bilinear upsampling weights: column p holds pixel
    p's four corner weights, each in the row of the coarse value it weighs;
    a corner repeated at the last row or column weighs 0."""
    rows = np.linspace(0, NOISE_GRID - 1, h)
    cols = np.linspace(0, NOISE_GRID - 1, w)
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, NOISE_GRID - 1)
    c1 = np.minimum(c0 + 1, NOISE_GRID - 1)
    fr = (rows - r0)[:, None]
    fc = cols - c0
    weights = np.zeros((NOISE_GRID * NOISE_GRID, h * w))
    for a, r in ((1 - fr, r0), (fr, r1)):
        for b, c in ((1 - fc, c0), (fc, c1)):
            np.add.at(weights, ((NOISE_GRID * r[:, None] + c).ravel(), np.arange(h * w)),
                      (a * b).ravel())
    return weights


def _noise_patches(rng: np.random.Generator, n: int, h: int, w: int) -> np.ndarray:
    """Two-tone low-frequency backgrounds: coarse noise upsampled and
    thresholded, at an amplitude below typical stroke brightness so the
    per-pixel max composition keeps digits visible.  IMAGE_BLOCK grids at a
    time are upsampled by one product with :func:`_noise_weights` and
    thresholded through one reused (block, h*w) mask, so memory is the
    (n, h, w) result plus O(IMAGE_BLOCK x pixels)."""
    coarse = rng.random((n, NOISE_GRID, NOISE_GRID)).reshape(n, NOISE_GRID * NOISE_GRID)
    weights = _noise_weights(h, w)
    out = np.empty((n, h, w))
    flat = out.reshape(n, h * w)
    mask = np.empty((min(n, IMAGE_BLOCK), h * w), dtype=bool)
    for i in range(0, n, IMAGE_BLOCK):
        up = np.matmul(coarse[i:i + IMAGE_BLOCK], weights, out=flat[i:i + IMAGE_BLOCK])
        np.multiply(np.greater(up, NOISE_THRESHOLD, out=mask[:len(up)]), NOISE_AMPLITUDE, out=up)
    return out


def make_variant(ds: ImageDataset, kind: str, seed: int,
                 angles: Optional[np.ndarray] = None,
                 patches: Optional[np.ndarray] = None) -> ImageDataset:
    """Perturbed copy of the dataset.

    rotation: each image turns by an independent angle uniform on [0, 2pi).
    background: per-pixel max with a binary noise patch.
    background_rotation: rotation first, then background.
    Deterministic given the seed (angles are drawn before patches); ``angles``
    (n,) and ``patches`` (n, h, w) are test hooks overriding the draws; a hook
    the kind does not draw is refused.  The max is taken in place in an array
    this call made: its own patches, else the rotated images.
    """
    if kind not in VARIANT_KINDS:
        raise ValueError(f"kind must be one of {VARIANT_KINDS}, got {kind!r}")
    rotates, backgrounds = kind != "background", kind != "rotation"
    rng = np.random.default_rng(seed)
    imgs = ds.images
    n, h, w = imgs.shape
    for name, hook, shape, drawn in (("angles", angles, (n,), rotates),
                                     ("patches", patches, (n, h, w), backgrounds)):
        if hook is not None and not drawn:
            raise ValueError(f"{name} given, but the {kind!r} variant draws no {name}")
        if hook is not None and np.shape(hook) != shape:
            raise ValueError(f"{name} must have shape {shape}, got {np.shape(hook)}")
        if hook is not None and not np.isfinite(hook).all():
            raise ValueError(f"{name} must be finite")
    if rotates:
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=n) if angles is None else np.asarray(angles)
        imgs = np.empty((n, h, w))
        _by_blocks(_rotate, ds.images, imgs, thetas)
        np.clip(imgs, 0.0, 1.0, out=imgs)
    if backgrounds:
        pats = _noise_patches(rng, n, h, w) if patches is None else np.asarray(patches)
        # into this call's patches when it drew them: the rotated images,
        # allocated first, are then the array freed, and malloc reuses the
        # heap (composing into them page-faulted in every repeated call)
        own = pats if patches is None else (imgs if rotates else None)
        imgs = np.maximum(imgs, pats, out=own)
    return ImageDataset(images=imgs, labels=ds.labels, tag=kind)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def check_steps(steps: Sequence[str]) -> None:
    """Refuse no steps, a step not in PREPROCESS_STEPS, or deskew after center."""
    if not steps:
        raise ValueError(f"steps must be a nonempty ordered subset of {PREPROCESS_STEPS}")
    for s in steps:
        if s not in PREPROCESS_STEPS:
            raise ValueError(f"unknown preprocessing step {s!r}; supported: {PREPROCESS_STEPS}")
    if "center" in steps and "deskew" in steps[steps.index("center"):]:
        raise ValueError(f"deskew must come before center, got {','.join(steps)}: deskew "
                         "needs the nonnegative pixel mass that center takes away")


def preprocess(ds: ImageDataset, steps: Sequence[str]) -> FeatureDataset:
    """Flatten images and apply the steps, checked by :func:`check_steps`, in order.

    deskew resamples each image; center subtracts the per-image mean pixel;
    normalize scales rows to unit l2 norm.  Zero-norm rows at the normalize
    step map to zero vectors and are flagged rather than raised.  The images
    are copied once and each step overwrites that copy, so memory is the
    output plus O(ROW_BLOCK x pixels) whatever the row count; deskew
    resamples IMAGE_BLOCK images at a time.
    """
    check_steps(steps)
    n, h, w = ds.images.shape
    # the one copy; every step then works in place
    X = np.array(ds.images, order="C").reshape(n, h * w)
    flagged: tuple[int, ...] = ()
    for s in steps:
        if s == "deskew":
            _by_blocks(_deskew, X.reshape(n, h, w), X.reshape(n, h, w))
        elif s == "center":
            X -= X.mean(axis=1, keepdims=True)
        else:
            norms = row_norms(X)
            zero = norms < 1e-12
            flagged = tuple(int(i) for i in np.nonzero(zero)[0])
            X /= np.where(zero, 1.0, norms)[:, None]
            X[zero] = 0.0  # a centering residue under the cut is not yet zero
    return FeatureDataset(X=X, labels=ds.labels, fingerprint=tuple(steps),
                          flagged_rows=flagged)
