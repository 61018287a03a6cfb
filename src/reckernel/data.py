"""Image dataset ingestion, perturbation variants, and feature preprocessing.

Images travel as IDX files (big-endian magic + dimension header, one byte per
pixel), are perturbed into rotation / background / combined variants, and are
flattened into unit-norm feature vectors through an ordered pipeline of
deskew, per-image mean centering, and l2 normalization.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

VARIANT_KINDS = ("rotation", "background", "background_rotation")
PREPROCESS_STEPS = ("deskew", "center", "normalize")


class IdxFormatError(ValueError):
    """An IDX file violates the container format."""


@dataclass(frozen=True)
class ImageDataset:
    """Grayscale images in [0, 1] with integer labels and a provenance tag."""

    images: np.ndarray  # (n, h, w) float64
    labels: np.ndarray  # (n,) int64
    tag: str = "basic"

    def __post_init__(self):
        imgs = np.asarray(self.images, dtype=float)
        labs = np.asarray(self.labels, dtype=np.int64)
        if imgs.ndim != 3:
            raise ValueError(f"images must be (n, h, w), got shape {imgs.shape}")
        if labs.shape != (imgs.shape[0],):
            raise ValueError(
                f"{imgs.shape[0]} images but {labs.shape[0] if labs.ndim else 0} labels")
        if imgs.size and (imgs.min() < 0.0 or imgs.max() > 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
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
        X = np.asarray(self.X, dtype=float)
        labs = np.asarray(self.labels, dtype=np.int64)
        X.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.X.shape[0]


# ---------------------------------------------------------------------------
# IDX container
# ---------------------------------------------------------------------------

def _read_be32(blob: bytes, offset: int, path) -> int:
    if offset + 4 > len(blob):
        raise IdxFormatError(
            f"{path}: truncated header at byte offset {offset} "
            f"(file has {len(blob)} bytes)")
    return struct.unpack(">I", blob[offset:offset + 4])[0]


def read_idx(images_path, labels_path) -> ImageDataset:
    """Parse an images/labels IDX pair; pixel bytes are scaled by 1/255."""
    with open(images_path, "rb") as f:
        iblob = f.read()
    with open(labels_path, "rb") as f:
        lblob = f.read()

    magic = _read_be32(iblob, 0, images_path)
    if magic != IMAGES_MAGIC:
        raise IdxFormatError(
            f"{images_path}: bad magic 0x{magic:08x} at byte offset 0, "
            f"expected 0x{IMAGES_MAGIC:08x}")
    n = _read_be32(iblob, 4, images_path)
    h = _read_be32(iblob, 8, images_path)
    w = _read_be32(iblob, 12, images_path)
    want = 16 + n * h * w
    if len(iblob) != want:
        raise IdxFormatError(
            f"{images_path}: payload of {len(iblob) - 16} bytes from offset 16, "
            f"expected {n * h * w} for {n} images of {h}x{w}")

    lmagic = _read_be32(lblob, 0, labels_path)
    if lmagic != LABELS_MAGIC:
        raise IdxFormatError(
            f"{labels_path}: bad magic 0x{lmagic:08x} at byte offset 0, "
            f"expected 0x{LABELS_MAGIC:08x}")
    ln = _read_be32(lblob, 4, labels_path)
    if len(lblob) != 8 + ln:
        raise IdxFormatError(
            f"{labels_path}: payload of {len(lblob) - 8} bytes from offset 8, "
            f"expected {ln}")
    if ln != n:
        raise IdxFormatError(
            f"count mismatch: {n} images in {images_path} but {ln} labels in {labels_path}")

    images = np.frombuffer(iblob, dtype=np.uint8, offset=16).reshape(n, h, w) / 255.0
    labels = np.frombuffer(lblob, dtype=np.uint8, offset=8).astype(np.int64)
    return ImageDataset(images=images, labels=labels)


def write_idx(ds: ImageDataset, images_path, labels_path) -> None:
    """Write the dataset as an IDX pair (pixels quantized to bytes)."""
    n, h, w = ds.images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, n, h, w))
        f.write(np.round(ds.images * 255.0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _bilinear(img: np.ndarray, R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Sample img at fractional (row, col) coordinates; outside is zero."""
    h, w = img.shape
    r0 = np.floor(R).astype(np.int64)
    c0 = np.floor(C).astype(np.int64)
    fr = R - r0
    fc = C - c0
    out = np.zeros(R.shape)
    for dr, dc, wt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                       (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        ri = r0 + dr
        ci = c0 + dc
        valid = (ri >= 0) & (ri < h) & (ci >= 0) & (ci < w)
        vals = np.where(valid, img[np.clip(ri, 0, h - 1), np.clip(ci, 0, w - 1)], 0.0)
        out += wt * vals
    return out


def rotate_image(img: np.ndarray, theta: float) -> np.ndarray:
    """Rotate about the image center with bilinear sampling, zero fill."""
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dr = rr - cy
    dc = cc - cx
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    r_src = cy + cos_t * dr + sin_t * dc
    c_src = cx - sin_t * dr + cos_t * dc
    return _bilinear(img, r_src, c_src)


def shear_coefficient(img: np.ndarray) -> float:
    """Intensity-weighted cov(col, row) / var(row); 0 for degenerate mass."""
    mass = float(img.sum())
    if mass <= 0.0:
        return 0.0
    h, w = img.shape
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    mu_r = float((img * rr).sum()) / mass
    mu_c = float((img * cc).sum()) / mass
    var_r = float((img * (rr - mu_r) ** 2).sum()) / mass
    if var_r < 1e-12:
        return 0.0
    cov = float((img * (rr - mu_r) * (cc - mu_c)).sum()) / mass
    return cov / var_r


def deskew(img: np.ndarray) -> np.ndarray:
    """Shear columns so the intensity principal axis is vertical, then
    translate the center of mass to the image center.

    Both the shear ``col' = col - s * (row - mu_row)`` and the recentering
    translation are folded into a single bilinear resampling pass.  Zero-mass
    images are returned unchanged.
    """
    img = np.asarray(img, dtype=float)
    mass = float(img.sum())
    if mass <= 0.0:
        return img.copy()
    h, w = img.shape
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    mu_r = float((img * rr).sum()) / mass
    mu_c = float((img * cc).sum()) / mass
    s = shear_coefficient(img)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    r_src = rr + (mu_r - cy)
    c_src = cc + (mu_c - cx) + s * (r_src - mu_r)
    return _bilinear(img, r_src, c_src)


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------

def _noise_patches(rng: np.random.Generator, n: int, h: int, w: int,
                   grid: int = 5, threshold: float = 0.7,
                   amplitude: float = 0.4) -> np.ndarray:
    """Two-tone low-frequency backgrounds: coarse noise upsampled and
    thresholded, at an amplitude below typical stroke brightness so the
    per-pixel max composition keeps digits visible."""
    coarse = rng.random((n, grid, grid))
    rows = np.linspace(0, grid - 1, h)
    cols = np.linspace(0, grid - 1, w)
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, grid - 1)
    c1 = np.minimum(c0 + 1, grid - 1)
    fr = (rows - r0)[None, :, None]
    fc = (cols - c0)[None, None, :]
    up = ((1 - fr) * (1 - fc) * coarse[:, r0][:, :, c0]
          + (1 - fr) * fc * coarse[:, r0][:, :, c1]
          + fr * (1 - fc) * coarse[:, r1][:, :, c0]
          + fr * fc * coarse[:, r1][:, :, c1])
    return amplitude * (up > threshold).astype(float)


def make_variant(ds: ImageDataset, kind: str, seed: int,
                 angles: Optional[np.ndarray] = None,
                 patches: Optional[np.ndarray] = None) -> ImageDataset:
    """Perturbed copy of the dataset.

    rotation: each image turns by an independent angle uniform on [0, 2pi).
    background: per-pixel max with a binary noise patch.
    background_rotation: rotation first, then background.
    Deterministic given the seed (angles are drawn before patches); ``angles``
    and ``patches`` are test hooks overriding the draws.
    """
    if kind not in VARIANT_KINDS:
        raise ValueError(f"kind must be one of {VARIANT_KINDS}, got {kind!r}")
    rng = np.random.default_rng(seed)
    imgs = ds.images
    n, h, w = imgs.shape
    if kind in ("rotation", "background_rotation"):
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=n) if angles is None else np.asarray(angles)
        imgs = np.stack([rotate_image(imgs[i], thetas[i]) for i in range(n)])
        np.clip(imgs, 0.0, 1.0, out=imgs)
    if kind in ("background", "background_rotation"):
        pats = _noise_patches(rng, n, h, w) if patches is None else np.asarray(patches)
        imgs = np.maximum(imgs, pats)
    return ImageDataset(images=imgs, labels=ds.labels, tag=kind)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def preprocess(ds: ImageDataset, steps: Sequence[str]) -> FeatureDataset:
    """Flatten images and apply the steps in order.

    deskew resamples each image; center subtracts the per-image mean pixel;
    normalize scales rows to unit l2 norm.  Zero-norm rows at the normalize
    step map to zero vectors and are flagged rather than raised.
    """
    steps = tuple(steps)
    if not steps:
        raise ValueError("steps must be a nonempty ordered subset of "
                         f"{PREPROCESS_STEPS}")
    for s in steps:
        if s not in PREPROCESS_STEPS:
            raise ValueError(f"unknown preprocessing step {s!r}; "
                             f"supported: {PREPROCESS_STEPS}")
    n, h, w = ds.images.shape
    X = ds.images.reshape(n, h * w).copy()
    flagged: tuple[int, ...] = ()
    for s in steps:
        if s == "deskew":
            X = np.stack([deskew(X[i].reshape(h, w)).ravel() for i in range(n)])
        elif s == "center":
            X = X - X.mean(axis=1, keepdims=True)
        else:
            norms = np.linalg.norm(X, axis=1)
            zero = norms < 1e-12
            flagged = tuple(int(i) for i in np.nonzero(zero)[0])
            X = X / np.where(zero, 1.0, norms)[:, None]
    return FeatureDataset(X=X, labels=ds.labels, fingerprint=steps,
                          flagged_rows=flagged)
