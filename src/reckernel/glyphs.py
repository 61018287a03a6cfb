"""Procedural 28x28 digit corpus for desk-scale experiments.

Each digit class is a set of stroke templates (polylines and arcs in the unit
square) rendered through a randomized affine jitter (rotation, shear, scale,
translation), per-point wobble, stroke thickness, and brightness.  Rendering
is a distance-field splat: pixel intensity falls off linearly with distance
to the stroke skeleton.  Glyphs keep a >= 4 pixel margin so rotation variants
lose almost no mass.  Everything is deterministic for a fixed seed.

The splat is local: each skeleton point is compared only with the pixels in a
small window around its rounded position, and each pixel keeps the minimum
squared distance over the points whose window covers it.  That equals the
distance to the nearest point of the whole skeleton for every pixel that
gets nonzero intensity: a pixel is lit only within ``THICKNESS_MAX / 2 +
FALLOFF`` of its nearest point, and the window reaches that far plus the
half pixel lost to rounding.  Every other pixel clips to exactly zero, as it
would with the full distance.  The squared distances are the same float sums
and the minimum is exact, so the images are bit for bit those of a dense
all-pairs splat.

Real digit data in IDX form plugs into the rest of the pipeline unchanged;
this module only exists so that the benchmark is self-contained.
"""

from __future__ import annotations

import numpy as np

from .data import ImageDataset

SIZE = 28
#: glyph bounding box edge in pixels; half-diagonal stays under SIZE/2 - 0.5
EXTENT = 18.0
CENTER = (SIZE - 1) / 2.0
#: stroke thickness is drawn from [0.9, THICKNESS_MAX)
THICKNESS_MAX = 2.0
#: intensity ramps from 1 to 0 between FALLOFF inside and FALLOFF outside
#: the stroke edge at thickness / 2
FALLOFF = 0.4


def _arc(cy, cx, ry, rx, a0, a1, n=28):
    t = np.linspace(a0, a1, n)
    return np.stack([cy + ry * np.sin(t), cx + rx * np.cos(t)], axis=1)


def _line(p0, p1, n=12):
    t = np.linspace(0.0, 1.0, n)[:, None]
    return (1 - t) * np.asarray(p0, float) + t * np.asarray(p1, float)


def _bezier(p0, p1, p2, n=20):
    t = np.linspace(0.0, 1.0, n)[:, None]
    p0, p1, p2 = (np.asarray(p, float) for p in (p0, p1, p2))
    return (1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t ** 2 * p2


def _templates() -> dict[int, list[np.ndarray]]:
    """Stroke skeletons per class, as (row_frac, col_frac) polylines in [0,1]^2."""
    pi = np.pi
    return {
        0: [_arc(0.50, 0.50, 0.38, 0.27, 0, 2 * pi, 40)],
        1: [_line((0.24, 0.32), (0.10, 0.52)), _line((0.10, 0.52), (0.90, 0.52))],
        2: [_bezier((0.30, 0.16), (0.00, 0.52), (0.34, 0.80)),
            _line((0.34, 0.80), (0.86, 0.16)),
            _line((0.86, 0.16), (0.86, 0.84))],
        3: [_arc(0.30, 0.46, 0.19, 0.24, 1.30 * pi, 2.50 * pi, 26),
            _arc(0.68, 0.46, 0.23, 0.28, 1.50 * pi, 2.80 * pi, 30)],
        4: [_line((0.10, 0.58), (0.56, 0.14)), _line((0.56, 0.14), (0.56, 0.88)),
            _line((0.10, 0.70), (0.90, 0.70))],
        5: [_line((0.12, 0.80), (0.12, 0.22)), _line((0.12, 0.22), (0.46, 0.20)),
            _bezier((0.46, 0.20), (0.62, 1.00), (0.88, 0.24))],
        6: [_bezier((0.08, 0.70), (0.26, 0.02), (0.58, 0.22)),
            _arc(0.66, 0.48, 0.22, 0.26, 0, 2 * pi, 32)],
        7: [_line((0.12, 0.14), (0.12, 0.86)), _line((0.12, 0.86), (0.90, 0.34))],
        8: [_arc(0.29, 0.50, 0.19, 0.20, 0, 2 * pi, 30),
            _arc(0.71, 0.50, 0.22, 0.25, 0, 2 * pi, 32)],
        9: [_arc(0.31, 0.46, 0.21, 0.24, 0, 2 * pi, 30),
            _line((0.31, 0.70), (0.90, 0.60))],
    }


_TEMPLATE_CACHE = _templates()

#: splat window half-width: the farthest a lit pixel can sit from its nearest
#: point, plus the half pixel between a point and its rounded position
_WINDOW = int(np.ceil(THICKNESS_MAX / 2.0 + FALLOFF + 0.5))
_ROW_OFF, _COL_OFF = (a.ravel() for a in np.meshgrid(
    np.arange(-_WINDOW, _WINDOW + 1), np.arange(-_WINDOW, _WINDOW + 1), indexing="ij"))


def _densify(poly: np.ndarray, step: float = 0.03) -> np.ndarray:
    """Resample a polyline so consecutive points sit within ``step``."""
    seg = np.ascontiguousarray(poly[1:] - poly[:-1])
    # a 1x2 by 2x1 matmul runs the same dot kernel as the norm of one vector,
    # so the lengths, and hence the point counts, match a per-segment norm
    dist = np.sqrt(np.matmul(seg[:, None, :], seg[:, :, None])[:, 0, 0])
    k = np.maximum(1, np.ceil(dist / step).astype(np.int64))
    owner = np.repeat(np.arange(len(seg)), k)
    i = np.arange(1, owner.size + 1) - np.repeat(np.cumsum(k) - k, k)
    frac = i / k[owner]
    return np.concatenate([poly[:1], poly[:-1][owner] + seg[owner] * frac[:, None]])


def _splat(points: np.ndarray, thickness: float, brightness: float) -> np.ndarray:
    """Distance-field image of a skeleton; ``thickness <= THICKNESS_MAX``."""
    rows = np.rint(points[:, :1]).astype(np.int64) + _ROW_OFF
    cols = np.rint(points[:, 1:]).astype(np.int64) + _COL_OFF
    dy = rows - points[:, :1]
    dx = cols - points[:, 1:]
    d2 = dy * dy + dx * dx
    inside = (rows >= 0) & (rows < SIZE) & (cols >= 0) & (cols < SIZE)
    d2_min = np.full(SIZE * SIZE, np.inf)
    np.minimum.at(d2_min, rows[inside] * SIZE + cols[inside], d2[inside])
    dist = np.sqrt(d2_min)
    img = np.clip((thickness / 2.0 + FALLOFF - dist) / (2.0 * FALLOFF), 0.0, 1.0) * brightness
    return img.reshape(SIZE, SIZE)


def render_glyph(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One jittered 28x28 rendering of the digit, values in [0, 1]."""
    strokes = _TEMPLATE_CACHE[digit]
    theta = rng.normal(0.0, 0.16)
    shear = rng.uniform(-0.22, 0.22)
    sy, sx = rng.uniform(0.72, 1.06, size=2)
    ty, tx = rng.uniform(-1.8, 1.8, size=2)
    thickness = rng.uniform(0.9, THICKNESS_MAX)
    brightness = rng.uniform(0.8, 1.0)

    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
    shear_m = np.array([[1.0, shear], [0.0, 1.0]])
    affine = rot @ shear_m @ np.diag([sy, sx])

    pts = []
    for poly in strokes:
        wobble = rng.normal(0.0, 0.025, size=poly.shape)
        p = (poly + wobble - 0.5) @ affine.T * EXTENT
        p[:, 0] += CENTER + ty
        p[:, 1] += CENTER + tx
        pts.append(_densify(p, step=0.6))
    return _splat(np.concatenate(pts), thickness, brightness)


def make_corpus(n: int, seed: int, tag: str = "basic") -> ImageDataset:
    """Balanced shuffled corpus of n glyphs, quantized to byte precision so a
    round trip through the IDX container is exact."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 10
    labels = labels[rng.permutation(n)]
    images = np.stack([render_glyph(int(c), rng) for c in labels])
    images = np.round(images * 255.0) / 255.0
    return ImageDataset(images=images, labels=labels, tag=tag)
