"""Procedural 28x28 digit corpus for desk-scale experiments.

Each digit class is a set of stroke templates (polylines and arcs in the unit
square) rendered through a randomized affine jitter (rotation, shear, scale,
translation), per-point wobble, stroke thickness, and brightness.  Rendering
is a distance-field splat: pixel intensity falls off linearly with distance
to the stroke skeleton.  Glyphs keep at least 2 unlit pixels to each image
edge: of 2000 glyphs from each of seeds 0, 6 and 104729, 8, 3 and 4 have a
margin of exactly 2 pixels, and 86, 91 and 89 a margin under 4.  Everything
is deterministic for a fixed seed.

The splat is local and exact: each skeleton point is compared only with the
pixels in a small window around its rounded position, and each pixel keeps
the minimum squared distance over the points whose window covers it.  A pixel
is lit only within ``THICKNESS_MAX / 2 + FALLOFF`` of its nearest point, the
window reaches that far plus the half pixel lost to rounding, the squared
distances are the same float sums and the minimum is exact: the images are
bit for bit those of a dense all-pairs splat.  Glyphs render IMAGE_BLOCK at
a time, with one densify and one splat per block.

Real digit data in IDX form plugs into the rest of the pipeline unchanged;
this module only exists so that the benchmark is self-contained.
"""

from __future__ import annotations

import numpy as np

from .data import IMAGE_BLOCK, ImageDataset

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


#: stroke skeletons per class, as (row_frac, col_frac) polylines in [0,1]^2
_TEMPLATE_CACHE = {
    0: [_arc(0.50, 0.50, 0.38, 0.27, 0, 2 * np.pi, 40)],
    1: [_line((0.24, 0.32), (0.10, 0.52)), _line((0.10, 0.52), (0.90, 0.52))],
    2: [_bezier((0.30, 0.16), (0.00, 0.52), (0.34, 0.80)),
        _line((0.34, 0.80), (0.86, 0.16)),
        _line((0.86, 0.16), (0.86, 0.84))],
    3: [_arc(0.30, 0.46, 0.19, 0.24, 1.30 * np.pi, 2.50 * np.pi, 26),
        _arc(0.68, 0.46, 0.23, 0.28, 1.50 * np.pi, 2.80 * np.pi, 30)],
    4: [_line((0.10, 0.58), (0.56, 0.14)), _line((0.56, 0.14), (0.56, 0.88)),
        _line((0.10, 0.70), (0.90, 0.70))],
    5: [_line((0.12, 0.80), (0.12, 0.22)), _line((0.12, 0.22), (0.46, 0.20)),
        _bezier((0.46, 0.20), (0.62, 1.00), (0.88, 0.24))],
    6: [_bezier((0.08, 0.70), (0.26, 0.02), (0.58, 0.22)),
        _arc(0.66, 0.48, 0.22, 0.26, 0, 2 * np.pi, 32)],
    7: [_line((0.12, 0.14), (0.12, 0.86)), _line((0.12, 0.86), (0.90, 0.34))],
    8: [_arc(0.29, 0.50, 0.19, 0.20, 0, 2 * np.pi, 30),
        _arc(0.71, 0.50, 0.22, 0.25, 0, 2 * np.pi, 32)],
    9: [_arc(0.31, 0.46, 0.21, 0.24, 0, 2 * np.pi, 30),
        _line((0.31, 0.70), (0.90, 0.60))],
}
#: per class, the strokes one after another and each stroke's point count
_GLYPH_POINTS = {c: np.concatenate(s) for c, s in _TEMPLATE_CACHE.items()}
_STROKE_LENGTHS = {c: np.array([len(p) for p in s]) for c, s in _TEMPLATE_CACHE.items()}

#: splat window half-width: the farthest a lit pixel can sit from its nearest
#: point, plus the half pixel between a point and its rounded position
_WINDOW = int(np.ceil(THICKNESS_MAX / 2.0 + FALLOFF + 0.5))
_OFF = np.arange(-_WINDOW, _WINDOW + 1)


def _densify(points: np.ndarray, lengths, step: float = 0.03):
    """Resample polylines stored one after another in ``points``, ``lengths``
    points each, to steps of at most ``step``; returns the points and lengths."""
    seg = np.ascontiguousarray(points[1:] - points[:-1])
    # a 1x2 by 2x1 matmul runs the same dot kernel as the norm of one vector,
    # so the lengths, and hence the point counts, match a per-segment norm
    dist = np.sqrt(np.matmul(seg[:, None, :], seg[:, :, None])[:, 0, 0])
    k = np.maximum(1, np.ceil(dist / step).astype(np.int64))
    joins = np.cumsum(lengths)[:-1] - 1
    k[joins] = 1  # a segment joining two polylines yields one point: the next one's start
    owner = np.repeat(np.arange(len(seg)), k)
    end = np.cumsum(k)
    i = np.arange(1, owner.size + 1) - np.repeat(end - k, k)
    out = np.concatenate([points[:1], points[:-1][owner] + seg[owner] * (i / k[owner])[:, None]])
    out[end[joins]] = points[joins + 1]  # exactly: a + (b - a) * 1 can differ from b
    return out, np.diff(end[joins], prepend=0, append=len(out))


def _splat(points, slot, thickness, brightness) -> np.ndarray:
    """Distance-field images of a block of skeletons, point i drawn into image
    ``slot[i]``; one image per entry of ``thickness <= THICKNESS_MAX``."""
    b = len(thickness)
    # window offset first, points last: every (5, 5, P) pass runs along P
    rows, cols = np.rint(points.T).astype(np.int64)[:, None, :] + _OFF[:, None]
    dy, dx = rows - points[:, 0], cols - points[:, 1]
    d2 = (dy * dy)[:, None, :] + (dx * dx)[None, :, :]
    flat = (slot * (SIZE * SIZE) + rows * SIZE)[:, None, :] + cols[None, :, :]
    off = ((rows < 0) | (rows >= SIZE))[:, None, :] | ((cols < 0) | (cols >= SIZE))[None, :, :]
    flat[off] = b * SIZE * SIZE  # pixels off the grid go to one spare entry
    d2_min = np.full(b * SIZE * SIZE + 1, np.inf)
    np.minimum.at(d2_min, flat.ravel(), d2.ravel())
    dist = np.sqrt(d2_min[:-1]).reshape(b, SIZE, SIZE)
    t, v = thickness[:, None, None], brightness[:, None, None]
    return np.clip((t / 2.0 + FALLOFF - dist) / (2.0 * FALLOFF), 0.0, 1.0) * v


def _render_block(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One jittered 28x28 rendering of each digit, quantized to multiples of 1/255."""
    draws, wobbles = [], []
    for c in labels:
        draws.append((rng.normal(0.0, 0.16), rng.uniform(-0.22, 0.22),
                      *rng.uniform(0.72, 1.06, size=2), *rng.uniform(-1.8, 1.8, size=2),
                      rng.uniform(0.9, THICKNESS_MAX), rng.uniform(0.8, 1.0)))
        wobbles += [rng.normal(0.0, 0.025, size=p.shape) for p in _TEMPLATE_CACHE[c]]
    theta, shear, sy, sx, ty, tx, thickness, brightness = np.array(draws).T
    co, si, o, z = np.cos(theta), np.sin(theta), np.ones_like(theta), np.zeros_like(theta)
    m = np.stack([co, -si, si, co, o, shear, z, o, sy, z, z, sx], axis=1).reshape(-1, 3, 2, 2)
    affine = m[:, 0] @ m[:, 1] @ m[:, 2]  # rotation @ shear @ scale, stacked over the block
    counts = [len(_GLYPH_POINTS[c]) for c in labels]
    uv = np.concatenate([_GLYPH_POINTS[c] for c in labels]) + np.concatenate(wobbles) - 0.5
    pts = np.concatenate([q @ a.T for q, a in zip(np.split(uv, np.cumsum(counts)[:-1]), affine)])
    pts = pts * EXTENT + np.repeat(CENTER + np.stack([ty, tx], axis=1), counts, axis=0)
    strokes = [_STROKE_LENGTHS[c] for c in labels]
    pts, lengths = _densify(pts, np.concatenate(strokes), step=0.6)
    slot = np.repeat(np.repeat(np.arange(len(labels)), [len(s) for s in strokes]), lengths)
    return np.round(_splat(pts, slot, thickness, brightness) * 255.0) / 255.0


def make_corpus(n: int, seed: int) -> ImageDataset:
    """Balanced shuffled corpus of n glyphs, quantized to byte precision so a
    round trip through the IDX container is exact."""
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % 10)[rng.permutation(n)]
    images = np.empty((n, SIZE, SIZE))
    for i in range(0, n, IMAGE_BLOCK):
        images[i:i + IMAGE_BLOCK] = _render_block(labels[i:i + IMAGE_BLOCK], rng)
    return ImageDataset(images=images, labels=labels)
