"""Training-free contrastive-region machinery: per-layer feature
discrepancies, and the refinement masks and pooled tokens of regions
given as index sets over the visual tokens."""

from __future__ import annotations

import math

import numpy as np

from . import fields

POOL_EPSILON = 1e-6
ANCHOR_REL_FLOOR = 1e-12   # degenerate anchor: centroid norm <= this x mean token norm
REGION_LABELS = ("foreground", "boundary", "background")   # grid_partition order


def grid_partition(n_tokens: int) -> list[tuple[int, ...]]:
    """Foreground / boundary / background index sets of n_tokens visual
    tokens laid out as a square grid, in `REGION_LABELS` order.

    The inner block is foreground, the four corners are background, and
    the remaining ring is boundary.  For the default 16 tokens (4x4) this
    gives the inner 2x2, the 8-token ring, and the 4 corners.  This is the
    one place that works out the grid side; a count that is not a perfect
    square raises.
    """
    side = math.isqrt(n_tokens)
    if side * side != n_tokens:
        raise ValueError(f"n_tokens ({n_tokens}) must be a square token grid")
    fg, bg, ring = [], [], []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            on_edge_r = r in (0, side - 1)
            on_edge_c = c in (0, side - 1)
            if on_edge_r and on_edge_c:
                bg.append(i)
            elif on_edge_r or on_edge_c:
                ring.append(i)
            else:
                fg.append(i)
    return [tuple(fg), tuple(ring), tuple(bg)]


def compute_cgp(orig: np.ndarray, counterpart: np.ndarray) -> np.ndarray:
    """Contrastive gradient proxy: counterpart minus original, per token."""
    orig = np.asarray(orig, dtype=np.float64)
    counterpart = np.asarray(counterpart, dtype=np.float64)
    if orig.shape != counterpart.shape:
        raise ValueError(f"shape mismatch {orig.shape} vs {counterpart.shape}")
    return counterpart - orig


def pool(visuals: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked average of (..., N, D) visual tokens under a (..., N) mask;
    an empty mask pools to exactly zero."""
    num = np.einsum("...n,...nd->...d", mask, visuals)
    return num / (mask.sum(axis=-1)[..., None] + POOL_EPSILON)


def layer_region_state(cgp: np.ndarray, visuals: np.ndarray,
                       regions: list[tuple[int, ...]],
                       alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-layer pass of K nonempty index sets over (..., N, D) fields:
    the (..., K, N) binary masks and (..., K, D) pooled tokens.

    With the (K, N) 0/1 membership matrix M, each region's anchor is the
    centroid of its in-region discrepancies, a unit direction and a norm;
    the direction is zero where the norm is at most `ANCHOR_REL_FLOOR` times
    the region's mean discrepancy norm.  A token is masked in when it lies in
    the region and its projection onto the direction strictly exceeds alpha
    times the norm, so a degenerate anchor gives an empty mask: a no-op.
    """
    fields.real("alpha", alpha, 0, strict=False)
    M = np.zeros((len(regions), cgp.shape[-2]))
    for k, idx in enumerate(regions):
        M[k, list(idx)] = 1.0
    c = (M @ cgp) / M.sum(axis=1)[:, None]
    norm = np.linalg.norm(c, axis=-1)
    scale = np.einsum("kn,...n->...k", M, np.linalg.norm(cgp, axis=-1)) / M.sum(axis=1)
    d = c / np.where(norm > ANCHOR_REL_FLOOR * scale, norm, np.inf)[..., None]
    proj = np.einsum("...nd,...kd->...kn", cgp, d)
    masks = M * (proj > alpha * norm[..., None])
    return masks, pool(visuals[..., None, :, :], masks)
