"""Training-free contrastive-region machinery: per-layer feature
discrepancies, region anchors, refinement masks, and region pooling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POOL_EPSILON = 1e-6


@dataclass(frozen=True)
class RegionSpec:
    """A named set of visual-token indices (0-based)."""

    k: int
    indices: tuple[int, ...]
    label: str = "custom"  # foreground / boundary / background / custom

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError(f"region {self.k} has an empty index set")
        object.__setattr__(self, "indices", tuple(sorted(int(i) for i in self.indices)))


def grid_partition(side: int) -> list[RegionSpec]:
    """Foreground / boundary / background partition of a side x side grid.

    The inner block is foreground, the four corners are background, and
    the remaining ring is boundary.  For the default 4x4 grid this gives
    the inner 2x2, the 8-token ring, and the 4 corners.
    """
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
    return [RegionSpec(0, tuple(fg), "foreground"),
            RegionSpec(1, tuple(ring), "boundary"),
            RegionSpec(2, tuple(bg), "background")]


def compute_cgp(orig: np.ndarray, counterpart: np.ndarray) -> np.ndarray:
    """Contrastive gradient proxy: counterpart minus original, per token."""
    orig = np.asarray(orig, dtype=np.float64)
    counterpart = np.asarray(counterpart, dtype=np.float64)
    if orig.shape != counterpart.shape:
        raise ValueError(f"shape mismatch {orig.shape} vs {counterpart.shape}")
    return counterpart - orig


def anchor(cgp: np.ndarray, region: RegionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Region anchor of a (..., N, D) field: the unit direction (..., D) of
    the centroid of in-region discrepancies, and the centroid norm (...).
    Where the norm is zero the direction is the zero vector."""
    c = cgp[..., list(region.indices), :].mean(axis=-2)
    norm = np.linalg.norm(c, axis=-1)
    d = c / np.where(norm > 0.0, norm, np.inf)[..., None]   # zero where norm is 0
    return d, norm


def refine_mask(cgp: np.ndarray, region: RegionSpec, alpha: float) -> np.ndarray:
    """Binary (..., N) mask: in-region tokens whose projection onto the
    region's anchor direction strictly exceeds alpha times the centroid
    norm.  Tokens outside the region are always masked out; a degenerate
    anchor has a zero direction, so every projection is 0, never above
    alpha * 0, and the mask is empty, which makes the injection a no-op."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    d, norm = anchor(cgp, region)
    idx = list(region.indices)
    proj = np.einsum("...nd,...d->...n", cgp[..., idx, :], d)
    mask = np.zeros(cgp.shape[:-1])
    mask[..., idx] = proj > alpha * norm[..., None]
    return mask


def pool(visuals: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked average of (..., N, D) visual tokens under a (..., N) mask;
    an empty mask pools to exactly zero."""
    num = (mask[..., None] * visuals).sum(axis=-2)
    return num / (mask.sum(axis=-1)[..., None] + POOL_EPSILON)


def layer_region_state(cgp: np.ndarray, visuals: np.ndarray,
                       regions: list[RegionSpec],
                       alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Full per-layer pass over (..., N, D) fields: the (..., K, N) binary
    masks and (..., K, D) pooled tokens of every region."""
    masks = [refine_mask(cgp, reg, alpha) for reg in regions]
    pooled = [pool(visuals, m) for m in masks]
    return np.stack(masks, axis=-2), np.stack(pooled, axis=-2)
