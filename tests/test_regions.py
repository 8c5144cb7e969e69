"""Region machinery checks: grid partition layout, discrepancy fields,
region anchors and refinement masks through `layer_region_state`, and
pooling."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corlab import model as md
from corlab import regions as rg


def reference_region_state(cgp, visuals, regions, alpha):
    """The per-region loop: gather a region's discrepancies, take the unit
    direction and norm of their centroid, threshold the in-region
    projections, pool the masked visuals, and stack over regions."""
    masks, pooled = [], []
    for idx in regions:
        idx = sorted(idx)
        c = cgp[..., idx, :].mean(axis=-2)
        norm = np.linalg.norm(c, axis=-1)
        scale = np.linalg.norm(cgp[..., idx, :], axis=-1).mean(axis=-1)
        d = c / np.where(norm > rg.ANCHOR_REL_FLOOR * scale, norm, np.inf)[..., None]
        proj = np.einsum("...nd,...d->...n", cgp[..., idx, :], d)
        m = np.zeros(cgp.shape[:-1])
        m[..., idx] = proj > alpha * norm[..., None]
        masks.append(m)
        pooled.append((m[..., None] * visuals).sum(axis=-2)
                      / (m.sum(axis=-1)[..., None] + rg.POOL_EPSILON))
    return np.stack(masks, axis=-2), np.stack(pooled, axis=-2)


def test_grid_partition_4x4_exact_index_sets():
    assert rg.REGION_LABELS == ("foreground", "boundary", "background")
    fg, ring, bg = rg.grid_partition(16)
    assert fg == (5, 6, 9, 10)
    assert ring == (1, 2, 4, 7, 8, 11, 13, 14)
    assert bg == (0, 3, 12, 15)
    assert sorted(fg + ring + bg) == list(range(16))


def test_only_regions_works_out_the_grid_side():
    # `rg.grid_partition` owns the square layout of the visual tokens; any
    # other module taking a root of a token count would duplicate it
    def roots_a_token_count(node):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            arg = node.args[0] if name in ("sqrt", "isqrt") and node.args else None
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            arg = node.left if getattr(node.right, "value", None) == 0.5 else None
        else:
            return False
        return arg is not None and "token" in ast.unparse(arg)

    owners = {path.stem for path in Path(rg.__file__).parent.glob("*.py")
              if any(roots_a_token_count(n) for n in ast.walk(ast.parse(path.read_text())))}
    assert owners == {"regions"}


def test_region_spec_sorts_and_rejects_empty():
    # a region is an index set: its order changes nothing, and an empty one
    # is refused before any layer runs
    rng = np.random.default_rng(1)
    cgp = rng.normal(size=(2, 16, 8))
    visuals = rng.normal(size=(2, 16, 8))
    ordered = [(1, 2, 3), (5, 6, 9, 10)]
    shuffled = [(3, 1, 2), (10, 5, 9, 6)]
    for got, want in zip(rg.layer_region_state(cgp, visuals, shuffled, 0.3),
                         rg.layer_region_state(cgp, visuals, ordered, 0.3)):
        assert np.array_equal(got, want)
    enc = md.FrozenEncoder(md.EncoderConfig(layers=2, dim=8, heads=2,
                                            visual_tokens=16))
    with pytest.raises(ValueError, match="region 0 "):
        enc.encode_corit(visuals, visuals, [(), (1, 2)], alpha=0.5)


def test_compute_cgp_is_plain_difference():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(16, 8))
    b = rng.normal(size=(16, 8))
    assert np.array_equal(rg.compute_cgp(a, b), b - a)
    with pytest.raises(ValueError):
        rg.compute_cgp(a, b[:8])


def test_anchor_centroid_and_unit_direction():
    # region (1, 2) has centroid (1.5, 2, 0): norm 2.5, direction (0.6, 0.8, 0)
    cgp = np.zeros((4, 3))
    cgp[1] = [3.0, 0.0, 0.0]    # projection 1.8
    cgp[2] = [0.0, 4.0, 0.0]    # projection 3.2
    visuals = np.eye(4, 3)
    # the thresholds alpha * 2.5 sit just either side of the projections
    for alpha, mask in ((0.0, [0, 1, 1, 0]), (0.719, [0, 1, 1, 0]),
                        (0.721, [0, 0, 1, 0]), (1.279, [0, 0, 1, 0]),
                        (1.281, [0, 0, 0, 0])):
        masks, _ = rg.layer_region_state(cgp, visuals, [(1, 2)], alpha)
        assert masks.tolist() == [mask]


def test_anchor_degenerate_region_gives_zero_direction():
    # region (0, 1) cancels exactly, so its direction is zero and no token
    # projects above even alpha 0; region (2, 3) is unaffected
    cgp = np.array([[1.0, 2.0], [-1.0, -2.0], [3.0, 0.0], [1.0, 0.0]])
    visuals = np.arange(8.0).reshape(4, 2)
    masks, pooled = rg.layer_region_state(cgp, visuals, [(0, 1), (2, 3)], 0.0)
    assert masks.tolist() == [[0, 0, 0, 0], [0, 0, 1, 1]]
    assert np.array_equal(pooled[0], np.zeros(2))
    assert np.allclose(pooled[1], [5.0, 6.0], atol=1e-5)


def test_refine_mask_thresholds_in_region_projections():
    cgp = np.zeros((5, 2))
    cgp[0] = [10.0, 0.0]   # outside the region: must stay masked out
    cgp[1] = [4.0, 0.0]    # above threshold
    cgp[2] = [2.0, 0.0]    # region centroid pulls the threshold here
    visuals = np.ones((5, 2))
    # the anchor is the centroid (3, 0), norm 3
    masks, _ = rg.layer_region_state(cgp, visuals, [(1, 2)], alpha=1.0)
    assert masks.tolist() == [[0.0, 1.0, 0.0, 0.0, 0.0]]
    # alpha = 0 keeps every in-region token with positive projection
    masks0, _ = rg.layer_region_state(cgp, visuals, [(1, 2)], alpha=0.0)
    assert masks0.tolist() == [[0.0, 1.0, 1.0, 0.0, 0.0]]
    for alpha in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            rg.layer_region_state(cgp, visuals, [(1, 2)], alpha=alpha)


def test_refine_mask_degenerate_anchor_is_empty():
    visuals = np.random.default_rng(5).normal(size=(2, 16, 3))
    masks, pooled = rg.layer_region_state(np.zeros((2, 16, 3)), visuals,
                                          rg.grid_partition(16), 0.5)
    assert masks.shape == (2, 3, 16) and not masks.any()
    assert np.array_equal(pooled, np.zeros((2, 3, 3)))
    # a foreground (5, 6, 9, 10) that sums to about 1e-16, not to 0, is
    # degenerate under the relative floor: no token fires at any alpha
    rng = np.random.default_rng(0)
    cgp = rng.normal(size=(16, 32))
    cgp[10] = -(cgp[5] + (cgp[6] + cgp[9]))
    visuals = rng.normal(size=(16, 32))
    for alpha in (0.75, 5.0):
        masks, pooled = rg.layer_region_state(cgp, visuals, rg.grid_partition(16), alpha)
        assert not masks[0].any()
        assert np.array_equal(pooled[0], np.zeros(32))


def test_pool_masked_average_and_empty_mask():
    visuals = np.array([[2.0, 0.0], [4.0, 2.0], [100.0, 100.0]])
    mask = np.array([1.0, 1.0, 0.0])
    pooled = rg.pool(visuals, mask)
    assert np.allclose(pooled, [3.0, 1.0], atol=1e-5)
    assert np.array_equal(rg.pool(visuals, np.zeros(3)), np.zeros(2))


def test_layer_region_state_assembles_all_regions():
    rng = np.random.default_rng(1)
    cgp = rng.normal(size=(16, 4))
    visuals = rng.normal(size=(16, 4))
    regions = rg.grid_partition(16)
    masks, pooled = rg.layer_region_state(cgp, visuals, regions, alpha=0.5)
    assert masks.shape == (3, 16)
    assert pooled.shape == (3, 4)
    for k, idx in enumerate(regions):
        assert set(np.flatnonzero(masks[k])) <= set(idx)
        assert np.array_equal(pooled[k], rg.pool(visuals, masks[k]))
    ref_masks, ref_pooled = reference_region_state(cgp, visuals, regions, 0.5)
    assert np.array_equal(masks, ref_masks)
    assert np.array_equal(pooled, ref_pooled)


def test_batched_layer_region_state_equals_per_sample_calls():
    rng = np.random.default_rng(2)
    S, N, D = 7, 16, 4
    cgp = rng.normal(size=(S, N, D))
    visuals = rng.normal(size=(S, N, D))
    cgp[3] = 0.0                    # zero centroids: empty masks, zero pooling
    cgp[5, 6] = -cgp[5, 5]          # the foreground (5, 6, 9, 10) of sample 5
    cgp[5, 10] = -cgp[5, 9]         # sums to exactly zero
    regions = rg.grid_partition(16)
    for alpha in (0.0, 0.5, 1.5):
        masks, pooled = rg.layer_region_state(cgp, visuals, regions, alpha)
        assert masks.shape == (S, 3, N)
        assert pooled.shape == (S, 3, D)
        for s in range(S):
            single = rg.layer_region_state(cgp[s], visuals[s], regions, alpha)
            assert np.array_equal(masks[s], single[0])
            assert np.array_equal(pooled[s], single[1])
        assert not masks[3].any() and not masks[5, 0].any()
        assert np.array_equal(pooled[3], np.zeros((3, D)))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 5),
       st.sampled_from([(), (1,), (3,)]), st.sampled_from(["normal", "cancel", "zero"]),
       st.sampled_from([0.0, 0.5, 0.75, 1.5]), st.integers(0, 2**32 - 1))
def test_layer_region_state_equals_the_per_region_loop(D, N, K, lead, field, alpha, seed):
    rng = np.random.default_rng(seed)
    cgp = rng.normal(size=lead + (N, D))
    visuals = rng.normal(size=lead + (N, D))
    regions = [tuple(int(i) for i in rng.choice(N, size=rng.integers(1, N + 1),
                                                replace=False))
               for _ in range(K)]      # random subsets, free to overlap
    if field == "zero":
        cgp[...] = 0.0
    elif field == "cancel":
        # region 0's discrepancies cancel pairwise in summation order, so its
        # centroid is exactly zero
        idx = sorted(regions[0])
        for i, j in zip(idx[::2], idx[1::2]):
            cgp[..., j, :] = -cgp[..., i, :]
        if len(idx) % 2:
            cgp[..., idx[-1], :] = 0.0
    masks, pooled = rg.layer_region_state(cgp, visuals, regions, alpha)
    ref_masks, ref_pooled = reference_region_state(cgp, visuals, regions, alpha)
    if D >= 2:
        assert np.array_equal(masks, ref_masks)
        assert np.array_equal(pooled, ref_pooled)
        if field != "normal":
            assert not masks[..., 0, :].any()
        return
    # at D = 1 einsum sums the tokens in another order.  A centroid that
    # cancels is exactly zero in the loop's order and only rounding-small in
    # einsum's; both fall under the relative floor, so the masks still agree
    assert np.array_equal(masks, ref_masks)
    err = np.abs(pooled - ref_pooled).max(axis=-1)
    assert np.all(err <= 1e-15 * np.abs(visuals).max())


def test_masks_read_only_the_direction_of_the_cgp():
    # the anchor's projections and its threshold both scale with the field,
    # so scaling the CGP by a power of two, which is exact in floating
    # point, leaves every mask and pooled token bit for bit as it was
    rng = np.random.default_rng(8)
    S, N, D = 6, 16, 8
    cgp = rng.normal(size=(S, N, D))
    visuals = rng.normal(size=(S, N, D))
    cgp[2] = 0.0                    # a degenerate anchor in every region
    regions = rg.grid_partition(N)
    for alpha in (0.0, 0.5, 0.75):
        masks, pooled = rg.layer_region_state(cgp, visuals, regions, alpha)
        assert 0 < masks.sum() < sum(map(len, regions)) * (S - 1)
        for j in range(-8, 9):
            got = rg.layer_region_state(2.0**j * cgp, visuals, regions, alpha)
            assert np.array_equal(got[0], masks)
            assert np.array_equal(got[1], pooled)
