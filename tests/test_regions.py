"""Region machinery checks: grid partition layout, discrepancy fields,
anchors, refinement masks, and pooling."""

import numpy as np
import pytest

from corlab import regions as rg


def test_grid_partition_4x4_exact_index_sets():
    fg, ring, bg = rg.grid_partition(4)
    assert fg.label == "foreground" and fg.indices == (5, 6, 9, 10)
    assert bg.label == "background" and bg.indices == (0, 3, 12, 15)
    assert ring.label == "boundary"
    assert ring.indices == (1, 2, 4, 7, 8, 11, 13, 14)
    all_idx = sorted(fg.indices + ring.indices + bg.indices)
    assert all_idx == list(range(16))


def test_region_spec_sorts_and_rejects_empty():
    spec = rg.RegionSpec(0, (3, 1, 2))
    assert spec.indices == (1, 2, 3)
    with pytest.raises(ValueError):
        rg.RegionSpec(0, ())


def test_compute_cgp_is_plain_difference():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(16, 8))
    b = rng.normal(size=(16, 8))
    assert np.array_equal(rg.compute_cgp(a, b), b - a)
    with pytest.raises(ValueError):
        rg.compute_cgp(a, b[:8])


def test_anchor_centroid_and_unit_direction():
    cgp = np.zeros((4, 3))
    cgp[1] = [3.0, 0.0, 0.0]
    cgp[2] = [0.0, 4.0, 0.0]
    region = rg.RegionSpec(0, (1, 2))
    d, norm = rg.anchor(cgp, region)
    assert np.allclose(norm * d, [1.5, 2.0, 0.0])   # the centroid
    assert norm == pytest.approx(2.5)
    assert np.allclose(d, [0.6, 0.8, 0.0])


def test_anchor_degenerate_region_gives_zero_direction():
    d, norm = rg.anchor(np.zeros((4, 3)), rg.RegionSpec(0, (0, 1)))
    assert norm == 0.0
    assert np.all(d == 0.0)


def test_refine_mask_thresholds_in_region_projections():
    cgp = np.zeros((5, 2))
    cgp[0] = [10.0, 0.0]   # outside the region: must stay masked out
    cgp[1] = [4.0, 0.0]    # above threshold
    cgp[2] = [2.0, 0.0]    # region centroid pulls the threshold here
    region = rg.RegionSpec(0, (1, 2))
    # the anchor is the centroid (3, 0), norm 3
    mask = rg.refine_mask(cgp, region, alpha=1.0)
    assert mask.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
    # alpha = 0 keeps every in-region token with positive projection
    mask0 = rg.refine_mask(cgp, region, alpha=0.0)
    assert mask0.tolist() == [0.0, 1.0, 1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        rg.refine_mask(cgp, region, alpha=-0.5)


def test_refine_mask_degenerate_anchor_is_empty():
    region = rg.RegionSpec(0, (0, 1))
    assert np.all(rg.refine_mask(np.zeros((3, 2)), region, 0.5) == 0.0)


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
    regions = rg.grid_partition(4)
    masks, pooled = rg.layer_region_state(cgp, visuals, regions, alpha=0.5)
    assert masks.shape == (3, 16)
    assert pooled.shape == (3, 4)
    for k, reg in enumerate(regions):
        assert np.array_equal(
            masks[k],
            rg.refine_mask(cgp, reg, 0.5))
        assert np.allclose(pooled[k], rg.pool(visuals, masks[k]))


def test_batched_layer_region_state_equals_per_sample_calls():
    rng = np.random.default_rng(2)
    S, N, D = 7, 16, 4
    cgp = rng.normal(size=(S, N, D))
    visuals = rng.normal(size=(S, N, D))
    cgp[3] = 0.0                    # zero centroids: empty masks, zero pooling
    cgp[5, 6] = -cgp[5, 5]          # the foreground (5, 6, 9, 10) of sample 5
    cgp[5, 10] = -cgp[5, 9]         # sums to exactly zero
    regions = rg.grid_partition(4)
    anchors = [rg.anchor(cgp, reg) for reg in regions]
    for s in range(S):
        for (d_b, norm_b), reg in zip(anchors, regions):
            d_s, norm_s = rg.anchor(cgp[s], reg)
            assert np.array_equal(norm_b[s], norm_s)
            assert np.array_equal(d_b[s], d_s)
    assert anchors[0][1][5] == 0.0
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
