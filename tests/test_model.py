"""Frozen encoder checks: determinism, the channel attenuation switch, the
paired-stream forward, and the feature heads."""

import tracemalloc

import numpy as np
import pytest

from corlab import autodiff as ad
from corlab import model as md
from corlab import regions as rg


CFG = md.EncoderConfig(layers=3, dim=16, heads=4, visual_tokens=16)


def sample_tokens(seed=0, n=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, CFG.visual_tokens, CFG.dim))


def same_params(a, b):
    return a.params.keys() == b.params.keys() and all(
        np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_encoder_is_deterministic_per_seed():
    a = md.FrozenEncoder(CFG)
    b = md.FrozenEncoder(CFG)
    assert same_params(a, b)
    c = md.FrozenEncoder(md.EncoderConfig(layers=3, dim=16, heads=4, seed=99))
    assert not same_params(a, c)
    x = sample_tokens()
    out_a = md.plain_feature(a.encode_plain(x))
    out_b = md.plain_feature(b.encode_plain(x))
    assert np.array_equal(out_a, out_b)


def test_config_validation():
    with pytest.raises(ValueError):
        md.EncoderConfig(dim=10, heads=4)


def test_encode_plain_shapes_and_unbatched_input():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=3)
    heads = enc.encode_plain(x)
    assert heads.shape == (CFG.layers + 1, 3, 1, CFG.dim)
    seq = np.concatenate([np.broadcast_to(enc.params["cls"], (3, 1, CFG.dim)), x], axis=1)
    last = CFG.layers - 1
    for l in range(last + 1):
        assert np.array_equal(heads[l], seq[:, :1])
        if l < last:
            seq = enc.block(seq, l)
    # the last layer computes the CLS row alone; numpy's one-row products
    # take another BLAS path than the rows of the full ones, so the full
    # block's CLS row differs from it at rounding level only
    assert np.array_equal(heads[-1], enc._block(seq, last, 1))
    full = enc.block(seq, last)[:, :1]
    assert np.max(np.abs(heads[-1] - full)) <= 1e-15 * np.max(np.abs(full))
    # encoders take (S, N, D) only: one unbatched sample or a wrong token
    # count or width is refused, not broadcast
    for bad in (x[0], x[:, :8], x[..., :8], x[None]):
        with pytest.raises(ValueError):
            enc.encode_plain(bad)
        with pytest.raises(ValueError):
            enc.encode_corit(bad, bad, rg.grid_partition(16), alpha=0.5)
    with pytest.raises(ad.NonFiniteError):
        enc.encode_plain(np.full_like(x, np.nan))


def test_channel_attenuation_suppresses_designated_channels():
    bias_cfg = md.EncoderConfig(layers=3, dim=16, heads=4, semantic_bias=True,
                                bias_channels=(12, 13, 14, 15),
                                bias_attenuation=0.25)
    plain_cfg = md.EncoderConfig(layers=3, dim=16, heads=4)
    enc_b = md.FrozenEncoder(bias_cfg)
    enc_p = md.FrozenEncoder(plain_cfg)
    assert same_params(enc_b, enc_p)  # same weights, new switch
    x = sample_tokens(n=8)
    out_b = enc_b.encode_plain(x)[-1]        # final CLS tokens
    out_p = enc_p.encode_plain(x)[-1]
    ratio_bias = np.abs(out_b[..., 12:]).mean() / np.abs(out_p[..., 12:]).mean()
    ratio_rest = np.abs(out_b[..., :12]).mean() / np.abs(out_p[..., :12]).mean()
    assert ratio_bias < 0.5 * ratio_rest


def test_block_graph_mode_matches_numpy_mode():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=1)[0]
    fast = enc.block(np.concatenate([enc.params["cls"][None], x]), 0)
    with ad.Tape():
        t = ad.leaf(np.concatenate([enc.params["cls"][None], x]),
                    requires_grad=True)
        slow = enc.block(t, 0)
        head = enc._block(t, 0, 1)          # the CLS-only last-layer form
    assert np.allclose(fast, ad.val(slow), atol=1e-12)
    assert np.allclose(fast[:1], ad.val(head), atol=1e-12)


def _closed_form_score_bound(enc):
    cfg = enc.config
    dh = cfg.dim // cfg.heads
    return max(cfg.dim * np.linalg.norm(enc.params[f"l{l}.wq"][:, h * dh:(h + 1) * dh], 2)
               * np.linalg.norm(enc.params[f"l{l}.wk"][:, h * dh:(h + 1) * dh], 2) / np.sqrt(dh)
               for l in range(cfg.layers) for h in range(cfg.heads))


def test_attention_weights_are_normalised_without_a_shift():
    # scores anywhere within the default encoder's bound, including rows
    # pinned at either end of it: every row sums to 1 and matches the
    # max-shifted softmax, in numpy mode and in graph mode
    bound = md.FrozenEncoder(md.EncoderConfig())._score_bound()
    rng = np.random.default_rng(11)
    scores = rng.uniform(-bound, bound, size=(3, 4, 20, 20))
    scores[0, 0, 0] = -bound
    scores[0, 0, 1] = bound
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    oracle = e / e.sum(axis=-1, keepdims=True)
    fast = md._attention_weights(scores)
    with ad.Tape():
        slow = ad.val(md._attention_weights(ad.leaf(scores, requires_grad=True)))
    for attn in (fast, slow):
        assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) <= 1e-15
        assert np.max(np.abs(attn - oracle) / oracle) <= 1e-14


def test_score_bound_is_the_closed_form_and_guards_construction(monkeypatch):
    enc = md.FrozenEncoder(md.EncoderConfig())
    assert enc._score_bound() == pytest.approx(_closed_form_score_bound(enc), rel=1e-12)
    assert 25.0 < enc._score_bound() < md._SCORE_LIMIT
    monkeypatch.setattr(md, "_SCORE_LIMIT", 25.0)
    with pytest.raises(ValueError, match=r"layer \d+, head \d+"):
        md.FrozenEncoder(md.EncoderConfig())


def test_attention_scores_stay_bounded_on_huge_inputs():
    # layer norm removes the input's scale before attention reads it, so a
    # block on inputs 1e6 times larger stays finite, and its attention
    # branch equals the unscaled one: layer_norm(s x, eps) is exactly
    # layer_norm(x, eps / s^2)
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=2)
    for l in range(CFG.layers):
        assert np.all(np.isfinite(enc.block(1e6 * x, l)))
        big = enc._attention(ad.layer_norm(1e6 * x), l, x.shape[1])
        small = enc._attention(ad.layer_norm(x, eps=1e-5 / 1e12), l, x.shape[1])
        assert np.max(np.abs(big - small)) <= 1e-12


def test_paired_streams_with_identical_inputs_are_inert():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=2)
    regions = rg.grid_partition(16)
    heads, masks = enc.encode_corit(x, x.copy(), regions, alpha=0.0)
    # zero discrepancy everywhere: no masks fire even at alpha 0, nothing is
    # pooled, and the heads are those of the forward without injection
    assert masks.shape == (CFG.layers, 2, 3, CFG.visual_tokens)
    assert np.all(masks == 0.0)
    seq = np.concatenate([np.broadcast_to(enc.params["cls"], (2, 1, CFG.dim)),
                          np.zeros((2, 3, CFG.dim)), x], axis=1)
    for l in range(CFG.layers + 1):
        assert np.array_equal(heads[l], seq[:, :4])
        if l < CFG.layers:
            seq = enc.block(seq, l)


def test_paired_streams_diverge_under_a_real_counterpart():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=2)
    x2 = x.copy()
    x2[:, 5:7, :] += 1.0  # foreground tokens perturbed
    regions = rg.grid_partition(16)
    heads, masks = enc.encode_corit(x, x2, regions, alpha=0.25)
    assert np.any(masks != 0.0)
    assert heads.shape == (CFG.layers + 1, 2, 1 + 3, CFG.dim)
    assert masks.shape == (CFG.layers, 2, 3, CFG.visual_tokens)


def test_zero_region_paired_forward_reduces_to_plain():
    cfg0 = md.EncoderConfig(layers=3, dim=16, heads=4)
    enc = md.FrozenEncoder(cfg0)
    x = sample_tokens(n=2)
    heads, masks = enc.encode_corit(x, x + 0.5, [], alpha=0.5)
    assert np.array_equal(heads, enc.encode_plain(x))
    assert masks.shape == (cfg0.layers, 2, 0, cfg0.visual_tokens)


def test_zero_region_forward_runs_one_stream_but_checks_both(monkeypatch):
    # encode_plain and the K = 0 paired forward run one stream, L ceil(S/32)
    # calls of the one block implementation (the last layer's CLS-only ones
    # included); with regions the counterpart runs too, twice as many
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=70)
    layers = []
    block = md.FrozenEncoder._block
    monkeypatch.setattr(md.FrozenEncoder, "_block", lambda self, y, l, rows:
                        layers.append(l) or block(self, y, l, rows))
    one = CFG.layers * -(-x.shape[0] // md._BLOCK_SAMPLES)
    for run, calls in ((lambda: enc.encode_plain(x), one),
                       (lambda: enc.encode_corit(x, x + 0.5, [], alpha=0.5), one),
                       (lambda: enc.encode_corit(x, x + 0.5, rg.grid_partition(16),
                                                 alpha=0.5), 2 * one)):
        layers.clear()
        run()
        assert len(layers) == calls
    # the counterpart is unread at K = 0 but must still be finite
    layers.clear()
    with pytest.raises(ad.NonFiniteError, match="counterpart"):
        enc.encode_corit(x, np.full_like(x, np.nan), [], alpha=0.5)
    assert layers == []


def test_encode_corit_validation():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens()
    regions = rg.grid_partition(16)
    for k in (3, 0):                    # alpha is checked with or without regions
        with pytest.raises(ValueError, match="alpha"):
            enc.encode_corit(x, x, regions[:k], alpha=-1.0)
    with pytest.raises(ValueError):
        enc.encode_corit(x, x[:, :8], regions, alpha=0.5)
    # a region must be a nonempty index set over the visual tokens; the
    # error names its position
    for bad in ((), (99,), (-1,), (3, 16)):
        with pytest.raises(ValueError, match="region 1 "):
            enc.encode_corit(x, x, [regions[0], bad, regions[2]], alpha=0.5)


def test_encoders_are_exact_under_any_sample_split():
    # block calls run over fixed sample blocks and the region pass over the
    # whole batch; neither may mix samples, so splits change no bit
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(seed=3, n=300)
    assert x.shape[0] % md._BLOCK_SAMPLES != 0      # a ragged last block
    cp = x.copy()
    cp[:, 5:7, :] += 1.0
    cp[::7] = x[::7]                               # some samples see no change
    parts = (slice(0, 100), slice(100, 300))

    whole = enc.encode_plain(x)
    split = [enc.encode_plain(x[p]) for p in parts]
    assert np.array_equal(whole, np.concatenate(split, axis=1))

    regions = rg.grid_partition(16)
    heads, masks = enc.encode_corit(x, cp, regions, alpha=0.25)
    split = [enc.encode_corit(x[p], cp[p], regions, alpha=0.25) for p in parts]
    assert masks.any()
    assert np.array_equal(heads, np.concatenate([h for h, _ in split], axis=1))
    assert np.array_equal(masks, np.concatenate([m for _, m in split], axis=1))


@pytest.mark.parametrize("block", [1, 7, md._BLOCK_SAMPLES, 90])
def test_encoders_are_exact_under_any_block_size(monkeypatch, block):
    # the block size is a cache-tuning constant and may never change a bit:
    # every size must match one block call over all S = 90 samples
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(seed=5, n=90)
    cp = x.copy()
    cp[:, 2:6, :] -= 1.0
    regions = rg.grid_partition(16)

    def encode(size):
        monkeypatch.setattr(md, "_BLOCK_SAMPLES", size)
        return enc.encode_plain(x), *enc.encode_corit(x, cp, regions, alpha=0.25)

    whole = encode(x.shape[0])
    assert whole[2].any()
    for got, want in zip(encode(block), whole):
        assert np.array_equal(got, want)


def _peak_and_output_bytes(run) -> tuple[int, int]:
    """`tracemalloc` peak of run(), and the bytes of the arrays it returns."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))


def test_encoder_peak_memory_does_not_grow_with_depth():
    # only the per-layer head tokens and masks outlive a layer, so the peak
    # grows with depth by the size of the extra outputs alone
    x = np.random.default_rng(4).normal(size=(400, 16, 32))
    cp = x.copy()
    cp[:, 5:7, :] += 1.0
    regions = rg.grid_partition(16)
    shallow, deep = (md.FrozenEncoder(md.EncoderConfig(layers=l)) for l in (2, 8))
    for run in (lambda enc: enc.encode_corit(x, cp, regions, alpha=0.25),
                lambda enc: enc.encode_plain(x)):
        peak_s, out_s = _peak_and_output_bytes(lambda: run(shallow))
        peak_d, out_d = _peak_and_output_bytes(lambda: run(deep))
        assert peak_d - peak_s <= out_d - out_s + 16 * 1024, (peak_d - peak_s, out_d - out_s)


def test_no_region_field_outlives_its_layer(monkeypatch):
    # the discrepancy field and pooled tokens of one layer's region pass are
    # freed before the next layer's blocks run, so memory held when each
    # layer starts is that of layer 0
    enc = md.FrozenEncoder(md.EncoderConfig(layers=4))
    x = np.random.default_rng(5).normal(size=(400, 16, 32))
    cp = x.copy()
    cp[:, 5:7, :] += 1.0
    held, block = {}, enc.block

    def traced_block(xb, l):
        held.setdefault(l, tracemalloc.get_traced_memory()[0])
        return block(xb, l)

    monkeypatch.setattr(enc, "block", traced_block)
    tracemalloc.start()
    try:
        enc.encode_corit(x, cp, rg.grid_partition(16), alpha=0.25)
    finally:
        tracemalloc.stop()
    assert sorted(held) == [0, 1, 2, 3]
    for l in held:
        assert abs(held[l] - held[0]) <= 64 * 1024, (l, held[l] - held[0])


def test_hri_fuse_concatenates_mid_and_final_layers():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=4)
    heads, _ = enc.encode_corit(x, x + 0.1, rg.grid_partition(16), alpha=0.5)
    feats = md.hri_fuse(heads, l_mid=2)
    K, D = 3, CFG.dim
    assert feats.shape == (4, 2 * (1 + K) * D)
    mid = heads[2].reshape(4, -1)
    fin = heads[-1].reshape(4, -1)
    assert np.array_equal(feats, np.concatenate([mid, fin], axis=1))
    with pytest.raises(ValueError):
        md.hri_fuse(heads, l_mid=0)
    with pytest.raises(ValueError):
        md.hri_fuse(heads, l_mid=CFG.layers)


def test_plain_feature_is_final_cls():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=2)
    heads = enc.encode_plain(x)
    assert np.array_equal(md.plain_feature(heads), heads[-1][:, 0, :])
