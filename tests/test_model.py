"""Frozen encoder checks: determinism, the channel attenuation switch, the
paired-stream forward, and the layers each head reads."""

import multiprocessing
import os
import platform
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from corlab import autodiff as ad
from corlab import harness as hn
from corlab import model as md
from corlab import regions as rg
from corlab import tasks as tk


CFG = md.EncoderConfig(layers=3, dim=16, heads=4, visual_tokens=16)


def sample_tokens(seed=0, n=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, CFG.visual_tokens, CFG.dim))


def every_layer(enc, x, offset=None, regions=(), alpha=0.0):
    """The forward reading every layer 1..L: (S, L, 1+K, D) heads, and the
    masks.  `offset` None runs no counterpart, as `encode_plain` does."""
    return enc._forward(x, offset, list(regions), alpha, tuple(range(1, enc.config.layers + 1)))


def layer_major_corit(enc, x, cp, regions, alpha):
    """The layer-major paired forward that encodes a whole (S, N, D)
    counterpart array `cp` as its second stream, reading every layer: the
    reference a per-block counterpart must reproduce bit for bit; heads
    hold layers 1..L."""
    S, N, D = x.shape
    K = len(regions)

    def tokens(v):
        return np.concatenate([np.broadcast_to(enc.params["cls"], (S, 1, D)),
                               np.zeros((S, K, D)), v], axis=1)

    xo, xc = tokens(x), tokens(cp)
    heads, masks = [], []
    for l in range(enc.config.layers):
        xo, xc = enc.block(xo, l), enc.block(xc, l)
        m, pooled = rg.layer_region_state(rg.compute_cgp(xo[:, 1 + K:], xc[:, 1 + K:]),
                                          xo[:, 1 + K:], regions, alpha)
        xo[:, 1:1 + K] += pooled
        xc[:, 1:1 + K] = xo[:, 1:1 + K]
        heads.append(xo[:, :1 + K].copy())
        masks.append(m.astype(bool))
    return np.stack(heads, axis=1), np.stack(masks)


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
    out_a = a.encode_plain(x)
    out_b = b.encode_plain(x)
    assert np.array_equal(out_a, out_b)


def test_config_validation():
    with pytest.raises(ValueError):
        md.EncoderConfig(dim=10, heads=4)


def test_encode_plain_shapes_and_unbatched_input():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=3)
    assert enc.encode_plain(x).shape == (3, CFG.dim)
    heads, _ = every_layer(enc, x)
    assert heads.shape == (3, CFG.layers, 1, CFG.dim)
    seq = np.concatenate([np.broadcast_to(enc.params["cls"], (3, 1, CFG.dim)), x], axis=1)
    last = CFG.layers - 1
    for l in range(last):
        seq = enc.block(seq, l)
        assert np.array_equal(heads[:, l], seq[:, :1])
    # the last layer computes the CLS row alone; numpy's one-row products
    # take another BLAS path than the rows of the full ones, so the full
    # block's CLS row differs from it at rounding level only
    assert np.array_equal(heads[:, -1], enc._block(seq, last, 1))
    full = enc.block(seq, last)[:, :1]
    assert np.max(np.abs(heads[:, -1] - full)) <= 1e-15 * np.max(np.abs(full))
    # encoders take (S, N, D) only: one unbatched sample or a wrong token
    # count or width is refused, not broadcast
    for bad in (x[0], x[:, :8], x[..., :8], x[None]):
        with pytest.raises(ValueError):
            enc.encode_plain(bad)
        with pytest.raises(ValueError):
            enc.encode_corit(bad, 0.5, rg.grid_partition(16), alpha=0.5, l_mid=1)
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
    out_b = enc_b.encode_plain(x)            # final CLS tokens
    out_p = enc_p.encode_plain(x)
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
    # layer norm, attention and GELU run the graph's operations in numpy
    # mode, so the two modes agree bit for bit
    assert np.array_equal(fast, ad.val(slow))
    assert np.array_equal(enc._block(np.concatenate([enc.params["cls"][None], x]), 0, 1),
                          ad.val(head))
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
    # max-shifted softmax, in numpy mode and in graph mode.  Identity keys
    # and values make each head's queries its scores and its output its
    # normalised weights
    bound = md.FrozenEncoder(md.EncoderConfig())._score_bound()
    rng = np.random.default_rng(11)
    scores = rng.uniform(-bound, bound, size=(3, 4, 20, 20))
    scores[0, 0, 0] = -bound
    scores[0, 0, 1] = bound
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    oracle = e / e.sum(axis=-1, keepdims=True)
    q = np.swapaxes(scores, 1, 2).reshape(3, 20, 80)        # heads side by side
    keys = np.tile(np.eye(20), 4)

    def weights(attn):
        return np.swapaxes(attn.reshape(3, 20, 4, 20), 1, 2)

    fast = weights(ad.attention(q, keys, keys, 4))
    with ad.Tape():
        slow = weights(ad.val(ad.attention(ad.leaf(q, requires_grad=True), keys, keys, 4)))
    for attn in (fast, slow):
        assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) <= 1e-15
        assert np.max(np.abs(attn - oracle) / oracle) <= 1e-14


def _reference_block(enc, x, l, rows):
    """An earlier form of the block's algebra in plain numpy, which gave the
    same bits as the block before its passes were cut: the scores scaled by
    1/sqrt(dh), the normalised weights a quotient by their row sums, the
    layer norm a quotient by its root, GELU through the cube, and the
    attenuation built afresh."""
    cfg, p = enc.config, enc.params
    h, dh = cfg.heads, cfg.dim // cfg.heads
    col = np.full((cfg.dim, 1), 1.0 / cfg.dim)

    def layer_norm(z):
        c = z - z @ col
        return c / np.power((c * c) @ col + 1e-5, 0.5)

    def split(z):
        return np.swapaxes(z.reshape(z.shape[:-1] + (h, dh)), -3, -2)

    y = layer_norm(x)
    q = split(y[..., :rows, :] @ p[f"l{l}.wq"])
    k, v = split(y @ p[f"l{l}.wk"]), split(y @ p[f"l{l}.wv"])
    e = np.exp((q @ np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(dh)))
    attn = np.swapaxes((e / (e @ np.ones((x.shape[-2], 1)))) @ v, -3, -2)
    x = x[..., :rows, :] + attn.reshape(attn.shape[:-2] + (cfg.dim,)) @ p[f"l{l}.wo"]
    u = layer_norm(x) @ p[f"l{l}.w1"]
    gelu = u * (1.0 / (1.0 + np.exp((u * u * u * 0.044715 + u)
                                    * (-2.0 * np.sqrt(2.0 / np.pi)))))
    x = x + gelu @ p[f"l{l}.w2"]
    if cfg.semantic_bias and cfg.bias_channels:
        x = x * np.where(np.isin(np.arange(cfg.dim), cfg.bias_channels),
                         cfg.bias_attenuation, 1.0)
    return x


@pytest.mark.parametrize("semantic_bias", [False, True])
def test_block_matches_the_reference_algebra(semantic_bias):
    # the block's rewritten algebra moves its outputs at rounding level
    # only, on the plain (T = 17) and the CoRIT (T = 20) token counts, on
    # every row and on the CLS row alone
    cfg = md.EncoderConfig(semantic_bias=semantic_bias, bias_channels=(24, 25, 30),
                           bias_attenuation=0.5)
    enc = md.FrozenEncoder(cfg)
    rng = np.random.default_rng(12)
    for T in (17, 20):
        x = rng.normal(size=(5, T, cfg.dim))
        for l in range(cfg.layers):
            for rows in (T, 1):
                ref = _reference_block(enc, x, l, rows)
                out = enc._block(x, l, rows)
                assert out.shape == ref.shape
                assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), (T, l, rows)
            x = enc.block(x, l)


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
    heads, masks = every_layer(enc, x, 0.0, regions, alpha=0.0)
    # zero discrepancy everywhere: no masks fire even at alpha 0, nothing is
    # pooled, and the heads are those of the forward without injection
    assert masks.shape == (CFG.layers, 2, 3, CFG.visual_tokens)
    assert np.all(masks == 0.0)
    seq = np.concatenate([np.broadcast_to(enc.params["cls"], (2, 1, CFG.dim)),
                          np.zeros((2, 3, CFG.dim)), x], axis=1)
    for l in range(CFG.layers):
        seq = enc.block(seq, l)
        assert np.array_equal(heads[:, l], seq[:, :4])


def test_paired_streams_diverge_under_a_real_counterpart():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=2)
    offset = np.zeros((CFG.visual_tokens, CFG.dim))
    offset[5:7] = 1.0     # foreground tokens perturbed
    regions = rg.grid_partition(16)
    feats, masks = enc.encode_corit(x, offset, regions, alpha=0.25, l_mid=1)
    assert np.any(masks != 0.0)
    assert feats.shape == (2, 2 * (1 + 3) * CFG.dim)
    assert masks.shape == (CFG.layers, 2, 3, CFG.visual_tokens)


def test_zero_region_paired_forward_reduces_to_plain():
    cfg0 = md.EncoderConfig(layers=3, dim=16, heads=4)
    enc = md.FrozenEncoder(cfg0)
    x = sample_tokens(n=2)
    assert np.array_equal(every_layer(enc, x, 0.5)[0], every_layer(enc, x)[0])
    feats, masks = enc.encode_corit(x, 0.5, [], alpha=0.5, l_mid=1)
    assert np.array_equal(feats[:, cfg0.dim:], enc.encode_plain(x))
    assert masks.shape == (cfg0.layers, 2, 0, cfg0.visual_tokens)


def test_zero_region_forward_runs_one_stream_but_checks_both(monkeypatch):
    # encode_plain and the K = 0 paired forward run one stream, L ceil(S/B)
    # calls (B = _BLOCK_SAMPLES) of the one block implementation (the last
    # layer's CLS-only ones included); with regions the counterpart runs
    # too, twice as many
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=70)
    layers = []
    block = md.FrozenEncoder._block
    monkeypatch.setattr(md.FrozenEncoder, "_block", lambda self, y, l, rows:
                        layers.append(l) or block(self, y, l, rows))
    one = CFG.layers * -(-x.shape[0] // md._BLOCK_SAMPLES)
    regions = rg.grid_partition(16)
    for run, calls in ((lambda: enc.encode_plain(x), one),
                       (lambda: enc.encode_corit(x, 0.5, [], alpha=0.5, l_mid=1), one),
                       (lambda: enc.encode_corit(x, 0.5, regions, alpha=0.5, l_mid=1),
                        2 * one)):
        layers.clear()
        run()
        assert len(layers) == calls
    # the counterpart is unread at K = 0 but must still be finite, whether
    # the offset is non-finite or the sum overflows; every block checks its
    # counterpart before its first layer
    big = 1e307 * np.abs(x)
    for visuals, offset in ((x, np.nan), (x, np.full(x.shape[1:], -np.inf)), (big, 1.7e308)):
        for k in (0, 3):
            layers.clear()
            with pytest.raises(ad.NonFiniteError, match="^non-finite counterpart input$"):
                enc.encode_corit(visuals, offset, regions[:k], alpha=0.5, l_mid=1)
            assert layers == []


def test_encode_corit_validation():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens()
    regions = rg.grid_partition(16)
    # alpha is checked with or without regions; NaN or inf would leave every
    # mask empty and inject nothing
    for k in (3, 0):
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                enc.encode_corit(x, 0.0, regions[:k], alpha=alpha, l_mid=1)
    # the offset must broadcast to the visuals' (S, N, D) shape
    for bad in (x[:, :8], np.concatenate([x, x]), x[None], np.zeros(8)):
        with pytest.raises(ValueError, match="does not broadcast"):
            enc.encode_corit(x, bad, regions, alpha=0.5, l_mid=1)
    # l_mid names a layer strictly between the input and the last one
    for bad in (0, CFG.layers, 1.0, True):
        with pytest.raises(ValueError, match="l_mid"):
            enc.encode_corit(x, 0.5, regions, alpha=0.5, l_mid=bad)
    # a region must be a nonempty index set over the visual tokens; the
    # error names its position
    for bad in ((), (99,), (-1,), (3, 16)):
        with pytest.raises(ValueError, match="region 1 "):
            enc.encode_corit(x, 0.0, [regions[0], bad, regions[2]], alpha=0.5, l_mid=1)


def test_encode_corit_refuses_a_missing_offset_before_any_block_runs(monkeypatch):
    # with regions a None offset would leave the region pass without a
    # counterpart stream, failing inside a pool thread
    enc = md.FrozenEncoder(CFG)
    ran = []
    monkeypatch.setattr(enc, "_block", lambda *args: ran.append(args))
    for regions in (rg.grid_partition(16), []):
        with pytest.raises(ValueError, match="^offset must be an array"):
            enc.encode_corit(sample_tokens(), None, regions, alpha=0.5, l_mid=1)
    assert ran == []


def test_encoders_are_exact_under_any_sample_split():
    # fixed sample blocks run through every layer, block calls and region
    # pass alike; neither may mix samples, so splits change no bit
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(seed=3, n=300)
    assert x.shape[0] % md._BLOCK_SAMPLES != 0      # a ragged last block
    offset = np.zeros_like(x)
    offset[:, 5:7, :] = 1.0
    offset[::7] = 0.0                              # some samples see no change
    parts = (slice(0, 100), slice(100, 300))

    whole, _ = every_layer(enc, x)
    split = [every_layer(enc, x[p])[0] for p in parts]
    assert np.array_equal(whole, np.concatenate(split))

    regions = rg.grid_partition(16)
    heads, masks = every_layer(enc, x, offset, regions, alpha=0.25)
    split = [every_layer(enc, x[p], offset[p], regions, alpha=0.25) for p in parts]
    assert masks.any()
    assert np.array_equal(heads, np.concatenate([h for h, _ in split]))
    assert np.array_equal(masks, np.concatenate([m for _, m in split], axis=1))


@pytest.mark.parametrize("block", [1, 7, 32, md._BLOCK_SAMPLES, 90])
def test_encoders_are_exact_under_any_block_size(monkeypatch, block):
    # the block size and the worker count tune speed and may never change a
    # bit: every size, with any number of workers, must match one block call
    # over all S = 90 samples.  90 leaves a ragged last block at 7, 32 and
    # the default size, and one block is fewer than 2 or 3 workers.  A
    # readout of any layer subset, the two heads' included, is the same
    # layers of the all-layer forward, bit for bit.  A split view, whose
    # blocks generate their own samples, matches its materialised array
    enc = md.FrozenEncoder(CFG)
    spec = tk.TaskSpec(dim=CFG.dim, artifact_channels=(12, 13), artifact_amp=3.0,
                       n_train=90, seed=5)
    offset = np.zeros((CFG.visual_tokens, CFG.dim))
    offset[2:6] = -1.0
    regions = rg.grid_partition(16)
    L = CFG.layers
    streams = ((None, []), (offset, regions))     # plain, CoRIT

    def encode(x, size, workers, read):
        monkeypatch.setattr(md, "_BLOCK_SAMPLES", size)
        monkeypatch.setattr(md, "_WORKERS", workers)
        return [enc._forward(x, off, k, 0.25, read) for off, k in streams]

    every = tuple(range(1, L + 1))
    x = sample_tokens(seed=5, n=90)
    cases = ((x, x, ((L,), (1, L), (1,), (1, 2), (2,), every)),
             (tk.generate(spec, "train").tokens, tk.SplitView(spec, "train"), (every,)))
    for x, visuals, reads in cases:
        whole = encode(x, x.shape[0], 1, every)     # layer l at index l - 1
        assert whole[1][1].any()
        for workers in (1, 2, 3):
            for read in reads:
                for (heads, masks), (all_heads, all_masks) in zip(
                        encode(visuals, block, workers, read), whole):
                    assert np.array_equal(heads, all_heads[:, [l - 1 for l in read]])
                    assert np.array_equal(masks, all_masks)
            assert np.array_equal(enc.encode_plain(visuals), whole[0][0][:, L - 1, 0])
            for l_mid in range(1, L):
                feats, masks = enc.encode_corit(visuals, offset, regions, alpha=0.25,
                                                l_mid=l_mid)
                assert np.array_equal(feats, whole[1][0][:, [l_mid - 1, L - 1]].reshape(90, -1))
                assert np.array_equal(masks, whole[1][1])

    # a NaN in block 1 of the view and a short block 2: whatever the worker
    # count, the lowest failing block's error is the one raised
    if 2 * block >= 90:
        return
    generate, nan_block = tk.generate, [1]

    def planted(spec, split, start, stop):
        ds = generate(spec, split, start, stop)
        if start == nan_block[0] * block:
            ds.tokens[-1, 3, 1] = np.nan
        if start == 2 * block:
            ds.tokens = ds.tokens[:, 1:]
        return ds

    monkeypatch.setattr(tk, "generate", planted)
    monkeypatch.setattr(md, "_BLOCK_SAMPLES", block)
    for workers in (1, 2, 3):
        monkeypatch.setattr(md, "_WORKERS", workers)
        stop = min(3 * block, 90)
        short = re.escape(f"visuals[{2 * block}:{stop}] has shape ({stop - 2 * block}, 15, 16)")
        for error, match in ((ad.NonFiniteError, "^non-finite original input$"),
                             (ValueError, f"^{short}$")):
            with pytest.raises(error, match=match):
                enc.encode_corit(tk.SplitView(spec, "train"), offset, regions, alpha=0.25,
                                 l_mid=1)
            nan_block[0] = 3            # the short block 2 is now the lowest
        nan_block[0] = 1


@pytest.mark.parametrize("per_sample", [False, True])
def test_a_counterpart_offset_matches_encoding_the_whole_counterpart_array(per_sample):
    # each block adds the offset to its own visuals: every layer's heads and
    # masks equal, bit for bit, those of the layer-major forward that encodes
    # the array x + offset, for an (N, D) or an (S, N, D) offset
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(seed=9, n=150)
    if per_sample:
        offset = np.random.default_rng(2).normal(size=x.shape)
        offset[::5] = 0.0
    else:
        offset = tk.CounterpartOp(perturb_amp=2.0, target_channels=(12, 13, 14, 15)).offset(
            CFG.visual_tokens, CFG.dim)
    regions = rg.grid_partition(16)
    want_heads, want_masks = layer_major_corit(enc, x, x + offset, regions, 0.25)
    assert want_masks.any()
    heads, masks = every_layer(enc, x, offset, regions, alpha=0.25)
    assert np.array_equal(heads, want_heads)
    assert np.array_equal(masks, want_masks)
    feats, masks = enc.encode_corit(x, offset, regions, alpha=0.25, l_mid=2)
    assert np.array_equal(feats, want_heads[:, [1, CFG.layers - 1]].reshape(len(x), -1))
    assert np.array_equal(masks, want_masks)


def _plant_failures(monkeypatch, fail_at, delay=0.0):
    """Patch `FrozenEncoder.block` so that the block of samples starting at
    i overflows at layer fail_at[i], and every call that does not overflow
    first sleeps `delay` seconds.  Each sample must carry its index in
    visual token 0, channel 0.  Returns the count of block calls in flight
    and the set of block starts that reached layer 0, both updated under
    one lock."""
    block = md.FrozenEncoder.block
    lock, active, started, start_of = threading.Lock(), [0], set(), {}

    def planted(self, xb, l):
        with lock:
            active[0] += 1
        try:
            if l == 0:
                start_of[id(xb)] = int(xb[0, 4, 0])     # after CLS and 3 regions
                with lock:
                    started.add(start_of[id(xb)])
            out = block(self, xb, l)
            if fail_at.get(start_of[id(xb)]) == l:
                out = np.full_like(out, 1e308) * 10.0    # overflows to inf
            else:
                time.sleep(delay)
            return out
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(md.FrozenEncoder, "block", planted)
    return active, started


def test_a_failing_forward_raises_the_lowest_failing_blocks_error(monkeypatch):
    # blocks 1 and 2 of five overflow, at layers 2 and 0; whatever the worker
    # count (more than the host's cores too), the switch interval or the
    # caller's errstate, the forward raises block 1's error, the first a
    # single thread meets, and only after every worker has stopped
    enc = md.FrozenEncoder(CFG)
    monkeypatch.setattr(md, "_BLOCK_SAMPLES", 32)
    x = sample_tokens(seed=6, n=150)
    x[:, 0, 0] = np.arange(150)           # sample index, read in at layer 0
    active, _ = _plant_failures(monkeypatch, {32: 2, 64: 0})   # block start -> layer
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(md, "_WORKERS", workers)
            for errstate in ({}, {"all": "raise"}):
                with np.errstate(**errstate), pytest.raises(
                        ad.NonFiniteError, match="^non-finite original activation at layer 2$"):
                    enc.encode_corit(x, 0.5, rg.grid_partition(16), alpha=0.25, l_mid=1)
                assert active[0] == 0
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_block_stops_the_blocks_queued_behind_it(monkeypatch):
    # block 0 of 64 overflows at layer 0 while the others run slowly: the
    # forward raises its error once every worker has stopped, and the
    # blocks still queued never start
    enc = md.FrozenEncoder(CFG)
    monkeypatch.setattr(md, "_BLOCK_SAMPLES", 4)
    x = sample_tokens(seed=8, n=256)
    x[:, 0, 0] = np.arange(256)           # sample index, read in at layer 0
    active, started = _plant_failures(monkeypatch, {0: 0}, delay=0.005)
    for workers in (1, 2, 3):
        monkeypatch.setattr(md, "_WORKERS", workers)
        started.clear()
        with pytest.raises(ad.NonFiniteError,
                           match="^non-finite original activation at layer 0$"):
            enc.encode_corit(x, 0.5, rg.grid_partition(16), alpha=0.25, l_mid=1)
        assert active[0] == 0
        assert 0 in started and len(started) <= 3 * workers, (workers, sorted(started))


def test_a_child_forked_after_an_encode_can_encode(monkeypatch):
    # the child has none of its parent's threads, so its encode must start
    # threads of its own
    monkeypatch.setattr(md, "_WORKERS", 2)
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(seed=7, n=90)
    want = enc.encode_plain(x)            # the parent has run a pool of two threads

    def child():
        sys.exit(0 if np.array_equal(enc.encode_plain(x), want) else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    hung = proc.is_alive()
    if hung:
        proc.kill()
        proc.join()
    assert not hung and proc.exitcode == 0


def _peak_and_output_bytes(run) -> tuple[int, int]:
    """`tracemalloc` peak of run(), and the bytes of the arrays it returns."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))


def test_encoder_peak_memory_does_not_grow_with_depth(monkeypatch):
    # the two heads read two layers and one whatever the depth, and nothing
    # else outlives a layer, so their peak does not grow with depth; only
    # CoRIT's masks, one per layer by contract, add their own bytes (on one
    # worker: how W blocks' working sets overlap in time varies from run to
    # run)
    monkeypatch.setattr(md, "_WORKERS", 1)
    x = np.random.default_rng(4).normal(size=(400, 16, 32))
    offset = np.zeros(x.shape[1:])
    offset[5:7] = 1.0
    regions = rg.grid_partition(16)
    shallow, deep = (md.FrozenEncoder(md.EncoderConfig(layers=l)) for l in (2, 8))
    mask_bytes = (8 - 2) * x.shape[0] * len(regions) * x.shape[1]
    for run, grown in ((lambda enc: enc.encode_corit(x, offset, regions, alpha=0.25, l_mid=1),
                        mask_bytes),
                       (lambda enc: enc.encode_plain(x), 0)):
        peak_s, out_s = _peak_and_output_bytes(lambda: run(shallow))
        peak_d, out_d = _peak_and_output_bytes(lambda: run(deep))
        assert out_d - out_s == grown
        assert peak_d - peak_s <= grown + 16 * 1024, (peak_d - peak_s, grown)


def _held_bytes(enc, S: int) -> dict[str, int]:
    """What each encoder holds at its peak besides its outputs, on S samples."""
    x = np.random.default_rng(5).normal(size=(S, 16, 32))
    offset = np.zeros(x.shape[1:])
    offset[5:7] = 1.0
    held = {}
    for name, run in (("plain", lambda: enc.encode_plain(x)),
                      ("corit", lambda: enc.encode_corit(x, offset, rg.grid_partition(16),
                                                         alpha=0.25, l_mid=1))):
        peak, out = _peak_and_output_bytes(run)
        held[name] = peak - out
    return held


def test_encoder_working_memory_does_not_grow_with_samples(monkeypatch):
    # the forward is sample-major: a block of samples runs through every layer
    # and no stream, discrepancy field or pooled token spans all S samples, so
    # on one worker what the encoders hold besides their outputs does not
    # grow with S
    monkeypatch.setattr(md, "_WORKERS", 1)
    enc = md.FrozenEncoder(md.EncoderConfig(layers=4))
    small, large = _held_bytes(enc, 256), _held_bytes(enc, 1024)
    for name in small:
        assert abs(large[name] - small[name]) <= 64 * 1024, (name, small, large)


def test_each_worker_holds_at_most_one_block(monkeypatch):
    # W workers hold at most W blocks' working sets at once, at any S
    enc = md.FrozenEncoder(md.EncoderConfig(layers=4))
    monkeypatch.setattr(md, "_WORKERS", 1)
    one = _held_bytes(enc, 256)
    monkeypatch.setattr(md, "_WORKERS", 2)
    for S in (256, 1024):
        two = _held_bytes(enc, S)
        for name in one:
            assert two[name] <= 2 * one[name] + 64 * 1024, (name, S, one, two)


_REPEATED_FORWARDS = """
import resource
import numpy as np
from corlab import model as md, regions as rg
enc = md.FrozenEncoder(md.EncoderConfig())
x = np.random.default_rng(6).normal(size=(512, 16, 32))
offset = np.zeros(x.shape[1:])
offset[5:7] = 1.0
for run in (lambda: enc.encode_plain(x),
            lambda: enc.encode_corit(x, offset, rg.grid_partition(16), 0.25, 4)):
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's page faults")
def test_repeated_forwards_reuse_their_block_memory():
    # once a forward has run, the next ones reuse the heap memory its blocks
    # freed: a block temporary mapped and unmapped on every allocation
    # faults its pages in afresh, 17,000-46,000 minor faults per plain
    # forward at S = 512.  A fresh interpreter, so no earlier test has
    # raised glibc's mmap threshold
    src = os.path.dirname(os.path.dirname(md.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _REPEATED_FORWARDS], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    faults = [int(f) for f in out.split()]
    plain, corit = faults[:3], faults[3:]
    assert max(plain[1:] + corit[1:]) < 1000, (plain, corit)


def test_encode_corit_reads_the_mid_and_final_layers():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=4)
    offset = np.full(x.shape[1:], 0.1)
    heads, _ = every_layer(enc, x, offset, rg.grid_partition(16), alpha=0.5)
    feats, _ = enc.encode_corit(x, offset, rg.grid_partition(16), alpha=0.5, l_mid=2)
    K, D = 3, CFG.dim
    assert feats.shape == (4, 2 * (1 + K) * D)
    mid = heads[:, 1].reshape(4, -1)
    fin = heads[:, -1].reshape(4, -1)
    assert np.array_equal(feats, np.concatenate([mid, fin], axis=1))


def test_encode_plain_reads_the_final_cls():
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(n=2)
    heads, _ = every_layer(enc, x)
    assert np.array_equal(enc.encode_plain(x), heads[:, -1, 0, :])


def test_corit_build_features_holds_no_counterpart_stream_and_no_unread_layer(monkeypatch):
    # at a CoRIT build's peak the split-sized arrays are its features (two
    # layers' [CLS | R]) and its masks; the rest is the encoder's weights and
    # one block's working set, as at any S, since each block generates its
    # own samples.  The split's (S, N, D) tokens, a full counterpart, or any
    # unread layer's heads would add far more than the tolerance
    monkeypatch.setattr(md, "_WORKERS", 1)
    cfg = hn.RunConfig(task=tk.TaskSpec(n_train=1024, n_test=2), head="corit",
                       encoder=md.EncoderConfig(layers=4), l_mid=2)
    S, N, D, K, L = 1024, cfg.task.n_tokens, cfg.task.dim, 3, cfg.encoder.layers
    hn.build_features(cfg)      # first calls in a process allocate once for good
    tracemalloc.start()
    try:
        hn.build_features(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    enc = md.FrozenEncoder(cfg.encoder)
    weights = sum(p.nbytes for p in enc.params.values())
    held = peak - weights - 8 * S * 2 * (1 + K) * D - L * S * K * N
    one_block = _held_bytes(enc, 256)["corit"]
    assert 64 * 1024 < 8 * S * (1 + K) * D < 8 * S * N * D       # one layer, a counterpart
    assert held <= one_block + 64 * 1024, (held, one_block)
