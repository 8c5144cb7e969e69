"""Frozen encoder checks: determinism, the channel attenuation switch, the
paired-stream forward, and the feature heads."""

import multiprocessing
import sys
import threading
import time
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
    # alpha is checked with or without regions; NaN or inf would leave every
    # mask empty and inject nothing
    for k in (3, 0):
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                enc.encode_corit(x, x, regions[:k], alpha=alpha)
    with pytest.raises(ValueError):
        enc.encode_corit(x, x[:, :8], regions, alpha=0.5)
    with pytest.raises(ValueError, match="stream shapes differ"):
        enc.encode_corit(x, x[:-1], regions, alpha=0.5)
    # a region must be a nonempty index set over the visual tokens; the
    # error names its position
    for bad in ((), (99,), (-1,), (3, 16)):
        with pytest.raises(ValueError, match="region 1 "):
            enc.encode_corit(x, x, [regions[0], bad, regions[2]], alpha=0.5)


def test_encoders_are_exact_under_any_sample_split():
    # fixed sample blocks run through every layer, block calls and region
    # pass alike; neither may mix samples, so splits change no bit
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
    # the block size and the worker count tune speed and may never change a
    # bit: every size, with any number of workers, must match one block call
    # over all S = 90 samples.  90 leaves a ragged last block at 7 and 32,
    # and one block is fewer than 2 or 3 workers
    enc = md.FrozenEncoder(CFG)
    x = sample_tokens(seed=5, n=90)
    cp = x.copy()
    cp[:, 2:6, :] -= 1.0
    regions = rg.grid_partition(16)

    def encode(size, workers):
        monkeypatch.setattr(md, "_BLOCK_SAMPLES", size)
        monkeypatch.setattr(md, "_WORKERS", workers)
        return enc.encode_plain(x), *enc.encode_corit(x, cp, regions, alpha=0.25)

    whole = encode(x.shape[0], 1)
    assert whole[2].any()
    for workers in (1, 2, 3):
        for got, want in zip(encode(block, workers), whole):
            assert np.array_equal(got, want)


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
                    enc.encode_corit(x, x + 0.5, rg.grid_partition(16), alpha=0.25)
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
            enc.encode_corit(x, x + 0.5, rg.grid_partition(16), alpha=0.25)
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
    # only the per-layer head tokens and masks outlive a layer, so the peak
    # grows with depth by the size of the extra outputs alone (on one worker:
    # how W blocks' working sets overlap in time varies from run to run)
    monkeypatch.setattr(md, "_WORKERS", 1)
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


def _held_bytes(enc, S: int) -> dict[str, int]:
    """What each encoder holds at its peak besides its outputs, on S samples."""
    x = np.random.default_rng(5).normal(size=(S, 16, 32))
    cp = x.copy()
    cp[:, 5:7, :] += 1.0
    held = {}
    for name, run in (("plain", lambda: enc.encode_plain(x)),
                      ("corit", lambda: enc.encode_corit(x, cp, rg.grid_partition(16),
                                                         alpha=0.25))):
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
