"""Frozen toy transformer encoder plus the feature heads read by probes.

The encoder is a seeded pre-norm transformer whose parameters never
receive gradients; trainable state lives exclusively in the linear probe
over its features (`corlab.optim`).
The encoders take (S, N, D) visual tokens and return only what their
head reads: `encode_plain` the final CLS, `encode_corit` the [CLS | R]
tokens of layers l_mid and L, fused (Hierarchical Representation
Integration).  They share one forward, which writes only the layers it is
told to read, and `encode_plain` is CoRIT's with no regions.
The forward is sample-major: each block of `_BLOCK_SAMPLES` samples reads
its own rows of the visuals (a `tasks.SplitView` generates them as they
are read) and runs through every layer, both streams and the region pass,
reading no other block's rows.  W blocks run at once, one per core this
process may run on (`_WORKERS`), on a pool of W threads opened per
forward, so besides the outputs the encoder holds W blocks' working sets,
not a full-size stream, counterpart, CGP field or split of tokens: in the
feature pipeline only the features and labels grow with the split.  No
thread or pool is module state, so a forked child needs no hook to encode.
`block(x, l)` is the full-sequence block; with no regions only the CLS
row of the last layer is read, so that layer computes it alone.
The block forward is written against the generic array API in
`corlab.autodiff`, so the same code runs in fast numpy mode (batched over
samples) and in graph mode for differentiability tests, and gives the
same bits in both: the layer norm, attention and GELU compositions run
their graph's operations in place on arrays they own.

Attention scales the queries, not the scores, by 1/sqrt(dh), and
`ad.attention` divides each head's weights exp(scores) by their row sums
without the usual max shift.  Its input is layer-normed, so every score
is bounded by a constant of the seeded weights, max over layers and heads
of D ||Wq_h||_2 ||Wk_h||_2 / sqrt(dh): 25.2 for the default encoder.
Construction computes that bound and refuses weights whose bound reaches
`_SCORE_LIMIT`.

Token layout is always [CLS | R_1..R_K | V_1..V_N].
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fields
from . import regions as rg

# Samples per block of the sample-major forward, and per `generate` call
# when the visuals are a `tasks.SplitView`.  No encoder temporary spans
# more than one block (on one worker 2.8 MB plain, 3.7 MB CoRIT), and a
# block's Python steps hold the interpreter lock, so the fewer the blocks,
# the less W workers wait for it: on 2 cores two workers ran the plain
# forward 1.3 times as fast at 64 as at 32, and no faster at 128 (README).
# Samples never mix, so neither the block size nor W changes a bit.
_BLOCK_SAMPLES = 64

# Blocks the forward runs at once: the cores this process may run on, or
# all cores where the platform cannot say which (sched_getaffinity is
# Linux-only).
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# Largest attention-score bound an encoder may have.  Attention takes
# exp(scores) with no max shift, so the bound must keep exp well inside
# float64's range (|x| < 709): exp(+-300) is a normal float, and a row sum
# of T such terms stays finite for any T below 1e178.
_SCORE_LIMIT = 300.0


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 6
    dim: int = 32
    heads: int = 4
    visual_tokens: int = 16
    seed: int = 0
    semantic_bias: bool = False
    bias_channels: tuple[int, ...] = ()
    bias_attenuation: float = 0.5  # per-layer scale on bias_channels

    def __post_init__(self):
        for name, lo in (("layers", 1), ("dim", 1), ("heads", 1), ("visual_tokens", 1),
                         ("seed", 0)):
            fields.integer(name, getattr(self, name), lo)
        if not isinstance(self.semantic_bias, bool):   # 1 in (False, True) holds
            raise ValueError(f"semantic_bias must be a boolean, got {self.semantic_bias!r}")
        fields.real("bias_attenuation", self.bias_attenuation, None, strict=False)
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        object.__setattr__(self, "bias_channels",
                           fields.channels("bias_channels", self.bias_channels, self.dim))


class FrozenEncoder:
    """Seeded immutable transformer; parameters are plain float64 arrays."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        self.params = self._init_params(config)
        self._score_bound()             # refuses weights attention cannot use
        # fixed channel attenuation: deep layers progressively suppress the
        # designated non-semantic channels (None: no attenuation)
        self._keep = None
        if config.semantic_bias and config.bias_channels:
            self._keep = np.ones(config.dim)
            self._keep[list(config.bias_channels)] = config.bias_attenuation

    @staticmethod
    def _init_params(cfg: EncoderConfig) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        scale = 1.0 / np.sqrt(cfg.dim)
        p: dict[str, np.ndarray] = {"cls": rng.normal(scale=scale, size=cfg.dim)}
        for l in range(cfg.layers):
            for name in ("wq", "wk", "wv", "wo"):
                p[f"l{l}.{name}"] = rng.normal(scale=scale, size=(cfg.dim, cfg.dim))
            p[f"l{l}.w1"] = rng.normal(scale=scale, size=(cfg.dim, 4 * cfg.dim))
            p[f"l{l}.w2"] = rng.normal(scale=1.0 / np.sqrt(4 * cfg.dim),
                                       size=(4 * cfg.dim, cfg.dim))
        return p

    def _score_bound(self) -> float:
        """Largest |score| any attention head can produce, for any input.

        Attention reads layer-normed rows y, and |y|^2 = D var/(var + eps)
        < D whatever the input, so q_i . k_j / sqrt(dh) is bounded by
        D ||Wq_h||_2 ||Wk_h||_2 / sqrt(dh).  Region-token injection happens
        between blocks, so the bound covers `encode_corit` too.  Raises if
        a head's bound reaches `_SCORE_LIMIT`.
        """
        cfg = self.config
        dh = cfg.dim // cfg.heads
        bound = 0.0
        for l in range(cfg.layers):
            for h in range(cfg.heads):
                cols = slice(h * dh, (h + 1) * dh)
                b = (cfg.dim * np.linalg.norm(self.params[f"l{l}.wq"][:, cols], 2)
                     * np.linalg.norm(self.params[f"l{l}.wk"][:, cols], 2) / np.sqrt(dh))
                if b >= _SCORE_LIMIT:
                    raise ValueError(f"attention scores of layer {l}, head {h} are bounded "
                                     f"only by {b:.1f}, not below {_SCORE_LIMIT}")
                bound = max(bound, b)
        return bound

    # -- block forward (generic over Tensor / ndarray) ---------------------

    def _attention(self, y, l: int, rows: int):
        """Multi-head attention over layer-normed (..., T, D) rows `y`: the
        first `rows` rows query all T keys.  The 1/sqrt(dh) scale goes on the
        (..., rows, D) queries, not on the (..., h, rows, T) scores."""
        scale = 1.0 / np.sqrt(self.config.dim // self.config.heads)
        q = ad.mul(ad.matmul(ad.slice_along(y, -2, 0, rows), self.params[f"l{l}.wq"]), scale)
        k = ad.matmul(y, self.params[f"l{l}.wk"])
        v = ad.matmul(y, self.params[f"l{l}.wv"])
        return ad.matmul(ad.attention(q, k, v, self.config.heads), self.params[f"l{l}.wo"])

    def block(self, x, l: int):
        """Pre-norm transformer block on a (..., T, D) sequence."""
        return self._block(x, l, ad.val(x).shape[-2])

    def _block(self, x, l: int, rows: int):
        """`block`'s output on the first `rows` rows of x (in numpy mode a view
        when that is all of them); every row is layer-normed and a key.  The
        layer-normed rows and the attention's arrays are freed before the
        MLP runs."""
        x = ad.add(ad.slice_along(x, -2, 0, rows), self._attention(ad.layer_norm(x), l, rows))
        x = ad.add(x, ad.matmul(ad.gelu(ad.matmul(ad.layer_norm(x),
                                                  self.params[f"l{l}.w1"])),
                                self.params[f"l{l}.w2"]))
        if self._keep is not None:
            x = ad.mul(x, self._keep)
        return x

    # -- encoders ----------------------------------------------------------

    def encode_plain(self, visuals) -> np.ndarray:
        """(S, D) final CLS tokens, the linear-probing baseline: the paired
        forward on (S, N, D) visuals with no regions, reading layer L alone."""
        heads = self._forward(visuals, None, [], 0.0, (self.config.layers,))[0]
        return heads.reshape(len(heads), -1)

    def encode_corit(self, visuals, offset, regions: list[tuple[int, ...]],
                     alpha: float, l_mid: int) -> tuple[np.ndarray, np.ndarray]:
        """Paired-stream forward with per-layer region-token injection.

        The counterpart stream is the visuals plus `offset`, any array that
        broadcasts to them.  `regions` are K nonempty index sets over the
        visual tokens.  Both streams carry the shared region tokens; at every
        layer the discrepancy field over visual tokens drives the refinement
        masks, the pooled token is computed from the original stream, and
        the injected region tokens feed the next layer of both streams.

        Returns `(features, masks)`: the HRI features, the original stream's
        [CLS | R] at layers l_mid and L, (S, 2 (1+K) D), and the refinement
        masks, (L, S, K, N) booleans.  With K = 0 only the original stream
        runs, and the final CLS is `encode_plain`'s.
        """
        cfg = self.config
        if offset is None:
            raise ValueError("offset must be an array that broadcasts to the visuals, got None")
        for k, idx in enumerate(regions):
            if not idx or not all(0 <= i < cfg.visual_tokens for i in idx):
                raise ValueError(f"region {k} must be a nonempty index set in "
                                 f"[0, {cfg.visual_tokens})")
        fields.real("alpha", alpha, 0, strict=False)
        fields.integer("l_mid", l_mid, 1)
        if l_mid >= cfg.layers:
            raise ValueError(f"l_mid must be in [1, {cfg.layers - 1}], got {l_mid}")
        heads, masks = self._forward(visuals, offset, regions, alpha, (l_mid, cfg.layers))
        return heads.reshape(len(heads), -1), masks

    def _forward(self, visuals, offset, regions: list[tuple[int, ...]], alpha: float,
                 read: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The one forward of both encoders on (S, N, D) visuals, an array or
        a `tasks.SplitView`: the original stream's [CLS | R] at the distinct
        layers `read` (in [1, L]), as (S, len(read), 1+K, D) `heads`, and
        (L, S, K, N) `masks`.  Each block of `_BLOCK_SAMPLES` samples checks
        its rows, `np.asarray(visuals[b], float64)`, for shape and finite,
        and its counterpart, those rows plus its rows of `offset` (None:
        none), for finite, then runs every layer in place on its streams (the
        counterpart only if there are regions to inject) and writes its rows
        of the outputs; with no regions the last layer computes CLS alone.

        A pool of W = `_WORKERS` threads (at most one per block), opened
        for this forward alone, runs the blocks through `Executor.map`, which
        reads their results in block order: the first error raised is the
        lowest failing block's, the one a single thread would raise.  On an
        error or an interrupt the map cancels every block not yet started,
        and the `with` joins the running ones before this raises.  Each block
        runs under its own `np.errstate` (a context, not a decorator: numpy
        1.x keeps a shared instance's saved state on itself), so no caller's
        setting moves which error that is."""
        shape = (self.config.visual_tokens, self.config.dim)
        if visuals.ndim != 3 or visuals.shape[1:] != shape:
            raise ValueError(f"expected (S, {shape[0]}, {shape[1]}) visual tokens, "
                             f"got {visuals.shape}")
        if offset is not None:
            try:
                offset = np.broadcast_to(np.asarray(offset, dtype=np.float64), visuals.shape)
            except ValueError:
                raise ValueError(f"offset of shape {np.shape(offset)} does not broadcast "
                                 f"to the visuals' {visuals.shape}") from None
        K = len(regions)
        S, N, D = visuals.shape
        heads = np.empty((S, len(read), 1 + K, D))
        masks = np.empty((self.config.layers, S, K, N), dtype=bool)
        last = self.config.layers - 1

        def encode(b: slice) -> None:
            # non-finite values are checked, never trapped or warned of
            with np.errstate(all="ignore"):
                n = b.stop - b.start
                v = np.asarray(visuals[b], dtype=np.float64)
                if v.shape != (n, N, D):
                    raise ValueError(f"visuals[{b.start}:{b.stop}] has shape {v.shape}")
                if not np.all(np.isfinite(v)):
                    raise ad.NonFiniteError("non-finite original input")
                cls = np.broadcast_to(self.params["cls"], (n, 1, D))
                x = {"original": np.concatenate([cls, np.zeros((n, K, D)), v], axis=1)}
                del v                       # a generated block frees its tokens here
                if offset is not None:
                    cp = x["original"].copy()
                    cp[:, 1 + K:] += offset[b]
                    if not np.all(np.isfinite(cp[:, 1 + K:])):
                        raise ad.NonFiniteError("non-finite counterpart input")
                    if K:
                        x["counterpart"] = cp
                x_o = x["original"]
                for l in range(self.config.layers):
                    # without regions only the last layer's CLS row is read
                    full = K or l < last
                    rows = 1 + K + N if full else 1
                    for name, xb in x.items():
                        xb[:, :rows] = self.block(xb, l) if full else self._block(xb, l, 1)
                        if not np.all(np.isfinite(xb[:, :rows])):
                            raise ad.NonFiniteError(f"non-finite {name} activation at layer {l}")
                    if K:
                        v_o = x_o[:, 1 + K:]
                        masks[l, b], pooled = rg.layer_region_state(
                            rg.compute_cgp(v_o, x["counterpart"][:, 1 + K:]), v_o, regions, alpha)
                        x_o[:, 1:1 + K] += pooled                        # intra-layer residual
                        x["counterpart"][:, 1:1 + K] = x_o[:, 1:1 + K]
                    if l + 1 in read:
                        heads[b, read.index(l + 1)] = x_o[:, :1 + K]

        # glibc maps each allocation above its mmap threshold (128 KiB at
        # start) and faults its pages in afresh; freeing a larger mapped chunk
        # raises the threshold to its size and the trim threshold to twice it,
        # and a worker's arena is trimmed, to be faulted in again, once a freed
        # block leaves more than that free at its top (mallopt(3)).  So map and
        # free, untouched, a buffer of one worker's peak working set, in the
        # GELU: the MLP's two hidden arrays, the residual and each stream's
        # tokens.  It lies above every block temporary, generated tokens
        # included, and its trim threshold clears a block's frees twice over.
        streams = 2 if K else 1
        np.empty((min(S, _BLOCK_SAMPLES), 1 + K + N, (2 * 4 + 1 + streams) * D))
        blocks = [slice(i, min(i + _BLOCK_SAMPLES, S)) for i in range(0, S, _BLOCK_SAMPLES)]
        with ThreadPoolExecutor(max(1, min(_WORKERS, len(blocks))),
                                thread_name_prefix="corlab-encoder") as pool:
            list(pool.map(encode, blocks))
        return heads, masks

