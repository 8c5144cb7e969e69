"""Frozen toy transformer encoder plus the feature heads read by probes.

The encoder is a seeded pre-norm transformer whose parameters never
receive gradients; trainable state lives exclusively in the linear probe
over its features (`corlab.optim`).
The encoders take (S, N, D) visual tokens and return only the per-layer
head tokens, [CLS] or [CLS | R], as one array with a leading layer axis;
they share one forward, and `encode_plain` is CoRIT's with no regions.
The forward is sample-major: each block of `_BLOCK_SAMPLES` samples runs
through every layer (both streams' blocks, the region pass, the
injection) and writes its rows of the outputs, reading no other block's
rows.  The blocks are independent work, so W blocks are in flight at
once, one per core this process may run on (`_WORKERS`, capped at the
number of blocks): each forward opens a pool of W threads and joins the
blocks through `Executor.map`, whose results, errors included, come in
block order.  numpy and BLAS release the interpreter lock inside the
blocks' products and ufuncs, and besides the outputs the encoder holds W
blocks' working sets, not a full-size stream or CGP field.  No thread
or pool is module state, so a forked child needs no hook to encode.
`block(x, l)` is the full-sequence block; with no regions only the CLS
row of the last layer is read, so that layer computes it alone.
The block forward is written against the generic array API in
`corlab.autodiff`, so the same code runs in fast numpy mode (batched over
samples) and in graph mode for differentiability tests.

Attention normalises exp(scores) without the usual max shift.  Its input
is layer-normed, so every score is bounded by a constant of the seeded
weights, max over layers and heads of D ||Wq_h||_2 ||Wk_h||_2 / sqrt(dh):
25.2 for the default encoder.  Construction computes that bound and
refuses weights whose bound reaches `_SCORE_LIMIT`.

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

# Samples per block of the sample-major forward.  At B = 32 samples of
# T = 20 tokens (CLS, 3 regions, 16 visuals) and D = 32 channels a block's
# working set is its two streams, 2 x 32*20*32*8 B = 2 x 164 KB, the
# (B, T, 4D) MLP hidden array and GELU result, 2 x 32*20*128*8 B =
# 2 x 655 KB, and between layers the (B, N, D) CGP, 131 KB: 1.8 MB.  W
# blocks are in flight at once, each on its own core, so each fits that
# core's 2 MB L2, where 128 samples would need 7 MB and spill it.  No
# encoder temporary spans more than one block, whatever S is, and samples
# never mix, so neither the block size nor W changes a bit of any output.
_BLOCK_SAMPLES = 32

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


def _attention_weights(scores):
    """exp(scores) normalised over the keys (last axis), the row sums as a
    product with a ones column.  No max shift: every score lies within
    `FrozenEncoder._score_bound`, far inside exp's range."""
    e = ad.exp(scores)
    return ad.div(e, ad.matmul(e, np.ones((ad.val(e).shape[-1], 1))))


class FrozenEncoder:
    """Seeded immutable transformer; parameters are plain float64 arrays."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        self.params = self._init_params(config)
        self._score_bound()             # refuses weights attention cannot use

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
        first `rows` rows query all T keys."""
        cfg = self.config
        h, dh = cfg.heads, cfg.dim // cfg.heads

        def split_heads(z):                # (..., n, D) -> (..., h, n, dh)
            z = ad.reshape(z, ad.val(z).shape[:-1] + (h, dh))
            return ad.swapaxes(z, -3, -2)

        queries = ad.slice_along(y, -2, 0, rows)
        q = split_heads(ad.matmul(queries, self.params[f"l{l}.wq"]))
        k = split_heads(ad.matmul(y, self.params[f"l{l}.wk"]))
        v = split_heads(ad.matmul(y, self.params[f"l{l}.wv"]))
        scores = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / np.sqrt(dh))
        attn = _attention_weights(scores)
        out = ad.swapaxes(ad.matmul(attn, v), -3, -2)   # (..., n, h, dh)
        out = ad.reshape(out, ad.val(queries).shape)
        return ad.matmul(out, self.params[f"l{l}.wo"])

    def block(self, x, l: int):
        """Pre-norm transformer block on a (..., T, D) sequence."""
        return self._block(x, l, ad.val(x).shape[-2])

    def _block(self, x, l: int, rows: int):
        """`block`'s output on the first `rows` rows of x (in numpy mode a view
        when that is all of them); every row is layer-normed and a key."""
        y = ad.layer_norm(x)
        x = ad.slice_along(x, -2, 0, rows)
        x = ad.add(x, self._attention(y, l, rows))
        x = ad.add(x, ad.matmul(ad.gelu(ad.matmul(ad.layer_norm(x),
                                                  self.params[f"l{l}.w1"])),
                                self.params[f"l{l}.w2"]))
        if self.config.semantic_bias and self.config.bias_channels:
            # fixed channel attenuation: deep layers progressively suppress
            # the designated non-semantic channels
            keep = np.ones(self.config.dim)
            keep[list(self.config.bias_channels)] = self.config.bias_attenuation
            x = ad.mul(x, keep)
        return x

    def _visuals(self, visuals) -> np.ndarray:
        x = np.asarray(visuals, dtype=np.float64)
        shape = (self.config.visual_tokens, self.config.dim)
        if x.ndim != 3 or x.shape[1:] != shape:
            raise ValueError(f"expected (S, {shape[0]}, {shape[1]}) visual tokens, "
                             f"got {x.shape}")
        return x

    # -- encoders ----------------------------------------------------------

    def encode_plain(self, visuals: np.ndarray) -> np.ndarray:
        """Per-layer CLS tokens of the [CLS | V] forward on (S, N, D) visuals,
        as one (L+1, S, 1, D) array: the paired forward with no regions."""
        return self._forward({"original": self._visuals(visuals)}, [], 0.0)[0]

    def encode_corit(self, orig_visuals: np.ndarray, cpart_visuals: np.ndarray,
                     regions: list[tuple[int, ...]],
                     alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """Paired-stream forward with per-layer region-token injection.

        `regions` are K nonempty index sets over the visual tokens.  Both
        streams carry the shared region tokens; at every layer the
        discrepancy field over visual tokens drives the refinement masks,
        the pooled token is computed from the original stream, and the
        injected region tokens feed the next layer of both streams.

        Returns `(heads, masks)`: the original stream's per-layer
        [CLS | R] tokens, (L+1, S, 1+K, D), and the refinement masks,
        (L, S, K, N) booleans.  With K = 0 nothing is injected, so only the
        original stream runs and the heads are those of `encode_plain`.
        """
        cfg = self.config
        for k, idx in enumerate(regions):
            if not idx or not all(0 <= i < cfg.visual_tokens for i in idx):
                raise ValueError(f"region {k} must be a nonempty index set in "
                                 f"[0, {cfg.visual_tokens})")
        fields.real("alpha", alpha, 0, strict=False)
        orig, cpart = self._visuals(orig_visuals), self._visuals(cpart_visuals)
        if orig.shape != cpart.shape:
            raise ValueError("stream shapes differ")
        return self._forward({"original": orig, "counterpart": cpart}, regions, alpha)

    def _forward(self, streams: dict[str, np.ndarray], regions: list[tuple[int, ...]],
                 alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """The one forward of both encoders over checked (S, N, D) input
        streams.  Every stream must be finite, but the counterpart runs only
        when there are regions to inject.  Sample-major: each block of
        `_BLOCK_SAMPLES` samples runs through every layer, each layer
        overwriting the block's stream arrays in place, and writes its rows of
        `heads` and `masks`.  With no regions the last layer computes the CLS
        row alone.

        A pool of W = `_WORKERS` threads (at most one per block), opened
        for this forward alone, runs the blocks through `Executor.map`, which
        reads their results in block order: the first error raised is the
        lowest failing block's, the one a single thread would raise.  On an
        error or an interrupt the map cancels every block not yet started,
        and the `with` joins the running ones before this raises.  Each block
        runs under its own `np.errstate` (a context, not a decorator: numpy
        1.x keeps a shared instance's saved state on itself), so no caller's
        setting moves which error that is."""
        for name, visuals in streams.items():
            if not np.all(np.isfinite(visuals)):
                raise ad.NonFiniteError(f"non-finite {name} input")
        K = len(regions)
        S, N, D = streams["original"].shape
        heads = np.empty((self.config.layers + 1, S, 1 + K, D))
        masks = np.empty((self.config.layers, S, K, N), dtype=bool)
        last = self.config.layers - 1

        def encode(b: slice) -> None:
            # non-finite values are checked, never trapped or warned of
            with np.errstate(all="ignore"):
                cls = np.broadcast_to(self.params["cls"], (b.stop - b.start, 1, D))
                x = {name: np.concatenate([cls, np.zeros((b.stop - b.start, K, D)), v[b]], axis=1)
                     for name, v in streams.items() if K or name == "original"}
                x_o = x["original"]
                heads[0, b] = x_o[:, :1 + K]
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
                    heads[l + 1, b] = x_o[:, :1 + K]

        blocks = [slice(i, min(i + _BLOCK_SAMPLES, S)) for i in range(0, S, _BLOCK_SAMPLES)]
        with ThreadPoolExecutor(max(1, min(_WORKERS, len(blocks))),
                                thread_name_prefix="corlab-encoder") as pool:
            list(pool.map(encode, blocks))
        return heads, masks


# ---------------------------------------------------------------------------
# feature heads
# ---------------------------------------------------------------------------

def hri_fuse(heads: np.ndarray, l_mid: int) -> np.ndarray:
    """Concatenate [CLS, R] from layer l_mid and the final layer of
    (L+1, S, 1+K, D) per-layer tokens into (S, 2 (1+K) D) features."""
    L = len(heads) - 1
    if not (1 <= l_mid < L):
        raise ValueError(f"l_mid must be in [1, {L - 1}]")
    return np.concatenate([heads[l_mid], heads[L]], axis=1).reshape(heads.shape[1], -1)


def plain_feature(heads: np.ndarray) -> np.ndarray:
    """Final-layer CLS token, the linear-probing baseline feature."""
    return heads[-1, :, 0]
