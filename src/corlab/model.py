"""Frozen toy transformer encoder plus the feature heads read by probes.

The encoder is a seeded pre-norm transformer whose parameters never
receive gradients; trainable state lives exclusively in the linear probe
over its features (`corlab.optim`).
The encoders take (S, N, D) visual tokens and return only the per-layer
head tokens, [CLS] or [CLS | R], as one array with a leading layer axis.
The block forward is written against the generic array API in
`corlab.autodiff`, so the same code runs in fast numpy mode (batched over
samples) and in graph mode for differentiability tests.

Token layout is always [CLS | R_1..R_K | V_1..V_N].
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import regions as rg

_BLOCK_SAMPLES = 128   # samples per numpy-mode block call


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
        for name in ("layers", "dim", "heads", "visual_tokens"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < 1:
                raise ValueError(f"{name} must be >= 1")
        if not isinstance(self.semantic_bias, bool):
            raise ValueError(f"semantic_bias must be a boolean, got {self.semantic_bias!r}")
        if not np.isfinite(self.bias_attenuation):
            raise ValueError("bias_attenuation must be finite")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        object.__setattr__(self, "bias_channels", tuple(int(c) for c in self.bias_channels))
        bad = [c for c in self.bias_channels if not 0 <= c < self.dim]
        if bad:
            raise ValueError(f"bias_channels {bad} outside [0, {self.dim})")


class FrozenEncoder:
    """Seeded immutable transformer; parameters are plain float64 arrays."""

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray] | None = None):
        self.config = config
        self.params = params if params is not None else self._init_params(config)

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

    # -- block forward (generic over Tensor / ndarray) ---------------------

    def _attention(self, x, l: int):
        cfg = self.config
        h, dh = cfg.heads, cfg.dim // cfg.heads
        shape = ad.val(x).shape           # (..., T, D)
        T = shape[-2]
        lead = shape[:-2]

        def split_heads(y):
            y = ad.reshape(y, lead + (T, h, dh))
            return ad.swapaxes(y, -3, -2)  # (..., h, T, dh)

        q = split_heads(ad.matmul(x, self.params[f"l{l}.wq"]))
        k = split_heads(ad.matmul(x, self.params[f"l{l}.wk"]))
        v = split_heads(ad.matmul(x, self.params[f"l{l}.wv"]))
        scores = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / np.sqrt(dh))
        attn = ad.softmax(scores, axis=-1)
        out = ad.matmul(attn, v)                       # (..., h, T, dh)
        out = ad.reshape(ad.swapaxes(out, -3, -2), lead + (T, cfg.dim))
        return ad.matmul(out, self.params[f"l{l}.wo"])

    def block(self, x, l: int):
        """Pre-norm transformer block on a (..., T, D) sequence."""
        x = ad.add(x, self._attention(ad.layer_norm(x), l))
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

    def _layer(self, x: np.ndarray, l: int) -> np.ndarray:
        """`block` over an (S, T, D) batch in fixed sample blocks written
        into one preallocated output.  Samples never mix, so the output
        equals one call on the whole batch while every temporary stays
        the size of a block."""
        out = np.empty_like(x)
        for i in range(0, x.shape[0], _BLOCK_SAMPLES):
            out[i:i + _BLOCK_SAMPLES] = self.block(x[i:i + _BLOCK_SAMPLES], l)
        return out

    def _visuals(self, visuals) -> np.ndarray:
        x = np.asarray(visuals, dtype=np.float64)
        shape = (self.config.visual_tokens, self.config.dim)
        if x.ndim != 3 or x.shape[1:] != shape:
            raise ValueError(f"expected (S, {shape[0]}, {shape[1]}) visual tokens, "
                             f"got {x.shape}")
        return x

    # -- plain (linear-probe) pipeline --------------------------------------

    def encode_plain(self, visuals: np.ndarray) -> np.ndarray:
        """Per-layer CLS tokens of the [CLS | V] forward on (S, N, D)
        visuals, as one (L+1, S, 1, D) array; K = 0."""
        visuals = self._visuals(visuals)
        if not np.all(np.isfinite(visuals)):
            raise ad.NonFiniteError("non-finite encoder input")
        S, _, D = visuals.shape
        x = np.concatenate([np.broadcast_to(self.params["cls"], (S, 1, D)), visuals],
                           axis=1)
        heads = np.empty((self.config.layers + 1, S, 1, D))
        heads[0] = x[:, :1]
        for l in range(self.config.layers):
            x = self._layer(x, l)
            if not np.all(np.isfinite(x)):
                raise ad.NonFiniteError(f"non-finite activation at layer {l}")
            heads[l + 1] = x[:, :1]
        return heads

    # -- contrastive-injection pipeline --------------------------------------

    def encode_corit(self, orig_visuals: np.ndarray, cpart_visuals: np.ndarray,
                     region_specs: list[rg.RegionSpec],
                     alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """Paired-stream forward with per-layer region-token injection.

        Both streams carry the shared region tokens; at every layer the
        discrepancy field over visual tokens drives the refinement masks,
        the pooled token is computed from the original stream, and the
        injected region tokens feed the next layer of both streams.

        Returns `(heads, masks)`: the original stream's per-layer
        [CLS | R] tokens, (L+1, S, 1+K, D), and the refinement masks,
        (L, S, K, N).  A layer's full stream states and discrepancy field
        are dropped once the next layer has used them.
        """
        cfg = self.config
        K = len(region_specs)
        for reg in region_specs:
            if reg.indices and (min(reg.indices) < 0 or max(reg.indices) >= cfg.visual_tokens):
                raise ValueError(f"region {reg.k} indices out of range")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        orig, cpart = self._visuals(orig_visuals), self._visuals(cpart_visuals)
        if orig.shape != cpart.shape:
            raise ValueError("stream shapes differ")
        S, N, D = orig.shape

        def seq(visuals):
            cls = np.broadcast_to(self.params["cls"], (S, 1, D))
            return np.concatenate([cls, np.zeros((S, K, D)), visuals], axis=1)

        x_o, x_c = seq(orig), seq(cpart)
        heads = np.empty((cfg.layers + 1, S, 1 + K, D))
        masks = np.zeros((cfg.layers, S, K, N))
        heads[0] = x_o[:, :1 + K]
        for l in range(cfg.layers):
            x_o = self._layer(x_o, l)
            x_c = self._layer(x_c, l)
            for name, y in (("original", x_o), ("counterpart", x_c)):
                if not np.all(np.isfinite(y)):
                    raise ad.NonFiniteError(f"non-finite {name} activation at layer {l}")
            v_o = x_o[:, 1 + K:]
            cgp = rg.compute_cgp(v_o, x_c[:, 1 + K:])            # (S, N, D)
            if K > 0:
                masks[l], pooled = rg.layer_region_state(cgp, v_o, region_specs, alpha)
                x_o[:, 1:1 + K] += pooled                        # intra-layer residual
            x_c[:, 1:1 + K] = x_o[:, 1:1 + K]
            heads[l + 1] = x_o[:, :1 + K]
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
