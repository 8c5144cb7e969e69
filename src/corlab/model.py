"""Frozen toy transformer encoder plus the feature heads read by probes.

The encoder is a seeded pre-norm transformer whose parameters never
receive gradients; trainable state lives exclusively in the linear probe
over its features (`corlab.optim`).
The block forward is written against the generic array API in
`corlab.autodiff`, so the same code runs in fast numpy mode (batched over
samples) and in graph mode for differentiability tests.

Token layout is always [CLS | R_1..R_K | V_1..V_N].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import regions as rg

LN_EPS = 1e-5
_BLOCK_SAMPLES = 128   # samples per numpy-mode block call


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 6
    dim: int = 32
    heads: int = 4
    visual_tokens: int = 16
    region_count: int = 3
    seed: int = 0
    semantic_bias: bool = False
    bias_channels: tuple[int, ...] = ()
    bias_attenuation: float = 0.5  # per-layer scale on bias_channels

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        object.__setattr__(self, "bias_channels", tuple(int(c) for c in self.bias_channels))

    @property
    def seq_len_plain(self) -> int:
        return 1 + self.visual_tokens

    @property
    def seq_len_corit(self) -> int:
        return 1 + self.region_count + self.visual_tokens


@dataclass
class TokenSequence:
    """One per-layer snapshot; arrays may carry a leading sample axis."""

    tokens: np.ndarray  # (..., 1+K+N, D)
    n_regions: int
    layer: int

    @property
    def cls(self) -> np.ndarray:
        return self.tokens[..., 0, :]



@dataclass
class CoritTrace:
    """Everything produced by a contrastive-injection forward pass."""

    orig_states: list[TokenSequence]
    cpart_states: list[TokenSequence]
    cgp_fields: list[np.ndarray]          # per layer, (..., N, D)
    masks: list[np.ndarray]               # per layer, (..., K, N)
    region_tokens: list[np.ndarray]       # per layer, injected R, (..., K, D)


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
        x = ad.add(x, self._attention(ad.layer_norm(x, LN_EPS), l))
        x = ad.add(x, ad.matmul(ad.gelu(ad.matmul(ad.layer_norm(x, LN_EPS),
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

    # -- plain (linear-probe) pipeline --------------------------------------

    def encode_plain(self, visuals: np.ndarray) -> list[TokenSequence]:
        """Per-layer states for the [CLS | V] sequence; K = 0."""
        visuals = np.asarray(visuals, dtype=np.float64)
        batched = visuals.ndim == 3
        if not batched:
            visuals = visuals[None]
        if not np.all(np.isfinite(visuals)):
            raise ad.NonFiniteError("non-finite encoder input")
        S = visuals.shape[0]
        cls = np.broadcast_to(self.params["cls"], (S, 1, self.config.dim))
        x = np.concatenate([cls, visuals], axis=1)
        states = [TokenSequence(x if batched else x[0], 0, 0)]
        for l in range(self.config.layers):
            x = self._layer(x, l)
            if not np.all(np.isfinite(x)):
                raise ad.NonFiniteError(f"non-finite activation at layer {l}")
            states.append(TokenSequence(x if batched else x[0], 0, l + 1))
        return states

    # -- contrastive-injection pipeline --------------------------------------

    def encode_corit(self, orig_visuals: np.ndarray, cpart_visuals: np.ndarray,
                     region_specs: list[rg.RegionSpec], alpha: float) -> CoritTrace:
        """Paired-stream forward with per-layer region-token injection.

        Both streams carry the shared region tokens; at every layer the
        discrepancy field over visual tokens drives the refinement masks,
        the pooled token is computed from the original stream, and the
        injected region tokens feed the next layer of both streams.
        """
        cfg = self.config
        K = len(region_specs)
        if K != cfg.region_count:
            raise ValueError(f"expected {cfg.region_count} regions, got {K}")
        for reg in region_specs:
            if reg.indices and (min(reg.indices) < 0 or max(reg.indices) >= cfg.visual_tokens):
                raise ValueError(f"region {reg.k} indices out of range")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")

        orig = np.asarray(orig_visuals, dtype=np.float64)
        cpart = np.asarray(cpart_visuals, dtype=np.float64)
        if orig.shape != cpart.shape:
            raise ValueError("stream shapes differ")
        batched = orig.ndim == 3
        if not batched:
            orig, cpart = orig[None], cpart[None]
        S, N, D = orig.shape

        def seq(visuals, R):
            cls = np.broadcast_to(self.params["cls"], (S, 1, D))
            return np.concatenate([cls, R, visuals], axis=1)

        def unbatch(a):
            return a if batched else a[0]

        R = np.zeros((S, K, D))
        x_o, x_c = seq(orig, R), seq(cpart, R)
        orig_states = [TokenSequence(unbatch(x_o), K, 0)]
        cpart_states = [TokenSequence(unbatch(x_c), K, 0)]
        cgp_fields, mask_layers, region_layers = [], [], []

        for l in range(cfg.layers):
            x_o, x_c = self._layer(x_o, l), self._layer(x_c, l)
            for name, y in (("original", x_o), ("counterpart", x_c)):
                if not np.all(np.isfinite(y)):
                    raise ad.NonFiniteError(f"non-finite {name} activation at layer {l}")
            v_o = x_o[:, 1 + K:]
            cgp = rg.compute_cgp(v_o, x_c[:, 1 + K:])            # (S, N, D)
            masks = np.zeros((S, 0, N))
            if K > 0:
                state = rg.layer_region_state(cgp, v_o, region_specs, alpha)
                masks = state.masks
                x_o[:, 1:1 + K] += state.pooled                  # intra-layer residual
            R = x_o[:, 1:1 + K]
            x_c[:, 1:1 + K] = R
            orig_states.append(TokenSequence(unbatch(x_o), K, l + 1))
            cpart_states.append(TokenSequence(unbatch(x_c), K, l + 1))
            cgp_fields.append(unbatch(cgp))
            mask_layers.append(unbatch(masks))
            region_layers.append(unbatch(R))

        return CoritTrace(orig_states, cpart_states, cgp_fields,
                          mask_layers, region_layers)


# ---------------------------------------------------------------------------
# feature heads
# ---------------------------------------------------------------------------

def hri_fuse(states: list[TokenSequence], l_mid: int) -> np.ndarray:
    """Concatenate [CLS, R] from layer l_mid and the final layer."""
    L = len(states) - 1
    if not (1 <= l_mid < L):
        raise ValueError(f"l_mid must be in [1, {L - 1}]")

    def feat(st: TokenSequence) -> np.ndarray:
        K = st.n_regions
        t = st.tokens[..., :1 + K, :]
        return t.reshape(t.shape[:-2] + (-1,))

    return np.concatenate([feat(states[l_mid]), feat(states[L])], axis=-1)


def plain_feature(states: list[TokenSequence]) -> np.ndarray:
    """Final-layer CLS token, the linear-probing baseline feature."""
    return states[-1].cls
