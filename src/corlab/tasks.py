"""Synthetic binary token datasets with controllable semantic and
non-semantic (artifact) signal, plus the counterpart operator that stands
in for image-level self-blending."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields
from . import regions as rg


def _unit_pattern(seed_key: tuple, shape: tuple) -> np.ndarray:
    """Fixed pseudo-random unit-norm pattern for a given structural key."""
    import hashlib

    digest = hashlib.sha256(repr(seed_key).encode()).digest()
    entropy = int.from_bytes(digest[:8], "little")
    v = np.random.default_rng(np.random.SeedSequence(entropy)).normal(size=shape)
    return v / np.linalg.norm(v)


def _region_pattern(key: tuple, region: str, channels: tuple[int, ...],
                    n_tokens: int, dim: int) -> np.ndarray:
    """(n_tokens, dim) pattern, seeded by `key` (a name and a seed) with the
    channels and region: unit norm, exactly zero outside the `region`
    tokens of the grid and the given channels."""
    idx = rg.grid_partition(n_tokens)[rg.REGION_LABELS.index(region)]
    pat = np.zeros((n_tokens, dim))
    pat[np.ix_(idx, channels)] = _unit_pattern((*key, channels, region),
                                               (len(idx), len(channels)))
    return pat


@dataclass(frozen=True)
class TaskSpec:
    n_tokens: int = 16
    dim: int = 32
    semantic_amp: float = 0.0
    artifact_amp: float = 0.0
    artifact_channels: tuple[int, ...] = tuple(range(24, 32))
    artifact_region: str = "foreground"
    noise_sigma: float = 1.0
    n_train: int = 200
    n_test: int = 200
    seed: int = 0

    def __post_init__(self):
        for name, lo in (("n_tokens", 1), ("dim", 1), ("n_train", 2), ("n_test", 2),
                         ("seed", 0)):   # n_train, n_test >= 2: both classes appear
            fields.integer(name, getattr(self, name), lo)
        rg.grid_partition(self.n_tokens)   # raises unless the tokens form a square grid
        fields.choice("artifact_region", self.artifact_region, rg.REGION_LABELS)
        for name in ("semantic_amp", "artifact_amp"):
            fields.real(name, getattr(self, name), None, strict=False)
        fields.real("noise_sigma", self.noise_sigma, 0, strict=True)
        object.__setattr__(self, "artifact_channels",
                           fields.channels("artifact_channels", self.artifact_channels,
                                           self.dim))
        # a nonzero amplitude needs a channel for its pattern, whose unit
        # norm is 0/0 on no channel
        if self.artifact_amp != 0 and not self.artifact_channels:
            raise ValueError("artifact_amp != 0 requires nonempty artifact_channels")
        if self.semantic_amp != 0 and len(self.artifact_channels) == self.dim:
            raise ValueError("semantic_amp != 0 requires a channel outside "
                             "artifact_channels")

    def artifact_pattern(self) -> np.ndarray:
        """(N, D) pattern: unit norm, exactly zero outside the artifact
        region tokens and artifact channels."""
        return _region_pattern(("artifact", self.seed), self.artifact_region,
                               self.artifact_channels, self.n_tokens, self.dim)

    def semantic_pattern(self) -> np.ndarray:
        """(N, D) global mean shift on the channels outside
        `artifact_channels`, unit norm."""
        ch = tuple(c for c in range(self.dim) if c not in self.artifact_channels)
        row = _unit_pattern(("semantic", self.seed, ch), (len(ch),))
        pat = np.zeros((self.n_tokens, self.dim))
        pat[:, list(ch)] = row
        return pat / np.linalg.norm(pat)


@dataclass
class Dataset:
    tokens: np.ndarray   # (S, N, D)
    labels: np.ndarray   # (S,) uint8; 0 = real, 1 = fake

    def __len__(self) -> int:
        return self.labels.size


def _sample_noise(spec: TaskSpec, split: str, index: int) -> np.ndarray:
    split_id = {"train": 0, "test": 1}[split]
    ss = np.random.SeedSequence(spec.seed, spawn_key=(split_id, index))
    return np.random.default_rng(ss).normal(scale=spec.noise_sigma,
                                            size=(spec.n_tokens, spec.dim))


def generate(spec: TaskSpec, split: str) -> Dataset:
    """Deterministic balanced dataset: samples alternate real, fake, so
    |#real - #fake| <= 1.  Fake samples carry the semantic and artifact
    patterns, added in that order and only at a nonzero amplitude; real
    samples carry only noise."""
    if split not in ("train", "test"):
        raise ValueError("split must be 'train' or 'test'")
    n = spec.n_train if split == "train" else spec.n_test
    tokens = np.empty((n, spec.n_tokens, spec.dim))
    for i in range(n):
        tokens[i] = _sample_noise(spec, split, i)
    if spec.semantic_amp != 0:
        tokens[1::2] += spec.semantic_amp * spec.semantic_pattern()
    if spec.artifact_amp != 0:
        tokens[1::2] += spec.artifact_amp * spec.artifact_pattern()
    return Dataset(tokens, (np.arange(n) % 2).astype(np.uint8))


@dataclass(frozen=True)
class CounterpartOp:
    """Adds a fixed seeded pattern to target channels within a region,
    synthesizing a forgery-like discrepancy from any input."""

    perturb_amp: float = 1.0
    target_channels: tuple[int, ...] = tuple(range(24, 32))
    target_region: str = "foreground"
    seed: int = 0

    def __post_init__(self):
        fields.real("perturb_amp", self.perturb_amp, 0, strict=False)
        fields.integer("seed", self.seed, 0)
        fields.choice("target_region", self.target_region, rg.REGION_LABELS)
        object.__setattr__(self, "target_channels",
                           fields.channels("target_channels", self.target_channels, None))

    def pattern(self, n_tokens: int, dim: int) -> np.ndarray:
        return _region_pattern(("counterpart", self.seed), self.target_region,
                               self.target_channels, n_tokens, dim)

    def apply(self, tokens: np.ndarray) -> np.ndarray:
        """Counterpart tokens; label semantics are unchanged by design."""
        tokens = np.asarray(tokens, dtype=np.float64)
        n, d = tokens.shape[-2], tokens.shape[-1]
        if any(not 0 <= c < d for c in self.target_channels):
            raise ValueError("target channel out of range")
        return tokens + self.perturb_amp * self.pattern(n, d)
