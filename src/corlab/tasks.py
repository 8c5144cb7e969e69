"""Synthetic binary token datasets with controllable semantic and
non-semantic (artifact) signal, plus the counterpart operator that stands
in for image-level self-blending."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import diagnostics as dg
from . import regions as rg


def _region_indices(label: str, n_tokens: int) -> tuple[int, ...]:
    side = int(round(np.sqrt(n_tokens)))
    if side * side != n_tokens:
        raise ValueError("region labels require a square token grid")
    for spec in rg.grid_partition(side):
        if spec.label == label:
            return spec.indices
    raise ValueError(f"unknown region label {label!r}")


def _unit_pattern(seed_key: tuple, shape: tuple) -> np.ndarray:
    """Fixed pseudo-random unit-norm pattern for a given structural key."""
    import hashlib

    digest = hashlib.sha256(repr(seed_key).encode()).digest()
    entropy = int.from_bytes(digest[:8], "little")
    v = np.random.default_rng(np.random.SeedSequence(entropy)).normal(size=shape)
    return v / np.linalg.norm(v)


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
        object.__setattr__(self, "artifact_channels",
                           tuple(int(c) for c in self.artifact_channels))
        if self.artifact_amp > 0 and not self.artifact_channels:
            raise ValueError("artifact_amp > 0 requires nonempty artifact_channels")
        bad = [c for c in self.artifact_channels if not 0 <= c < self.dim]
        if bad:
            raise ValueError(f"artifact_channels {bad} outside [0, {self.dim})")
        for name in ("semantic_amp", "artifact_amp"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma > 0):
            raise ValueError("noise_sigma must be finite and positive")
        for name in ("n_train", "n_test"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < 2:
                raise ValueError(f"{name} must be >= 2, so both classes appear")

    @property
    def semantic_channels(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.dim) if c not in self.artifact_channels)

    def artifact_pattern(self) -> np.ndarray:
        """(N, D) pattern: unit norm, exactly zero outside the artifact
        region tokens and artifact channels."""
        idx = _region_indices(self.artifact_region, self.n_tokens)
        sub = _unit_pattern(("artifact", self.seed, self.artifact_channels,
                             self.artifact_region),
                            (len(idx), len(self.artifact_channels)))
        pat = np.zeros((self.n_tokens, self.dim))
        pat[np.ix_(idx, self.artifact_channels)] = sub
        return pat

    def semantic_pattern(self) -> np.ndarray:
        """(N, D) global mean shift on the semantic channels, unit norm."""
        ch = self.semantic_channels
        row = _unit_pattern(("semantic", self.seed, ch), (len(ch),))
        pat = np.zeros((self.n_tokens, self.dim))
        pat[:, list(ch)] = row
        return pat / np.linalg.norm(pat)


@dataclass
class Dataset:
    spec: TaskSpec
    split: str
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
    """Deterministic balanced dataset; fake samples carry the semantic and
    artifact patterns, real samples carry only noise."""
    if split not in ("train", "test"):
        raise ValueError("split must be 'train' or 'test'")
    n = spec.n_train if split == "train" else spec.n_test
    sem = spec.semantic_amp * spec.semantic_pattern()
    art = spec.artifact_amp * spec.artifact_pattern()
    tokens = np.empty((n, spec.n_tokens, spec.dim))
    labels = np.empty(n, dtype=np.uint8)
    for i in range(n):
        label = i % 2  # balanced, |#real - #fake| <= 1
        x = _sample_noise(spec, split, i)
        if label == 1:
            x = x + sem + art
        tokens[i] = x
        labels[i] = label
    return Dataset(spec, split, tokens, labels)


@dataclass(frozen=True)
class CounterpartOp:
    """Adds a fixed seeded pattern to target channels within a region,
    synthesizing a forgery-like discrepancy from any input."""

    perturb_amp: float = 1.0
    target_channels: tuple[int, ...] = tuple(range(24, 32))
    target_region: str = "foreground"
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.perturb_amp) and self.perturb_amp >= 0):
            raise ValueError("perturb_amp must be finite and nonnegative")
        object.__setattr__(self, "target_channels",
                           tuple(int(c) for c in self.target_channels))

    def pattern(self, n_tokens: int, dim: int) -> np.ndarray:
        idx = _region_indices(self.target_region, n_tokens)
        sub = _unit_pattern(("counterpart", self.seed, self.target_channels,
                             self.target_region),
                            (len(idx), len(self.target_channels)))
        pat = np.zeros((n_tokens, dim))
        pat[np.ix_(idx, self.target_channels)] = sub
        return pat

    def apply(self, tokens: np.ndarray) -> np.ndarray:
        """Counterpart tokens; label semantics are unchanged by design."""
        tokens = np.asarray(tokens, dtype=np.float64)
        n, d = tokens.shape[-2], tokens.shape[-1]
        idx = _region_indices(self.target_region, n)
        if any(not 0 <= c < d for c in self.target_channels):
            raise ValueError("target channel out of range")
        if idx and max(idx) >= n:
            raise ValueError("target token out of range")
        return tokens + self.perturb_amp * self.pattern(n, d)


def expected_gsnr(spec: TaskSpec, batch_size: int = 1) -> float:
    """Population GSNR of a zero-initialized linear probe on raw tokens.

    At zero weights the per-sample loss gradient is (1/2 - y) * [x, 1].
    With balanced labels, x ~ N(0, sigma^2 I) for real samples and the same
    noise plus the shift s for fake ones, the mean gradient is -s/4, so the
    signal is |s|^2/16, and E|g|^2 = (N*D*sigma^2 + |s|^2/2 + 1)/4.  The
    noise is their difference over the batch size.
    """
    shift = (spec.semantic_amp * spec.semantic_pattern()
             + spec.artifact_amp * spec.artifact_pattern())
    s2 = float((shift ** 2).sum())
    signal = s2 / 16.0
    second = (spec.n_tokens * spec.dim * spec.noise_sigma ** 2 + s2 / 2.0 + 1.0) / 4.0
    return dg.signal_to_noise(signal, (second - signal) / batch_size)
