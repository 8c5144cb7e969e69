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
    n_train: int = 300
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool of four
# uint32 words, hashmix and mix constants, and the PCG64 multiplier of
# pcg64_set_seed
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _spawn_seed_words(seed: int, split_id: int, start: int, stop: int) -> np.ndarray:
    """(4, stop - start) uint64 words of `SeedSequence(seed, spawn_key=
    (split_id, i)).generate_state(4, np.uint64)` for i in range(start, stop),
    in one pass: the hash constants do not depend on the data, so each step
    is one uint32 array operation over the indices.  `generate` keeps every
    index below 2**32."""
    n = stop - start
    seed = int(seed)
    run = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    run += [0] * (4 - len(run))   # zero-padded to the pool, as with any spawn key
    entropy = [np.full(n, w, np.uint32) for w in (*run, split_id)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    hc = _INIT_A

    def hashmix(value):
        nonlocal hc
        value = value ^ np.uint32(hc)
        hc = hc * _MULT_A & _MASK32
        value *= np.uint32(hc)
        return value ^ (value >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hc = _INIT_B
    state = []
    for k in range(8):
        value = pool[k % 4] ^ np.uint32(hc)
        hc = hc * _MULT_B & _MASK32
        value *= np.uint32(hc)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)])


def _labels(start: int, stop: int) -> np.ndarray:
    """uint8 labels of samples [start, stop) of a split: index mod 2."""
    return (np.arange(start, stop) % 2).astype(np.uint8)


def generate(spec: TaskSpec, split: str, start: int = 0, stop: int | None = None) -> Dataset:
    """Samples [start, stop) of a deterministic balanced split (stop None:
    the split's size), bit for bit the same rows of the whole split: samples
    alternate real, fake by their index in the split, so |#real - #fake|
    <= 1 over the split.  Sample i's noise is `default_rng(SeedSequence(
    seed, spawn_key=(split_id, i))).normal(scale=noise_sigma)` with split_id
    0 for train and 1 for test, drawn from one PCG64 re-seeded per sample.
    Fake samples carry the semantic and artifact patterns, added in that
    order and only at a nonzero amplitude; real samples carry only noise."""
    if split not in ("train", "test"):
        raise ValueError("split must be 'train' or 'test'")
    n = spec.n_train if split == "train" else spec.n_test
    # one uint32 word per index keeps the entropy fixed-width; a split of
    # 2**32 samples would be 16 TiB of the default 16 x 32 float64 tokens
    if n >= 1 << 32:
        raise ValueError(f"split size {n} does not fit one uint32 index word")
    stop = n if stop is None else stop
    if not 0 <= start < stop <= n:
        raise ValueError(f"sample range [{start}, {stop}) must be a nonempty part "
                         f"of the {n}-sample {split} split")
    split_id = {"train": 0, "test": 1}[split]
    words = _spawn_seed_words(spec.seed, split_id, start, stop)
    expected = np.random.SeedSequence(spec.seed, spawn_key=(split_id, start))
    if not np.array_equal(words[:, 0], expected.generate_state(4, np.uint64)):
        raise RuntimeError("numpy's SeedSequence no longer matches the derived "
                           "seed words; generated tasks would change")
    tokens = np.empty((stop - start, spec.n_tokens, spec.dim))
    bg = np.random.PCG64(0)   # re-seeded for every sample below
    gen = np.random.Generator(bg)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for i, (s_hi, s_lo, q_hi, q_lo) in enumerate(words.T.tolist()):
        # pcg64_set_seed: inc = seq << 1 | 1, then two LCG steps around + seed
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bg.state = state
        gen.standard_normal(out=tokens[i])
    # normal(scale=sigma) is 0.0 + sigma * z: the + 0.0 turns -0.0 into +0.0
    tokens *= spec.noise_sigma
    tokens += 0.0
    fake = tokens[(start + 1) % 2::2]   # the odd global indices
    if spec.semantic_amp != 0:
        fake += spec.semantic_amp * spec.semantic_pattern()
    if spec.artifact_amp != 0:
        fake += spec.artifact_amp * spec.artifact_pattern()
    return Dataset(tokens, _labels(start, stop))


class SplitView:
    """A split's (S, N, D) tokens, generated as they are read: `view[a:b]`
    is `generate(spec, split, a, b).tokens`, with `generate` looked up on
    this module at each read.  `labels` are the split's, `generate`'s."""

    ndim = 3

    def __init__(self, spec: TaskSpec, split: str):
        n = spec.n_train if split == "train" else spec.n_test
        self.spec, self.split = spec, split
        self.shape, self.labels = (n, spec.n_tokens, spec.dim), _labels(0, n)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return generate(self.spec, self.split, rows.start, rows.stop).tokens


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

    def offset(self, n_tokens: int, dim: int) -> np.ndarray:
        """(n_tokens, dim) offset that makes any tokens their counterpart,
        perturb_amp times the seeded pattern; labels are unchanged by design."""
        if any(not 0 <= c < dim for c in self.target_channels):
            raise ValueError("target channel out of range")
        return self.perturb_amp * _region_pattern(("counterpart", self.seed), self.target_region,
                                                  self.target_channels, n_tokens, dim)
