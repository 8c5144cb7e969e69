"""Synthetic task checks: determinism, balance, pattern structure, and the
counterpart operator."""

import numpy as np
import pytest

from corlab import regions as rg
from corlab import tasks as tk


def test_generate_is_deterministic_and_balanced():
    spec = tk.TaskSpec(semantic_amp=2.0, n_train=101, seed=3)
    a = tk.generate(spec, "train")
    b = tk.generate(spec, "train")
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=2)
    assert abs(int(counts[0]) - int(counts[1])) <= 1
    assert a.tokens.shape == (101, 16, 32)


def test_train_and_test_splits_are_disjoint_noise():
    spec = tk.TaskSpec(seed=0, n_train=8, n_test=8)
    tr = tk.generate(spec, "train")
    te = tk.generate(spec, "test")
    assert not np.allclose(tr.tokens[:8], te.tokens[:8])
    with pytest.raises(ValueError):
        tk.generate(spec, "validation")


def test_artifact_pattern_support_and_norm():
    spec = tk.TaskSpec(artifact_amp=5.0, artifact_region="background")
    pat = spec.artifact_pattern()
    assert np.isclose(np.linalg.norm(pat), 1.0)
    support_tokens = {0, 3, 12, 15}  # corners of the 4x4 grid
    for t in range(16):
        row = pat[t]
        if t in support_tokens:
            assert np.any(row != 0.0)
        else:
            assert np.all(row == 0.0)
    # only artifact channels carry weight
    sem = [c for c in range(32) if c not in spec.artifact_channels]
    assert np.all(pat[:, sem] == 0.0)


def test_semantic_pattern_avoids_artifact_channels():
    spec = tk.TaskSpec(semantic_amp=1.0)
    pat = spec.semantic_pattern()
    assert np.isclose(np.linalg.norm(pat), 1.0)
    assert np.all(pat[:, list(spec.artifact_channels)] == 0.0)


def test_class_mean_shift_matches_spec_amplitudes():
    spec = tk.TaskSpec(semantic_amp=3.0, artifact_amp=2.0, n_train=4000, seed=1)
    ds = tk.generate(spec, "train")
    shift = ds.tokens[ds.labels == 1].mean(axis=0) - ds.tokens[ds.labels == 0].mean(axis=0)
    expected = 3.0 * spec.semantic_pattern() + 2.0 * spec.artifact_pattern()
    assert np.allclose(shift, expected, atol=0.15)


def test_spec_validation():
    # a nonzero amplitude needs a channel for its pattern
    for kw, named in ((dict(artifact_amp=1.0, artifact_channels=()), "artifact_amp"),
                      (dict(artifact_amp=-1.0, artifact_channels=()), "artifact_amp"),
                      (dict(semantic_amp=1.0, artifact_channels=range(32)), "semantic_amp")):
        with pytest.raises(ValueError, match=named):
            tk.TaskSpec(**kw)
    with pytest.raises(ValueError):
        tk.TaskSpec(noise_sigma=0.0)
    for bad in ((40,), (-1,), (8, 16)):
        with pytest.raises(ValueError, match="artifact_channels"):
            tk.TaskSpec(dim=16, artifact_channels=bad)
    tk.TaskSpec(dim=16, artifact_channels=(0, 15))
    with pytest.raises(ValueError):
        tk.TaskSpec(artifact_region="nowhere").artifact_pattern()


def test_zero_amplitude_adds_no_pattern():
    # so the semantic pattern, whose unit norm is 0/0 on no channel, is
    # never multiplied by 0 into every fake sample
    spec = tk.TaskSpec(artifact_amp=4.0, artifact_channels=range(32), n_train=6)
    ds = tk.generate(spec, "train")
    assert np.isfinite(ds.tokens).all()
    plain = tk.generate(tk.TaskSpec(artifact_channels=range(32), n_train=6), "train")
    assert np.array_equal(ds.tokens[1::2], plain.tokens[1::2] + 4.0 * spec.artifact_pattern())
    assert np.array_equal(ds.tokens[::2], plain.tokens[::2])


def test_counterpart_operator_adds_fixed_pattern():
    # the (N, D) offset is perturb_amp times a unit pattern that is zero
    # outside the target region's tokens and the target channels
    op = tk.CounterpartOp(perturb_amp=2.0)
    offset = op.offset(16, 32)
    assert offset.shape == (16, 32)
    assert np.isclose(np.linalg.norm(offset), 2.0)
    fg = list(rg.grid_partition(16)[0])
    assert np.count_nonzero(offset) == np.count_nonzero(offset[np.ix_(fg, range(24, 32))]) > 0
    assert np.array_equal(offset, 2.0 * tk.CounterpartOp(perturb_amp=1.0).offset(16, 32))
    with pytest.raises(ValueError):
        tk.CounterpartOp(perturb_amp=-1.0)
    for bad in ((40,), (32,), (-1,)):
        with pytest.raises(ValueError):
            tk.CounterpartOp(target_channels=bad).offset(16, 32)


def reference_noise(spec, split_id, i):
    """Sample i's noise drawn as numpy draws it: a SeedSequence and a
    Generator of its own."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(split_id, i)))
    return rng.normal(scale=spec.noise_sigma, size=(spec.n_tokens, spec.dim))


def test_generate_equals_the_per_sample_reference():
    # fake samples are noise + semantic + artifact, added in that order
    spec = tk.TaskSpec(semantic_amp=1.5, artifact_amp=2.5, artifact_region="boundary",
                       n_train=17, n_test=9, seed=6)
    sem = spec.semantic_amp * spec.semantic_pattern()
    art = spec.artifact_amp * spec.artifact_pattern()
    for split in ("train", "test"):
        ds = tk.generate(spec, split)
        n = spec.n_train if split == "train" else spec.n_test
        split_id = {"train": 0, "test": 1}[split]
        tokens, labels = [], []
        for i in range(n):
            x = reference_noise(spec, split_id, i)
            tokens.append(x + sem + art if i % 2 else x)
            labels.append(i % 2)
        assert np.array_equal(ds.tokens, np.stack(tokens))
        assert ds.labels.dtype == np.uint8
        assert np.array_equal(ds.labels, np.array(labels, dtype=np.uint8))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1])
def test_generate_draws_each_samples_own_seed_sequence_stream(seed):
    # bytes, so -0.0 against +0.0 counts; 2**128 + 1 has five entropy words,
    # one more than the seed pool holds
    for sigma in (1.0, 0.3):
        spec = tk.TaskSpec(noise_sigma=sigma, n_train=13, n_test=6, seed=seed)
        for split_id, split in enumerate(("train", "test")):
            n = spec.n_train if split == "train" else spec.n_test
            ref = np.stack([reference_noise(spec, split_id, i) for i in range(n)])
            assert tk.generate(spec, split).tokens.tobytes() == ref.tobytes()


def test_generate_turns_a_negative_zero_draw_positive_as_normal_does(monkeypatch):
    # normal(scale=sigma) returns 0.0 + sigma * z, and 0.0 + -0.0 is +0.0
    class NegativeZeros(np.random.Generator):
        def standard_normal(self, out):
            out[...] = -0.0

    monkeypatch.setattr(np.random, "Generator", NegativeZeros)
    tokens = tk.generate(tk.TaskSpec(noise_sigma=0.3, n_train=2), "train").tokens
    assert not np.signbit(tokens).any()


@pytest.mark.parametrize("split", ["train", "test"])
def test_every_range_is_the_slice_of_the_whole_split(split):
    # bytes, so -0.0 against +0.0 counts; odd and even starts, single
    # samples, and chunks of 4 and 7 whose last chunk is short
    spec = tk.TaskSpec(semantic_amp=1.5, artifact_amp=2.5, noise_sigma=0.3,
                       n_train=23, n_test=18, seed=5)
    whole = tk.generate(spec, split)
    n = len(whole)
    ranges = [(0, n), (1, n), (2, 9), (3, 4), (n - 1, n), (n - 2, None)]
    ranges += [(a, min(a + c, n)) for c in (4, 7) for a in range(0, n, c)]
    for start, stop in ranges:
        ds = tk.generate(spec, split, start, stop)
        assert ds.tokens.tobytes() == whole.tokens[start:stop].tobytes()
        assert ds.labels.dtype == np.uint8
        # real and fake alternate by the sample's index in the whole split
        assert np.array_equal(ds.labels, np.arange(start, stop or n) % 2)


def test_generate_refuses_an_empty_or_outside_range(monkeypatch):
    # refused before the range's seed words, the first array, are derived
    spec = tk.TaskSpec(n_train=10, n_test=4)
    monkeypatch.setattr(tk, "_spawn_seed_words",
                        lambda *a: pytest.fail("seed words derived"))
    for split, start, stop in (("train", -1, 3), ("train", 0, 11), ("test", 0, 5),
                               ("train", 4, 4), ("train", 5, 3), ("test", 4, None),
                               ("train", 10, None)):
        with pytest.raises(ValueError, match="sample range"):
            tk.generate(spec, split, start, stop)


def test_generate_refuses_a_split_wider_than_one_index_word():
    # refused before anything the size of the split is allocated
    spec = tk.TaskSpec(n_test=2**32)
    for rng in ((), (0, 4), (2**32 - 4, 2**32)):
        with pytest.raises(ValueError, match=f"split size {2**32}"):
            tk.generate(spec, "test", *rng)


def test_generate_fails_loudly_if_numpy_seeding_changes(monkeypatch):
    class Shifted(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return super().generate_state(n_words, dtype) + 1

    monkeypatch.setattr(np.random, "SeedSequence", Shifted)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        tk.generate(tk.TaskSpec(), "train")


def test_generate_checks_numpy_seeding_at_the_ranges_first_sample(monkeypatch):
    # a SeedSequence that moves sample 5's words alone is caught by a range
    # that starts at 5 and missed by one that does not hold it
    class ShiftedAtFive(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return super().generate_state(n_words, dtype) + (self.spawn_key[-1] == 5)

    monkeypatch.setattr(np.random, "SeedSequence", ShiftedAtFive)
    spec = tk.TaskSpec(n_train=12)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        tk.generate(spec, "train", 5, 9)
    tk.generate(spec, "train", 0, 5)


def test_non_square_token_count_fails_with_the_one_regions_message():
    message = r"n_tokens \(15\) must be a square token grid"
    for build in (lambda: tk.TaskSpec(n_tokens=15),
                  lambda: tk.CounterpartOp().offset(15, 32),
                  lambda: rg.grid_partition(15)):
        with pytest.raises(ValueError, match=message):
            build()
