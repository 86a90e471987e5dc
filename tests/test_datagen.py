"""Synthetic data: class sizes, bounds, marginal targets, listing templates."""

import numpy as np
import pytest

from proctriage.datagen import (
    SAFE_PROFILE,
    UNSAFE_PROFILE,
    ClassProfile,
    FeatureProfile,
    GenConfig,
    generate_dataset,
    generate_process_list,
)
from proctriage.features import Label, featurize
from proctriage.proclist import parse_process_list


@pytest.fixture(scope="module")
def default_set():
    return generate_dataset(GenConfig(seed=0))


def test_default_sizes(default_set):
    assert len(default_set) == 384
    assert default_set.class_counts() == (324, 60)


def test_every_sample_is_synthetic_and_consistent(default_set):
    for s in default_set:
        assert s.origin == "synthetic"
        v = s.features
        assert v.ratio == v.process_count / v.user_count
        assert 1 <= v.user_count <= v.process_count


def test_bounds_exact(default_set):
    safe = default_set.subset(Label.TARGET)
    unsafe = default_set.subset(Label.SANDBOX)
    sx = safe.feature_matrix()
    ux = unsafe.feature_matrix()
    assert sx[:, 0].min() >= 9 and sx[:, 0].max() <= 305
    assert sx[:, 1].min() >= 1 and sx[:, 1].max() <= 17
    assert ux[:, 0].min() >= 11 and ux[:, 0].max() <= 56
    assert ux[:, 1].min() >= 1 and ux[:, 1].max() <= 4


def test_marginal_means_near_profile(default_set):
    safe = default_set.subset(Label.TARGET).feature_matrix()
    unsafe = default_set.subset(Label.SANDBOX).feature_matrix()
    assert abs(safe[:, 0].mean() - 89.2) <= 0.2 * 89.2
    assert abs(unsafe[:, 0].mean() - 30.6) <= 0.2 * 30.6
    assert abs(safe[:, 1].mean() - 2.5) <= 0.2 * 2.5 + 0.5
    assert abs(unsafe[:, 1].mean() - 2.9) <= 0.2 * 2.9 + 0.5


def test_deterministic_per_seed():
    a = generate_dataset(GenConfig(seed=42))
    b = generate_dataset(GenConfig(seed=42))
    c = generate_dataset(GenConfig(seed=43))
    assert a.samples == b.samples
    assert a.samples != c.samples


def test_counts_are_integers(default_set):
    for s in default_set:
        assert isinstance(s.features.process_count, int)
        assert isinstance(s.features.user_count, int)


def test_custom_sizes():
    data = generate_dataset(GenConfig(n_safe=10, n_unsafe=5, seed=1))
    assert data.class_counts() == (10, 5)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n_safe=-1)
    with pytest.raises(ValueError):
        GenConfig(n_safe=0, n_unsafe=0)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        GenConfig(seed=-1)
    # exactly an int, as in TreeConfig and AnnConfig: a bool, 1.5 or 3.0 is refused
    for field in ("n_safe", "n_unsafe", "seed"):
        for value in (1.5, True, 3.0):
            with pytest.raises(ValueError):
                GenConfig(**{field: value})
    with pytest.raises(ValueError):
        FeatureProfile(min=10, max=5, mean=7, std=1)
    with pytest.raises(ValueError):
        FeatureProfile(min=1, max=5, mean=3, std=-1)
    with pytest.raises(ValueError):
        ClassProfile(process_count=SAFE_PROFILE.process_count,
                     user_count=SAFE_PROFILE.user_count, correlation=1.5)


@pytest.mark.parametrize("correlation", [-1.0, 1.0])
def test_a_correlation_of_exactly_minus_1_or_1_is_accepted(correlation):
    profile = ClassProfile(process_count=UNSAFE_PROFILE.process_count,
                           user_count=UNSAFE_PROFILE.user_count, correlation=correlation)
    assert profile.correlation == correlation
    v = featurize(parse_process_list(generate_process_list(Label.SANDBOX, 3, profile)))
    assert UNSAFE_PROFILE.process_count.min <= v.process_count <= UNSAFE_PROFILE.process_count.max


def test_profiles_match_published_summary():
    assert (SAFE_PROFILE.process_count.min, SAFE_PROFILE.process_count.max) == (9, 305)
    assert (SAFE_PROFILE.process_count.mean, SAFE_PROFILE.process_count.std) == (89.2, 60.7)
    assert (SAFE_PROFILE.user_count.mean, SAFE_PROFILE.user_count.std) == (2.5, 1.8)
    assert (UNSAFE_PROFILE.process_count.mean, UNSAFE_PROFILE.process_count.std) == (30.6, 11.65)
    assert (UNSAFE_PROFILE.user_count.min, UNSAFE_PROFILE.user_count.max) == (1, 4)


# -- synthetic listings --------------------------------------------------------

def test_sandbox_listing_template():
    for seed in range(6):
        text = generate_process_list(Label.SANDBOX, seed=seed)
        plist = parse_process_list(text)
        assert plist.warnings == ()
        v = featurize(plist)
        assert 11 <= v.process_count <= 56
        assert 2 <= v.user_count <= 4
        owners = {e.owner for e in plist.entries if e.owner}
        assert "NT AUTHORITY\\SYSTEM" in owners


def test_safe_listing_template():
    for seed in range(6):
        text = generate_process_list(Label.TARGET, seed=seed)
        plist = parse_process_list(text)
        assert plist.warnings == ()
        v = featurize(plist)
        assert 9 <= v.process_count <= 305
        assert v.user_count >= 1
        # mostly blank owners: the corporate template hides most of them
        blanks = sum(1 for e in plist.entries if e.pid != 0 and e.owner is None)
        assert blanks > 0


def test_listing_deterministic_per_seed():
    a = generate_process_list(Label.SANDBOX, seed=4)
    b = generate_process_list(Label.SANDBOX, seed=4)
    c = generate_process_list(Label.SANDBOX, seed=5)
    assert a == b
    assert a != c


def test_listing_roundtrips_to_consistent_features():
    rng = np.random.default_rng(0)
    for _ in range(4):
        seed = int(rng.integers(0, 10_000))
        label = Label.SANDBOX if seed % 2 else Label.TARGET
        v = featurize(parse_process_list(generate_process_list(label, seed=seed)))
        assert v.ratio == v.process_count / v.user_count


@pytest.mark.parametrize("label", list(Label))
def test_listing_profile_with_more_users_than_owners_is_refused(label):
    crowded = ClassProfile(process_count=FeatureProfile(min=60, max=80, mean=70.0, std=5.0),
                           user_count=FeatureProfile(min=20, max=40, mean=30.0, std=5.0))
    with pytest.raises(ValueError, match="exceeds the 17 distinct owners"):
        generate_process_list(label, seed=0, profile=crowded)


@pytest.mark.parametrize("label", list(Label))
def test_listing_profile_at_the_owner_limit_is_realized(label):
    full = ClassProfile(process_count=FeatureProfile(min=60, max=80, mean=70.0, std=5.0),
                        user_count=FeatureProfile(min=17, max=17, mean=17.0, std=0.0))
    text = generate_process_list(label, seed=0, profile=full)
    assert featurize(parse_process_list(text)).user_count == 17


@pytest.mark.parametrize("label", list(Label))
def test_listing_profile_with_more_processes_than_pids_is_refused(label):
    crowded = ClassProfile(process_count=FeatureProfile(min=8000, max=9000, mean=8500.0, std=5.0),
                           user_count=FeatureProfile(min=1, max=4, mean=2.0, std=1.0))
    with pytest.raises(ValueError, match="exceeds the 8191 distinct pids"):
        generate_process_list(label, seed=0, profile=crowded)


@pytest.mark.parametrize("label", list(Label))
def test_listing_profile_at_the_pid_limit_is_realized(label):
    full = ClassProfile(process_count=FeatureProfile(min=8191, max=8191, mean=8191.0, std=0.0),
                        user_count=FeatureProfile(min=1, max=4, mean=2.0, std=1.0))
    text = generate_process_list(label, seed=0, profile=full)
    assert featurize(parse_process_list(text)).process_count == 8191
