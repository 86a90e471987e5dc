"""Golden digests of the synthetic generators, byte for byte.

``fixtures/datagen_golden.json`` holds the sha256 of seeded
``generate_process_list`` listings (both labels, under the default class
profiles, a 1,000-5,000-row profile shaped like the benchmark's bulk
listings, and a 40-80-row profile) and of ``dataset_to_csv`` applied to
seeded ``generate_dataset`` outputs, one of them with an empty class.  The
service demos and the benchmark build their inputs from these generators,
so any change in what a seed draws shows up here as a changed digest.

The fixture records behaviour; regenerate it only for an intended change:

    PYTHONPATH=src python tests/test_datagen_golden.py
"""

import hashlib
import json
from pathlib import Path

from proctriage.datagen import (
    ClassProfile,
    FeatureProfile,
    GenConfig,
    generate_dataset,
    generate_process_list,
)
from proctriage.features import Label, dataset_to_csv

FIXTURE = Path(__file__).parent / "fixtures" / "datagen_golden.json"
_USERS = FeatureProfile(min=2, max=17, mean=6.0, std=3.0)
PROFILES = {
    "default": None,
    "bulk": ClassProfile(FeatureProfile(1000, 5000, 3000, 1200), _USERS, correlation=0.5),
    "small": ClassProfile(FeatureProfile(40, 80, 60.0, 10.0), _USERS, correlation=0.5),
}
LISTING_SEEDS = (0, 1, 7, 1_000_003)
DATASETS = {
    "default": GenConfig(),
    "n117-seed9": GenConfig(n_safe=100, n_unsafe=17, seed=9),
    "no-safe": GenConfig(n_safe=0, n_unsafe=25, seed=3),
    "no-unsafe": GenConfig(n_safe=30, n_unsafe=0, seed=4),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests() -> dict:
    got = {}
    for name, profile in PROFILES.items():
        for label in (Label.TARGET, Label.SANDBOX):
            for seed in LISTING_SEEDS:
                text = generate_process_list(label, seed=seed, profile=profile)
                got[f"listing {name} {label.name.lower()} seed-{seed}"] = _sha256(text)
    for name, config in DATASETS.items():
        got[f"dataset {name}"] = _sha256(dataset_to_csv(generate_dataset(config)))
    return got


def test_generator_outputs_match_the_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = _digests()
    assert got.keys() == expected.keys()
    changed = [case for case in expected if got[case] != expected[case]]
    assert not changed, f"{len(changed)} generator outputs changed: {changed}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_digests(), indent=1) + "\n", encoding="utf-8")
    print(f"generator digests -> {FIXTURE}")
