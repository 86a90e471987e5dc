"""Synthetic data matching the per-class feature statistics.

Two generators live here.  `generate_dataset` draws feature vectors
directly from per-class profiles (clamped normals for process and user
counts, correlated through a Gaussian copula, ratio always derived).
`generate_process_list` goes one level
lower and fabricates a whole tasklist-style listing whose extracted
features follow the same profile, which is what the service and parser
demos feed on.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .features import FeatureVector, Label, LabeledDataset, LabeledSample
from .proclist import (
    ARCH_X64,
    ARCH_X86,
    TASKLIST_TABULAR,
    ProcessEntry,
    ProcessList,
    serialize_process_list,
)

if TYPE_CHECKING:  # NumPy loads with the first draw
    import numpy as np

SYNTHETIC_ORIGIN = "synthetic"


@dataclass(frozen=True)
class FeatureProfile:
    """Clamped-normal profile for one integer feature."""

    min: int
    max: int
    mean: float
    std: float

    def __post_init__(self):
        if self.min > self.max:
            raise ValueError(f"min {self.min} exceeds max {self.max}")
        if self.std < 0:
            raise ValueError("negative std")


@dataclass(frozen=True)
class ClassProfile:
    """Marginal profiles for one class plus their joint correlation.

    The published statistics are marginal only; hosts plainly do not
    draw the two counts independently (busier machines carry more
    distinct accounts), so the joint is a Gaussian copula with the given
    correlation between the underlying normals.  The marginals are
    untouched by it.
    """

    process_count: FeatureProfile
    user_count: FeatureProfile
    correlation: float = 0.0

    def __post_init__(self):
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError("correlation outside [-1, 1]")


SAFE_PROFILE = ClassProfile(
    process_count=FeatureProfile(min=9, max=305, mean=89.2, std=60.7),
    user_count=FeatureProfile(min=1, max=17, mean=2.5, std=1.8),
    correlation=0.8,
)

UNSAFE_PROFILE = ClassProfile(
    process_count=FeatureProfile(min=11, max=56, mean=30.6, std=11.65),
    user_count=FeatureProfile(min=1, max=4, mean=2.9, std=1.0),
    correlation=0.3,
)


@dataclass(frozen=True)
class GenConfig:
    n_safe: int = 324
    n_unsafe: int = 60
    seed: int = 0

    def __post_init__(self):
        # exactly int, as in TreeConfig and AnnConfig: a bool, 1.5 or 3.0 is refused
        if any(type(n) is not int for n in (self.n_safe, self.n_unsafe, self.seed)):
            raise ValueError("n_safe, n_unsafe and seed must be integers")
        if self.n_safe < 0 or self.n_unsafe < 0:
            raise ValueError("negative sample count")
        if self.n_safe + self.n_unsafe < 1:
            raise ValueError("nothing to generate")
        if self.seed < 0:  # NumPy's generator refuses it, with its own message
            raise ValueError("seed must be an integer >= 0")


def _draw_counts(rng: np.random.Generator, profile: ClassProfile,
                 n: int) -> tuple[list[int], list[int]]:
    """``n`` process counts and ``n`` user counts drawn from the class joint."""
    import numpy as np
    pcp, ucp, rho = profile.process_count, profile.user_count, profile.correlation
    z = rng.standard_normal((n, 2))  # per draw, the same two normals as two scalar calls
    pc = np.clip(np.rint(pcp.mean + pcp.std * z[:, 0]), pcp.min, pcp.max)
    z2 = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]
    uc = np.clip(np.rint(ucp.mean + ucp.std * z2), ucp.min, np.minimum(ucp.max, pc))
    return pc.astype(int).tolist(), uc.astype(int).tolist()


def _draw_class(rng, profile: ClassProfile, n: int, label: Label):
    return [LabeledSample(features=FeatureVector.from_counts(pc, uc), label=label,
                          origin=SYNTHETIC_ORIGIN)
            for pc, uc in zip(*_draw_counts(rng, profile, n))]


def generate_dataset(config: GenConfig | None = None) -> LabeledDataset:
    """Draw a labeled dataset, safe samples first, then unsafe."""
    import numpy as np
    config = config or GenConfig()
    rng = np.random.default_rng(config.seed)
    samples = _draw_class(rng, SAFE_PROFILE, config.n_safe, Label.TARGET)
    samples += _draw_class(rng, UNSAFE_PROFILE, config.n_unsafe, Label.SANDBOX)
    return LabeledDataset(samples=tuple(samples))


_SERVICE_OWNERS = (
    r"NT AUTHORITY\SYSTEM",
    r"NT AUTHORITY\LOCAL SERVICE",
    r"NT AUTHORITY\NETWORK SERVICE",
)

_USER_OWNER_POOL = tuple(rf"CORP\user{i:02d}" for i in range(1, 15))

_NAME_POOL = (
    "smss.exe", "csrss.exe", "wininit.exe", "services.exe", "lsass.exe",
    "svchost.exe", "svchost.exe", "svchost.exe", "winlogon.exe",
    "explorer.exe", "spoolsv.exe", "taskhostw.exe", "dwm.exe",
    "SearchIndexer.exe", "RuntimeBroker.exe", "conhost.exe", "ctfmon.exe",
    "chrome.exe", "chrome.exe", "OUTLOOK.EXE", "EXCEL.EXE", "WINWORD.EXE",
    "Teams.exe", "OneDrive.exe", "sqlservr.exe", "w3wp.exe", "java.exe",
    "powershell.exe", "cmd.exe", "notepad.exe",
)

_PID_POOL = range(4, 32768, 4)  # Windows pids are multiples of 4


def generate_process_list(label: Label, seed: int = 0,
                          profile: ClassProfile | None = None) -> str:
    """Fabricate a tasklist-style listing for one host of the given class.

    The listing parses cleanly and its features land inside the class
    profile: process count and distinct-owner count are drawn exactly the
    way `generate_dataset` draws them, then enough named entries are laid
    down to realize those counts.  A profile whose ``user_count.max`` is
    over the 17 owners a listing can show, or whose ``process_count.max``
    is over the 8,191 pids it can draw, raises ``ValueError``.
    """
    if profile is None:
        profile = SAFE_PROFILE if label == Label.TARGET else UNSAFE_PROFILE
    owners_known = len(_SERVICE_OWNERS) + len(_USER_OWNER_POOL)
    if profile.user_count.max > owners_known:
        raise ValueError(f"user_count.max {profile.user_count.max} exceeds the "
                         f"{owners_known} distinct owners a generated listing can show")
    if profile.process_count.max > len(_PID_POOL):
        raise ValueError(f"process_count.max {profile.process_count.max} exceeds the "
                         f"{len(_PID_POOL)} distinct pids a generated listing can draw")
    import numpy as np
    rng = np.random.default_rng(seed)
    (pc,), (uc,) = _draw_counts(rng, profile, 1)

    if label == Label.SANDBOX:
        # analysis VMs run the sample elevated, so every owner is visible:
        # the NT AUTHORITY accounts plus the analyst user
        uc = max(2, uc)
        owners = list(_SERVICE_OWNERS[:uc - 1])
        extra = uc - len(owners)
        owners.extend(str(o) for o in rng.choice(_USER_OWNER_POOL, size=extra,
                                                 replace=False))
        blank_share = 0.0
    else:
        # a workstation listing taken as a normal user shows blank owners
        # on most rows, one corporate account, and a few service accounts
        owners = [str(rng.choice(_USER_OWNER_POOL))]
        pool = list(_SERVICE_OWNERS) + [o for o in _USER_OWNER_POOL if o != owners[0]]
        owners.extend(pool[:uc - 1])
        blank_share = 0.6

    entries = [ProcessEntry(pid=0, ppid=0, name="[System Process]")]
    # the indices choice(_PID_POOL) would draw, from the same random stream
    pids = [_PID_POOL[i] for i in rng.choice(len(_PID_POOL), size=pc, replace=False)]
    for i in range(pc):
        # every distinct owner appears at least once, the rest mix
        # random owners with blank rows per the class template
        if i < uc:
            owner = owners[i]
        elif rng.random() < blank_share:
            owner = None
        else:
            owner = owners[int(rng.integers(uc))]
        svc = owner in _SERVICE_OWNERS
        entries.append(ProcessEntry(
            pid=pids[i],
            ppid=pids[int(rng.integers(i))] if i else 4,
            name=str(rng.choice(_NAME_POOL)),
            arch=ARCH_X64 if rng.random() < 0.85 else ARCH_X86,
            session=0 if svc else 1,
            owner=owner,
        ))
    plist = ProcessList(entries=tuple(entries), format=TASKLIST_TABULAR)
    return serialize_process_list(plist)
