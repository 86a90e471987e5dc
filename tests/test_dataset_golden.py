"""Golden outputs of the dataset commands, byte for byte.

``fixtures/dataset_golden.json`` holds, for two seeded ``datagen``
datasets: the stdout of ``split`` and ``split --stratified``, with and
without ``--out`` (and the ``train.csv`` and ``test.csv`` it writes), and
``stats`` as a table and as its ``--out`` JSON.  The test replays the same
commands against the current code, so any change in how a dataset is
split or summarized shows up here as a changed byte.

The fixture records behaviour; regenerate it only for an intended change:

    PYTHONPATH=src python tests/test_dataset_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from proctriage.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "dataset_golden.json"
SEEDS = {"seed-5": ["--n-safe", "70", "--n-unsafe", "13", "--seed", "5"],
         "seed-23": ["--n-safe", "41", "--n-unsafe", "29", "--seed", "23"]}
SPLITS = {"plain": ["--train-fraction", "0.7"],
          "stratified": ["--train-fraction", "0.7", "--stratified"]}


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _outputs(work: Path, name: str) -> dict:
    data, stats = str(work / f"{name}.csv"), work / f"{name}.stats.json"
    seed = SEEDS[name][-1]
    _cli("datagen", *SEEDS[name], "--out", data)
    got = {"stats": _cli("stats", "--in", data)}
    _cli("stats", "--in", data, "--out", str(stats))
    got["stats --out"] = stats.read_text(encoding="utf-8")
    for mode, argv in SPLITS.items():
        out = work / f"{name}-{mode}"
        got[f"split {mode}"] = _cli("split", "--in", data, *argv, "--seed", seed)
        # the directory is in the printed paths: keep only the file names
        printed = _cli("split", "--in", data, *argv, "--seed", seed, "--out", str(out))
        got[f"split {mode} --out"] = printed.replace(str(out), "OUT")
        for part in ("train.csv", "test.csv"):
            got[f"split {mode} {part}"] = (out / part).read_text(encoding="utf-8")
    return got


@pytest.mark.parametrize("name", SEEDS)
def test_dataset_outputs_match_the_fixture(tmp_path, name):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    got = _outputs(tmp_path, name)
    assert got.keys() == expected.keys()
    for output in expected:
        assert got[output] == expected[output], f"{name}: {output} changed"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        golden = {name: _outputs(Path(work), name) for name in SEEDS}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(SEEDS)} datasets -> {FIXTURE}")
