"""Golden outputs of a trained tree, byte for byte.

``fixtures/tree_golden.json`` holds, for one seeded ``datagen`` dataset
and for an unbounded and a ``--max-depth 3`` tree trained on it by the
CLI: the ``model.json`` text, ``export-tree`` in ascii and in dot, and
the stdout of ``evaluate`` on the whole dataset.  The test replays the
same commands against the current code, so any change in how a tree is
grown, saved, loaded, rendered or scored shows up here as a changed byte.

The fixture records behaviour; regenerate it only for an intended change:

    PYTHONPATH=src python tests/test_tree_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from proctriage.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "tree_golden.json"
DATAGEN = ["--n-safe", "200", "--n-unsafe", "40", "--seed", "11"]
TREES = {"unbounded": [], "max-depth-3": ["--max-depth", "3"]}


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _outputs(work: Path, name: str) -> dict:
    data, model = str(work / "data.csv"), str(work / f"{name}.json")
    _cli("datagen", *DATAGEN, "--out", data)
    _cli("train", "--in", data, "--model", "dtree", *TREES[name], "--out", model)
    return {
        "model.json": Path(model).read_text(encoding="utf-8"),
        "ascii": _cli("export-tree", model, "--format", "ascii"),
        "dot": _cli("export-tree", model, "--format", "dot"),
        "evaluate": _cli("evaluate", model, "--in", data),
    }


@pytest.mark.parametrize("name", TREES)
def test_tree_outputs_match_the_fixture(tmp_path, name):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    got = _outputs(tmp_path, name)
    for output in expected:
        assert got[output] == expected[output], f"{name}: {output} changed"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        golden = {name: _outputs(Path(work), name) for name in TREES}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(TREES)} trees -> {FIXTURE}")
