"""Import cost: NumPy loads only where arrays are computed.

Parsing, featurizing and a decision tree need no array maths, so neither
the package, the CLI commands that serve them, nor a service with a tree
imports NumPy.  A network document loads it on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from proctriage.ann import AnnConfig, ann_to_dict, init_network
from proctriage.dtree import TreeConfig, train_tree, tree_to_dict
from proctriage.features import FeatureVector, Label, LabeledDataset, LabeledSample, ScalerParams
from proctriage.service import Service, ServiceConfig

SRC = Path(__file__).resolve().parent.parent / "src"
LISTING = Path(__file__).resolve().parent / "fixtures" / "sandbox_host.txt"

# argv: tree model path, network model path, data directory, listing path
_SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path
import proctriage, proctriage.cli
from proctriage.cli import main
from proctriage.features import Label
from proctriage.service import Service, ServiceConfig

tree_path, ann_path, data_dir, listing = sys.argv[1:]
codes = []
for argv in (["parse", "--in", listing], ["featurize", "--in", listing],
             ["classify", tree_path, "--in", listing], ["export-tree", tree_path],
             ["export-tree", tree_path, "--format", "dot"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
text = Path(listing).read_text(encoding="utf-8")
svc = Service(ServiceConfig(data_dir=data_dir, model_path=tree_path))
tree_verdict = svc.classify(text)["verdict"]
record = svc.submit(text)
svc.label(record.id, Label.SANDBOX)
samples = len(svc.samples())
export_lines = len(svc.export_dataset().splitlines())
with_tree = "numpy" in sys.modules
svc.activate_model(json.loads(Path(ann_path).read_text(encoding="utf-8")))
print(json.dumps({"codes": codes, "tree": tree_verdict, "samples": samples,
                  "export_lines": export_lines, "numpy_with_tree": with_tree,
                  "ann": svc.classify(text), "numpy_with_ann": "numpy" in sys.modules}))
"""


def _tree_doc():
    rows = [(200, 1, Label.TARGET), (150, 1, Label.TARGET), (30, 3, Label.SANDBOX),
            (40, 4, Label.SANDBOX)]
    data = LabeledDataset(tuple(
        LabeledSample(FeatureVector.from_counts(pc, uc), lab) for pc, uc, lab in rows))
    return tree_to_dict(train_tree(data, TreeConfig(max_depth=3)))


def _ann_doc():
    model = init_network(AnnConfig(seed=0))
    model.scaler = ScalerParams(mins=(9.0, 1.0, 2.0), maxs=(305.0, 17.0, 305.0))
    return ann_to_dict(model)


def test_a_tree_is_served_without_numpy_and_a_network_loads_it(tmp_path):
    tree_path, ann_path = tmp_path / "tree.json", tmp_path / "ann.json"
    tree_path.write_text(json.dumps(_tree_doc()), encoding="utf-8")
    ann_path.write_text(json.dumps(_ann_doc()), encoding="utf-8")
    # the network's verdict in this process, where NumPy is loaded from the start
    svc = Service(ServiceConfig(data_dir=tmp_path / "here"))
    svc.activate_model(_ann_doc())
    expected = svc.classify(LISTING.read_text(encoding="utf-8"))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", _SCRIPT, str(tree_path), str(ann_path),
            str(tmp_path / "there"), str(LISTING)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["codes"] == [0, 0, 0, 0, 0]
    assert (got["tree"], got["samples"], got["export_lines"]) == ("sandbox", 1, 2)
    assert got["numpy_with_tree"] is False
    assert got["numpy_with_ann"] is True
    assert got["ann"] == expected
