"""Import cost: NumPy loads only where arrays are computed.

Parsing, featurizing and scoring one listing need no array maths: a tree
is a descent and a network's one row runs in plain floats.  So neither the
package, the CLI commands that parse, classify or export, nor a service
with either model imports NumPy.  Generating data, training and the batch
forward pass load it on first use.
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

# The network's answers from a service that serves a tree: the CLI's classify, then
# activate, classify, submit (its reply but the id), label and export (the row but the
# id), and a second network's classify.  Run here, where NumPy is loaded, and in
# _SCRIPT's process, where it must not be.
_ANSWERS = r"""
import contextlib, io, json
from pathlib import Path
from proctriage.cli import main
from proctriage.features import Label
from proctriage.service import submit_response

def answers(svc, ann_path, ann2_path, listing, out):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["classify", ann_path, "--in", listing, "--out", out])
    text = Path(listing).read_text(encoding="utf-8")
    svc.activate_model(json.loads(Path(ann_path).read_text(encoding="utf-8")))
    ann = svc.classify(text)
    record = svc.submit(text)
    submitted = {k: v for k, v in submit_response(record).items() if k != "id"}
    svc.label(record.id, Label.TARGET)
    export = svc.export_dataset().splitlines()[-1].rsplit(",", 1)[0]
    svc.activate_model(json.loads(Path(ann2_path).read_text(encoding="utf-8")))
    return {"cli": [code, json.loads(Path(out).read_text(encoding="utf-8"))], "ann": ann,
            "submitted": submitted, "export": export, "ann2": svc.classify(text)}
"""

# argv: tree model path, two network model paths, data directory, listing path, and
# a path for the CLI's --out
_SCRIPT = _ANSWERS + r"""
import sys
import proctriage, proctriage.cli
from proctriage.service import Service, ServiceConfig

tree_path, ann_path, ann2_path, data_dir, listing, out = sys.argv[1:]
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
print(json.dumps({"codes": codes, "tree": tree_verdict, "samples": samples,
                  "export_lines": export_lines, "numpy_with_tree": with_tree,
                  **answers(svc, ann_path, ann2_path, listing, out),
                  "numpy_with_ann": "numpy" in sys.modules}))
"""


def _tree_doc():
    rows = [(200, 1, Label.TARGET), (150, 1, Label.TARGET), (30, 3, Label.SANDBOX),
            (40, 4, Label.SANDBOX)]
    data = LabeledDataset(tuple(
        LabeledSample(FeatureVector.from_counts(pc, uc), lab) for pc, uc, lab in rows))
    return tree_to_dict(train_tree(data, TreeConfig(max_depth=3)))


def _ann_doc(seed=0, scaled=True):
    model = init_network(AnnConfig(seed=seed))
    if scaled:
        model.scaler = ScalerParams(mins=(9.0, 1.0, 2.0), maxs=(305.0, 17.0, 305.0))
    return ann_to_dict(model)


def test_neither_model_loads_numpy_to_serve(tmp_path):
    paths = [tmp_path / name for name in ("tree.json", "ann.json", "ann2.json")]
    for path, doc in zip(paths, (_tree_doc(), _ann_doc(), _ann_doc(seed=1, scaled=False))):
        path.write_text(json.dumps(doc), encoding="utf-8")
    # the network's answers in this process, where NumPy is loaded from the start
    assert "numpy" in sys.modules
    scope = {}
    exec(_ANSWERS, scope)
    here = Service(ServiceConfig(data_dir=tmp_path / "here", model_path=paths[0]))
    expected = scope["answers"](here, *map(str, paths[1:]), str(LISTING),
                                str(tmp_path / "here.json"))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", _SCRIPT, *map(str, paths), str(tmp_path / "there"),
            str(LISTING), str(tmp_path / "there.json")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["codes"] == [0, 0, 0, 0, 0]
    assert (got["tree"], got["samples"], got["export_lines"]) == ("sandbox", 1, 2)
    assert got["numpy_with_tree"] is False
    assert got["numpy_with_ann"] is False
    assert {k: got[k] for k in expected} == expected
    assert expected["cli"][0] == 0 and expected["ann"]["probability"] is not None
