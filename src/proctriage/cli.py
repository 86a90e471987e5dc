"""Command line front end.

One executable, ten subcommands, wiring the library into the usual
workflow: parse a listing, extract features, generate or summarize
datasets, split, train either model, evaluate, classify, export a tree,
or run the collection service.

Randomized subcommands default to seed 1337 so repeated casual runs
agree; pass --seed to change it.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .ann import AnnConfig, ann_to_dict, train_ann
from .datagen import GenConfig, generate_dataset
from .dtree import TreeConfig, export_tree, train_tree, tree_to_dict
from .errors import MalformedDatasetFile, ModelFormatError, TriageError
from .features import (
    FeatureVector,
    Label,
    compute_stats,
    dataset_to_csv,
    featurize,
    format_stats,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .metrics import evaluate_predictions, format_report
from .proclist import PS_UNIX, TASKLIST_TABULAR, ProcessList, parse_process_list
from .service import Model, ServiceConfig, load_model, read_model_file, run_service, verdict_doc

DEFAULT_SEED = 1337

# command-line format names to parser constants
_FORMAT_HINTS = {None: None, "tasklist": TASKLIST_TABULAR, "ps": PS_UNIX}
# the lines a --pred or --actual file may hold
_LABEL_LINES = {"0": Label.TARGET, "1": Label.SANDBOX}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_json(path: str, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _emit(args, doc, text: str) -> None:
    """Write ``doc`` as JSON to --out if given, else print ``text``."""
    if args.out:
        _write_json(args.out, doc)
    else:
        print(text, end="")


def _read_listing(args, fmt: str | None = None) -> ProcessList:
    """Parse the listing --in names (- for stdin)."""
    return parse_process_list(_read_text(args.infile), fmt=_FORMAT_HINTS[fmt],
                              strict=args.strict, source_id=args.infile)


def _features_line(v: FeatureVector) -> str:
    return f"{v.process_count},{v.user_count},{v.ratio!r}"


def _evaluate_on(model: Model, dataset):
    preds, probs = zip(*(model.predict(s.features) for s in dataset.samples))
    return evaluate_predictions(list(preds), [s.label for s in dataset.samples], list(probs))


# subcommand handlers

def _cmd_parse(args) -> None:
    plist = _read_listing(args, args.format)
    doc = {
        "format": plist.format,
        "warnings": list(plist.warnings),
        "entries": [asdict(e) for e in plist.entries],
    }
    lines = [f"{'PID':>6} {'PPID':>6} {'ARCH':<7} {'SESS':>4}  {'NAME':<36} OWNER"]
    for e in plist.entries:
        sess = "-" if e.session is None else str(e.session)
        lines.append(f"{e.pid:>6} {e.ppid:>6} {e.arch:<7} {sess:>4}  {e.name:<36} {e.owner or '-'}")
    lines += ["", f"{len(plist.entries)} entries, {len(plist.warnings)} skipped rows"]
    _emit(args, doc, "\n".join(lines) + "\n")


def _cmd_featurize(args) -> None:
    v = featurize(_read_listing(args, args.format))
    _emit(args, v.to_dict(), _features_line(v) + "\n")


def _cmd_stats(args) -> None:
    stats = compute_stats(load_dataset(args.infile))
    _emit(args, stats, format_stats(stats))


def _cmd_datagen(args) -> None:
    config = GenConfig(n_safe=args.n_safe, n_unsafe=args.n_unsafe, seed=args.seed)
    data = generate_dataset(config)
    if args.out:
        save_dataset(data, args.out)
        print(f"{len(data)} samples -> {args.out}")
    else:
        print(dataset_to_csv(data), end="")


def _cmd_split(args) -> None:
    data = load_dataset(args.infile)
    train, test = split_dataset(data, args.train_fraction, args.seed,
                                stratified=args.stratified)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_dataset(train, out / "train.csv")
        save_dataset(test, out / "test.csv")
        print(f"train: {len(train)} samples -> {out / 'train.csv'}")
        print(f"test:  {len(test)} samples -> {out / 'test.csv'}")
    else:
        print(f"train: {len(train)} samples {train.class_counts()}")
        print(f"test:  {len(test)} samples {test.class_counts()}")


def _cmd_train(args) -> None:
    data = load_dataset(args.infile)
    train, test = split_dataset(data, args.train_fraction, args.seed)
    if args.model == "dtree":
        model = train_tree(train, TreeConfig(max_depth=args.max_depth))
        doc = tree_to_dict(model)
    else:
        config = AnnConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
        model, history = train_ann(train, config)
        doc = ann_to_dict(model)
        history_path = Path(args.out).with_suffix(".history.csv")
        lines = ["epoch,bce,mse"]
        lines += [f"{i + 1},{b!r},{m!r}" for i, (b, m) in
                  enumerate(zip(history.bce, history.mse))]
        _write_text(str(history_path), "\n".join(lines) + "\n")
        print(f"loss history -> {history_path}")
    _write_json(args.out, doc)
    print(f"model -> {args.out}")
    report = _evaluate_on(load_model(doc), test)
    print()
    print(format_report(report), end="")


def _probability(text: str) -> float:
    """A --probs line: a number from 0 to 1."""
    if not 0.0 <= (p := float(text)) <= 1.0:
        raise ValueError(text)
    return p


def _read_values(path: str, parse, complaint: str) -> list:
    """One value per non-blank line; ``complaint`` formats the first bad line."""
    values = []
    for line_no, line in enumerate(_read_text(path).splitlines(), 1):
        if line := line.strip():
            try:
                values.append(parse(line))
            except (KeyError, ValueError):
                raise MalformedDatasetFile(line_no, complaint.format(line)) from None
    return values


def _cmd_evaluate(args) -> None:
    if (args.model_file or args.infile) and (args.pred or args.actual or args.probs):
        raise MalformedDatasetFile(0, "MODEL and --in do not mix with --pred, --actual or --probs")
    if args.pred or args.actual:
        if not (args.pred and args.actual):
            raise MalformedDatasetFile(0, "--pred and --actual go together")
        preds, actual = (_read_values(path, _LABEL_LINES.__getitem__,
                                      "expected 0 or 1, got {!r}")
                         for path in (args.pred, args.actual))
        probs = (_read_values(args.probs, _probability, "not a number from 0 to 1: {!r}")
                 if args.probs else None)
        report = evaluate_predictions(preds, actual, probs)
    else:
        if not (args.model_file and args.infile):
            raise MalformedDatasetFile(0, "need MODEL and --in DATASET, or --pred/--actual")
        report = _evaluate_on(read_model_file(args.model_file), load_dataset(args.infile))
    _emit(args, report, format_report(report))


def _cmd_classify(args) -> None:
    model = read_model_file(args.model_file)
    v = featurize(_read_listing(args))
    doc = verdict_doc(model.predict(v), features=v.to_dict())
    _emit(args, doc, f"{doc['verdict']} p={doc['probability']:.4f} "
                     f"features={_features_line(v)}\n")


def _cmd_export_tree(args) -> None:
    model = read_model_file(args.model_file)
    if model.kind != "dtree":
        raise ModelFormatError("export-tree works on dtree-v1 models only")
    text = export_tree(model.model, style=args.format)
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")


def _listen_address(text: str) -> tuple[str, int]:
    """HOST:PORT as (host, port); a port not in ASCII digits 0-65535 is a usage error."""
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdecimal()) or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"port must be an integer from 0 to 65535: {text!r}")
    return host or ServiceConfig.host, int(port)


def _cmd_serve(args) -> None:
    host, port = args.listen
    config = ServiceConfig(data_dir=args.data_dir, host=host, port=port, token=args.token,
                           strict=args.strict, model_path=args.model_file)
    run_service(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proctriage",
        description="Process-list triage: features, models, metrics, service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        return p

    p = add("parse", _cmd_parse, "parse a process listing")
    p.add_argument("--in", dest="infile", default="-", help="listing file, - for stdin")
    p.add_argument("--format", choices=["tasklist", "ps"], default=None,
                   help="skip autodetection")
    p.add_argument("--strict", action="store_true", help="fail on any malformed row")
    p.add_argument("--out", help="write entries as JSON instead of a table")

    p = add("featurize", _cmd_featurize, "extract process_count,user_count,ratio")
    p.add_argument("--in", dest="infile", default="-", help="listing file, - for stdin")
    p.add_argument("--format", choices=["tasklist", "ps"], default=None)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", help="write the feature vector as JSON")

    p = add("stats", _cmd_stats, "per-class feature statistics of a dataset CSV")
    p.add_argument("--in", dest="infile", required=True, help="dataset CSV")
    p.add_argument("--out", help="write stats as JSON instead of a table")

    p = add("datagen", _cmd_datagen, "generate a synthetic dataset")
    p.add_argument("--n-safe", type=int, default=GenConfig.n_safe)
    p.add_argument("--n-unsafe", type=int, default=GenConfig.n_unsafe)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="dataset CSV path (stdout otherwise)")

    p = add("split", _cmd_split, "split a dataset into train/test CSVs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--out", help="directory for train.csv and test.csv")

    p = add("train", _cmd_train, "split, fit, and evaluate a model")
    p.add_argument("--in", dest="infile", required=True, help="dataset CSV")
    p.add_argument("--model", choices=["dtree", "ann"], default="dtree")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-depth", type=int, default=TreeConfig.max_depth, help="dtree only")
    p.add_argument("--epochs", type=int, default=AnnConfig.epochs, help="ann only")
    p.add_argument("--lr", type=float, default=AnnConfig.learning_rate, help="ann only")
    p.add_argument("--out", required=True, help="model JSON path")

    p = add("evaluate", _cmd_evaluate, "score a model or raw prediction files")
    p.add_argument("model_file", nargs="?", help="model JSON (with --in)")
    p.add_argument("--in", dest="infile", help="labeled dataset CSV")
    p.add_argument("--pred", help="file with one predicted label per line")
    p.add_argument("--actual", help="file with one true label per line")
    p.add_argument("--probs", help="file with one probability per line")
    p.add_argument("--out", help="write the report as JSON")

    p = add("classify", _cmd_classify, "verdict for one listing under a model")
    p.add_argument("model_file", help="model JSON")
    p.add_argument("--in", dest="infile", default="-", help="listing file, - for stdin")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", help="write the verdict as JSON")

    p = add("export-tree", _cmd_export_tree, "render a tree model as text")
    p.add_argument("model_file", help="dtree-v1 model JSON")
    p.add_argument("--format", choices=["ascii", "dot"], default="ascii")
    p.add_argument("--out", help="output path (stdout otherwise)")

    p = add("serve", _cmd_serve, "run the collection/classification service")
    p.add_argument("model_file", nargs="?", help="model JSON to activate at start")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--listen", default=(ServiceConfig.host, ServiceConfig.port),
                   type=_listen_address, help="HOST:PORT, port 0 for any")
    p.add_argument("--token", default=None, help="require this bearer token")
    p.add_argument("--strict", action="store_true", help="reject unparseable submissions")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (TriageError, OSError, UnicodeDecodeError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        # an option the config and split checks refuse, such as --epochs 0
        print(f"proctriage {args.command}: error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
