"""The benchmark's three workloads.

``classify-fleet`` and ``ingest-bulk`` run the real server in its own
process and drive it over HTTP; ``train-offline`` runs the ``train``
subcommand in this process.  Every input comes from the ``datagen``
public API and the workload seed.  Each workload returns an
:class:`Outcome`: request counts, correctness problems, and either the
end-to-end metrics (untraced run) or the per-layer metrics (traced run).

The end-to-end metric names are shared by all workloads, because every
run must report every metric; the name each one has on a given workload
(``classify_rps``, ``submit_p95_ms``, ...) is in ``E2E_ALIASES`` and in
the printed table.  A per-layer metric whose layer a workload does not
call reads 0 on that workload.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from proctriage import cli
from proctriage import service as service_mod
from proctriage.ann import ann_from_dict, predict_ann
from proctriage.datagen import (
    ClassProfile,
    FeatureProfile,
    GenConfig,
    generate_dataset,
    generate_process_list,
)
from proctriage.dtree import predict_tree, tree_from_dict
from proctriage.features import Label, featurize, load_dataset, save_dataset, split_dataset
from proctriage.proclist import PS_UNIX, parse_process_list, serialize_process_list
from proctriage.service import SampleRecord, SampleStore, Service, ServiceConfig, record_to_dict

from loadgen import LoadResult, ServerProcess, closed_loop, vm_hwm_mb
from spans import Tracer

# nproc on the machine the benchmark was sized on; each host waits for
# its verdict before it sends again
CONNECTIONS = 2

# criterion 3 of the acceptance tests: held-out accuracy bars, and the
# learning rate it trains the network with (the CLI default of 0.1 leaves
# the 3-3-3-1 network predicting "safe" for every host)
TREE_ACCURACY_BAR = 0.90
ANN_ACCURACY_BAR = 0.85
ANN_LEARNING_RATE = "3.0"
ANN_EPOCHS = 500
TREE_MAX_DEPTH = 5

# one bulk-ingest row that no parser accepts: the pid cell is not a number
# in a tasklist listing, and a ps listing sees too few columns
MALFORMED_ROW = "?\t?\tmalformed"

SEEDED_EPOCH = 1_600_000_000.0

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# printed with the end-to-end metrics but not in the result: the tail
# follows the host's load phases more than the program (its quartile
# spread over ten runs reached 0.27 on ingest-bulk), so no bound holds it
PRINTED_ONLY_UNITS = {"slow_ms": "ms"}

# what each shared end-to-end metric is called on each workload.  On the
# HTTP workloads latency_ms is the median request and slow_ms the tail
# percentile.  A training round (one tree and one network train command)
# takes seconds, too few for a tail percentile with ten rounds beyond it,
# so on train-offline the two slots hold the time of each command
E2E_ALIASES = {
    "classify-fleet": {"ops_per_s": "classify_rps", "latency_ms": "classify_p50_ms",
                       "slow_ms": "classify_p95_ms"},
    "ingest-bulk": {"ops_per_s": "submit_rps", "latency_ms": "submit_p50_ms",
                    "slow_ms": "submit_p95_ms"},
    "train-offline": {"ops_per_s": "train_rounds_per_s", "latency_ms": "train_tree_ms",
                      "slow_ms": "train_ann_ms"},
}

# the tail percentile of both HTTP workloads.  p99 keeps ten samples
# beyond it on classify-fleet too, but moves even more with host load
TAIL_PERCENTILE = 95

PER_LAYER_UNITS = {
    "trace.latency_ms": "ms",
    "service.http_self_ms": "ms",
    "service.classify_ms": "ms",
    "service.submit_ms": "ms",
    "service.store_append_ms": "ms",
    "service.bytes_appended": "B",
    "service.store_reload_s": "s",
    "service.store_records": "count",
    "proclist.parse_ms": "ms",
    "proclist.parse_us_per_row": "us",
    "proclist.rows": "count",
    "proclist.warnings": "count",
    "features.featurize_us": "us",
    "features.load_dataset_s": "s",
    "dtree.predict_us": "us",
    "dtree.train_s": "s",
    "dtree.nodes": "count",
    "ann.predict_us": "us",
    "ann.train_s": "s",
    "ann.epoch_ms": "ms",
    "cli.evaluate_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones a smoke test."""

    fleet_safe: int = 324
    fleet_sandbox: int = 60
    bulk_listings: int = 32
    bulk_rows: FeatureProfile = FeatureProfile(min=1000, max=5000, mean=3000, std=1200)
    seeded_records: int = 10_000
    tree_samples: int = 38_400
    ann_samples: int = 3_840
    setup_repeats: int = 5
    reload_repeats: int = 3


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    # (name, value, unit, sample count or None) lines for the printed table
    table: list[tuple[str, float, str, int | None]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def add_requests(self, load: LoadResult) -> None:
        self.attempted += load.attempted
        self.failed += load.failed
        self.problems.extend(load.failures[:10])


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    src: Path
    sizes: Sizes = field(default_factory=Sizes)
    tracer: Tracer = field(init=False)

    def __post_init__(self):
        self.tracer = Tracer(enabled=self.trace)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _timings(fn, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _per_layer_zeros() -> dict[str, float]:
    return dict.fromkeys(PER_LAYER_UNITS, 0.0)


# ------------------------------------------------------------ training

TRAIN_COMMANDS = ("cli.train_tree", "cli.train_ann")


@dataclass(frozen=True)
class TrainJob:
    """One ``proctriage train`` command on a generated dataset CSV."""

    name: str
    samples: int
    seed: int
    csv: Path
    model: Path
    argv: list[str]

    def make_dataset(self) -> None:
        """Write the dataset CSV, safe and sandbox hosts at the paper's 324:60."""
        n_unsafe = self.samples * 60 // 384
        config = GenConfig(n_safe=self.samples - n_unsafe, n_unsafe=n_unsafe, seed=self.seed)
        save_dataset(generate_dataset(config), self.csv)

    def run(self, tracer: Tracer, request_id: str | None = None) -> int:
        with tracer.span(self.name, request_id), contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)


def _train_job(ctx: Context, name: str) -> TrainJob:
    if name == "cli.train_tree":
        samples, stem = ctx.sizes.tree_samples, "tree"
        flags = ["--model", "dtree", "--max-depth", str(TREE_MAX_DEPTH)]
    else:
        samples, stem = ctx.sizes.ann_samples, "ann"
        flags = ["--model", "ann", "--epochs", str(ANN_EPOCHS), "--lr", ANN_LEARNING_RATE]
    csv, model = ctx.work / f"{stem}.csv", ctx.work / f"{stem}.json"
    return TrainJob(name, samples, ctx.seed, csv, model,
                    ["train", "--in", str(csv), *flags, "--out", str(model)])


def _trace_training(tracer: Tracer) -> None:
    """Span the calls the train subcommand makes into each layer."""
    tracer.wrap(cli, "load_dataset", "features.load_dataset")
    tracer.wrap(cli, "train_tree", "dtree.train")
    tracer.wrap(cli, "train_ann", "ann.train")
    tracer.wrap(cli, "_evaluate_on", "cli.evaluate")


def _check_accuracy(job: TrainJob, out: Outcome) -> None:
    """Criterion 3's bar on the held-out split the train subcommand makes."""
    test = split_dataset(load_dataset(job.csv), 0.8, cli.DEFAULT_SEED)[1]
    doc = json.loads(job.model.read_text(encoding="utf-8"))
    if job.name == "cli.train_tree":
        tree, bar = tree_from_dict(doc), TREE_ACCURACY_BAR
        hits = sum(predict_tree(tree, s.features) == s.label for s in test.samples)
    else:
        net, bar = ann_from_dict(doc), ANN_ACCURACY_BAR
        hits = sum(predict_ann(net, s.features)[0] == s.label for s in test.samples)
    accuracy = hits / len(test)
    out.table.append((f"{job.name[4:]}_accuracy", accuracy, "share", len(test)))
    if accuracy < bar:
        out.problems.append(f"{job.name} held-out accuracy {accuracy:.4f} < {bar}")


def _training_layers(tracer: Tracer, pick, m: dict[str, float]) -> None:
    """Per-layer training figures; ``pick`` reduces per-request seconds to one."""
    m["features.load_dataset_s"] = pick("features.load_dataset")
    m["dtree.train_s"] = pick("dtree.train")
    m["ann.train_s"] = pick("ann.train")
    m["ann.epoch_ms"] = _ms(m["ann.train_s"]) / ANN_EPOCHS
    m["cli.evaluate_s"] = pick("cli.evaluate")


def _count_nodes(node: dict) -> int:
    if "left" not in node:
        return 1
    return 1 + _count_nodes(node["left"]) + _count_nodes(node["right"])


def _served_model(ctx: Context, name: str, out: Outcome) -> Path:
    """Train the model the server will load, as the offline job would."""
    job = _train_job(ctx, name)
    job.make_dataset()
    if ctx.trace:
        _trace_training(ctx.tracer)
    try:
        status = job.run(ctx.tracer, "setup")
    finally:
        ctx.tracer.restore()
    out.attempted += 1
    if status != 0:
        raise RuntimeError(f"{' '.join(job.argv)} exited with {status}")
    _check_accuracy(job, out)
    return job.model


# ---------------------------------------------------------------- HTTP

def _trace_service_layers(tracer: Tracer, svc: Service) -> None:
    """Span every call the service makes into parse, featurize, predict and the store."""
    tracer.wrap(service_mod, "parse_process_list", "proclist.parse")
    tracer.wrap(service_mod, "featurize", "features.featurize")
    tracer.wrap(service_mod, "predict_tree", "dtree.predict")
    tracer.wrap(service_mod, "predict_proba", "dtree.predict")
    tracer.wrap(service_mod, "predict_ann", "ann.predict")
    tracer.wrap(svc.store, "append", "service.store_append")


def _parse_counts(texts: list[str], out: dict[str, float]) -> None:
    rows = warnings = 0
    for text in texts:
        plist = parse_process_list(text)
        rows += len(plist.entries)
        warnings += len(plist.warnings)
    out["proclist.rows"] = float(rows)
    out["proclist.warnings"] = float(warnings)


def _layer_metrics(tracer: Tracer, route: str, rows: float, out: dict[str, float]) -> None:
    """Per-layer figures from one traced HTTP load plus one in-process replay."""
    http_p50 = tracer.median(f"http.{route}")
    inproc_p50 = tracer.median(f"service.{route}")
    parse_total = sum(tracer.per_request("proclist.parse").values())
    out["trace.latency_ms"] = _ms(http_p50)
    out["service.http_self_ms"] = _ms(http_p50 - inproc_p50)
    out[f"service.{route}_ms"] = _ms(inproc_p50)
    out["proclist.parse_ms"] = _ms(tracer.median("proclist.parse"))
    out["proclist.parse_us_per_row"] = parse_total * 1e6 / rows
    out["features.featurize_us"] = tracer.median("features.featurize") * 1e6
    out["dtree.predict_us"] = tracer.median("dtree.predict") * 1e6
    out["ann.predict_us"] = tracer.median("ann.predict") * 1e6


def _set_end_to_end(ctx: Context, out: Outcome, metrics: dict[str, float], ops: int,
                    setups: int) -> None:
    """Store the end-to-end metrics and put their lines, with sample counts,
    at the head of the table."""
    out.metrics = metrics
    aliases = E2E_ALIASES[ctx.workload]
    counts = {"setup_s": setups, "peak_rss_mb": None}
    units = E2E_UNITS | PRINTED_ONLY_UNITS
    out.table[:0] = [(aliases.get(name, name), value, units[name], counts.get(name, ops))
                     for name, value in metrics.items()]


def _http_end_to_end(ctx: Context, load: LoadResult, setup: list[float], rss_mb: float,
                     out: Outcome) -> None:
    lat = load.latencies_s
    _set_end_to_end(ctx, out, {
        "ops_per_s": len(lat) / load.elapsed_s,
        "latency_ms": _ms(statistics.median(lat)),
        "slow_ms": _ms(percentile(lat, TAIL_PERCENTILE)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }, ops=len(lat), setups=len(setup))


def _serve_and_load(ctx: Context, model_path: Path, data_dir: Path, route: str,
                    texts: list[str], check, out: Outcome) -> tuple[LoadResult, list[float], float]:
    """Start the server ``setup_repeats`` times, keep the last, and load it.

    Set-up time and peak memory are medians over the starts.  Memory is read
    once the server answers, before the load: the store keeps every record
    it holds in memory, so memory read after a timed load would grow with
    throughput.
    """
    rng = random.Random(ctx.seed)
    bodies = [t.encode("utf-8") for t in texts]
    orders = [rng.sample(range(len(bodies)), len(bodies)) for _ in range(CONNECTIONS)]
    server = ServerProcess(ctx.src, model_path, data_dir, ctx.work / "logs")
    setup, rss_mb = [], []
    with server:
        for k in range(ctx.sizes.setup_repeats):
            if k:
                server.stop()
            setup.append(server.start())
            rss_mb.append(server.peak_rss_mb())
        load = closed_loop(server.port, f"/v1/{route}", bodies, orders, check, ctx.seconds,
                           ctx.tracer, f"http.{route}")
    out.add_requests(load)
    return load, setup, statistics.median(rss_mb)


def classify_fleet(ctx: Context) -> Outcome:
    """Fleet-sized listings against the tree model, with an empty store."""
    sz = ctx.sizes
    labels = [Label.TARGET] * sz.fleet_safe + [Label.SANDBOX] * sz.fleet_sandbox
    texts = [generate_process_list(label, seed=ctx.seed * 1_000_003 + i)
             for i, label in enumerate(labels)]
    out = Outcome()
    model_path = _served_model(ctx, "cli.train_tree", out)
    reference = Service(ServiceConfig(data_dir=ctx.work / "reference", model_path=model_path))
    expected = [reference.classify(t) for t in texts]

    def check(i: int, doc: dict) -> str | None:
        if doc == expected[i]:
            return None
        return f"got {doc} where the in-process reference gives {expected[i]}"

    load, setup, rss_mb = _serve_and_load(ctx, model_path, ctx.work / "data", "classify",
                                          texts, check, out)
    if not ctx.trace:
        _http_end_to_end(ctx, load, setup, rss_mb, out)
        return out

    tracer = ctx.tracer
    _trace_service_layers(tracer, reference)
    try:
        for i, text in enumerate(texts):
            with tracer.span("service.classify", f"replay-{i}"):
                reference.classify(text)
    finally:
        tracer.restore()
    m = out.metrics = _per_layer_zeros()
    _parse_counts(texts, m)
    _layer_metrics(tracer, "classify", m["proclist.rows"], m)
    _training_layers(tracer, tracer.median, m)
    tree = json.loads(model_path.read_text(encoding="utf-8"))
    m["dtree.nodes"] = float(_count_nodes(tree["root"]))
    return out


def _bulk_listings(ctx: Context) -> list[str]:
    """Large listings, alternately tasklist and ps, each with one malformed row."""
    profile = ClassProfile(process_count=ctx.sizes.bulk_rows,
                           user_count=FeatureProfile(min=2, max=17, mean=6.0, std=3.0),
                           correlation=0.5)
    texts = []
    for k in range(ctx.sizes.bulk_listings):
        label = Label.SANDBOX if k % 4 == 3 else Label.TARGET
        text = generate_process_list(label, seed=ctx.seed * 1_000_003 + k, profile=profile)
        if k % 2:
            text = serialize_process_list(replace(parse_process_list(text), format=PS_UNIX))
        lines = text.splitlines()
        middle = len(lines) // 2
        texts.append("\n".join(lines[:middle] + [MALFORMED_ROW] + lines[middle:]) + "\n")
    return texts


def _seed_store(ctx: Context, samples_dir: Path, model) -> list[str]:
    """Write ``seeded_records`` stored submissions in the store's own line format."""
    pool = [generate_process_list(Label.SANDBOX if j % 6 == 5 else Label.TARGET,
                                  seed=ctx.seed * 1_000_003 + 500_000 + j)
            for j in range(256)]
    features = [featurize(parse_process_list(t)) for t in pool]
    predicted = [predict_ann(model, f) for f in features]
    samples_dir.mkdir(parents=True, exist_ok=True)
    ids, files = [], {}
    try:
        for i in range(ctx.sizes.seeded_records):
            j = i % len(pool)
            record = SampleRecord(
                id=f"{ctx.seed % 2**32:08x}{i:024x}",
                received_at=SEEDED_EPOCH + 60.0 * i,
                raw_text=pool[j],
                features=features[j],
                predicted=predicted[j],
                human_label=Label(j % 6 == 5) if i % 3 == 0 else None,
            )
            day = time.strftime("%Y%m%d", time.gmtime(record.received_at))
            if day not in files:
                files[day] = open(samples_dir / f"samples-{day}.jsonl", "w", encoding="utf-8")
            files[day].write(json.dumps(record_to_dict(record), separators=(",", ":")) + "\n")
            ids.append(record.id)
    finally:
        for fh in files.values():
            fh.close()
    return ids


def ingest_bulk(ctx: Context) -> Outcome:
    """Bulk submissions against the network model, into a pre-seeded store."""
    texts = _bulk_listings(ctx)
    out = Outcome()
    model_path = _served_model(ctx, "cli.train_ann", out)
    net = ann_from_dict(json.loads(model_path.read_text(encoding="utf-8")))
    samples_dir = ctx.work / "data" / "samples"
    seeded = _seed_store(ctx, samples_dir, net)
    reference = Service(ServiceConfig(data_dir=ctx.work / "reference", model_path=model_path))
    expected = [reference.classify(t) for t in texts]
    expected_warnings = [len(parse_process_list(t).warnings) for t in texts]
    acknowledged: list[str] = []

    def check(i: int, doc: dict) -> str | None:
        want = expected[i]
        got = (doc.get("verdict"), doc.get("label"), doc.get("probability"),
               doc.get("parse_warnings"))
        if got != (want["verdict"], want.get("label"), want["probability"],
                   expected_warnings[i]):
            return f"got {got} where the in-process reference gives {want}"
        acknowledged.append(doc["id"])
        return None

    reload_s = records = 0.0
    if ctx.trace:
        counts = []
        reload_s = statistics.median(_timings(lambda: counts.append(len(SampleStore(samples_dir))),
                                              ctx.sizes.reload_repeats))
        records = float(counts[-1])
    load, setup, rss_mb = _serve_and_load(ctx, model_path, ctx.work / "data", "submit",
                                          texts, check, out)

    reopened = SampleStore(samples_dir)
    lost_seeded = sum(1 for i in seeded if reopened.get(i) is None)
    lost_acked = sum(1 for i in acknowledged if reopened.get(i) is None)
    if lost_seeded or lost_acked:
        out.problems.append(f"store reopened without {lost_seeded} of {len(seeded)} seeded "
                            f"and {lost_acked} of {len(acknowledged)} acknowledged records")

    if not ctx.trace:
        _http_end_to_end(ctx, load, setup, rss_mb, out)
        return out

    tracer = ctx.tracer
    _trace_service_layers(tracer, reference)
    try:
        for i, text in enumerate(texts):
            with tracer.span("service.submit", f"replay-{i}"):
                reference.submit(text)
    finally:
        tracer.restore()
    # the reference store holds nothing but the replayed submissions
    appended = sum(p.stat().st_size
                   for p in (ctx.work / "reference" / "samples").glob("samples-*.jsonl"))
    m = out.metrics = _per_layer_zeros()
    _parse_counts(texts, m)
    _layer_metrics(tracer, "submit", m["proclist.rows"], m)
    m["service.store_append_ms"] = _ms(tracer.median("service.store_append"))
    m["service.bytes_appended"] = float(appended)
    m["service.store_reload_s"] = reload_s
    m["service.store_records"] = records
    _training_layers(tracer, tracer.median, m)
    return out


# ------------------------------------------------------- offline training

def train_offline(ctx: Context) -> Outcome:
    """``proctriage train`` for both models, in rounds, on generated CSVs.

    Training runs in one thread and is CPU-bound.  On a shared host the
    same command's time swings by 40% in phases of several seconds, with
    CPU time equal to wall time, so the median of a run follows the host's
    load.  Command times are therefore the fastest of the run, here and
    per layer in the traced run.
    """
    jobs = [_train_job(ctx, name) for name in TRAIN_COMMANDS]
    setup = _timings(lambda: [job.make_dataset() for job in jobs], ctx.sizes.setup_repeats)
    tracer = ctx.tracer
    if ctx.trace:
        _trace_training(tracer)
    out = Outcome()
    rounds = 0
    per_command: dict[str, list[float]] = {job.name: [] for job in jobs}
    try:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < ctx.seconds:
            for job in jobs:
                t0 = time.perf_counter()
                status = job.run(tracer, f"round-{rounds}")
                per_command[job.name].append(time.perf_counter() - t0)
                out.attempted += 1
                if status != 0:
                    out.failed += 1
                    out.problems.append(f"{' '.join(job.argv)} exited with {status}")
            rounds += 1
        elapsed = time.perf_counter() - start
    finally:
        tracer.restore()
    for job in jobs:
        _check_accuracy(job, out)

    if not ctx.trace:
        _set_end_to_end(ctx, out, {
            "ops_per_s": rounds / elapsed,
            "latency_ms": _ms(min(per_command["cli.train_tree"])),
            "slow_ms": _ms(min(per_command["cli.train_ann"])),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": vm_hwm_mb("self"),
        }, ops=rounds, setups=len(setup))
        return out

    m = out.metrics = _per_layer_zeros()
    m["trace.latency_ms"] = _ms(tracer.fastest("cli.train_tree"))
    _training_layers(tracer, tracer.fastest, m)
    tree = json.loads(jobs[0].model.read_text(encoding="utf-8"))
    m["dtree.nodes"] = float(_count_nodes(tree["root"]))
    return out


WORKLOADS = {
    "classify-fleet": classify_fleet,
    "ingest-bulk": ingest_bulk,
    "train-offline": train_offline,
}
