"""Collection and classification service.

Hosts post raw process listings; each submission is appended to a
JSON-lines log before the response goes out, then scored against the
active model (tree or neural net) when one is loaded.  Humans label
records after the fact and export the labeled slice as a dataset CSV.
The verdict is the whole response; nothing is ever served back to the
submitting host beyond it.

Persistence is deliberately plain: one JSONL file per UTC day, each line
a full snapshot of one record, newest snapshot winning at reload.  An
in-memory index is rebuilt by scanning the log at startup, which is
cheap at the volumes this service sees.
"""
from __future__ import annotations

import hashlib
import hmac
import json
import logging
import os
import re
import threading
import time
import uuid
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from .ann import ANN_SCHEMA_VERSION, NeuralNetModel, ann_from_dict, predict_ann
from .dtree import (
    TREE_SCHEMA_VERSION,
    DecisionTreeModel,
    predict_proba,
    predict_tree,
    tree_from_dict,
)
from .errors import ModelFormatError, TriageError
from .features import (
    FEATURE_NAMES,
    FeatureVector,
    Label,
    LabeledDataset,
    LabeledSample,
    _number,
    _typed,
    _whole,
    dataset_to_csv,
    featurize,  # noqa: F401
    featurize_text,
)
# unused here, but the traced benchmark replay wraps these two names in this module
from .proclist import parse_process_list  # noqa: F401

logger = logging.getLogger(__name__)

MODEL_FILENAME = "model.json"
VERDICT_DISPLAY = {Label.TARGET: "safe", Label.SANDBOX: "sandbox"}
# refused with 413; the largest listing the service expects is well under 1 MiB
MAX_BODY_BYTES = 16 * 1024 * 1024
# a record id the label route can address; the service issues uuid4 hex ids
_RECORD_ID = re.compile(r"[0-9a-fA-F-]+")


@dataclass(frozen=True)
class Model:
    """A validated model document of either schema behind one interface.

    ``predict(features)`` returns (label, sandbox probability).
    """

    kind: str                                   # "dtree" or "ann"
    model: DecisionTreeModel | NeuralNetModel
    model_id: str                               # sha256 prefix of ``document``
    document: str                               # canonical JSON, as persisted
    predict: Callable[[FeatureVector], tuple[Label, float]] = field(repr=False)
    details: dict = field(repr=False)           # version, then that schema's fields


def load_model(doc) -> Model:
    """Validate a model document; the one place that tells the schemas apart.

    The predictors are looked up in this module at call time, so a
    wrapper installed on ``predict_*`` here sees every prediction.
    """
    version = doc.get("version") if isinstance(doc, dict) else None
    if version == TREE_SCHEMA_VERSION:
        kind, model = "dtree", tree_from_dict(doc)
        info = {"feature_names": list(FEATURE_NAMES), "n_samples": model.root["n_samples"]}
        predict = lambda v: (predict_tree(model, v), predict_proba(model, v))  # noqa: E731
    elif version == ANN_SCHEMA_VERSION:
        kind, model = "ann", ann_from_dict(doc, arrays=False)  # plain floats: no NumPy served
        info = {"layer_sizes": list(model.layer_sizes)}
        predict = lambda v: predict_ann(model, v)  # noqa: E731
    else:
        raise ModelFormatError(f"unsupported model version {version!r}")
    document = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    model_id = hashlib.sha256(document.encode("utf-8")).hexdigest()[:16]
    return Model(kind, model, model_id, document, predict, {"version": version, **info})


def read_model_file(path: str | Path) -> Model:
    """Load a model JSON file; text that is not JSON is a ModelFormatError too."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()  # text that is not UTF-8 raises UnicodeDecodeError here
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # also an integer longer than int() reads
        raise ModelFormatError(f"{path}: not valid JSON ({err})") from None
    return load_model(doc)


def verdict_doc(predicted: tuple[Label, float] | None, **fields) -> dict:
    """Response fields for a verdict: verdict, probability, ``fields``, then
    label when a model scored the listing."""
    doc = {"verdict": None, "probability": None, **fields}
    if predicted is not None:
        label, prob = predicted
        doc.update(verdict=VERDICT_DISPLAY[label], probability=prob, label=int(label))
    return doc


@dataclass(frozen=True)
class SampleRecord:
    """One submitted listing, as persisted.

    `features` is present iff the listing parsed and featurized;
    `predicted` only if a model was active at ingest.
    """

    id: str
    received_at: float
    raw_text: str
    features: FeatureVector | None = None
    predicted: tuple[Label, float] | None = None
    human_label: Label | None = None
    parse_warnings: int = 0

    def __post_init__(self):
        if not self.id:
            raise ValueError("empty record id")
        if self.parse_warnings < 0:
            raise ValueError("negative warning count")


def record_to_dict(record: SampleRecord) -> dict:
    doc = {
        "id": record.id,
        "received_at": record.received_at,
        "raw_text": record.raw_text,
        "features": None if record.features is None else record.features.to_dict(),
        "predicted": None,
        "human_label": None if record.human_label is None else int(record.human_label),
        "parse_warnings": record.parse_warnings,
    }
    if record.predicted is not None:
        label, prob = record.predicted
        doc["predicted"] = {"label": int(label), "probability": prob}
    return doc


def _day(received_at: float) -> str:
    """The UTC day that names a record's file; raises for a time it cannot name."""
    return time.strftime("%Y%m%d", time.gmtime(received_at))


def record_from_dict(doc: dict, text: bool = True) -> SampleRecord:
    """A stored record; one the service could not label or reply with raises.
    Without ``text`` the listing is checked but left out (``raw_text`` is "")."""
    doc = _typed(doc, dict)
    record_id = _typed(doc["id"], str)
    if not _RECORD_ID.fullmatch(record_id):
        raise ValueError(f"record id {record_id!r} is not one the label route can address")
    raw_text = _typed(doc["raw_text"], str)  # GET /v1/samples serves it as the submitted listing
    features, predicted = doc.get("features"), doc.get("predicted")
    human_label = doc.get("human_label")
    received_at = _number(doc["received_at"])
    _day(received_at)  # append names the day file by it
    if predicted is not None:
        predicted = _typed(predicted, dict)
        label, prob = Label(_whole(predicted["label"])), _number(predicted["probability"])
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"probability {prob!r} is not from 0 to 1")
        predicted = label, prob
    return SampleRecord(
        id=record_id,
        received_at=received_at,
        raw_text=raw_text if text else "",
        features=None if features is None else FeatureVector.from_dict(features),
        predicted=predicted,
        human_label=None if human_label is None else Label(_whole(human_label)),
        parse_warnings=_whole(doc.get("parse_warnings", 0)),
    )


def _fsync_dir(path: Path) -> None:
    """Make a file created or renamed in ``path`` survive a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SampleStore:
    """Append-only JSONL store with an in-memory index.

    Appends are serialized by a lock and fsynced before the caller is
    told the record exists; updates append a fresh full snapshot rather
    than rewriting history.  A day file left ending in a torn line by a
    crash gets a newline before its next record, so the fragment stays
    one unreadable row and the new record a readable one.

    The index holds each record's newest snapshot without its listing,
    and where that snapshot's line sits in its day file; ``get`` and
    ``records`` read the whole snapshot back from the line.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # id -> (snapshot with raw_text "", day file name, line offset, line length);
        # keeps first-submission order: re-assigning an id keeps its place
        self._records: dict[str, tuple[SampleRecord, str, int, int]] = {}
        self._reload()

    def _reload(self) -> None:
        for path in sorted(self.root.glob("samples-*.jsonl")):
            with open(path, "rb") as fh:
                end = 0
                for line_no, line in enumerate(fh, 1):
                    offset, end = end, end + len(line)
                    try:
                        text = line.decode("utf-8")
                        if text.isspace():
                            continue
                        record = record_from_dict(json.loads(text), text=False)
                    except (KeyError, ValueError, OverflowError, OSError, RecursionError):
                        # torn trailing write or manual edit; keep serving.  OverflowError or
                        # OSError: a time gmtime cannot hold, or counts too big for their ratio
                        logger.warning("%s:%d unreadable row skipped", path.name, line_no)
                        continue
                    self._records[record.id] = record, path.name, offset, len(line)

    def append(self, record: SampleRecord) -> None:
        """Durably append a snapshot, then make it visible."""
        line = (json.dumps(record_to_dict(record), separators=(",", ":")) + "\n").encode("utf-8")
        name = f"samples-{_day(record.received_at)}.jsonl"
        with self._lock:
            with open(self.root / name, "ab+") as fh:
                size = fh.seek(0, os.SEEK_END)
                # end the torn line a crash left
                torn = bool(size) and os.pread(fh.fileno(), 1, size - 1) != b"\n"
                fh.write(b"\n" * torn + line)
                fh.flush()
                os.fsync(fh.fileno())
            if not size:  # new, or left empty by a crash before its entry was durable
                _fsync_dir(self.root)
            self._records[record.id] = replace(record, raw_text=""), name, size + torn, len(line)

    def _with_text(self, entries: list[tuple[SampleRecord, str, int, int]]) -> list[SampleRecord]:
        """The snapshots of index ``entries``, each read back whole from its line
        and checked as reload checked it."""
        fds: dict[str, int] = {}
        with ExitStack() as files:
            out = []
            for _, name, offset, length in entries:
                if name not in fds:
                    fds[name] = files.enter_context(open(self.root / name, "rb")).fileno()
                out.append(record_from_dict(json.loads(os.pread(fds[name], length, offset))))
            return out

    def get(self, record_id: str) -> SampleRecord | None:
        with self._lock:
            entry = self._records.get(record_id)
        return None if entry is None else self._with_text([entry])[0]

    def records(self, keep: Callable[[SampleRecord], bool]) -> list[SampleRecord]:
        """The records ``keep`` picks by their fields other than ``raw_text``,
        in first-submission order, listings included."""
        with self._lock:
            entries = [e for e in self._records.values() if keep(e[0])]
        return self._with_text(entries)

    def all_records(self) -> list[SampleRecord]:
        """Every record's newest snapshot, without its listing (``raw_text`` is "")."""
        with self._lock:
            return [record for record, *_ in self._records.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


@dataclass(frozen=True)
class ServiceConfig:
    data_dir: str | Path
    host: str = "127.0.0.1"
    port: int = 8750
    token: str | None = None
    strict: bool = False
    model_path: str | Path | None = None


class Service:
    """The application behind the HTTP layer; usable directly in tests."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.store = SampleStore(self.data_dir / "samples")
        self._model_lock = threading.Lock()
        self._active: tuple[Model, float] | None = None  # (model, activated_at)
        persisted = self.data_dir / MODEL_FILENAME
        if config.model_path is not None:
            self._install(read_model_file(config.model_path), persist=True)
        elif persisted.exists():
            self._install(read_model_file(persisted), persist=False)

    # model management

    def _install(self, model: Model, persist: bool) -> dict:
        # one activation at a time: two would share model.json.tmp, and the
        # file on disk could end up torn or other than the model served
        with self._model_lock:
            if persist:
                tmp = self.data_dir / (MODEL_FILENAME + ".tmp")
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(model.document + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.data_dir / MODEL_FILENAME)
                _fsync_dir(self.data_dir)
            self._active = (model, time.time())
        return self.model_info()

    def activate_model(self, doc: dict) -> dict:
        """Validate, persist, and atomically swap in a model document."""
        return self._install(load_model(doc), persist=True)

    def model_info(self) -> dict:
        with self._model_lock:
            active = self._active
        if active is None:
            return {"active": False}
        model, activated_at = active
        return {"active": True, "kind": model.kind, "model_id": model.model_id,
                "activated_at": activated_at, **model.details}

    # ingestion and labeling

    def _score(self, raw_text: str) -> tuple[FeatureVector | None, int, tuple[Label, float] | None]:
        """Features, warning count and the active model's verdict; a listing that
        does not parse gives (None, 0, None), or under the strict flag raises."""
        try:
            features, warnings = featurize_text(raw_text, strict=self.config.strict)
        except TriageError:
            if self.config.strict:
                raise
            return None, 0, None
        with self._model_lock:
            active = self._active
        return features, warnings, None if active is None else active[0].predict(features)

    def submit(self, raw_text: str) -> SampleRecord:
        features, warnings, predicted = self._score(raw_text)
        record = SampleRecord(
            id=uuid.uuid4().hex,
            received_at=time.time(),
            raw_text=raw_text,
            features=features,
            predicted=predicted,
            parse_warnings=warnings,
        )
        self.store.append(record)
        return record

    def classify(self, raw_text: str) -> dict:
        """Stateless verdict for a raw listing; nothing is persisted."""
        features, _, predicted = self._score(raw_text)
        return verdict_doc(predicted, features=None if features is None else features.to_dict())

    def label(self, record_id: str, label: Label) -> SampleRecord:
        record = self.store.get(record_id)
        if record is None:
            raise KeyError(record_id)
        updated = replace(record, human_label=label)
        self.store.append(updated)
        return updated

    def samples(self, labeled: bool | None = None) -> list[SampleRecord]:
        return self.store.records(
            lambda r: labeled is None or (r.human_label is not None) == labeled)

    def export_dataset(self) -> str:
        """Dataset CSV of every record carrying both features and a label."""
        rows = [LabeledSample(features=r.features, label=r.human_label, origin=r.id)
                for r in self.store.all_records()
                if r.features is not None and r.human_label is not None]
        return dataset_to_csv(LabeledDataset(samples=tuple(rows)))


def submit_response(record: SampleRecord) -> dict:
    return {"id": record.id,
            **verdict_doc(record.predicted, parse_warnings=record.parse_warnings)}


_LABEL_PATH = re.compile(rf"^/v1/samples/({_RECORD_ID.pattern})/label$")


class _HttpError(Exception):
    def __init__(self, status: int, message: str, **headers: str):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


def _text(body: bytes) -> str:
    """A listing body: not blank, and valid UTF-8."""
    if not body.strip():
        raise _HttpError(400, "empty body")
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        raise _HttpError(400, "body is not valid UTF-8") from None


def _json(body: bytes) -> dict:
    try:
        doc = json.loads(_text(body))
    except ValueError:  # not JSON, or an integer of more digits than int() reads
        raise _HttpError(400, "body is not valid JSON") from None
    except RecursionError:
        raise _HttpError(400, "JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise _HttpError(400, "JSON object expected")
    return doc


def _label_reply(service: Service, body: bytes, query: str, record_id: str) -> dict:
    value = _json(body).get("label")
    try:
        label = Label(_whole(value))
    except ValueError:
        raise _HttpError(400, "label must be 0 or 1") from None
    try:
        record = service.label(record_id, label)
    except KeyError:
        raise _HttpError(404, f"no sample {record_id}") from None
    return record_to_dict(record)


def _samples_reply(service: Service, body: bytes, query: str) -> list:
    params = parse_qs(query, keep_blank_values=True)
    labeled = None
    if "labeled" in params:
        flag = params["labeled"][-1].lower()
        if flag in ("true", "1"):
            labeled = True
        elif flag in ("false", "0"):
            labeled = False
        else:
            raise _HttpError(400, "labeled must be true or false")
    return [record_to_dict(r) for r in service.samples(labeled)]


# path, or a pattern whose groups are passed on -> {method -> reply}.  A reply
# gets (service, body bytes, query string, *groups) and returns the JSON
# document, or the text of the CSV route.
_ROUTES: dict[str | re.Pattern, dict[str, Callable[..., dict | list | str]]] = {
    "/v1/submit": {"POST": lambda svc, body, _: submit_response(svc.submit(_text(body)))},
    "/v1/classify": {"POST": lambda svc, body, _: svc.classify(_text(body))},
    "/v1/model": {"POST": lambda svc, body, _: svc.activate_model(_json(body)),
                  "GET": lambda svc, *_: svc.model_info()},
    "/v1/samples": {"GET": _samples_reply},
    "/v1/export.csv": {"GET": lambda svc, *_: svc.export_dataset()},
    _LABEL_PATH: {"POST": _label_reply},
}


def _route(path: str) -> tuple[dict, tuple[str, ...]] | None:
    """The table entry for ``path`` and the groups its pattern captured."""
    if path in _ROUTES:
        return _ROUTES[path], ()
    for key, methods in _ROUTES.items():
        if isinstance(key, re.Pattern) and (m := key.match(path)):
            return methods, m.groups()
    return None


class _Headers(dict):
    """Header fields by lower-cased name; repeats joined with ", " (RFC 9110 §5.3)."""

    def get(self, name, default=None):
        return super().get(name.lower(), default)


class _HeaderBlock(Exception):
    """Stands in for ``rfile``: raised where the stdlib starts on the header block."""

    @classmethod
    def readline(cls, *_):
        raise cls


class _Handler(BaseHTTPRequestHandler):
    server_version = "proctriage"
    protocol_version = "HTTP/1.1"
    # the version send_error answers in when the request line's own cannot be
    # read; the stdlib's HTTP/0.9 default sends the body with no status line
    default_request_version = "HTTP/1.1"
    # Each response is one segment sent at once: headers and body collect in
    # the buffered wfile that handle_one_request flushes after each request,
    # and TCP_NODELAY keeps Nagle's algorithm from holding that segment (or
    # the tail of a long response) until the client's delayed ACK.
    wbufsize = -1
    disable_nagle_algorithm = True
    # seconds a socket read or write may block: an idle keep-alive connection,
    # a stalled body or a stalled reader is then dropped without a reply
    timeout = 30
    _date = (None, "")  # (second, its Date header value), kept per connection

    @property
    def service(self) -> Service:
        return self.server.service  # type: ignore[attr-defined]

    def parse_request(self):
        # The stdlib keeps its request-line rules and replies; the header block,
        # which it would hand to the email package, is read here line by line.
        rfile, self.rfile = self.rfile, _HeaderBlock
        try:
            return super().parse_request()  # false: the request line was refused
        except _HeaderBlock:
            pass
        finally:
            self.rfile = rfile
        self.headers = headers = _Headers()
        for count in range(1, 102):  # http.client's limits: 100 lines, the blank one included
            line = rfile.readline(65537)
            if len(line) > 65536 or count > 100:
                self.send_error(431, "Line too long" if len(line) > 65536 else "Too many headers")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            text = line.decode("latin-1").rstrip("\r\n")
            name, colon, value = text.partition(":")
            # no colon, an empty name, whitespace in it or before the colon, an
            # obs-fold line (RFC 9112 §5.2) or a bare CR: the framing is in doubt
            if not colon or name.split() != [name] or "\r" in value:
                self.send_error(400, f"Bad header line ({text!r})")
                return False
            name, value = name.lower(), value.strip(" \t")  # RFC 9110 §5.5
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        options = {o.strip(" \t") for o in headers.get("Connection", "").lower().split(",")}
        if "close" in options or "keep-alive" in options:
            self.close_connection = "close" in options
        return True

    def date_time_string(self, timestamp=None):
        now = int(time.time() if timestamp is None else timestamp)
        if self._date[0] != now:  # formatted once a second
            self._date = now, super().date_time_string(now)
        return self._date[1]

    def log_message(self, fmt, *args):
        logger.debug("%s " + fmt, self.address_string(), *args)  # formatted only at DEBUG

    def send_error(self, code, message=None, explain=None):
        # the errors the stdlib answers itself (a bad request line, an unknown
        # method, oversized headers) are JSON too, and close as the stdlib's do
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._reply(code, {"error": message or self.responses[code][0]})

    def _reply(self, status: int, doc, **headers: str) -> None:
        """Send ``doc``: a ``str`` is the CSV route's text, anything else is JSON."""
        if isinstance(doc, str):
            body, content_type = doc.encode("utf-8"), "text/csv; charset=utf-8"
        else:
            body, content_type = json.dumps(doc).encode("utf-8"), "application/json; charset=utf-8"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":  # a HEAD request only gets send_error's 501
            self.wfile.write(body)

    def _check_auth(self) -> None:
        token = self.service.config.token
        if token is None:
            return
        # headers arrive latin-1 decoded, so this recovers the bytes sent
        supplied = self.headers.get("Authorization", "").encode("latin-1")
        if not hmac.compare_digest(supplied, f"Bearer {token}".encode("utf-8")):
            raise _HttpError(401, "missing or invalid bearer token")

    def _body_size(self) -> int:
        """The declared body's size, once its framing is checked."""
        if self.headers.get("Transfer-Encoding") is not None:
            raise _HttpError(501, "Transfer-Encoding is not supported")
        length = self.headers.get("Content-Length") or "0"  # a repeat reads "5, 55"
        if not length.isdecimal():
            raise _HttpError(400, "Content-Length must be a non-negative integer")
        # the length check comes first: int() refuses over 4,300 digits
        if len(length) > len(str(MAX_BODY_BYTES)) or int(length) > MAX_BODY_BYTES:
            raise _HttpError(413, f"body over {MAX_BODY_BYTES} bytes")
        return int(length)

    def _read_body(self, size: int) -> bytes:
        """The declared body, read whole so the next request starts after it."""
        raw = self.rfile.read(size)
        if len(raw) < size:  # the client hung up mid-body
            raise _HttpError(400, "body shorter than Content-Length")
        return raw

    # dispatch

    def _dispatch(self) -> None:
        method, body = self.command, None  # None while the body is unread
        try:
            size = self._body_size()
            # a body sent only once told to continue is read after the checks below, so a
            # request they refuse gets only its refusal (RFC 9110 §10.1.1); any other body is
            # read first, so a refusal leaves the connection in step
            if not (size and self.request_version >= "HTTP/1.1"
                    and self.headers.get("Expect", "").lower() == "100-continue"):
                body = self._read_body(size)
            self._check_auth()
            url = urlsplit(self.path)
            route = _route(url.path)
            if route is None:
                raise _HttpError(404, "no such resource")
            methods, groups = route
            if method not in methods:
                raise _HttpError(405, f"{method} not supported here", Allow=", ".join(methods))
            if body is None:
                self.handle_expect_100()
                self.wfile.flush()  # the client waits for it before it sends the body
                body = self._read_body(size)
            self._reply(200, methods[method](self.service, body, url.query, *groups))
        except _HttpError as err:
            if body is None:  # the body's end is unknown, or it stays unread
                self.close_connection = True
            self._reply(err.status, {"error": err.message}, **err.headers)
        except TimeoutError:
            raise  # handle_one_request drops the connection without a reply
        except TriageError as err:
            # strict-mode parse or model validation failures surface here
            status = 400 if isinstance(err, ModelFormatError) else 422
            self._reply(status, {"error": f"{type(err).__name__}: {err}"})
        except Exception:
            logger.exception("unhandled error serving %s %s", method, self.path)
            self._reply(500, {"error": "internal error"})

    do_GET = do_POST = _dispatch  # noqa: N815 (http.server API)


def make_server(service: Service) -> ThreadingHTTPServer:
    """Bind the service; port 0 in the config picks a free port."""
    server = ThreadingHTTPServer((service.config.host, service.config.port), _Handler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server


def run_service(config: ServiceConfig) -> None:
    """Blocking entry point used by the command line."""
    service = Service(config)
    server = make_server(service)
    host, port = server.server_address[0], server.server_address[1]
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
