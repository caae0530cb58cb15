"""Resumable, content-keyed result store for design-space sweeps.

The store is an append-only JSONL file: one line per evaluated design point,
``{"key": <sha1>, "point": <descriptor>, "metrics": {...}}`` — or, for a
design point whose evaluation failed after exhausting the retry budget,
``{"key": <sha1>, "point": <descriptor>, "failure": {...}}`` with a
:meth:`repro.resilience.TaskFailure.as_record` payload.  Keys are content
hashes over the baseline GPU, the design-point descriptor and the workload's
layer :meth:`~repro.core.layer.ConvLayerConfig.structural_key` fingerprint
(see :func:`repro.dse.runner.store_key`), so a sweep that is interrupted and
rerun — or a different sweep that happens to revisit the same point — skips
every evaluation already on disk.  Failure records resume too: a point that
failed permanently is *not* re-evaluated on resume (delete its line, or the
store file, to force a re-run).

Durability model: every :meth:`put` appends and flushes one line, so a killed
process loses at most the record being written; :meth:`ResultStore` tolerates
a truncated (or otherwise corrupt) trailing line on load and the next ``put``
starts a fresh line.  JSON float serialization round-trips exactly, which
keeps resumed sweeps bit-identical to uninterrupted ones.  A persistent store
takes an exclusive advisory lock (``flock``) on its JSONL file before the
first append; a second concurrent writer gets :class:`StoreLockedError`
instead of silently interleaving lines.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterator, Optional, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX platform: advisory locking degrades to no-op
    fcntl = None

#: field distinguishing a failure record from a metrics record.
FAILURE_FIELD = "failure"

#: insertion-ordered keys of the standard evaluation metrics dict (see
#: ``repro.dse.batch.evaluate_points``) — the fast-serialization template
#: below applies only to records of exactly this shape.
_METRIC_KEYS = ("time_s", "throughput_tflops", "dram_gb", "l2_gb",
                "resource_cost", "layers", "gemms", "bottlenecks")
#: the numeric metric keys in sorted order — the splice order of the template.
_NUMERIC_KEYS = tuple(sorted(_METRIC_KEYS[:-1]))
#: the metrics dict as ``json.dumps(..., sort_keys=True)`` renders it.
_METRICS_TEMPLATE = ('{"bottlenecks": {%s}, "dram_gb": %s, "gemms": %s, '
                     '"l2_gb": %s, "layers": %s, "resource_cost": %s, '
                     '"throughput_tflops": %s, "time_s": %s}')
#: one C-level repr pass over all numeric values (template splice order).
_NUMERIC_FMT = "\n".join(["%r"] * len(_NUMERIC_KEYS))
#: every character ``repr`` of a plain int / finite float can produce, plus
#: the ``\n`` separator above.  ``inf``/``nan``/``True``, numpy scalars
#: (``np.float64(...)`` reprs), strings, containers all introduce other
#: characters, so a whitelist scan catches anything json would spell
#: differently (or reject).
_NUMERIC_CHARS = frozenset("0123456789+-.e\n")
#: bottleneck labels already checked to serialize as a plain quoted string.
_SAFE_LABELS = set()


def _metrics_json(record: Dict[str, object]) -> str:
    """``json.dumps(record, sort_keys=True)``, fast-pathed for metrics dicts.

    A standard metrics record is all finite numbers with a fixed key set;
    ``repr`` of a Python int/finite float is byte-identical to json's number
    serialization, so the record can be spliced into a template instead of
    walked by the json encoder.  Anything shape- or type-unexpected falls
    back to the real encoder.
    """
    if tuple(record) == _METRIC_KEYS:
        rendered = _NUMERIC_FMT % tuple(map(record.__getitem__,
                                            _NUMERIC_KEYS))
        if _NUMERIC_CHARS.issuperset(rendered):
            shares = record["bottlenecks"]
            if type(shares) is dict:
                parts = []
                for label in sorted(shares):
                    share = shares[label]
                    if label not in _SAFE_LABELS:
                        if (type(label) is not str
                                or json.dumps(label) != '"%s"' % label):
                            break
                        _SAFE_LABELS.add(label)
                    if type(share) is not float or not math.isfinite(share):
                        break
                    parts.append('"%s": %r' % (label, share))
                else:
                    return _METRICS_TEMPLATE % (
                        (", ".join(parts),) + tuple(rendered.split("\n")))
    return json.dumps(record, sort_keys=True)


def is_failure_record(record: Optional[Dict[str, object]]) -> bool:
    """Whether a stored record describes a failed evaluation."""
    return isinstance(record, dict) and FAILURE_FIELD in record


class StoreLockedError(RuntimeError):
    """Another process holds the store file's exclusive writer lock."""


class ResultStore:
    """Keyed record store with optional JSONL persistence.

    With ``path=None`` the store is a plain in-memory dict (useful as the
    per-session dedupe memo); with a path it loads every valid line on open
    and appends eagerly on every :meth:`put` / :meth:`put_failure`.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = os.path.expanduser(path) if path else None
        self._records: Dict[str, Dict[str, object]] = {}
        self._descriptors: Dict[str, Dict[str, object]] = {}
        self._file = None
        #: records answered from disk/memory since open (reporting only).
        self.hits = 0
        #: lines dropped on load because they did not parse (truncated tail).
        self.corrupt_lines = 0
        if self.path and os.path.exists(self.path):
            self._load()

    # -- persistence ----------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    key = payload["key"]
                    if FAILURE_FIELD in payload:
                        record = {FAILURE_FIELD: payload[FAILURE_FIELD]}
                    else:
                        record = payload["metrics"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    self.corrupt_lines += 1
                    continue
                self._records[key] = record
                self._descriptors[key] = payload.get("point", {})

    def _lock_file(self) -> None:
        """Take the exclusive advisory writer lock (released on close)."""
        if fcntl is None:
            return
        try:
            fcntl.flock(self._file.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle, self._file = self._file, None
            handle.close()
            raise StoreLockedError(
                f"result store {self.path!r} is locked by another writer; "
                "point concurrent sweeps at distinct store files") from exc

    def _open_for_append(self) -> None:
        if self._file is not None:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")
        self._lock_file()
        # a kill mid-append can leave a torn line without a newline;
        # start clean so the next record does not fuse with the debris.
        if self._file.tell() > 0:
            with open(self.path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    self._file.write("\n")

    def _append(self, key: str,
                descriptor: Optional[Dict[str, object]],
                body_field: str, body: Dict[str, object]) -> None:
        if self.path is None:
            return
        self._open_for_append()
        line = json.dumps({"key": key, "point": descriptor or {},
                           body_field: body}, sort_keys=True)
        self._file.write(line + "\n")
        self._file.flush()

    # -- mapping interface ----------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        record = self._records.get(key)
        if record is not None:
            self.hits += 1
        return record

    def put(self, key: str, metrics: Dict[str, object],
            descriptor: Optional[Dict[str, object]] = None) -> None:
        if key in self._records:
            return
        self._records[key] = metrics
        if descriptor is not None:
            self._descriptors[key] = descriptor
        self._append(key, descriptor, "metrics", metrics)

    def put_many(self, records) -> None:
        """Batch insert: one buffered write + flush for a whole sweep chunk.

        ``records`` is an iterable of ``(key, descriptor_json, record)`` —
        or ``(key, descriptor_json, record, metrics_json)`` — where
        ``descriptor_json`` (and the optional ``metrics_json``) are already
        serialized with ``json.dumps(..., sort_keys=True)`` and ``record``
        is either a metrics dict or a ``{FAILURE_FIELD: ...}`` failure
        record.  Each emitted line is byte-identical to the one :meth:`put`
        / :meth:`put_failure` would write (``json.dumps`` with sorted keys
        serializes nested values context-free, so splicing pre-serialized
        fragments into the line template is exact); existing keys are
        skipped, exactly like the single-record paths.
        """
        lines = []
        for item in records:
            key, descriptor_json, record = item[0], item[1], item[2]
            if key in self._records:
                continue
            self._records[key] = record
            if self.path is None:
                continue
            if FAILURE_FIELD in record:
                body_json = json.dumps(record[FAILURE_FIELD], sort_keys=True)
                lines.append('{"failure": %s, "key": "%s", "point": %s}\n'
                             % (body_json, key, descriptor_json))
            else:
                metrics_json = item[3] if len(item) > 3 else None
                if metrics_json is None:
                    metrics_json = _metrics_json(record)
                lines.append('{"key": "%s", "metrics": %s, "point": %s}\n'
                             % (key, metrics_json, descriptor_json))
        if lines:
            self._open_for_append()
            self._file.write("".join(lines))
            self._file.flush()

    def put_failure(self, key: str, failure: Dict[str, object],
                    descriptor: Optional[Dict[str, object]] = None) -> None:
        """Record a permanently-failed evaluation (skipped on resume)."""
        if key in self._records:
            return
        record = {FAILURE_FIELD: failure}
        self._records[key] = record
        if descriptor is not None:
            self._descriptors[key] = descriptor
        self._append(key, descriptor, FAILURE_FIELD, failure)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def items(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        return iter(self._records.items())

    def failures(self) -> Dict[str, Dict[str, object]]:
        """All failure records currently in the store, keyed by store key."""
        return {key: record[FAILURE_FIELD]
                for key, record in self._records.items()
                if is_failure_record(record)}

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._file is not None:
            self._file.close()  # closing the fd releases the advisory lock
            self._file = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ResultStore(path={self.path!r}, records={len(self)}, "
                f"hits={self.hits})")
