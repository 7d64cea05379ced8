"""Content-addressed experiment result catalog with full provenance.

The repo's one result store, written by the ``repro serve`` coordinator
and by :func:`repro.runner.parallel.run_experiments`.  One
:class:`CatalogRecord` per experiment fingerprint (code version
included), stored as one JSON file under
``<root>/records/<fingerprint>.json``.  Records are committed atomically
-- written to a temp file, fsynced, then linked into place -- so a reader
can never observe a torn entry, and any corruption found on disk reads
as a miss, never an error.

A record carries everything needed to audit or reproduce the run:

- ``code_version``   -- hash of the whole ``repro`` package source;
- ``submission``     -- the canonical schema-v1 submission dict (fault
  plan and guard config verbatim); a runner record has label and jobs;
- ``result``         -- the JSON-canonical measurement surface of the
  run (per-job measurements, makespan, DualPar transitions, fault log,
  guard transitions/summary, obs metrics snapshot when observed);
- ``provenance``     -- who computed it and how: ``source`` (``"serve"``
  or ``"runner"``), worker id, attempt count, wall time, timestamps, and
  for the service the coordinator host/pid and submit tenant.

``result_to_dict`` is the *one* canonical JSON form of a
:class:`~repro.runner.SlimExperimentResult`, the :mod:`repro.codec`
encoding of its fields (``result_from_dict`` decodes it); the
service-level tests compare a catalog record against a
direct ``run_experiment`` of the same spec through it, bit for bit.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional

from repro.codec import decode, encode
from repro.runner.experiment import SlimExperimentResult

__all__ = [
    "RECORD_VERSION",
    "CatalogRecord",
    "ResultCatalog",
    "canonical_json",
    "default_catalog_dir",
    "result_from_dict",
    "result_to_dict",
]

#: On-disk record format version; anything else is rejected on load.
RECORD_VERSION = 1


def default_catalog_dir() -> Path:
    """Catalog root: ``$REPRO_SERVICE_CATALOG`` or ``.service_catalog``."""
    return Path(os.environ.get("REPRO_SERVICE_CATALOG", ".service_catalog"))


def canonical_json(obj: Any) -> str:
    """The one canonical JSON rendering used for bit-identity checks."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def result_to_dict(result: SlimExperimentResult) -> dict:
    """The canonical JSON-able measurement surface of one result: the
    :class:`~repro.runner.SlimExperimentResult` fields, encoded by
    :mod:`repro.codec`.

    The payload is round-tripped through JSON so that what a coordinator
    stores and what a direct in-process run produces are structurally
    identical (tuples become lists, mapping keys become strings) -- JSON
    floats round-trip exactly (shortest-repr), so this normalisation
    never changes a measured value.
    """
    return json.loads(canonical_json(encode(SlimExperimentResult.from_full(result))))


def result_from_dict(d: Mapping[str, Any]) -> SlimExperimentResult:
    """Inverse of :func:`result_to_dict`: the slim result a record holds."""
    return decode(SlimExperimentResult, d)


@dataclass(frozen=True, kw_only=True)
class CatalogRecord:
    """One catalogued experiment: content address, payloads, provenance."""

    record_version: int = RECORD_VERSION
    fingerprint: str
    code_version: str
    submission: dict
    result: dict
    provenance: dict

    def __post_init__(self) -> None:
        if self.record_version != RECORD_VERSION:
            raise ValueError(
                f"unsupported record_version {self.record_version!r} "
                f"(this catalog speaks version {RECORD_VERSION})"
            )
        if not self.fingerprint:
            raise ValueError("fingerprint must be non-empty")

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CatalogRecord":
        if "record_version" not in d:
            raise ValueError("catalog record is missing record_version")
        return decode(cls, d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "CatalogRecord":
        return cls.from_dict(json.loads(text))


class ResultCatalog:
    """Directory of catalog records, keyed by experiment fingerprint."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_catalog_dir()
        self.records_dir = self.root / "records"

    def path_for(self, fingerprint: str) -> Path:
        return self.records_dir / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[CatalogRecord]:
        """Load one record; missing or corrupt entries read as a miss."""
        try:
            text = self.path_for(fingerprint).read_text(encoding="utf-8")
            record = CatalogRecord.from_json(text)
        except (OSError, ValueError, TypeError):
            return None
        return record if record.fingerprint == fingerprint else None

    def put(self, record: CatalogRecord) -> bool:
        """Commit one record atomically (fsync, then link into place).

        Returns False -- leaving the existing entry untouched -- when the
        fingerprint is already catalogued: content-addressed entries are
        immutable, so first write wins (``os.link`` refuses an existing
        name, even under a race) and replays are no-ops.  An existing
        record that does not read back is replaced.
        """
        path = self.path_for(record.fingerprint)
        self.records_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.records_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(record.to_json())
                f.write("\n")
                f.flush()
                os.fsync(f.fileno())
            try:
                os.link(tmp, path)
            except FileExistsError:
                if self.get(record.fingerprint) is not None:
                    return False
                os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return True

    def fingerprints(self) -> list[str]:
        if not self.records_dir.is_dir():
            return []
        return sorted(p.stem for p in self.records_dir.glob("*.json"))

    def records(self) -> Iterator[CatalogRecord]:
        for fp in self.fingerprints():
            record = self.get(fp)
            if record is not None:
                yield record

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).is_file()
