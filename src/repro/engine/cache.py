"""Content-hashed, disk-backed, crash-safe simulation result store.

A cache entry is one simulated matrix cell.  The key is a SHA-256 over
the *content* that determines the result bit-for-bit:

* the machine scenario's canonical content fingerprint
  (:func:`~repro.arch.scenarios.machine_fingerprint` — every field of
  :class:`~repro.arch.config.MachineConfig`, recursively, minus
  cosmetic names, so two identically-shaped machines share entries
  regardless of what preset name they travel under);
* the :class:`~repro.pipeline.params.SimParams` (seed included —
  the context-switch schedule is part of the result);
* the policy name;
* the workload's member names **and** per-member trace fingerprints
  (:meth:`TraceBundle.fingerprint` — a kernel edit or scale change
  reflows the dynamic trace and therefore the key);
* the hardware thread count.

Layout: ``<root>/<key[:2]>/<key[2:]>.json``, one JSON document per
entry with a schema ``version`` gate and a payload ``checksum``
(SHA-256 over the canonical stats JSON) verified on every read.
Writes go through a temp file + ``os.replace`` under an advisory
lockfile (``<root>/.lock``) so concurrent ``--jobs`` writers — or
writers on different machines sharing the store — never expose a torn
entry; last writer wins, and both writers wrote identical bytes anyway
(same key ⇒ same simulation).

Corruption handling (``docs/robustness.md``): an entry that fails the
version gate reads as a *stale* miss (old schema, re-simulated and
overwritten); an entry that fails to parse, fails its checksum, or
fails stats reconstruction is **quarantined** — moved aside into
``<root>/quarantine/`` and counted, never silently deleted — so a bad
disk or torn write stays diagnosable while the sweep re-simulates and
heals the store.  ``repro cache verify|repair|gc`` expose
:meth:`ResultCache.verify` / :meth:`repair` / :meth:`gc` from the CLI.

Result keys need only each trace bundle's fingerprint (and, for
single-thread baselines, its length), so the same root also keeps a
**fingerprint index**: ``<root>/traces/index/<key[:2]>/<key[2:]>.json``
maps :func:`index_key` — the kernel name and scale, the machine shape
and the instruction cap — to ``{"source", "fingerprint", "length",
"checksum"}``, where ``source`` is the :func:`source_identity` of the
code that wrote it.  A warm command derives every result key from the
index without compiling a kernel or running the functional VM.  Any
source edit changes the identity, so the entry is not served: the
caller compiles the kernel and records its trace, which rewrites the
same entry in place.  The store holds no trace bundles;
``traces/<key[:2]>/*.npz`` bundles that older versions of it wrote are
reported as stale and deleted by :meth:`ResultCache.gc`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import re
import sys
from collections.abc import Callable
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterator, NamedTuple

from ..arch.config import MachineConfig
from ..arch.scenarios import machine_fingerprint
from ..pipeline.stats import SimStats
from . import faults

if TYPE_CHECKING:
    # the parameters are only annotated here: a command served from
    # the store loads no simulator layer
    from ..pipeline.params import SimParams

try:  # advisory cross-process locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

log = logging.getLogger(__name__)

#: Bump when the SimStats schema or simulator semantics change in a way
#: that makes old entries unusable.
#: v2: SimStats grew per-level ``memory`` counters; MachineConfig grew
#: the ``memory`` hierarchy block (both hashed into every key).
#: v3: MemoryConfig grew ``mshr``/``writeback_penalty`` (hashed into
#: every key), prefetch fills no longer refresh L2 replacement state,
#: and ``SimStats.memory`` grew mshr/writeback/useful_l2 counters —
#: pre-MSHR entries for prefetch presets would be wrong, so every v2
#: entry is invalidated here rather than by silently changed results.
#: v4: the machine is keyed by its scenario content fingerprint
#: (machine presets are a sweep axis; cosmetic preset names no longer
#: reach the key), and prefetch fills route through the MSHR file when
#: one exists — ``SimStats.memory["prefetch"]`` grew late/dropped.
#: v5: entries carry a payload ``checksum`` verified on read (the
#: crash-safe store); the simulated results themselves are unchanged.
CACHE_VERSION = 5

#: Shard directories are the first two hex digits of the key.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")

#: Subdirectory corrupt entries are moved into (never globbed as a
#: shard: "qu" would match the hex pattern, "quarantine" does not).
QUARANTINE_DIR = "quarantine"

#: Subdirectory holding the fingerprint index and, in stores older
#: versions wrote, trace bundles in hex shards (not a shard name
#: itself, so result scans and ``len()`` never descend into it).
TRACE_DIR = "traces"

#: Hashed into every :func:`index_key`; bump when the index entry
#: format or the key's inputs change.
INDEX_VERSION = 2

#: Subdirectory of :data:`TRACE_DIR` holding the fingerprint index
#: (not a hex shard name, so bundle scans never descend into it).
INDEX_DIR = "index"

#: Filename prefix of quarantined index entries, which keeps them apart
#: from quarantined result entries (both are ``.json``).
_INDEX_QUARANTINE_PREFIX = "index-"

_HEX64_RE = re.compile(r"^[0-9a-f]{64}$")


class TraceIdentity(NamedTuple):
    """What a result key needs of one trace bundle."""

    fingerprint: str
    length: int


def cache_key(
    cfg: MachineConfig,
    params: SimParams,
    policy_name: str,
    members: tuple[str, ...],
    fingerprints: tuple[str, ...],
    n_threads: int,
) -> str:
    """Deterministic content hash of one matrix cell.

    The machine enters as its scenario fingerprint; the effective
    timeslice (a machine scenario may scale it) travels in ``params``.
    """
    payload = {
        "version": CACHE_VERSION,
        "machine": machine_fingerprint(cfg),
        "params": dataclasses.asdict(params),
        "policy": policy_name,
        "members": list(members),
        "traces": list(fingerprints),
        "n_threads": n_threads,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def payload_checksum(stats_dict: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of one entry's stats payload."""
    blob = json.dumps(stats_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _source_digest(package: Path) -> str | None:
    """SHA-256 over the Python minor version and every ``*.py`` file
    under ``package`` (sorted relative POSIX path plus bytes); ``None``
    when there is none."""
    files = sorted(
        (p.relative_to(package).as_posix(), p)
        for p in package.rglob("*.py")
    )
    if not files:
        return None
    h = hashlib.sha256(repr(sys.version_info[:2]).encode())
    for rel, path in files:
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@cache
def source_identity() -> str | None:
    """:func:`_source_digest` of the ``repro`` package, once per
    process; ``None`` when it has no ``.py`` files (e.g. a
    bytecode-only install), which turns the fingerprint index off.

    A trace fingerprint is a pure function of this identity and the
    inputs :func:`index_key` hashes; every index entry stores the
    identity that wrote it and is served only to the same identity, so
    the index can never map edited code to an old fingerprint."""
    return _source_digest(Path(__file__).resolve().parent.parent)


def index_key(
    name: str, scale: float, cfg: MachineConfig, max_instructions: int
) -> str | None:
    """Key of one fingerprint-index entry (``None`` when the source
    identity is unknown, which turns the index off).  ``cfg`` should
    carry the flat memory block: neither the compiler nor the
    functional VM sees the memory hierarchy.  The source identity is
    not hashed in: code of another identity misses on the entry's
    stored ``source`` and rewrites the same file, so a source edit
    does not grow the index."""
    if source_identity() is None:
        return None
    blob = repr((
        INDEX_VERSION,
        name,
        repr(scale),
        machine_fingerprint(cfg),
        max_instructions,
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


def _index_payload(source: str, ident: TraceIdentity) -> dict[str, Any]:
    return {
        "source": source,
        "fingerprint": ident.fingerprint,
        "length": ident.length,
    }


def _read_index_entry(path: Path) -> tuple[str, TraceIdentity]:
    """``(source, identity)`` of one index entry; raises ``ValueError``
    (or ``OSError``) unless it parses, its checksum matches and its
    fields are well formed."""
    with open(path, "rb") as f:
        doc = json.loads(f.read())
    if not isinstance(doc, dict):
        raise ValueError("index entry is not an object")
    source = doc.get("source")
    fingerprint = doc.get("fingerprint")
    length = doc.get("length")
    if (
        not isinstance(source, str)
        or not isinstance(fingerprint, str)
        or not _HEX64_RE.match(fingerprint)
        or type(length) is not int or length < 0
    ):
        raise ValueError("malformed index entry")
    ident = TraceIdentity(fingerprint, length)
    if doc.get("checksum") != payload_checksum(
        _index_payload(source, ident)
    ):
        raise ValueError("checksum mismatch")
    return source, ident


class ResultCache:
    """Disk-backed :class:`SimStats` store keyed by :func:`cache_key`."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise NotADirectoryError(
                f"result cache path {self.root} exists and is not a "
                "directory"
            ) from None
        self.hits = 0
        self.misses = 0
        #: entries actually persisted (a failed best-effort write does
        #: not count)
        self.stores = 0
        #: best-effort writes that failed (ENOSPC, shadowed shard, ...)
        self.put_errors = 0
        #: corrupt entries moved aside by this process (see
        #: :meth:`quarantine_count` for what is on disk in total)
        self.quarantined = 0
        #: trace bundles recorded for a process using this store
        #: (counted by :func:`repro.kernels.suite.get_trace`)
        self.traces_recorded = 0
        #: trace identities served by the fingerprint index
        self.index_hits = 0

    # ------------------------------------------------------------ paths
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.json"

    def _index_path(self, key: str) -> Path:
        return self.root / TRACE_DIR / INDEX_DIR / key[:2] / f"{key[2:]}.json"

    def _shard_dirs(self, parent: Path | None = None) -> list[Path]:
        """Hex shard directories of the result store (or, given
        ``parent``, of the old bundle tree or the index under it)."""
        try:
            return sorted(
                p for p in (parent or self.root).iterdir()
                if p.is_dir() and _SHARD_RE.match(p.name)
            )
        except OSError:
            return []

    def _all_shard_dirs(self) -> list[Path]:
        traces = self.root / TRACE_DIR
        return (
            self._shard_dirs() + self._shard_dirs(traces)
            + self._shard_dirs(traces / INDEX_DIR)
        )

    def _entries(self) -> Iterator[Path]:
        for shard in self._shard_dirs():
            yield from sorted(shard.glob("*.json"))

    def _old_bundles(self) -> list[Path]:
        """Trace bundles, live or quarantined, that an older version of
        this store wrote; nothing reads them."""
        out = self._quarantined("*.npz")
        for shard in self._shard_dirs(self.root / TRACE_DIR):
            out.extend(sorted(shard.glob("*.npz")))
        return out

    def _index_entries(self) -> Iterator[Path]:
        for shard in self._shard_dirs(self.root / TRACE_DIR / INDEX_DIR):
            yield from sorted(shard.glob("*.json"))

    def _tmp_files(self) -> list[Path]:
        """Leftover ``*.tmp`` files from interrupted writers."""
        out: list[Path] = []
        for shard in self._all_shard_dirs():
            out.extend(sorted(shard.glob("*.tmp")))
        return out

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory cross-process lock on the whole store.

        Serialises writers/maintenance across processes (and across
        machines on shared filesystems honouring POSIX locks).  The
        entry write itself is already atomic (`os.replace`); the lock
        protects multi-file maintenance — repair/gc/clear walking
        shards while writers add entries — and is advisory by design:
        readers never block.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        lock_path = self.root / ".lock"
        try:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            yield  # a store that cannot lock still works, unserialised
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    # -------------------------------------------------------- get / put
    def get(self, key: str) -> SimStats | None:
        """Load one entry; ``None`` (and a miss) when absent or stale.

        A *corrupt* entry — unparsable JSON, payload checksum mismatch,
        or a stats payload that fails reconstruction — is quarantined
        (moved into ``<root>/quarantine/``, counted) and reads as a
        miss: the sweep re-simulates the cell and heals the store,
        while the bad bytes stay on disk for diagnosis.
        """
        path = self._path(key)
        try:
            with open(path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            self.misses += 1
            return None
        except json.JSONDecodeError:
            # torn or garbled bytes: crash-mid-write, bad disk
            self.quarantined += self._quarantine(path, "unparsable JSON")
            self.misses += 1
            return None
        except OSError:
            # unreadable, or the shard path is shadowed by a stray
            # file: degrade to a miss (nothing to quarantine)
            self.misses += 1
            return None
        try:
            if doc.get("version") != CACHE_VERSION:
                # old schema, not corruption: miss and overwrite
                self.misses += 1
                return None
            stats_dict = doc["stats"]
            if doc.get("checksum") != payload_checksum(stats_dict):
                raise ValueError("checksum mismatch")
            stats = SimStats.from_dict(stats_dict)
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            # structurally damaged despite a current version stamp
            self.quarantined += self._quarantine(path, str(e))
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(
        self, key: str, stats: SimStats, meta: dict[str, Any] | None = None
    ) -> None:
        """Best-effort write: a cache that cannot persist an entry (full
        disk, shard path shadowed by a stray file) degrades to slower
        reruns, it does not fail the sweep that computed the result."""
        stats_dict = stats.to_dict()
        doc = {
            "version": CACHE_VERSION,
            "meta": meta or {},
            "checksum": payload_checksum(stats_dict),
            "stats": stats_dict,
        }
        blob = json.dumps(doc).encode()
        if self._write(self._path(key), lambda f: f.write(blob), key):
            self.stores += 1

    def _write(
        self,
        path: Path,
        write: Callable[[IO[bytes]], object],
        key: str,
        fault_id: str | None = None,
    ) -> bool:
        """Best-effort atomic write of one store file: a temp file,
        then ``os.replace`` under the store lock.  A failure is counted
        in :attr:`put_errors` and logged, never raised.  ``fault_id``
        names the write for ``enospc``/``corrupt`` fault injection
        (default: the cell currently executing)."""
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        try:
            faults.maybe_fail_store_write(fault_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as f:
                write(f)
            with self._locked():
                os.replace(tmp, path)
        except OSError as e:
            self.put_errors += 1
            log.warning("cache: failed to persist %s…: %s", key[:12], e)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        # fault injection: simulate the machine dying inside the write
        # (torn bytes) *after* the happy path completed
        faults.maybe_tear_entry(path, fault_id)
        return True

    # ------------------------------------------------------------ index
    def get_identity(self, key: str | None) -> TraceIdentity | None:
        """The trace identity the fingerprint index holds under
        :func:`index_key` ``key``, or ``None`` (a miss: the caller
        builds the bundle and rewrites the entry).  An entry is served
        only if it parses, its checksum matches, it was written by
        code with this process's :func:`source_identity`, and its
        fingerprint is 64 hex digits; anything else reads as a miss."""
        if key is None:
            return None
        try:
            source, ident = _read_index_entry(self._index_path(key))
        except (OSError, ValueError):
            return None
        if source != source_identity():
            return None
        self.index_hits += 1
        return ident

    def put_identity(
        self, key: str | None, name: str, ident: TraceIdentity
    ) -> None:
        """Best-effort atomic write of one index entry (nothing when
        the source identity is unknown); fault-injectable as
        ``index/<bench>``."""
        source = source_identity()
        if key is None or source is None:
            return
        payload = _index_payload(source, ident)
        blob = json.dumps(
            {**payload, "checksum": payload_checksum(payload)}
        ).encode()
        self._write(
            self._index_path(key), lambda f: f.write(blob), key,
            f"index/{name}",
        )

    # ------------------------------------------------------- quarantine
    def _quarantine(self, path: Path, reason: str, prefix: str = "") -> bool:
        """Move a corrupt entry or index entry aside (shard
        prefix folded back into the filename so the original key stays
        reconstructable, behind ``prefix``); True if it was moved."""
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(
                path, qdir / f"{prefix}{path.parent.name}{path.name}"
            )
        except OSError:
            # cannot move it (read-only store?): leave it; reads keep
            # missing on it, verify/repair keep reporting it
            log.warning(
                "cache: corrupt entry %s/%s (%s) could not be "
                "quarantined", path.parent.name, path.name, reason,
            )
            return False
        log.warning(
            "cache: quarantined corrupt entry %s/%s (%s)",
            path.parent.name, path.name, reason,
        )
        return True

    def _quarantined(self, pattern: str) -> list[Path]:
        qdir = self.root / QUARANTINE_DIR
        return sorted(qdir.glob(pattern)) if qdir.is_dir() else []

    def quarantine_count(self) -> int:
        """Corrupt entries currently held in ``<root>/quarantine/``."""
        return len(self._quarantined("[0-9a-f][0-9a-f]*.json"))

    def index_quarantine_count(self) -> int:
        """Corrupt fingerprint-index entries held in the quarantine."""
        return len(self._quarantined(f"{_INDEX_QUARANTINE_PREFIX}*.json"))

    # ------------------------------------------------------ maintenance
    def __len__(self) -> int:
        """Live entries (quarantined entries are counted separately by
        :meth:`quarantine_count`, and index entries by
        :meth:`index_count`, never here)."""
        return sum(1 for _ in self._entries())

    def index_count(self) -> int:
        """Live fingerprint-index entries."""
        return sum(1 for _ in self._index_entries())

    def clear(self) -> int:
        """Delete every live entry and index entry, every old trace
        bundle and leftover ``*.tmp`` files from interrupted writers,
        and prune emptied shard directories; returns the number of
        result entries removed.  Quarantined entries are kept (they are
        evidence; ``gc()`` drops them)."""
        n = 0
        with self._locked():
            for p in self._entries():
                p.unlink()
                n += 1
            for p in [
                *self._old_bundles(), *self._index_entries(),
                *self._tmp_files(),
            ]:
                p.unlink(missing_ok=True)
            self._prune_empty_shards()
        return n

    def _prune_empty_shards(self) -> int:
        n = 0
        for shard in self._all_shard_dirs():
            try:
                shard.rmdir()  # fails (caught) unless empty
                n += 1
            except OSError:
                pass
        for d in (self.root / TRACE_DIR / INDEX_DIR, self.root / TRACE_DIR):
            try:
                d.rmdir()
            except OSError:
                pass
        return n

    def _scan(self, *, repair: bool) -> dict[str, Any]:
        """Walk every entry and index entry and classify it; when
        repairing, also quarantine the corrupt ones and delete stale
        result entries."""
        report: dict[str, Any] = {
            "entries": 0, "ok": 0, "corrupt": 0, "stale": 0,
            "shadowed": 0, "tmp_files": len(self._tmp_files()),
            "quarantine": self.quarantine_count(),
            "corrupt_entries": [],
            "stale_bundles": len(self._old_bundles()),
            "index_ok": 0, "index_corrupt": 0, "index_stale": 0,
            "index_quarantine": self.index_quarantine_count(),
            "corrupt_index": [], "stale_index": [],
        }
        try:
            report["shadowed"] = sum(
                1 for p in self.root.iterdir()
                if p.is_file() and _SHARD_RE.match(p.name)
            )
        except OSError:
            pass
        for path in list(self._entries()):
            report["entries"] += 1
            reason: str | None = None
            try:
                with open(path) as f:
                    doc = json.load(f)
                if doc.get("version") != CACHE_VERSION:
                    report["stale"] += 1
                    if repair:
                        path.unlink(missing_ok=True)
                    continue
                stats_dict = doc["stats"]
                if doc.get("checksum") != payload_checksum(stats_dict):
                    raise ValueError("checksum mismatch")
                SimStats.from_dict(stats_dict)
            except json.JSONDecodeError:
                reason = "unparsable JSON"
            except OSError:
                continue  # unreadable right now; not provably corrupt
            except (KeyError, TypeError, ValueError, AttributeError) as e:
                reason = str(e) or type(e).__name__
            if reason is None:
                report["ok"] += 1
            else:
                report["corrupt"] += 1
                report["corrupt_entries"].append(
                    f"{path.parent.name}{path.stem}"
                )
                if repair:
                    self.quarantined += self._quarantine(path, reason)
        # an index entry written by other code (stale source) is intact,
        # just never served; gc() drops it
        source = source_identity()
        for path in list(self._index_entries()):
            try:
                stored, _ = _read_index_entry(path)
            except ValueError as e:
                report["index_corrupt"] += 1
                report["corrupt_index"].append(
                    f"{path.parent.name}{path.stem}"
                )
                if repair:
                    self._quarantine(
                        path, f"index entry: {e}", _INDEX_QUARANTINE_PREFIX
                    )
            except OSError:
                pass  # unreadable right now; not provably corrupt
            else:
                if stored == source:
                    report["index_ok"] += 1
                else:
                    report["stale_index"].append(
                        f"{path.parent.name}{path.stem}"
                    )
        report["index_stale"] = len(report["stale_index"])
        return report

    def verify(self) -> dict[str, Any]:
        """Read-only integrity scan of every entry and index entry:
        counts of ok / corrupt (checksum, parse, payload; a torn,
        mismatched or malformed index entry) / stale (old schema; index
        entries of other code; trace bundles of older stores) entries,
        leftover tmp files, shadowed shard paths, and the current
        quarantine population.  Touches nothing."""
        return self._scan(repair=False)

    def repair(self) -> dict[str, Any]:
        """Make the store clean: quarantine corrupt entries and index
        entries, delete stale-version result entries, sweep
        leftover tmp files, prune emptied shard directories.  Returns
        the scan report plus what was removed."""
        with self._locked():
            report = self._scan(repair=True)
            swept = 0
            for p in self._tmp_files():
                p.unlink(missing_ok=True)
                swept += 1
            report.update(
                removed_stale=report["stale"],
                swept_tmp=swept,
                pruned_dirs=self._prune_empty_shards(),
                quarantine=self.quarantine_count(),
                index_quarantine=self.index_quarantine_count(),
            )
        return report

    def gc(self) -> dict[str, Any]:
        """:meth:`repair`, then drop the quarantine (the point of the
        quarantine is diagnosis; gc is the explicit "I am done looking"
        step), the index entries of other code versions and the trace
        bundles of older stores, and report what was reclaimed."""
        report = self.repair()
        with self._locked():
            entries = self._quarantined("[0-9a-f][0-9a-f]*.json")
            index = self._quarantined(f"{_INDEX_QUARANTINE_PREFIX}*.json")
            stale = [self._index_path(k) for k in report["stale_index"]]
            bundles = self._old_bundles()
            for p in entries + index + stale + bundles:
                p.unlink(missing_ok=True)
            try:
                (self.root / QUARANTINE_DIR).rmdir()
            except OSError:
                pass
            self._prune_empty_shards()
        report.update(
            dropped_quarantine=len(entries),
            dropped_index_quarantine=len(index),
            dropped_stale_index=len(stale),
            dropped_stale_bundles=len(bundles),
            quarantine=0,
            index_quarantine=0,
        )
        return report
