"""Content-hashed, disk-backed, crash-safe simulation result store.

A cache entry is one simulated matrix cell.  The key is a SHA-256 over
the *content* that determines the result bit-for-bit:

* the machine scenario's canonical content fingerprint
  (:func:`~repro.arch.scenarios.machine_fingerprint` — every field of
  :class:`~repro.arch.config.MachineConfig`, recursively, minus
  cosmetic names, so two identically-shaped machines share entries
  regardless of what preset name they travel under);
* the :class:`~repro.pipeline.processor.SimParams` (seed included —
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

The same root holds the **trace store**: one ``.npz`` per
:class:`~repro.pipeline.trace.TraceBundle` under
``<root>/traces/<key[:2]>/<key[2:]>.npz`` (``idx``, ``taken``,
``addrs`` and the bundle fingerprint), keyed by
:func:`trace_key` over the compiled program, the machine shape and the
instruction cap.  A process with a store loads a bundle instead of
re-running the functional VM.  A loaded bundle is rebuilt from its
arrays and the caller's compiled program, which recomputes its
fingerprint; it is served only if that equals the stored one, so a
result key never hashes an unchecked stored string.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import re
import zipfile
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator

import numpy as np
import numpy.typing as npt

from ..arch.config import MachineConfig
from ..arch.scenarios import machine_fingerprint
from ..isa.program import Program
from ..pipeline.processor import SimParams
from ..pipeline.stats import SimStats
from ..pipeline.trace import TraceBundle
from . import faults

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

#: Subdirectory holding the trace store's own hex shards (not a shard
#: name itself, so result scans and ``len()`` never descend into it).
TRACE_DIR = "traces"

#: Bump when the trace-bundle file layout or the functional VM's
#: semantics change: a bundle is keyed on the program it traces, not
#: on the VM that traced it.
TRACE_STORE_VERSION = 1

#: What reading a torn or garbled ``.npz`` raises (numpy and zipfile
#: errors, missing members, arrays that disagree in shape).
_TORN_BUNDLE = (
    ValueError, KeyError, IndexError, TypeError, EOFError,
    zipfile.BadZipFile,
)

_Array = npt.NDArray[Any]


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


def trace_key(
    program: Program, cfg: MachineConfig, max_instructions: int
) -> str:
    """Deterministic content hash of one trace bundle: everything the
    functional VM and the static tables see — every operation, the
    initial data image, the cluster count and name of the compiled
    program, the machine shape, and the instruction cap.  ``cfg``
    should carry the flat memory block: neither the compiler nor the
    VM sees the memory hierarchy."""
    ops = tuple(
        tuple(
            (int(op.opcode), op.cluster, op.dst, op.srcs, op.imm,
             op.target, op.use_imm, op.xfer_id, op.cmp_kind)
            for op in ins.ops
        )
        for ins in program.instructions
    )
    data = program.data
    blob = repr((
        TRACE_STORE_VERSION,
        program.name,
        program.n_clusters,
        ops,
        sorted(data.words.items()),
        data.size,
        machine_fingerprint(cfg),
        max_instructions,
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


def _read_bundle(path: Path) -> tuple[str, _Array, _Array, _Array]:
    """``(fingerprint, idx, taken, addrs)`` of one stored bundle;
    raises one of :data:`_TORN_BUNDLE` when it is torn."""
    with np.load(path, allow_pickle=False) as npz:
        fingerprint = str(npz["fingerprint"])
        idx: _Array = npz["idx"]
        taken: _Array = npz["taken"]
        addrs: _Array = npz["addrs"]
    if (
        idx.ndim != 1 or taken.shape != idx.shape
        or addrs.ndim != 2 or len(addrs) != len(idx)
    ):
        raise ValueError("trace arrays disagree in shape")
    return fingerprint, idx, taken, addrs


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
        #: trace bundles served by :meth:`get_trace`, not found there
        #: (the caller records each of those), and quarantined by this
        #: process
        self.trace_hits = 0
        self.trace_misses = 0
        self.trace_quarantined = 0

    # ------------------------------------------------------------ paths
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.json"

    def _trace_path(self, key: str) -> Path:
        return self.root / TRACE_DIR / key[:2] / f"{key[2:]}.npz"

    def _shard_dirs(self, parent: Path | None = None) -> list[Path]:
        """Hex shard directories of the result store (or, given
        ``parent``, of the trace store under it)."""
        try:
            return sorted(
                p for p in (parent or self.root).iterdir()
                if p.is_dir() and _SHARD_RE.match(p.name)
            )
        except OSError:
            return []

    def _all_shard_dirs(self) -> list[Path]:
        return self._shard_dirs() + self._shard_dirs(self.root / TRACE_DIR)

    def _entries(self) -> Iterator[Path]:
        for shard in self._shard_dirs():
            yield from sorted(shard.glob("*.json"))

    def _trace_entries(self) -> Iterator[Path]:
        for shard in self._shard_dirs(self.root / TRACE_DIR):
            yield from sorted(shard.glob("*.npz"))

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

    # ----------------------------------------------------------- traces
    def get_trace(
        self, key: str, program: Program, cfg: MachineConfig
    ) -> TraceBundle | None:
        """Load the bundle stored under :func:`trace_key` ``key`` for
        the compiled ``program`` on ``cfg``; ``None`` (a miss, which
        the caller answers by recording the trace) when absent.

        The bundle is rebuilt from the stored arrays, which recomputes
        its fingerprint from content, and served only if that equals
        the stored fingerprint.  A torn file or a mismatch is
        quarantined and reads as a miss."""
        path = self._trace_path(key)
        try:
            stored, idx, taken, addrs = _read_bundle(path)
            if addrs.shape[1] != cfg.n_clusters:
                raise ValueError("cluster count differs from the machine")
            bundle = TraceBundle(
                program.name, program, cfg, idx, taken, addrs
            )
            if bundle.fingerprint() != stored:
                raise ValueError("fingerprint mismatch")
        except FileNotFoundError:
            self.trace_misses += 1
            return None
        except _TORN_BUNDLE as e:
            self.trace_quarantined += self._quarantine(
                path, f"trace bundle: {e}"
            )
            self.trace_misses += 1
            return None
        except OSError:
            # unreadable, or a shard path shadowed by a stray file
            self.trace_misses += 1
            return None
        self.trace_hits += 1
        return bundle

    def put_trace(self, key: str, bundle: TraceBundle) -> None:
        """Best-effort write of one freshly recorded bundle, atomic like
        :meth:`put`; fault-injectable as ``trace/<bench>``."""
        idx, taken, addrs = bundle.arrays()

        def write(f: IO[bytes]) -> None:
            np.savez(
                f,
                fingerprint=np.array(bundle.fingerprint()),
                idx=idx,
                taken=taken,
                addrs=addrs,
            )

        self._write(
            self._trace_path(key), write, key, f"trace/{bundle.name}"
        )

    # ------------------------------------------------------- quarantine
    def _quarantine(self, path: Path, reason: str) -> bool:
        """Move a corrupt entry or bundle aside (shard prefix folded
        back into the filename so the original key stays
        reconstructable); True if it was moved."""
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / f"{path.parent.name}{path.name}")
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
        return len(self._quarantined("*.json"))

    def trace_quarantine_count(self) -> int:
        """Corrupt trace bundles currently held in the quarantine."""
        return len(self._quarantined("*.npz"))

    # ------------------------------------------------------ maintenance
    def __len__(self) -> int:
        """Live entries (quarantined entries are counted separately by
        :meth:`quarantine_count`, and trace bundles by
        :meth:`trace_count`, never here)."""
        return sum(1 for _ in self._entries())

    def trace_count(self) -> int:
        """Live trace bundles."""
        return sum(1 for _ in self._trace_entries())

    def clear(self) -> int:
        """Delete every live entry and trace bundle, sweep leftover
        ``*.tmp`` files from interrupted writers, and prune emptied
        shard directories; returns the number of result entries
        removed.  Quarantined files are kept (they are evidence;
        ``gc()`` drops them)."""
        n = 0
        with self._locked():
            for p in self._entries():
                p.unlink()
                n += 1
            for p in [*self._trace_entries(), *self._tmp_files()]:
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
        try:
            (self.root / TRACE_DIR).rmdir()
        except OSError:
            pass
        return n

    def _scan(self, *, repair: bool) -> dict[str, Any]:
        """Walk every entry and trace bundle and classify it; when
        repairing, also quarantine the corrupt ones and delete stale
        entries."""
        report: dict[str, Any] = {
            "entries": 0, "ok": 0, "corrupt": 0, "stale": 0,
            "shadowed": 0, "tmp_files": len(self._tmp_files()),
            "quarantine": self.quarantine_count(),
            "corrupt_entries": [],
            "traces_ok": 0, "traces_corrupt": 0,
            "trace_quarantine": self.trace_quarantine_count(),
            "corrupt_traces": [],
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
        # a bundle's fingerprint can only be recomputed against its
        # compiled program, which a scan does not have; the scan checks
        # the container (zip CRCs, members, shapes) and the next load
        # checks the fingerprint
        for path in list(self._trace_entries()):
            try:
                _read_bundle(path)
            except _TORN_BUNDLE as e:
                report["traces_corrupt"] += 1
                report["corrupt_traces"].append(
                    f"{path.parent.name}{path.stem}"
                )
                if repair:
                    self.trace_quarantined += self._quarantine(
                        path, f"trace bundle: {e}"
                    )
            except OSError:
                pass  # unreadable right now; not provably corrupt
            else:
                report["traces_ok"] += 1
        return report

    def verify(self) -> dict[str, Any]:
        """Read-only integrity scan of every entry and trace bundle:
        counts of ok / corrupt (checksum, parse, payload; a torn
        bundle) / stale-version entries, leftover tmp files, shadowed
        shard paths, and the current quarantine population.  Touches
        nothing."""
        return self._scan(repair=False)

    def repair(self) -> dict[str, Any]:
        """Make the store clean: quarantine corrupt entries and
        bundles, delete stale-version entries, sweep leftover tmp
        files, prune emptied shard directories.  Returns the scan
        report plus what was removed."""
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
                trace_quarantine=self.trace_quarantine_count(),
            )
        return report

    def gc(self) -> dict[str, Any]:
        """:meth:`repair`, then drop the quarantine (the point of the
        quarantine is diagnosis; gc is the explicit "I am done looking"
        step) and report reclaimed entries and bundles."""
        report = self.repair()
        entries = self._quarantined("*.json")
        bundles = self._quarantined("*.npz")
        for p in entries + bundles:
            p.unlink(missing_ok=True)
        try:
            (self.root / QUARANTINE_DIR).rmdir()
        except OSError:
            pass
        report.update(
            dropped_quarantine=len(entries),
            dropped_trace_quarantine=len(bundles),
            quarantine=0,
            trace_quarantine=0,
        )
        return report
