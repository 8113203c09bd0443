"""Content-addressed store of compiled state graphs.

The flat ``graph_dir`` of PR 4 was a bare directory of ``.npz`` files with
no size bound, no eviction and only a best-effort concurrency story (atomic
temp-rename publishes, but two processes compiling the same configuration
still duplicated the cold work).  :class:`GraphStore` upgrades that
directory into a proper artifact store while keeping the on-disk layout
byte-compatible (``graph-<fingerprint>.npz`` entries, ``.parent`` lineage
sidecars), so existing caches — including CI-restored ones — keep working:

* **Content addressing.**  Entries are keyed by the sha256 configuration
  fingerprint (:func:`~repro.verification.kernel.config_fingerprint`):
  equal fingerprints generate the identical state graph, so a hit is always
  usable and a publish of an already-present fingerprint is a no-op.
* **Atomic publish.**  Writers stage into a collision-free temp file and
  ``os.replace`` it into place; readers never observe a partial graph.
* **Single-flight claims.**  :meth:`claim` takes an ``O_EXCL`` lockfile per
  fingerprint (``graph-<fingerprint>.npz.lock``).  A process that fails to
  claim knows another process is compiling the same configuration *right
  now* and can :meth:`wait_for` the publish instead of duplicating hundreds
  of milliseconds of cold work.  Stale claims (crashed claimers) are broken
  after :attr:`GraphStore.claim_timeout` seconds.
* **Size-bounded LRU eviction.**  ``REPRO_GRAPH_STORE_BYTES`` (or the
  ``max_bytes`` argument) bounds the total entry bytes; a publish evicts
  least-recently-used entries (loads refresh an entry's mtime) until the
  store fits.  Entries pinned by an in-flight query (:meth:`pin`) or
  currently claimed by a compiler are never evicted, and eviction drops
  orphaned ``.parent`` sidecars along the way.
* **Lineage sidecars.**  :meth:`record_lineage` / :meth:`parent_of` persist
  the parent fingerprint of delta-warm-started graphs
  (:mod:`repro.verification.delta`) next to the child entry.
* **Corrupt entries log-and-recompile.**  A load that fails for any reason
  (truncated file, stale format, fingerprint mismatch) logs a warning,
  drops the entry from the store and reports a miss — a corrupt cache must
  never fail a verification.
* **Exploration checkpoints.**  A long cold compile periodically stages its
  *partial* graph as ``graph-<fingerprint>.npz.ckpt``
  (:meth:`publish_checkpoint`), atomically like a publish.  A compiler
  killed mid-exploration leaves the checkpoint behind; the next claimant
  resumes from it (:meth:`load_checkpoint`) instead of recompiling from
  state zero, byte-identical to an uninterrupted compile (partial graphs
  already save/load/resume exactly).  Checkpoints are swept once the
  complete graph publishes, evicted only after every unpinned entry, and a
  corrupt checkpoint follows the log-and-recompile rule above.

The store is the persistence layer of the verification service
(:mod:`repro.service`) *and* of the classic one-shot front-ends: the
``graph_dir`` / ``REPRO_GRAPH_DIR`` paths of :class:`~repro.verification
.exhaustive.ExhaustiveVerifier`, :func:`~repro.verification.exhaustive
.verify_slot_sharing` and the first-fit dimensioner all route through
:func:`store_for`.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Dict, List, Optional, Tuple

from ..exceptions import VerificationError

logger = logging.getLogger(__name__)

__all__ = [
    "GraphStore",
    "GraphStoreClaim",
    "STORE_BYTES_ENV_VAR",
    "store_for",
]

#: Environment variable bounding the total bytes of store entries; unset or
#: empty means unbounded (the pre-store ``graph_dir`` behavior).
STORE_BYTES_ENV_VAR = "REPRO_GRAPH_STORE_BYTES"

#: Seconds after which another process's compile claim counts as stale
#: (crashed claimer) and may be broken.  Generous: the largest cold compiles
#: measured in PERFORMANCE.md are seconds, not minutes.
DEFAULT_CLAIM_TIMEOUT = 120.0


def _store_budget_bytes() -> Optional[int]:
    """The ``REPRO_GRAPH_STORE_BYTES`` budget, or ``None`` when unbounded."""
    raw = os.environ.get(STORE_BYTES_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = int(float(raw))
    except ValueError:
        logger.warning(
            "ignoring non-numeric %s=%r (store stays unbounded)",
            STORE_BYTES_ENV_VAR,
            raw,
        )
        return None
    return value if value > 0 else None


class GraphStoreClaim:
    """A held single-flight compile claim (see :meth:`GraphStore.claim`).

    Release it (or use it as a context manager) once the compile has been
    published — *after* the publish, so waiters observing the claim vanish
    can rely on the entry being present or the compile having failed.  A
    claim whose lockfile could not be created because the store directory
    is unwritable is *unlocked* (``locked`` is False): the caller proceeds
    to compile without cross-process exclusion, which is the pre-store
    best-effort behavior.
    """

    __slots__ = ("fingerprint", "path", "locked", "_released")

    def __init__(self, fingerprint: str, path: Optional[str], locked: bool) -> None:
        self.fingerprint = fingerprint
        self.path = path
        self.locked = locked
        self._released = False

    def release(self) -> None:
        """Drop the lockfile (idempotent, best-effort)."""
        if self._released:
            return
        self._released = True
        if self.locked and self.path:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "GraphStoreClaim":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


class GraphStore:
    """Content-addressed, size-bounded store of compiled state graphs.

    Args:
        directory: the store root (created on first publish/claim).
        max_bytes: total entry-byte budget; ``None`` reads
            ``REPRO_GRAPH_STORE_BYTES`` dynamically at each eviction (so a
            long-lived server honors knob changes without restarting), and
            an unset knob means unbounded.
        claim_timeout: seconds after which a compile claim is stale.
    """

    def __init__(
        self,
        directory,
        max_bytes: Optional[int] = None,
        claim_timeout: float = DEFAULT_CLAIM_TIMEOUT,
    ) -> None:
        self.directory = str(directory)
        self.max_bytes = max_bytes
        self.claim_timeout = float(claim_timeout)
        #: In-process pin refcounts: fingerprints of graphs an in-flight
        #: query depends on; eviction never touches them.
        self._pins: Dict[str, int] = {}

    # ------------------------------------------------------------------ paths
    def entry_path(self, fingerprint: str) -> str:
        """On-disk path of a fingerprint's graph entry."""
        return os.path.join(self.directory, f"graph-{fingerprint}.npz")

    def lineage_path(self, fingerprint: str) -> str:
        """On-disk path of a fingerprint's ``.parent`` lineage sidecar."""
        return self.entry_path(fingerprint) + ".parent"

    def claim_path(self, fingerprint: str) -> str:
        """On-disk path of a fingerprint's single-flight lockfile."""
        return self.entry_path(fingerprint) + ".lock"

    def checkpoint_path(self, fingerprint: str) -> str:
        """On-disk path of a fingerprint's partial-exploration checkpoint."""
        return self.entry_path(fingerprint) + ".ckpt"

    @staticmethod
    def _fingerprint_of_entry(name: str) -> Optional[str]:
        if name.startswith("graph-") and name.endswith(".npz"):
            return name[len("graph-") : -len(".npz")]
        return None

    # ------------------------------------------------------------- inventory
    def fingerprints(self) -> List[str]:
        """Fingerprints of every published entry."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        found = []
        for name in names:
            fingerprint = self._fingerprint_of_entry(name)
            if fingerprint is not None:
                found.append(fingerprint)
        return found

    def has(self, fingerprint: str) -> bool:
        """Whether a fingerprint's graph is published."""
        return os.path.exists(self.entry_path(fingerprint))

    def _entries(self) -> List[Tuple[float, int, str]]:
        """``(mtime, bytes, fingerprint)`` of every entry (unsorted)."""
        entries = []
        for fingerprint in self.fingerprints():
            try:
                stat = os.stat(self.entry_path(fingerprint))
            except OSError:
                continue  # racing eviction / publish
            entries.append((stat.st_mtime, stat.st_size, fingerprint))
        return entries

    def total_bytes(self) -> int:
        """Total bytes of published entries (sidecars excluded)."""
        return sum(size for _, size, _ in self._entries())

    def budget_bytes(self) -> Optional[int]:
        """The effective byte budget (``None`` when unbounded)."""
        return self.max_bytes if self.max_bytes is not None else _store_budget_bytes()

    # ---------------------------------------------------------------- pinning
    def pin(self, fingerprint: str) -> None:
        """Protect a fingerprint from eviction while a query depends on it."""
        self._pins[fingerprint] = self._pins.get(fingerprint, 0) + 1

    def unpin(self, fingerprint: str) -> None:
        """Drop one pin reference (idempotent below zero)."""
        count = self._pins.get(fingerprint, 0) - 1
        if count > 0:
            self._pins[fingerprint] = count
        else:
            self._pins.pop(fingerprint, None)

    def pinned(self, fingerprint: str) -> bool:
        """Whether a fingerprint is pinned by an in-flight query."""
        return self._pins.get(fingerprint, 0) > 0

    # ------------------------------------------------------------- load/save
    def load(self, system) -> bool:
        """Install a published graph on a packed system (content-addressed).

        Refreshes the entry's recency (mtime) on a hit, pins the entry for
        the duration of the load so a concurrent publisher's eviction pass
        cannot delete the file mid-read, and treats *any* load failure as a
        corrupt entry: log, drop the entry (and its sidecar), report a miss
        — the caller recompiles, it never fails.

        Returns True when the system now holds the loaded graph.
        """
        from .kernel import load_graph

        if system.compiled_graph is not None:
            return False
        fingerprint = system.fingerprint
        path = self.entry_path(fingerprint)
        if not os.path.exists(path):
            return False
        self.pin(fingerprint)
        try:
            load_graph(system, path)
            os.utime(path)
        except FileNotFoundError:
            # Evicted by another process between the existence check and the
            # open: an ordinary miss, not corruption.
            system.compiled_graph = None
            return False
        except Exception as error:
            # Anything a stale, truncated or bit-flipped entry can throw
            # (BadZipFile, also for a payload failing its CRC-32; zlib
            # errors from compressed entries; our own mismatch/corruption
            # checks, ...) means the same thing: no usable graph.  Drop the
            # entry so the next compile republishes a good one, and
            # recompile now — a corrupt store must never fail a
            # verification.
            system.compiled_graph = None
            logger.warning(
                "dropping unusable graph-store entry %s (recompiling): %s",
                path,
                error,
            )
            self._unlink_entry(fingerprint)
            return False
        finally:
            self.unpin(fingerprint)
        return True

    def publish(self, system) -> Optional[str]:
        """Publish a system's finished compiled graph (atomic, idempotent).

        Only complete (or error-stopped) graphs are worth shipping; partial
        graphs and already-published fingerprints are skipped without
        touching the entry.  Publishing stages into a collision-free temp
        file and atomically replaces, then runs one eviction pass so the
        store stays inside its byte budget.  Best-effort: a full disk or a
        read-only directory logs a warning instead of raising.

        Returns the entry path written, or ``None`` when nothing was saved.
        """
        graph = system.compiled_graph
        if graph is None or not (graph.complete or graph.error is not None):
            return None
        from .kernel import _temp_cache_path

        fingerprint = system.fingerprint
        path = self.entry_path(fingerprint)
        if os.path.exists(path):
            return None
        temp_path = _temp_cache_path(path)
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(temp_path, "wb") as handle:
                graph.save(handle)
            os.replace(temp_path, path)
        except OSError as error:
            # The store is an optimization: a full disk or a read-only
            # mount must never fail the verification that produced the
            # graph.
            logger.warning("could not persist compiled graph to %s: %s", path, error)
            return None
        finally:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
        self._unlink_checkpoint(fingerprint)
        self.evict()
        return path

    def publish_checkpoint(self, system) -> Optional[str]:
        """Stage a system's *partial* graph as a resumable checkpoint.

        The mirror image of :meth:`publish`: only graphs still mid
        exploration are worth checkpointing (a finished graph publishes as
        a real entry), the write is atomic (temp + ``os.replace``) so a
        reader never observes a torn checkpoint, and a newer checkpoint of
        the same fingerprint simply replaces the older one.  Best-effort
        like every store write: a full disk logs and moves on — losing a
        checkpoint only costs re-exploration, never correctness.

        Returns the checkpoint path written, or ``None`` when skipped.
        """
        graph = system.compiled_graph
        if graph is None or graph.complete or graph.error is not None:
            return None
        from .kernel import _temp_cache_path

        fingerprint = system.fingerprint
        if os.path.exists(self.entry_path(fingerprint)):
            return None  # the complete graph already landed: nothing to resume
        path = self.checkpoint_path(fingerprint)
        temp_path = _temp_cache_path(path)
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(temp_path, "wb") as handle:
                graph.save(handle)
            os.replace(temp_path, path)
        except OSError as error:
            logger.warning(
                "could not persist exploration checkpoint to %s: %s", path, error
            )
            return None
        finally:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
        return path

    def load_checkpoint(self, system) -> bool:
        """Resume a partial graph from a fingerprint's checkpoint.

        Used by a claimant about to compile cold: a checkpoint left behind
        by a killed compiler is adopted, so exploration continues from the
        last checkpointed level instead of state zero.  Corrupt or
        truncated checkpoints follow the store's log-and-recompile rule —
        warn, drop the file, report a miss.

        Returns True when the system now holds the checkpointed partial
        graph.
        """
        from .kernel import load_graph

        if system.compiled_graph is not None:
            return False
        fingerprint = system.fingerprint
        path = self.checkpoint_path(fingerprint)
        if not os.path.exists(path):
            return False
        try:
            load_graph(system, path)
        except FileNotFoundError:
            system.compiled_graph = None
            return False
        except Exception as error:
            system.compiled_graph = None
            logger.warning(
                "dropping unusable exploration checkpoint %s (recompiling): %s",
                path,
                error,
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return False
        return True

    def _unlink_checkpoint(self, fingerprint: str) -> None:
        """Remove a fingerprint's checkpoint (best-effort)."""
        try:
            os.unlink(self.checkpoint_path(fingerprint))
        except OSError:
            pass

    def _unlink_entry(self, fingerprint: str) -> None:
        """Remove an entry and its lineage sidecar (best-effort)."""
        for path in (self.entry_path(fingerprint), self.lineage_path(fingerprint)):
            try:
                os.unlink(path)
            except OSError:
                pass

    # ---------------------------------------------------------------- lineage
    def record_lineage(self, child_fingerprint: str, parent_fingerprint: str) -> None:
        """Persist the parent fingerprint of a delta-warm-started graph.

        Atomic and best-effort like :meth:`publish`; an existing sidecar is
        left untouched (lineage is content-addressed too: equal child
        fingerprints were lifted from equal parents).
        """
        from .kernel import _temp_cache_path

        path = self.lineage_path(child_fingerprint)
        if os.path.exists(path):
            return
        temp_path = _temp_cache_path(path)
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(temp_path, "w", encoding="utf-8") as handle:
                handle.write(parent_fingerprint + "\n")
            os.replace(temp_path, path)
        except OSError as error:
            logger.warning("could not record graph lineage at %s: %s", path, error)
        finally:
            if os.path.exists(temp_path):
                os.unlink(temp_path)

    def parent_of(self, fingerprint: str) -> Optional[str]:
        """The recorded parent fingerprint of an entry (``None`` when root)."""
        try:
            with open(self.lineage_path(fingerprint), "r", encoding="utf-8") as handle:
                parent = handle.read().strip()
        except OSError:
            return None
        return parent or None

    # ----------------------------------------------------------- single flight
    @staticmethod
    def _claim_holder_alive(path: str) -> Optional[bool]:
        """Whether a claim's recorded holder pid is alive on this host.

        Claim files record their creator's pid.  ``False`` means the holder
        is provably gone (same-host pid no longer exists — the worker was
        SIGKILLed or crashed), ``True`` means it is alive, ``None`` means
        no verdict (unreadable file, foreign-host claim): callers then fall
        back to the age-based staleness rule.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                pid = int(handle.read().strip() or "0")
        except (OSError, ValueError):
            return None
        if pid <= 0:
            return None
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True  # exists, owned by someone else
        except OSError:
            return None
        return True

    def claim(self, fingerprint: str) -> Optional[GraphStoreClaim]:
        """Try to take the single-flight compile claim of a fingerprint.

        Returns a :class:`GraphStoreClaim` when this process should compile
        (including an *unlocked* claim when the directory cannot host a
        lockfile — correctness over exclusion), or ``None`` when another
        live process already holds the claim — the caller should
        :meth:`wait_for` the publish instead of compiling.  A claim whose
        recorded holder pid is provably dead is broken immediately (a
        crashed compiler must not stall its retry for the timeout); claims
        older than :attr:`claim_timeout` are presumed crashed and broken
        regardless.
        """
        path = self.claim_path(fingerprint)
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as error:
            # Unwritable store root: compile without cross-process exclusion
            # rather than failing or deadlocking.
            logger.warning("could not create compile claim %s: %s", path, error)
            return GraphStoreClaim(fingerprint, None, locked=False)
        for _attempt in range(4):
            try:
                descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._claim_holder_alive(path) is False:
                    logger.warning(
                        "breaking compile claim %s (holder is dead)", path
                    )
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    continue
                try:
                    age = time.time() - os.path.getmtime(path)
                except OSError:
                    continue  # the holder released between open and stat: retry
                if age <= self.claim_timeout:
                    return None
                # Stale claim (crashed compiler): break it and retry the
                # exclusive create.  Several breakers may race here; the
                # O_EXCL create decides the winner.
                logger.warning(
                    "breaking stale compile claim %s (%.0f s old)", path, age
                )
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            except OSError as error:
                # Unwritable store: compile without cross-process exclusion
                # rather than failing or deadlocking.
                logger.warning("could not create compile claim %s: %s", path, error)
                return GraphStoreClaim(fingerprint, None, locked=False)
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return GraphStoreClaim(fingerprint, path, locked=True)
        return None

    def wait_for(
        self,
        fingerprint: str,
        timeout: Optional[float] = None,
        poll_interval: float = 0.02,
    ) -> bool:
        """Wait for another process's compile of a fingerprint to publish.

        Polls until the entry appears, the claim vanishes without a publish
        (the compiler failed or produced nothing worth shipping), the claim
        holder is found dead (crashed compiler: return immediately so the
        caller can compile instead of stalling for the timeout) or the
        timeout (default: :attr:`claim_timeout`) expires.  Returns whether
        the entry is now present.
        """
        deadline = time.monotonic() + (
            self.claim_timeout if timeout is None else float(timeout)
        )
        entry = self.entry_path(fingerprint)
        claim = self.claim_path(fingerprint)
        while True:
            if os.path.exists(entry):
                return True
            if not os.path.exists(claim):
                return os.path.exists(entry)
            if self._claim_holder_alive(claim) is False:
                return os.path.exists(entry)
            if time.monotonic() >= deadline:
                return os.path.exists(entry)
            time.sleep(poll_interval)

    # --------------------------------------------------------------- eviction
    def evict(self) -> List[str]:
        """One LRU eviction pass; returns the evicted fingerprints.

        Sweeps crash debris first: publish temp files
        (``graph-*.npz.tmp-<pid>-<n>`` and their ``.parent`` staging twins)
        whose writer died mid-publish are deleted once they are older than
        :attr:`claim_timeout` — a live publisher stages for milliseconds,
        so an old temp file can only be an interrupted one.  Then drops
        orphaned ``.parent`` sidecars (their entry is gone) and ``.ckpt``
        checkpoints superseded by a published entry unconditionally, and
        finally — when a byte budget is configured — removes
        least-recently-used entries until the store fits, skipping entries
        pinned by in-flight queries and entries whose compile claim is
        currently held (a claimed fingerprint is about to be re-published
        or re-read; evicting it would duplicate work).  Checkpoints are
        evicted *last* — only when dropping every evictable full entry
        still leaves the store over budget — and never while their
        fingerprint is pinned or claimed (the claimant is resuming from
        exactly that checkpoint).
        """
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        present = set()
        sidecars = []
        checkpoints = []
        now = time.time()
        for name in names:
            fingerprint = self._fingerprint_of_entry(name)
            if fingerprint is not None:
                present.add(fingerprint)
            elif name.startswith("graph-") and ".tmp-" in name:
                path = os.path.join(self.directory, name)
                try:
                    age = now - os.path.getmtime(path)
                except OSError:
                    continue  # the writer finished (renamed/removed it): fine
                if age > self.claim_timeout:
                    logger.warning(
                        "sweeping interrupted publish %s (%.0f s old)", path, age
                    )
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            elif name.startswith("graph-") and name.endswith(".npz.parent"):
                sidecars.append(name[len("graph-") : -len(".npz.parent")])
            elif name.startswith("graph-") and name.endswith(".npz.ckpt"):
                checkpoints.append(name[len("graph-") : -len(".npz.ckpt")])
        for fingerprint in sidecars:
            if fingerprint not in present:
                try:
                    os.unlink(self.lineage_path(fingerprint))
                except OSError:
                    pass
        for fingerprint in list(checkpoints):
            if fingerprint in present:
                # The complete graph landed; the checkpoint is superseded.
                self._unlink_checkpoint(fingerprint)
                checkpoints.remove(fingerprint)

        budget = self.budget_bytes()
        if budget is None:
            return []
        entries = sorted(self._entries())
        checkpoint_stats = []
        for fingerprint in checkpoints:
            try:
                stat = os.stat(self.checkpoint_path(fingerprint))
            except OSError:
                continue  # adopted/swept by a racing process
            checkpoint_stats.append((stat.st_mtime, stat.st_size, fingerprint))
        total = sum(size for _, size, _ in entries)
        total += sum(size for _, size, _ in checkpoint_stats)
        evicted: List[str] = []
        for _mtime, size, fingerprint in entries:
            if total <= budget:
                break
            if self.pinned(fingerprint):
                continue
            if os.path.exists(self.claim_path(fingerprint)):
                continue
            self._unlink_entry(fingerprint)
            total -= size
            evicted.append(fingerprint)
        # Checkpoints go last: they represent in-flight cold work whose loss
        # costs a full recompile, so every evictable finished entry goes
        # first.  A pinned or claimed fingerprint's checkpoint survives
        # unconditionally — its claimant is (about to be) resuming from it.
        for _mtime, size, fingerprint in sorted(checkpoint_stats):
            if total <= budget:
                break
            if self.pinned(fingerprint):
                continue
            if os.path.exists(self.claim_path(fingerprint)):
                continue
            self._unlink_checkpoint(fingerprint)
            total -= size
            evicted.append(fingerprint)
        if evicted:
            logger.info(
                "graph store evicted %d entr%s (budget %d bytes)",
                len(evicted),
                "y" if len(evicted) == 1 else "ies",
                budget,
            )
        return evicted

    # ------------------------------------------------------------------ stats
    def describe(self) -> Dict[str, object]:
        """Store summary (entries, bytes, budget) for service stats."""
        entries = self._entries()
        try:
            checkpoints = sum(
                1
                for name in os.listdir(self.directory)
                if name.startswith("graph-") and name.endswith(".npz.ckpt")
            )
        except OSError:
            checkpoints = 0
        return {
            "directory": self.directory,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "budget_bytes": self.budget_bytes(),
            "pinned": sum(1 for count in self._pins.values() if count > 0),
            "checkpoints": checkpoints,
        }


#: Per-directory shared store instances: the verifier front-ends route every
#: ``graph_dir`` access through one store per directory, so in-process pins
#: are visible to every caller touching that directory.
_STORE_CACHE: Dict[str, GraphStore] = {}


def store_for(directory) -> GraphStore:
    """Shared :class:`GraphStore` of a cache directory (created on demand)."""
    if not directory:
        raise VerificationError("a graph store needs a directory")
    key = os.path.abspath(str(directory))
    store = _STORE_CACHE.get(key)
    if store is None:
        store = GraphStore(key)
        _STORE_CACHE[key] = store
    return store
