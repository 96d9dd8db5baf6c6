"""Background compaction: pluggable merge policies + a worker scheduler.

The paper's deployment target keeps bloomRF filter blocks useful by
keeping the run set *bounded*: under sustained write traffic an L0-only
store grows one overlapping run per memtable flush and every probe pays
for all of them.  This module supplies the steady-state machinery:

* :class:`SizeTieredPolicy` / :class:`LeveledPolicy` — pure, stateless
  *pickers*: given the engine's newest-first run sizes they either
  return a merge window or None.  ``"manual"`` (= no policy) keeps the
  paper's compaction-disabled L0 shape.
* :class:`CompactionScheduler` — runs policy-selected merges on
  background worker threads (a :class:`~repro.parallel.ShardPool`; the
  shards of a sharded store share one), with per-engine coalescing:
  back-to-back flush triggers collapse into one drain loop that
  re-evaluates the policy until it is quiescent.

Soundness: a merge window is always a **contiguous** slice of the
newest-first run list.  Runs carry no per-entry timestamps — recency is
encoded purely by list position — so merging a non-contiguous subset
could let an excluded middle run shadow a newer version.  A contiguous
window collapses to one run in place and every key's newest version
stays newest.  Tombstones are dropped only when the window includes the
oldest run (nothing older left to shadow); interior merges keep them.

Policy configuration is plain data (``{"policy": name, "params":
{...}}``) so it persists in the store manifest and round-trips through
``open_store(compaction=...)``, the CLI, and reopen checks.

Worker-path contract (machine-checked by ``repro lint``): a background
thread cannot unwind the main thread, so no exception may be silently
swallowed — errors must reach ``last_error`` or re-raise
(``exception-discipline``), and merge commits must hold the engine's
maintenance lock (``lock-discipline``).
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

from repro.parallel import ShardPool

__all__ = [
    "COMPACTION_POLICIES",
    "CompactionPolicy",
    "SizeTieredPolicy",
    "LeveledPolicy",
    "CompactionScheduler",
    "coerce_compaction",
    "compaction_to_dict",
]


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
class CompactionPolicy:
    """A merge-candidate picker over the newest-first run-size list.

    Subclasses implement :meth:`pick`; everything else (serialization,
    level assignment for ``store inspect``) is shared.  Policies hold no
    engine state, so one instance can serve every shard of a sharded
    store.
    """

    name = "abstract"

    def params(self) -> dict:
        """The constructor parameters, JSON-ready (manifest persistence)."""
        raise NotImplementedError

    def pick(self, run_keys: Sequence[int]) -> tuple[int, int] | None:
        """A merge window over ``run_keys`` (newest first), or None.

        Returns ``(start, stop)`` — a non-empty contiguous ``[start,
        stop)`` slice of at least two runs — when the policy's trigger
        fires; None when the run set is acceptable as-is.
        """
        raise NotImplementedError

    def level_of(self, num_keys: int, base: int) -> int:
        """The size tier/level of a run of ``num_keys`` keys (display +
        leveled trigger): 0 for runs up to ``base`` keys, then one level
        per ``growth``-factor of size."""
        growth = self._growth()
        if num_keys <= base:
            return 0
        return 1 + int(math.floor(math.log(num_keys / base, growth)))

    def _growth(self) -> float:
        return 2.0

    def describe_levels(self, run_keys: Sequence[int]) -> list[dict]:
        """Per-level run counts/key totals for ``store inspect``."""
        if not run_keys:
            return []
        base = max(1, min(run_keys))
        levels: dict[int, dict] = {}
        for keys in run_keys:
            level = self.level_of(keys, base)
            entry = levels.setdefault(level, {"level": level, "runs": 0, "keys": 0})
            entry["runs"] += 1
            entry["keys"] += int(keys)
        return [levels[level] for level in sorted(levels)]

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> dict:
        return {"policy": self.name, "params": dict(sorted(self.params().items()))}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompactionPolicy) and self.to_dict() == other.to_dict()
        )

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.params().items()))))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{type(self).__name__}({params})"


class SizeTieredPolicy(CompactionPolicy):
    """Cassandra-style size tiering: merge a window of similar-sized runs.

    The trigger fires when ``min_runs`` contiguous runs are within
    ``size_ratio`` of each other (largest <= ratio * smallest); the
    cheapest such window (fewest total keys) wins, capped at
    ``max_runs`` inputs per merge.  Repeated memtable flushes produce
    equal-sized L0 runs, so the run count stays O(log n) under a
    sustained write stream.
    """

    name = "size-tiered"

    def __init__(
        self,
        min_runs: int = 4,
        max_runs: int = 32,
        size_ratio: float = 2.0,
    ) -> None:
        if min_runs < 2:
            raise ValueError(f"min_runs must be >= 2, got {min_runs}")
        if max_runs < min_runs:
            raise ValueError(
                f"max_runs ({max_runs}) must be >= min_runs ({min_runs})"
            )
        if size_ratio < 1.0:
            raise ValueError(f"size_ratio must be >= 1.0, got {size_ratio}")
        self.min_runs = int(min_runs)
        self.max_runs = int(max_runs)
        self.size_ratio = float(size_ratio)

    def params(self) -> dict:
        return {
            "min_runs": self.min_runs,
            "max_runs": self.max_runs,
            "size_ratio": self.size_ratio,
        }

    def _growth(self) -> float:
        return max(self.size_ratio, 1.5)

    def pick(self, run_keys: Sequence[int]) -> tuple[int, int] | None:
        n = len(run_keys)
        best: tuple[int, int, int] | None = None  # (total_keys, start, stop)
        for start in range(n):
            lo = hi = run_keys[start]
            total = run_keys[start]
            for stop in range(start + 1, min(n, start + self.max_runs) + 1):
                if stop > start + 1:
                    keys = run_keys[stop - 1]
                    lo, hi = min(lo, keys), max(hi, keys)
                    total += keys
                    if hi > self.size_ratio * lo:
                        break
                if stop - start >= self.min_runs:
                    if best is None or total < best[0]:
                        best = (total, start, stop)
        if best is None:
            return None
        return best[1], best[2]


class LeveledPolicy(CompactionPolicy):
    """RocksDB-style leveling: bounded runs per exponentially-sized level.

    A run's level is its size class relative to the smallest run
    (``fanout``-factor per level).  When any level exceeds
    ``runs_per_level`` runs, the contiguous window spanning that level's
    runs (including any interleaved runs of other levels, to keep the
    window contiguous and therefore version-sound) merges into one
    deeper run.  The shallowest overfull level wins — merging new small
    runs first keeps write bursts from stalling behind giant merges.
    """

    name = "leveled"

    def __init__(self, runs_per_level: int = 4, fanout: float = 8.0) -> None:
        if runs_per_level < 1:
            raise ValueError(
                f"runs_per_level must be >= 1, got {runs_per_level}"
            )
        if fanout <= 1.0:
            raise ValueError(f"fanout must be > 1.0, got {fanout}")
        self.runs_per_level = int(runs_per_level)
        self.fanout = float(fanout)

    def params(self) -> dict:
        return {"runs_per_level": self.runs_per_level, "fanout": self.fanout}

    def _growth(self) -> float:
        return self.fanout

    def pick(self, run_keys: Sequence[int]) -> tuple[int, int] | None:
        n = len(run_keys)
        if n < 2:
            return None
        base = max(1, min(run_keys))
        levels = [self.level_of(keys, base) for keys in run_keys]
        overfull: dict[int, list[int]] = {}
        for index, level in enumerate(levels):
            overfull.setdefault(level, []).append(index)
        for level in sorted(overfull):
            members = overfull[level]
            if len(members) <= self.runs_per_level:
                continue
            start, stop = members[0], members[-1] + 1
            if stop - start >= 2:
                return start, stop
        return None


COMPACTION_POLICIES: dict[str, type[CompactionPolicy]] = {
    SizeTieredPolicy.name: SizeTieredPolicy,
    LeveledPolicy.name: LeveledPolicy,
}


def coerce_compaction(config) -> CompactionPolicy | None:
    """A policy instance (or None = manual) from every accepted form.

    Accepts None / ``"manual"``, a policy name string, a policy
    instance, or a dict ``{"policy": name, "params": {...}}`` (the
    manifest form; flat trigger knobs beside ``"policy"`` work too).
    Raises :class:`ValueError` naming the known policies otherwise.
    """
    if config is None or config == "manual" or config == {"policy": "manual"}:
        return None
    if isinstance(config, CompactionPolicy):
        return config
    if isinstance(config, str):
        try:
            return COMPACTION_POLICIES[config]()
        except KeyError:
            known = ", ".join(["manual", *sorted(COMPACTION_POLICIES)])
            raise ValueError(
                f"unknown compaction policy {config!r} (known: {known})"
            ) from None
    if isinstance(config, dict):
        data = dict(config)
        name = data.pop("policy", None)
        if name == "manual":
            return None
        params = dict(data.pop("params", {}))
        params.update(data)  # flat knobs beside "policy" are accepted too
        if name not in COMPACTION_POLICIES:
            known = ", ".join(["manual", *sorted(COMPACTION_POLICIES)])
            raise ValueError(
                f"unknown compaction policy {name!r} (known: {known})"
            )
        try:
            return COMPACTION_POLICIES[name](**params)
        except TypeError as exc:
            raise ValueError(
                f"invalid parameters for compaction policy {name!r}: {exc}"
            ) from None
    raise ValueError(
        "compaction must be None, 'manual', a policy name, a policy "
        f"instance, or a config dict; got {type(config).__name__}"
    )


def compaction_to_dict(policy: CompactionPolicy | None) -> dict:
    """The manifest/JSON form of a policy (``manual`` for None)."""
    if policy is None:
        return {"policy": "manual", "params": {}}
    return policy.to_dict()


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------
class CompactionScheduler:
    """Background merge execution over one or many engines.

    Engines call :meth:`notify` after every flush; the scheduler runs
    each engine's :meth:`~repro.lsm.db.LsmDB.maybe_compact` drain loop on
    a worker thread until the policy is quiescent.  At most one drain
    loop runs per engine at a time — a notify landing while one is
    active just marks the engine dirty, so back-to-back triggers
    coalesce into the already-running loop (re-checked before the worker
    exits, so no trigger is lost).

    Workers catch ``BaseException`` (fault injection raises
    :class:`~repro.testing.faults.InjectedCrash`, which is not an
    ``Exception``) and record it under :attr:`last_error` instead of
    dying silently — a crashed merge never wedges :meth:`close`.

    :meth:`close` is idempotent and *drains*: it refuses new work, waits
    for every in-flight drain loop, then shuts the pool down — the
    lifecycle contract ``LsmDB.close()`` relies on.
    """

    def __init__(self, max_workers: int = 1, name: str = "compaction") -> None:
        self._pool = ShardPool(max_workers, name=name)
        self._lock = threading.Lock()
        self._active: dict[int, object] = {}  # id(engine) -> Future
        self._dirty: set[int] = set()
        self._closed = False
        self.notifications = 0
        self.merges = 0
        self.merged_runs = 0
        self.merged_input_keys = 0
        self.merged_output_keys = 0
        self.last_error: BaseException | None = None

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def notify(self, engine) -> bool:
        """Schedule a policy evaluation for ``engine`` (non-blocking).

        Returns True when a new drain loop was submitted, False when the
        trigger coalesced into an active loop or the scheduler is closed.
        """
        key = id(engine)
        with self._lock:
            self.notifications += 1
            if self._closed:
                return False
            if key in self._active:
                self._dirty.add(key)
                return False
            future = self._pool.submit(self._drain_engine, engine)
            self._active[key] = future
            return True

    def _drain_engine(self, engine) -> None:
        """One engine's drain loop: merge until the policy is quiescent."""
        key = id(engine)
        try:
            while True:
                with self._lock:
                    self._dirty.discard(key)
                    if self._closed:
                        return
                merged = engine.maybe_compact()
                if merged is None:
                    with self._lock:
                        # A flush landed while we were merging: loop again
                        # instead of dropping its trigger on the floor.
                        if key not in self._dirty:
                            return
                    continue
                with self._lock:
                    self.merges += 1
                    self.merged_runs += merged["input_runs"]
                    self.merged_input_keys += merged["input_keys"]
                    self.merged_output_keys += merged["output_keys"]
        except BaseException as exc:  # noqa: BLE001 - crash-kill safety net
            with self._lock:
                self.last_error = exc
        finally:
            with self._lock:
                self._active.pop(key, None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def drain(self) -> None:
        """Block until every in-flight drain loop has finished."""
        while True:
            with self._lock:
                futures = list(self._active.values())
            if not futures:
                return
            for future in futures:
                future.result()  # _drain_engine never raises

    def close(self) -> None:
        """Refuse new work, drain in-flight merges, stop the workers."""
        with self._lock:
            if self._closed:
                self._pool.close()
                return
            self._closed = True
        self.drain()
        self._pool.close()

    def __enter__(self) -> "CompactionScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def info(self) -> dict:
        """Scheduler state for ``store inspect`` and the benchmarks."""
        with self._lock:
            return {
                "workers": self._pool.max_workers,
                "closed": self._closed,
                "in_flight": len(self._active),
                "pending": len(self._dirty),
                "notifications": self.notifications,
                "merges": self.merges,
                "merged_runs": self.merged_runs,
                "merged_input_keys": self.merged_input_keys,
                "merged_output_keys": self.merged_output_keys,
                "last_error": repr(self.last_error) if self.last_error else None,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompactionScheduler(workers={self._pool.max_workers}, "
            f"merges={self.merges}, closed={self._closed})"
        )
