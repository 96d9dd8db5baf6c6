"""Command-line interface: tune, model, measure and inspect bloomRF filters.

Usage (also available as ``python -m repro``)::

    python -m repro tune --keys 50000000 --bits-per-key 14 --max-range 16384
    python -m repro model --keys 1000000 --bits-per-key 16 --max-range 1e9
    python -m repro measure --keys 100000 --bits-per-key 18 --range-size 1e6 \
        --distribution normal --filter bloomrf
    python -m repro inspect filter.bin
    python -m repro store init db/ --filter bloomrf --shards 4
    python -m repro store ingest db/ keys.txt
    python -m repro store query db/ --point 42 --range 100 200
    python -m repro store compact db/ --policy size-tiered
    python -m repro store inspect db/
    python -m repro store recover db/
    python -m repro lint src/repro

``tune`` prints the advisor's chosen configuration and its analytic FPR
estimates; ``model`` prints the full per-level FPR profile; ``measure``
builds a filter over synthetic keys and measures FPR on guaranteed-empty
queries; ``inspect`` summarizes a serialized filter file; ``store``
creates, loads, queries, and summarizes persistent on-disk stores
(:mod:`repro.lsm.store`); ``lint`` runs the AST invariant linter
(:mod:`repro.analysis`) that machine-checks the store's safety contracts.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def _int_ish(text: str) -> int:
    """Accept plain ints and scientific notation like ``1e9``."""
    return int(float(text))


def _key_arg(text: str) -> int:
    """An exact integer key: the float round-trip of :func:`_int_ish` would
    silently corrupt keys above 2**53, so integer literals parse exactly
    (scientific notation still accepted for round workload-style values)."""
    try:
        return int(text)
    except ValueError:
        return int(float(text))


def _read_keyfile(path: str):
    """Keys from a text file (one integer per line) as a uint64 array."""
    from pathlib import Path

    import numpy as np

    lines = Path(path).read_text().split()
    return np.array([int(line) for line in lines], dtype=np.uint64)


def build_parser() -> argparse.ArgumentParser:
    from repro.api import available_kinds

    kinds = available_kinds()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="bloomRF point-range filter toolkit (EDBT 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="run the tuning advisor (Sect. 7)")
    tune.add_argument("--keys", type=_int_ish, required=True)
    tune.add_argument("--bits-per-key", type=float, required=True)
    tune.add_argument("--max-range", type=_int_ish, required=True)
    tune.add_argument("--domain-bits", type=int, default=64)
    tune.add_argument("--point-weight", type=float, default=4.0)

    model = sub.add_parser("model", help="print the per-level FPR profile")
    model.add_argument("--keys", type=_int_ish, required=True)
    model.add_argument("--bits-per-key", type=float, required=True)
    model.add_argument("--max-range", type=_int_ish, required=True)
    model.add_argument("--domain-bits", type=int, default=64)

    measure = sub.add_parser("measure", help="measure FPR on synthetic data")
    measure.add_argument("--keys", type=_int_ish, default=100_000)
    measure.add_argument("--bits-per-key", type=float, default=16)
    measure.add_argument("--range-size", type=_int_ish, default=1 << 16)
    measure.add_argument("--queries", type=_int_ish, default=2_000)
    measure.add_argument(
        "--distribution", choices=("uniform", "normal", "zipfian"), default="uniform"
    )
    measure.add_argument(
        "--workload", choices=("uniform", "normal", "zipfian"), default="uniform"
    )
    measure.add_argument("--filter", choices=kinds, default="bloomrf")
    measure.add_argument("--seed", type=int, default=7)

    inspect = sub.add_parser("inspect", help="summarize a serialized filter")
    inspect.add_argument("path")

    save = sub.add_parser("build", help="build a filter over a key file")
    save.add_argument("keyfile", help="text file, one integer key per line")
    save.add_argument("output", help="where to write the serialized filter")
    save.add_argument("--bits-per-key", type=float, default=16)
    save.add_argument("--max-range", type=_int_ish, default=1 << 20)
    save.add_argument(
        "--filter", choices=kinds, default="bloomrf",
        help="which registered filter kind to build (default: bloomrf)",
    )

    store = sub.add_parser(
        "store", help="create, load, query, and inspect on-disk stores"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    s_init = store_sub.add_parser(
        "init", help="initialize a fresh on-disk store directory"
    )
    s_init.add_argument("path", help="store directory (created if missing)")
    s_init.add_argument(
        "--filter", choices=kinds, default="bloomrf",
        help="filter kind backing every SST filter block",
    )
    s_init.add_argument("--bits-per-key", type=float, default=16)
    s_init.add_argument("--max-range", type=_int_ish, default=1 << 20)
    s_init.add_argument(
        "--shards", type=int, default=1,
        help="partition the store over N shards (one manifest and one "
        "log per shard, in the store directory)",
    )
    s_init.add_argument(
        "--partition", choices=("hash", "range"), default="hash",
        help="shard dispatch scheme when --shards > 1",
    )
    s_init.add_argument("--memtable-capacity", type=_int_ish, default=1 << 16)
    s_init.add_argument(
        "--store-values", action="store_true",
        help="persist values alongside keys (default: key-only mode)",
    )
    s_init.add_argument(
        "--wal-sync", choices=("always", "batch", "off"), default="batch",
        help="write-ahead-log fsync policy, persisted with the store "
        "(always: fsync per write call; batch: group commit; off: no "
        "fsync — kill -9 durability depends on the kernel)",
    )
    s_init.add_argument(
        "--compaction", choices=("manual", "size-tiered", "leveled"),
        default="manual",
        help="background compaction policy, persisted with the store "
        "(manual: foreground `store compact` only; size-tiered/leveled: "
        "merges run on a background worker whenever the run layout trips "
        "the policy)",
    )
    s_init.add_argument(
        "--compression", choices=("zlib", "zstd"), default=None,
        help="per-block SST compression codec, persisted with the store "
        "(zstd needs the `zstd` extra installed; default: uncompressed)",
    )
    s_init.add_argument(
        "--block-bytes", type=_int_ish, default=None,
        help="raw bytes per compressed block (only with --compression; "
        "default 64 KiB)",
    )

    s_ingest = store_sub.add_parser(
        "ingest", help="bulk-load keys from a file into an existing store"
    )
    s_ingest.add_argument("path", help="store directory")
    s_ingest.add_argument("keyfile", help="text file, one integer key per line")

    s_query = store_sub.add_parser(
        "query", help="point lookups / range-emptiness probes against a store"
    )
    s_query.add_argument("path", help="store directory")
    s_query.add_argument(
        "--point", type=_key_arg, nargs="+", default=None,
        help="keys to look up exactly",
    )
    s_query.add_argument(
        "--range", type=_key_arg, nargs=2, metavar=("LO", "HI"),
        dest="range_bounds", default=None,
        help="inclusive range to test for any live key",
    )

    s_compact = store_sub.add_parser(
        "compact",
        help="merge runs in the foreground: a full merge or one policy pass",
    )
    s_compact.add_argument("path", help="store directory")
    s_compact.add_argument(
        "--policy", choices=("full", "stored", "size-tiered", "leveled"),
        default="full",
        help="full: merge every run into one (default); stored: run the "
        "store's persisted policy until quiescent; size-tiered/leveled: "
        "run that policy with default knobs for this pass only (the "
        "store's persisted policy is not changed)",
    )

    s_inspect = store_sub.add_parser(
        "inspect", help="summarize a store directory (manifest + runs)"
    )
    s_inspect.add_argument("path", help="store directory")

    s_recover = store_sub.add_parser(
        "recover",
        help="replay the write-ahead log after a crash and flush the "
        "recovered writes into durable runs",
    )
    s_recover.add_argument("path", help="store directory")

    serve = sub.add_parser(
        "serve",
        help="serve a store over TCP (length-prefixed JSON frames) with "
        "request coalescing; SIGINT/SIGTERM drains in-flight requests, "
        "flushes, and exits",
    )
    serve.add_argument("path", help="store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8474, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="per-connection in-flight request cap (backpressure)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant linter over Python sources "
        "(zero unsuppressed findings = exit 0)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package source)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its summary and exit",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed findings with their reasons",
    )

    return parser


def _cmd_tune(args) -> int:
    from repro.core.advisor import TuningAdvisor

    advisor = TuningAdvisor(
        domain_bits=args.domain_bits, point_weight=args.point_weight
    )
    report = advisor.configure(
        n_keys=args.keys,
        total_bits=int(args.keys * args.bits_per_key),
        max_range=args.max_range,
        return_report=True,
    )
    best = report.best
    print(best.config.describe())
    print(f"total size: {best.config.total_bits} bits "
          f"({best.config.bits_per_key(args.keys):.2f} bits/key)")
    print(f"estimated point FPR: {best.point_fpr:.6f}")
    print(f"estimated range FPR (R <= {args.max_range}): {best.range_fpr:.6f}")
    print(f"candidates examined: {len(report.candidates)} "
          f"(exact levels {sorted({c.exact_level for c in report.candidates})})")
    return 0


def _cmd_model(args) -> int:
    from repro.core.advisor import TuningAdvisor
    from repro.core.model import extended_fpr_profile

    advisor = TuningAdvisor(domain_bits=args.domain_bits)
    config = advisor.configure(
        n_keys=args.keys,
        total_bits=int(args.keys * args.bits_per_key),
        max_range=args.max_range,
    )
    print(config.describe())
    profile = extended_fpr_profile(config, args.keys)
    for level in range(args.domain_bits, -1, -1):
        bar = "#" * int(profile.fpr[level] * 50)
        print(f"level {level:2d}  fpr {profile.fpr[level]:9.6f}  {bar}")
    return 0


def _cmd_measure(args) -> int:
    from repro.bench.harness import (
        build_standalone_filter,
        measure_point_fpr,
        measure_range_fpr,
    )
    from repro.workloads import (
        distribution_by_name,
        empty_point_queries,
        empty_range_queries,
    )

    keys = distribution_by_name(args.distribution)(args.keys, seed=args.seed)
    fut = build_standalone_filter(
        args.filter, keys, bits_per_key=args.bits_per_key,
        max_range=max(args.range_size, 2), seed=args.seed,
    )
    print(f"filter: {args.filter}  size: {fut.size_bits} bits "
          f"({fut.bits_per_key(args.keys):.2f} bits/key)  "
          f"build: {fut.build_time_s * 1e3:.1f} ms")
    if args.range_size <= 1:
        probes = empty_point_queries(keys, args.queries, workload=args.workload)
        result = measure_point_fpr(fut, probes)
        kind = "point"
    else:
        queries = empty_range_queries(
            keys, args.queries, range_size=args.range_size, workload=args.workload
        )
        result = measure_range_fpr(fut, queries)
        kind = f"range({args.range_size})"
    print(f"{kind} FPR over {result.queries} empty queries: {result.fpr:.5f}")
    print(f"probe throughput: {result.queries_per_second:,.0f} queries/s")
    return 0


def _cmd_inspect(args) -> int:
    """Summarize any serialized filter, dispatching on the frame's kind.

    Loading goes through the :mod:`repro.api` registry, so every
    registered kind — bloomRF and every baseline — inspects through this
    one command.  A frame of a retired kind is refused with an error that
    names the kind.  The frame is memory-mapped and its header validated
    up front; the filter then decodes into owned words, exactly as a
    store reopen loads it.
    """
    from pathlib import Path

    from repro import serial
    from repro.baselines.bloom import BloomFilter
    from repro.core.bloomrf import BloomRF

    path = Path(args.path)
    try:
        frame = serial.map_frame(path)
        filt = serial.load_filter(frame.view)
    except ValueError as exc:
        print(f"cannot inspect {args.path}: {exc}")
        return 2
    kind = serial.KIND_NAMES[frame.kind]
    print(f"kind: {kind} (format v{frame.version}, "
          f"{path.stat().st_size / 1024:.1f} KiB on disk)")
    if isinstance(filt, BloomRF):
        print(filt.config.describe())
        print(f"keys inserted: {filt.num_keys}")
        print(f"size: {filt.size_bits} bits ({filt.size_bits / 8 / 1024:.1f} KiB)")
        print(f"PMHF fill ratio: {filt.fill_ratio():.4f}")
    elif isinstance(filt, BloomFilter):
        print(f"BloomFilter(bits={filt.num_bits}, k={filt.num_hashes}, "
              f"seed={filt.seed:#x})")
        print(f"keys inserted: {len(filt)}")
        print(f"fill ratio: {filt.fill_ratio():.4f}")
    else:  # any other registered kind: generic summary
        print(repr(filt))
        if hasattr(filt, "__len__"):
            print(f"keys inserted: {len(filt)}")
        print(f"size: {filt.size_bits} bits "
              f"({filt.size_bits / 8 / 1024:.1f} KiB)")
    return 0


def _cmd_build(args) -> int:
    from pathlib import Path

    from repro.api import make_filter, standard_spec

    keys = _read_keyfile(args.keyfile)
    spec = standard_spec(
        args.filter, bits_per_key=args.bits_per_key, max_range=args.max_range
    )
    filt = make_filter(spec, n_keys=max(int(keys.size), 1))
    filt.insert_many(keys)
    try:
        filt.size_bits  # force lazy builders (SuRF) before describing
    except ValueError as exc:
        print(f"cannot build a {args.filter} filter: {exc}")
        return 2
    config = getattr(filt, "config", None)
    described = config.describe() if config is not None else repr(filt)
    try:
        blob = filt.to_bytes()
    except ValueError as exc:  # e.g. an empty SuRF has no trie to persist
        print(f"cannot serialize the built {args.filter} filter: {exc}")
        return 2
    Path(args.output).write_bytes(blob)
    print(f"built {described}")
    print(f"wrote {args.output} ({filt.size_bits / 8 / 1024:.1f} KiB, "
          f"{keys.size} keys)")
    return 0


def _cmd_store(args) -> int:
    return _STORE_COMMANDS[args.store_command](args)


def _cmd_store_init(args) -> int:
    from pathlib import Path

    from repro.api import open_store, standard_spec
    from repro.lsm.store import MANIFEST_NAME

    if args.shards < 1:
        print("--shards must be >= 1")
        return 2
    if (Path(args.path) / MANIFEST_NAME).is_file():
        print(f"{args.path} already holds a store; refusing to re-initialize")
        return 2
    if args.block_bytes is not None and args.compression is None:
        print("--block-bytes requires --compression")
        return 2
    spec = standard_spec(
        args.filter, bits_per_key=args.bits_per_key, max_range=args.max_range
    )
    compression = args.compression
    if compression is not None and args.block_bytes is not None:
        compression = {"codec": compression, "block_bytes": args.block_bytes}
    try:
        with open_store(
            path=args.path,
            filter=spec,
            shards=args.shards,
            partition=args.partition,
            memtable_capacity=args.memtable_capacity,
            store_values=args.store_values,
            wal_sync=args.wal_sync,
            compaction=args.compaction,
            compression=compression,
        ):
            pass
    except ValueError as exc:  # e.g. --compression zstd without the extra
        print(f"cannot initialize {args.path}: {exc}")
        return 2
    sharding = (
        f"{args.shards} {args.partition}-partitioned shards"
        if args.shards > 1
        else "unsharded"
    )
    codec = (
        "uncompressed"
        if args.compression is None
        else f"{args.compression}-compressed"
    )
    print(f"initialized {args.path}: {spec!r}, {sharding}, "
          f"{args.compaction} compaction, {codec}")
    return 0


def _cmd_store_ingest(args) -> int:
    from pathlib import Path

    from repro.api import open_store
    from repro.lsm.store import MANIFEST_NAME
    from repro.serial import SerialError

    keys = _read_keyfile(args.keyfile)
    if not (Path(args.path) / MANIFEST_NAME).is_file():
        print(f"{args.path} holds no store; run `repro store init` first")
        return 2
    try:
        with open_store(path=args.path) as db:
            db.put_many(keys)
            db.flush()
            total = db.num_keys
            runs = db.num_sstables
    except SerialError as exc:
        print(f"cannot open store {args.path}: {exc}")
        return 2
    print(f"ingested {keys.size} keys into {args.path} "
          f"({total} keys live across {runs} runs)")
    return 0


def _cmd_store_query(args) -> int:
    from pathlib import Path

    import numpy as np

    from repro.api import open_store
    from repro.lsm.store import MANIFEST_NAME
    from repro.serial import SerialError

    if args.point is None and args.range_bounds is None:
        print("nothing to query: pass --point and/or --range")
        return 2
    if not (Path(args.path) / MANIFEST_NAME).is_file():
        print(f"{args.path} holds no store; run `repro store init` first")
        return 2
    try:
        # Arguments become uint64 arrays before the store is touched, so
        # out-of-domain keys fail as "bad query", never as a store error.
        points = (
            np.array(args.point, dtype=np.uint64)
            if args.point is not None
            else None
        )
        bounds = (
            np.array([args.range_bounds], dtype=np.uint64)
            if args.range_bounds is not None
            else None
        )
    except (ValueError, OverflowError) as exc:
        print(f"bad query: {exc}")
        return 2
    try:
        with open_store(path=args.path) as db:
            if points is not None:
                present = db.get_many(points)
                for key, hit in zip(points.tolist(), present.tolist(), strict=True):
                    print(f"point {key}: {'present' if hit else 'absent'}")
            if bounds is not None:
                lo, hi = args.range_bounds
                hit = bool(db.scan_nonempty_many(bounds)[0])
                print(f"range [{lo}, {hi}]: "
                      f"{'non-empty' if hit else 'empty'}")
            stats = db.stats
            print(f"filter probes: {stats.filter_probes} "
                  f"(positives {stats.filter_positives}, "
                  f"false positives {stats.filter_false_positives}), "
                  f"blocks read: {stats.blocks_read}")
    except SerialError as exc:
        print(f"cannot open store {args.path}: {exc}")
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"bad query: {exc}")
        return 2
    return 0


def _cmd_store_compact(args) -> int:
    """Foreground compaction over an existing store.

    ``--policy full`` merges every run into one; the other choices run
    :meth:`maybe_compact` passes until the policy reports quiescence.
    One-shot policies go in as an *argument* (never assigned to the
    engine), so the store's persisted policy is untouched.
    """
    from pathlib import Path

    from repro.api import open_store
    from repro.lsm.compaction import COMPACTION_POLICIES
    from repro.lsm.store import MANIFEST_NAME
    from repro.serial import SerialError

    if not (Path(args.path) / MANIFEST_NAME).is_file():
        print(f"{args.path} holds no store; run `repro store init` first")
        return 2
    try:
        with open_store(path=args.path) as db:
            before = db.num_sstables
            merges = 0
            if args.policy == "full":
                db.compact()
                merges = 1 if before > 1 else 0
            else:
                override = (
                    None  # maybe_compact falls back to the stored policy
                    if args.policy == "stored"
                    else COMPACTION_POLICIES[args.policy]()
                )
                if args.policy == "stored" and db.compaction is None:
                    print("stored policy is manual; nothing to run "
                          "(use --policy full or name a policy)")
                    return 0
                for engine in getattr(db, "shards", None) or [db]:
                    while engine.maybe_compact(override) is not None:
                        merges += 1
            after = db.num_sstables
    except SerialError as exc:
        print(f"cannot open store {args.path}: {exc}")
        return 2
    print(f"compacted {args.path} ({args.policy}): "
          f"{before} -> {after} runs, {merges} merge(s)")
    return 0


def _cmd_store_inspect(args) -> int:
    """Summarize a store from its manifest, run filters, and logs.

    Nothing here opens the store or decodes a key or value: the manifest
    gives the run layout (:func:`~repro.lsm.store.read_store`), each run
    file gives up only its filter block
    (:func:`~repro.lsm.store.read_run_filter`) for its bit count, and each
    shard's log is read against its manifest entry by the epoch rule
    reopen applies — so inspecting a multi-GB store reads only its
    filters and logs.
    """
    from repro.lsm.compaction import (
        SizeTieredPolicy,
        coerce_compaction,
        compaction_to_dict,
    )
    from repro.lsm.store import read_run_filter, read_store
    from repro.serial import FORMAT_VERSION, SerialError

    try:
        store = read_store(args.path)
        specs = store.specs
        num_shards = len(specs)
        engine = "sharded-lsm" if num_shards > 1 else "lsm"
        print(f"engine: {engine} (store format v{FORMAT_VERSION})")
        if num_shards > 1:
            print(f"shards: {num_shards} ({store.partition} partition)")
        if len({spec.to_json() for spec in specs}) == 1:
            print(f"filter: {specs[0]!r}")
        else:
            for i, spec in enumerate(specs):
                print(f"filter[shard {i}]: {spec!r}")
        geometry = store.geometry
        print(f"geometry: memtable_capacity={geometry.memtable_capacity}, "
              f"value_bytes={geometry.value_bytes}, "
              f"block_bytes={geometry.block_bytes}, "
              f"store_values={geometry.store_values}")
        if store.compression:
            print(f"compression: {store.compression['codec']} "
                  f"(block_bytes={store.compression['block_bytes']})")
        # Run layout straight from the manifest; filter bit counts come
        # from the loaded filter blocks.
        shard_run_keys = [
            [run["num_keys"] for run in entry["runs"]]
            for entry in store.committed
        ]
        filter_bits = sum(
            read_run_filter(store.directory, run["file"]).size_bits
            for entry in store.committed
            for run in entry["runs"]
        )
        total_runs = sum(len(keys) for keys in shard_run_keys)
        total_keys = sum(sum(keys) for keys in shard_run_keys)
        bits_per_key = filter_bits / total_keys if total_keys else 0.0
        print(f"runs: {total_runs}, keys: {total_keys}, "
              f"filter bits: {filter_bits} ({bits_per_key:.2f} bits/key)")
        policy = coerce_compaction(geometry.compaction)
        policy_dict = compaction_to_dict(policy)
        params = ", ".join(
            f"{k}={v}" for k, v in policy_dict["params"].items()
        )
        print(f"compaction: {policy_dict['policy']}"
              + (f" ({params})" if params else ""))
        describe = policy if policy is not None else SizeTieredPolicy()
        levels: dict = {}
        pending = False
        for run_keys in shard_run_keys:
            for entry in describe.describe_levels(run_keys):
                bucket = levels.setdefault(
                    entry["level"],
                    {"level": entry["level"], "runs": 0, "keys": 0},
                )
                bucket["runs"] += entry["runs"]
                bucket["keys"] += entry["keys"]
            pending = pending or (
                policy is not None and policy.pick(run_keys) is not None
            )
        for level in sorted(levels):
            entry = levels[level]
            print(f"  level {entry['level']}: {entry['runs']} run(s), "
                  f"{entry['keys']} keys")
        if pending:
            print("  pending: a merge window is eligible")
        if policy is not None:
            # A background policy gets a scheduler on open with one
            # worker per shard.
            print(f"  scheduler: {num_shards} worker(s), merges=0, "
                  "in flight 0, pending 0")
        # Records at a shard's manifest epoch replay on the next open;
        # older ones are already durable in runs and will be discarded.
        epoch = records = wal_bytes = replay_ops = stale = 0
        torn_any = False
        for index in range(num_shards):
            log = store.read_log(index)
            epoch = max(epoch, log.epoch)
            wal_bytes += log.valid_end
            torn_any = torn_any or log.torn
            if log.stale:
                stale += len(log.records)
            else:
                records += len(log.records)
                replay_ops += sum(int(rec.keys.size) for rec in log.records)
        print(f"wal: sync={geometry.wal_sync}, epoch={epoch}, "
              f"pending records: {records} ({wal_bytes} bytes)")
        if records or torn_any:
            torn = " (torn tail truncated)" if torn_any else ""
            print(f"wal replay on open: {records} records"
                  f" / {replay_ops} ops{torn}")
        if stale:
            print(f"wal: {stale} stale record(s) from an older epoch "
                  "(already durable in runs; discarded on open)")
    except SerialError as exc:
        print(f"cannot inspect store {args.path}: {exc}")
        return 2
    return 0


def _cmd_store_recover(args) -> int:
    from pathlib import Path

    from repro.api import open_store
    from repro.lsm.store import MANIFEST_NAME
    from repro.serial import SerialError

    if not (Path(args.path) / MANIFEST_NAME).is_file():
        print(f"{args.path} holds no store; run `repro store init` first")
        return 2
    try:
        with open_store(path=args.path) as db:
            wal = db.wal_info()
            torn = " (torn tail truncated)" if wal["recovered_torn_tail"] else ""
            print(f"replayed {wal['replayed_records']} log records "
                  f"/ {wal['replayed_ops']} ops{torn}")
            if wal["discarded_stale_records"]:
                print(f"discarded {wal['discarded_stale_records']} stale "
                      f"records already persisted in runs")
            db.flush()  # recovered writes into durable runs; log truncated
            print(f"recovered store: {db.num_keys} keys live across "
                  f"{db.num_sstables} runs; write-ahead log empty")
    except SerialError as exc:
        print(f"cannot recover store {args.path}: {exc}")
        return 2
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    from pathlib import Path

    from repro.api import open_store
    from repro.lsm.store import MANIFEST_NAME
    from repro.server import run_server

    if not (Path(args.path) / MANIFEST_NAME).is_file():
        print(f"{args.path} holds no store; run `repro store init` first")
        return 2

    def ready(host: str, port: int) -> None:
        print(
            f"serving {args.path} on {host}:{port} (coalescing); "
            f"Ctrl-C drains and stops",
            flush=True,
        )

    with open_store(path=args.path) as db:
        server = asyncio.run(
            run_server(
                db,
                args.host,
                args.port,
                max_inflight=args.max_inflight,
                on_ready=ready,
            )
        )
        info = server.info()
        print(
            f"served {info['requests']} requests over "
            f"{info['connections']} connections in {info['ticks']} ticks "
            f"({info['mean_tick_ops']:.1f} ops/tick, "
            f"{info['barriers']} ack barriers)"
        )
    return 0


_STORE_COMMANDS = {
    "init": _cmd_store_init,
    "ingest": _cmd_store_ingest,
    "query": _cmd_store_query,
    "compact": _cmd_store_compact,
    "inspect": _cmd_store_inspect,
    "recover": _cmd_store_recover,
}

def _cmd_lint(args) -> int:
    from repro.analysis.cli import main as lint_main

    argv = list(args.paths)
    if args.list_rules:
        argv.append("--list-rules")
    if args.show_suppressed:
        argv.append("--show-suppressed")
    return lint_main(argv)


_COMMANDS = {
    "tune": _cmd_tune,
    "model": _cmd_model,
    "measure": _cmd_measure,
    "inspect": _cmd_inspect,
    "build": _cmd_build,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
