"""Public-API surface snapshot (CI gate).

Pins the exported names of ``repro``, ``repro.api``, ``repro.lsm``,
``repro.serial`` and ``repro.server`` so a future PR cannot silently
break the interface: removing or renaming an export fails here, and
*adding* one fails too — forcing the snapshot (and therefore the review)
to acknowledge the new surface.  Update the frozen lists in the
same PR that changes the API, with a CHANGES.md note.
"""

import repro
import repro.api
import repro.lsm
import repro.serial
import repro.server

REPRO_ALL = [
    "AdvisorReport",
    "AttributeSpec",
    "BloomRF",
    "BloomRFConfig",
    "FilterSpec",
    "FloatBloomRF",
    "MultiAttributeBloomRF",
    "NullFilter",
    "RangeFilter",
    "ShardedLsmDB",
    "SpecPolicy",
    "Store",
    "StringBloomRF",
    "TuningAdvisor",
    "FprProfile",
    "available_kinds",
    "basic_point_fpr",
    "basic_range_fpr_bound",
    "extended_fpr_profile",
    "filter_from_bytes",
    "float_to_key",
    "key_to_float",
    "make_filter",
    "open_store",
    "register_filter",
    "standard_spec",
    "string_range_keys",
    "string_to_point_key",
    "__version__",
]

API_ALL = [
    "FilterSpec",
    "NullFilter",
    "RangeFilter",
    "Store",
    "available_kinds",
    "filter_from_bytes",
    "make_filter",
    "open_store",
    "register_filter",
    "standard_spec",
]

LSM_ALL = [
    "LsmDB",
    "ShardedLsmDB",
    "PersistentLsmDB",
    "WriteAheadLog",
    "MemTable",
    "SSTable",
    "IOStats",
    "SpecPolicy",
    "policy_by_name",
    "SizeTieredPolicy",
    "LeveledPolicy",
    "CompactionScheduler",
    "COMPACTION_POLICIES",
    "coerce_compaction",
]

SERIAL_ALL = [
    "MAGIC",
    "FORMAT_VERSION",
    "FORMAT_VERSION_BLOCKS",
    "SerialError",
    "KIND_BLOOMRF",
    "KIND_BLOOM",
    "KIND_SHARDED_BLOOMRF",
    "KIND_PREFIX_BLOOM",
    "KIND_ROSETTA",
    "KIND_SURF",
    "KIND_CUCKOO",
    "KIND_NONE",
    "KIND_SSTABLE",
    "KIND_STORE",
    "KIND_WAL",
    "KIND_NAMES",
    "RETIRED_KINDS",
    "pack_frame",
    "unpack_frame",
    "unpack_frame_prefix",
    "peek_kind",
    "map_frame",
    "FrameView",
    "dump_filter",
    "load_filter",
]

SERVER_ALL = [
    "AsyncStoreClient",
    "Coalescer",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ServerError",
    "StoreClient",
    "StoreServer",
    "run_server",
]

# The construction surface of the registry: every kind a FilterSpec can
# name.  Removing a kind is an API break; additions must land here.
REGISTERED_KINDS = [
    "bloom",
    "bloomrf",
    "bloomrf-basic",
    "cuckoo",
    "none",
    "prefix-bloom",
    "rosetta",
    "surf",
]


def test_repro_all_snapshot():
    assert sorted(repro.__all__) == sorted(REPRO_ALL)


def test_api_all_snapshot():
    assert sorted(repro.api.__all__) == sorted(API_ALL)


def test_lsm_all_snapshot():
    assert sorted(repro.lsm.__all__) == sorted(LSM_ALL)


def test_serial_all_snapshot():
    assert sorted(repro.serial.__all__) == sorted(SERIAL_ALL)


def test_server_all_snapshot():
    assert sorted(repro.server.__all__) == sorted(SERVER_ALL)


def test_registered_kinds_snapshot():
    assert sorted(repro.available_kinds()) == sorted(REGISTERED_KINDS)


def test_all_exports_resolve():
    for module in (repro, repro.api, repro.lsm, repro.serial, repro.server):
        for name in module.__all__:
            assert getattr(module, name, None) is not None, (
                f"{module.__name__}.{name} is exported but missing"
            )
