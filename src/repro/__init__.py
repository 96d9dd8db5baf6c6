"""repro — a reproduction of bloomRF (EDBT 2023).

bloomRF is a unified *point-range filter*: an approximate membership
structure that answers both "is key x in the set?" and "is any key in
[a, b]?" with no false negatives, online insertions and constant query
complexity.  This package implements the paper's filter, its tuning advisor
and analytic models, every baseline from its evaluation (Bloom, Prefix-Bloom,
fence pointers, Cuckoo, Rosetta, SuRF), an LSM-tree substrate standing in for
RocksDB, and the workload generators needed to reproduce the paper's
experiments.

Quickstart (the one filter API)::

    import numpy as np
    from repro import FilterSpec, make_filter, open_store

    # Any registered filter kind builds from a spec (plain, JSON-able data).
    spec = FilterSpec("bloomrf", {"bits_per_key": 16, "max_range": 1 << 20})
    filt = make_filter(spec, n_keys=100_000)
    keys = np.random.default_rng(7).integers(0, 1 << 64, 100_000, dtype=np.uint64)
    filt.insert_many(keys)
    filt.contains_point(int(keys[0]))          # True (never a false negative)
    filt.contains_range(1000, 1 << 20)         # True or False (maybe/no)

    # The same spec drives a whole LSM store (sharded with shards=N).
    db = open_store(filter=spec, shards=1)
    db.put_many(keys)
    db.get_many(keys[:100])                    # all True
"""

from repro.api import (
    FilterSpec,
    NullFilter,
    RangeFilter,
    Store,
    available_kinds,
    filter_from_bytes,
    make_filter,
    open_store,
    register_filter,
    standard_spec,
)
from repro.core import (
    AdvisorReport,
    AttributeSpec,
    BloomRF,
    BloomRFConfig,
    FloatBloomRF,
    FprProfile,
    MultiAttributeBloomRF,
    StringBloomRF,
    TuningAdvisor,
    basic_point_fpr,
    basic_range_fpr_bound,
    extended_fpr_profile,
    float_to_key,
    key_to_float,
    string_range_keys,
    string_to_point_key,
)
from repro.lsm.filter_policy import SpecPolicy
from repro.lsm.sharded import ShardedLsmDB

__version__ = "1.21.0"

__all__ = [
    "BloomRF",
    "BloomRFConfig",
    "FilterSpec",
    "RangeFilter",
    "Store",
    "SpecPolicy",
    "NullFilter",
    "available_kinds",
    "filter_from_bytes",
    "make_filter",
    "open_store",
    "register_filter",
    "standard_spec",
    "ShardedLsmDB",
    "TuningAdvisor",
    "AdvisorReport",
    "FprProfile",
    "basic_point_fpr",
    "basic_range_fpr_bound",
    "extended_fpr_profile",
    "AttributeSpec",
    "FloatBloomRF",
    "MultiAttributeBloomRF",
    "StringBloomRF",
    "float_to_key",
    "key_to_float",
    "string_range_keys",
    "string_to_point_key",
    "__version__",
]
