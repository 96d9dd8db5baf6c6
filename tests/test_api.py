"""The one filter API (``repro.api``): protocol, specs, registry, facade.

The acceptance ladder for the API redesign:

* every registered kind satisfies the :class:`~repro.api.RangeFilter`
  protocol and passes the same conformance + serialization round-trip
  suite (Hypothesis: build -> insert -> ``to_bytes`` -> ``from_bytes``
  answers point and range batches bit-identically);
* ``SpecPolicy`` drives a store straight from a spec and rehydrates any
  kind's filter block;
* ``open_store`` returns the engines behind one ``Store`` interface with
  answers identical to direct construction.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
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
from repro.lsm import LsmDB, ShardedLsmDB, SpecPolicy
from repro.serial import KIND_NONE, KIND_SHARDED_BLOOMRF, SerialError

U64 = (1 << 64) - 1


# ----------------------------------------------------------------------
# FilterSpec: validation + JSON round-trip
# ----------------------------------------------------------------------
class TestFilterSpec:
    def test_json_round_trip(self):
        spec = FilterSpec("bloomrf", {"bits_per_key": 16, "max_range": 1 << 20})
        assert FilterSpec.from_json(spec.to_json()) == spec
        assert FilterSpec.from_dict(spec.to_dict()) == spec

    def test_with_params_derives_without_mutating(self):
        spec = FilterSpec("bloom", {"bits_per_key": 10})
        derived = spec.with_params(bits_per_key=12, seed=7)
        assert spec.params == {"bits_per_key": 10}
        assert derived.params == {"bits_per_key": 12, "seed": 7}
        assert derived.kind == "bloom"

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            FilterSpec("")
        with pytest.raises(ValueError):
            FilterSpec(123)

    def test_rejects_non_json_params(self):
        with pytest.raises(ValueError, match="JSON"):
            FilterSpec("bloom", {"seed": object()})
        with pytest.raises(ValueError):
            FilterSpec("bloom", {7: 1})

    def test_params_are_defensively_copied(self):
        params = {"bits_per_key": 10}
        spec = FilterSpec("bloom", params)
        params["bits_per_key"] = 99
        assert spec.params["bits_per_key"] == 10


# ----------------------------------------------------------------------
# registry: errors and extension
# ----------------------------------------------------------------------
class TestRegistry:
    def test_available_kinds_cover_all_six_filters(self):
        kinds = set(available_kinds())
        assert {
            "bloomrf", "bloomrf-basic", "bloom", "prefix-bloom",
            "rosetta", "surf", "cuckoo", "none",
        } <= kinds

    def test_unknown_kind_lists_registered_ones(self):
        with pytest.raises(ValueError, match="registered kinds.*bloomrf"):
            make_filter(FilterSpec("bogus"))

    def test_unknown_param_lists_accepted_ones(self):
        with pytest.raises(ValueError, match="accepted:.*bits_per_key"):
            make_filter(
                FilterSpec("bloomrf", {"wat": 1}), n_keys=10
            )

    def test_retired_sharded_kind_is_refused_by_name(self):
        """A kind-3 frame (the retired sharded-bloomrf shard set) raises a
        SerialError naming the kind instead of an "unknown kind" error."""
        frame = bytearray(NullFilter().to_bytes())
        assert frame[6:8] == KIND_NONE.to_bytes(2, "little")
        frame[6:8] = KIND_SHARDED_BLOOMRF.to_bytes(2, "little")
        with pytest.raises(SerialError, match="'sharded-bloomrf'.*retired"):
            filter_from_bytes(bytes(frame))
        assert "sharded-bloomrf" not in available_kinds()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_filter("bloomrf", lambda **kw: None)

    def test_serial_kind_hijack_rejected(self):
        """A registration cannot steal another kind's frame loader."""
        from repro.serial import KIND_BLOOMRF

        with pytest.raises(ValueError, match="hijack"):
            register_filter(
                "evil",
                lambda n_keys=None: NullFilter(),
                serial_kind=KIND_BLOOMRF,
                from_bytes=lambda data: "HIJACKED",
            )
        # The bloomrf loader still answers for its frames.
        spec = FilterSpec("bloomrf", {"bits_per_key": 12, "max_range": 1 << 10})
        filt = make_filter(spec, n_keys=10)
        filt.insert_many(np.arange(10, dtype=np.uint64))
        assert not isinstance(filter_from_bytes(filt.to_bytes()), str)

    def test_third_party_registration(self):
        register_filter(
            "test-null",
            lambda n_keys=None: NullFilter(),
            description="test-only kind",
            replace_existing=True,
        )
        try:
            filt = make_filter(FilterSpec("test-null"), n_keys=5)
            assert isinstance(filt, RangeFilter)
            assert "test-null" in available_kinds()
        finally:
            from repro.api import _REGISTRY

            _REGISTRY.pop("test-null", None)


# ----------------------------------------------------------------------
# protocol conformance + serialization ladder (every registered kind)
# ----------------------------------------------------------------------
def _probe_batches(keys: np.ndarray):
    """Probe sets mixing inserted keys, near misses, and far misses."""
    points = np.unique(
        np.concatenate(
            [keys[:64], keys[:64] + np.uint64(1), np.arange(0, 4096, 97, dtype=np.uint64)]
        )
    )
    hi = points + np.minimum(np.uint64(U64) - points, np.uint64(900))
    bounds = np.stack([points, hi], axis=1)
    return points, bounds


@pytest.mark.parametrize("kind", available_kinds())
def test_protocol_conformance(kind):
    spec = standard_spec(kind, bits_per_key=14, max_range=1 << 10, seed=5)
    filt = make_filter(spec, n_keys=500)
    assert isinstance(filt, RangeFilter)
    keys = np.arange(1_000, 2_000, 2, dtype=np.uint64)
    filt.insert_many(keys)
    filt.insert(4_242)
    points, bounds = _probe_batches(keys)
    # No false negatives on inserted keys; bulk == scalar bit for bit.
    assert filt.contains_point(1_000) and filt.contains_point(4_242)
    assert filt.contains_point_many(keys[:32]).all()
    assert bool(filt.contains_range(1_000, 1_004)) is True
    got_points = filt.contains_point_many(points)
    got_bounds = filt.contains_range_many(bounds)
    assert got_points.dtype == bool and got_bounds.dtype == bool
    scalar_points = np.array(
        [filt.contains_point(int(p)) for p in points[:50]], dtype=bool
    )
    assert np.array_equal(got_points[:50], scalar_points)
    scalar_bounds = np.array(
        [filt.contains_range(int(lo), int(hi)) for lo, hi in bounds[:50]],
        dtype=bool,
    )
    assert np.array_equal(got_bounds[:50], scalar_bounds)
    assert filt.size_bits >= 0
    # Scalar and bulk forms agree on rejecting inverted ranges too.
    with pytest.raises(ValueError, match="empty query range"):
        filt.contains_range(9, 4)
    with pytest.raises(ValueError, match="empty query range"):
        filt.contains_range_many(np.array([[9, 4]], dtype=np.uint64))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(available_kinds()),
    keys=st.lists(
        st.integers(min_value=0, max_value=U64),
        min_size=1,
        max_size=150,
        unique=True,
    ),
    bits_per_key=st.sampled_from([10.0, 14.0, 18.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_registry_serialization_ladder(kind, keys, bits_per_key, seed):
    """make_filter -> insert -> to_bytes -> from_bytes answers identically."""
    spec = standard_spec(
        kind, bits_per_key=bits_per_key, max_range=1 << 12, seed=seed
    )
    filt = make_filter(spec, n_keys=len(keys))
    filt.insert_many(np.array(keys, dtype=np.uint64))
    blob = filt.to_bytes()
    restored = filter_from_bytes(blob)
    points, bounds = _probe_batches(np.array(sorted(keys), dtype=np.uint64))
    assert np.array_equal(
        restored.contains_point_many(points), filt.contains_point_many(points)
    )
    assert np.array_equal(
        restored.contains_range_many(bounds), filt.contains_range_many(bounds)
    )
    assert restored.size_bits == filt.size_bits
    # Serialization is deterministic: a second trip emits the same bytes.
    assert restored.to_bytes() == blob


# ----------------------------------------------------------------------
# SpecPolicy: spec-driven stores and filter-block round trips
# ----------------------------------------------------------------------
class TestSpecPolicyEquivalence:
    def test_lsmdb_accepts_filterspec_directly(self):
        spec = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})
        db = LsmDB(policy=spec)
        assert isinstance(db.policy, SpecPolicy)
        assert db.policy.spec == spec
        keys = np.arange(0, 3_000, 3, dtype=np.uint64)
        db.put_many(keys)
        db.flush()
        assert db.get_many(keys[:100]).all()

    def test_built_filter_round_trips_any_kind(self):
        for kind in ("bloomrf", "rosetta", "surf", "cuckoo", "prefix-bloom"):
            policy = SpecPolicy(standard_spec(kind, bits_per_key=14))
            keys = np.arange(10, 900, 5, dtype=np.uint64)
            filt = policy.build(keys)
            restored = filter_from_bytes(filt.to_bytes())
            assert np.array_equal(
                restored.contains_point_many(keys), filt.contains_point_many(keys)
            )


# ----------------------------------------------------------------------
# open_store facade
# ----------------------------------------------------------------------
class TestOpenStore:
    def test_unsharded_store_is_lsmdb_behind_store_protocol(self):
        db = open_store(
            filter=FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})
        )
        assert isinstance(db, LsmDB)
        assert isinstance(db, Store)
        with db:
            keys = np.arange(0, 2_000, 2, dtype=np.uint64)
            db.put_many(keys)
            assert db.get_many(keys[:64]).all()

    def test_sharded_store_matches_direct_construction(self):
        spec = FilterSpec("bloomrf", {"bits_per_key": 12, "max_range": 1 << 16})
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 1 << 64, 5_000, dtype=np.uint64)
        points = rng.integers(0, 1 << 64, 1_000, dtype=np.uint64)
        with open_store(
            filter=spec, shards=4, partition="range", memtable_capacity=512
        ) as facade, ShardedLsmDB(
            policy=SpecPolicy(spec),
            num_shards=4,
            partition="range",
            memtable_capacity=512,
        ) as direct:
            assert isinstance(facade, ShardedLsmDB)
            assert isinstance(facade, Store)
            facade.put_many(keys)
            direct.put_many(keys)
            assert np.array_equal(
                facade.get_many(points), direct.get_many(points)
            )
            assert facade.stats.counters() == direct.stats.counters()

    def test_default_filter_is_none(self):
        db = open_store()
        assert db.policy.spec.kind == "none"

    def test_per_shard_specs(self):
        """Per-shard sizing: each shard can run its own filter config."""
        specs = [
            FilterSpec("bloomrf", {"bits_per_key": 10, "max_range": 1 << 10}),
            FilterSpec("bloomrf", {"bits_per_key": 20, "max_range": 1 << 10}),
        ]
        with open_store(filter=specs, shards=2, partition="range") as db:
            keys = np.arange(0, 1 << 63, 1 << 53, dtype=np.uint64)
            db.put_many(keys)
            db.flush()
            assert db.get_many(keys).all()
            per_shard = [shard.policy.spec for shard in db.shards]
            assert per_shard == specs
        with pytest.raises(ValueError, match="per-shard"):
            open_store(filter=specs, shards=3)

    def test_path_opens_a_persistent_store(self, tmp_path):
        """open_store(path=...) creates, persists, and reopens on disk."""
        spec = FilterSpec("bloomrf", {"bits_per_key": 14, "max_range": 1 << 12})
        keys = np.arange(0, 4_000, 2, dtype=np.uint64)
        with open_store(
            path=tmp_path / "db", filter=spec, memtable_capacity=512
        ) as db:
            db.put_many(keys)
            live = db.get_many(keys)
        with open_store(path=tmp_path / "db") as reopened:
            assert isinstance(reopened, LsmDB)
            assert isinstance(reopened, Store)
            assert reopened.policy.spec == spec
            assert np.array_equal(reopened.get_many(keys), live)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            open_store(shards=0)


# ----------------------------------------------------------------------
# package surface sanity (detailed snapshot lives in test_api_surface.py)
# ----------------------------------------------------------------------
def test_top_level_exports_exist():
    for name in (
        "FilterSpec", "RangeFilter", "Store", "SpecPolicy", "open_store",
        "make_filter", "available_kinds", "register_filter",
        "filter_from_bytes", "standard_spec",
    ):
        assert hasattr(repro, name), name
