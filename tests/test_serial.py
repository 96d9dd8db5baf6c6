"""The versioned serialization subsystem (``repro.serial``).

Round-trip properties (Hypothesis): a filter built from a random config and
random keys must reconstruct from its bytes with identical storage words,
key counts, and probe answers.  Corruption cases: bad magic, version skew,
kind mismatch, truncation, and header garbage must raise ``ValueError`` —
a persisted filter block never silently mis-answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serial
from repro.baselines.bloom import BloomFilter
from repro.core.bloomrf import BloomRF
from repro.api import filter_from_bytes
from repro.lsm.filter_policy import SpecPolicy

U64 = (1 << 64) - 1


def build_bloomrf(domain_bits, bits_per_key, basic, keys, max_range=1 << 16):
    if basic:
        filt = BloomRF.basic(
            n_keys=max(len(keys), 1),
            bits_per_key=bits_per_key,
            domain_bits=domain_bits,
        )
    else:
        filt = BloomRF.tuned(
            n_keys=max(len(keys), 1),
            bits_per_key=bits_per_key,
            max_range=max_range,
            domain_bits=domain_bits,
        )
    filt.insert_many(np.array(keys, dtype=np.uint64))
    return filt


@st.composite
def bloomrf_cases(draw):
    """Random (config knobs, key set) pairs across domains and tunings."""
    domain_bits = draw(st.sampled_from([16, 32, 48, 64]))
    bits_per_key = draw(st.sampled_from([12.0, 16.0, 22.0]))
    basic = draw(st.booleans())
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << domain_bits) - 1),
            min_size=0,
            max_size=200,
            unique=True,
        )
    )
    return domain_bits, bits_per_key, basic, keys


class TestBloomRFRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(bloomrf_cases())
    def test_words_keys_and_answers_survive(self, case):
        domain_bits, bits_per_key, basic, keys = case
        filt = build_bloomrf(domain_bits, bits_per_key, basic, keys)
        restored = BloomRF.from_bytes(filt.to_bytes())
        assert restored.config == filt.config
        assert restored.num_keys == filt.num_keys
        assert restored._bits == filt._bits  # words, bit for bit
        if filt._exact is not None:
            assert restored._exact == filt._exact
        # Probe answers are a pure function of (config, words): spot-check
        # inserted keys, near-misses, and ranges anchored on both.
        probes = np.array(
            sorted(set(keys) | {0, (1 << domain_bits) - 1, 7}), dtype=np.uint64
        )
        assert np.array_equal(
            restored.contains_point_many(probes), filt.contains_point_many(probes)
        )
        domain_max = np.uint64((1 << domain_bits) - 1)
        hi = probes + np.minimum(domain_max - probes, np.uint64(63))
        bounds = np.stack([probes, hi], axis=1)
        assert np.array_equal(
            restored.contains_range_many(bounds), filt.contains_range_many(bounds)
        )

    @settings(max_examples=15, deadline=None)
    @given(bloomrf_cases())
    def test_serialization_is_deterministic(self, case):
        domain_bits, bits_per_key, basic, keys = case
        filt = build_bloomrf(domain_bits, bits_per_key, basic, keys)
        blob = filt.to_bytes()
        assert blob == BloomRF.from_bytes(blob).to_bytes()


class TestBloomRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=U64),
            min_size=1,
            max_size=300,
            unique=True,
        ),
        st.sampled_from([8.0, 12.0, 20.0]),
    )
    def test_words_and_answers_survive(self, keys, bits_per_key):
        filt = BloomFilter(n_keys=len(keys), bits_per_key=bits_per_key)
        filt.insert_many(np.array(keys, dtype=np.uint64))
        restored = BloomFilter.from_bytes(filt.to_bytes())
        assert (restored.num_bits, restored.num_hashes, restored.seed) == (
            filt.num_bits,
            filt.num_hashes,
            filt.seed,
        )
        assert len(restored) == len(filt)
        assert restored._bits == filt._bits
        probes = np.array(keys[:100], dtype=np.uint64)
        assert restored.contains_point_many(probes).all()


class TestRetiredKinds:
    """Kind 3 held ``sharded-bloomrf`` shard sets, whose writer is gone."""

    @pytest.fixture(scope="class")
    def kind3_frame(self):
        blob = serial.pack_frame(serial.KIND_NONE, {"num_keys": 0})
        return blob[:6] + serial.KIND_SHARDED_BLOOMRF.to_bytes(2, "little") + blob[8:]

    def test_value_stays_reserved(self):
        assert serial.KIND_SHARDED_BLOOMRF == 3
        assert serial.RETIRED_KINDS == {serial.KIND_SHARDED_BLOOMRF}
        assert serial.KIND_NAMES[3] == "sharded-bloomrf"

    def test_pack_refuses_a_retired_kind(self):
        with pytest.raises(serial.SerialError, match="'sharded-bloomrf'.*retired"):
            serial.pack_frame(serial.KIND_SHARDED_BLOOMRF, {})

    def test_load_names_the_retired_kind(self, kind3_frame):
        assert serial.peek_kind(kind3_frame) == serial.KIND_SHARDED_BLOOMRF
        with pytest.raises(serial.SerialError, match="'sharded-bloomrf'.*retired"):
            serial.load_filter(kind3_frame)
        with pytest.raises(serial.SerialError, match="'sharded-bloomrf'.*retired"):
            filter_from_bytes(kind3_frame)


class TestCorruptionCases:
    @pytest.fixture(scope="class")
    def blob(self):
        filt = build_bloomrf(64, 16.0, False, list(range(500, 900)))
        return filt.to_bytes()

    def test_bad_magic_raises(self, blob):
        with pytest.raises(ValueError, match="bad magic"):
            BloomRF.from_bytes(b"XXXX" + blob[4:])

    def test_version_mismatch_raises(self, blob):
        bumped = blob[:4] + (99).to_bytes(2, "little") + blob[6:]
        with pytest.raises(ValueError, match="version 99"):
            BloomRF.from_bytes(bumped)

    def test_kind_mismatch_raises(self, blob):
        with pytest.raises(ValueError, match="expected 'bloom'"):
            BloomFilter.from_bytes(blob)

    def test_unknown_kind_raises(self, blob):
        mangled = blob[:6] + (42).to_bytes(2, "little") + blob[8:]
        with pytest.raises(ValueError, match="unknown serialization kind"):
            serial.load_filter(mangled)

    def test_truncation_raises(self, blob):
        for cut in (3, 11, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ValueError, match="truncated"):
                serial.unpack_frame(blob[:cut])

    def test_trailing_garbage_raises(self, blob):
        with pytest.raises(ValueError, match="trailing garbage"):
            serial.unpack_frame(blob + b"\x00")

    @pytest.mark.parametrize("kind", [serial.KIND_STORE, serial.KIND_SSTABLE])
    def test_trailing_garbage_names_the_frame_kind(self, kind, tmp_path):
        frame = serial.pack_frame(kind, {}) + b"\x00\x00"
        name = serial.KIND_NAMES[kind]
        with pytest.raises(
            ValueError, match=f"trailing garbage after {name} frame \\(2 bytes\\)"
        ):
            serial.unpack_frame(frame)
        path = tmp_path / "frame.brf"
        path.write_bytes(frame)
        with pytest.raises(
            ValueError, match=f"trailing garbage after {name} frame \\(2 bytes at"
        ):
            serial.map_frame(path)

    def test_garbage_header_raises(self, blob):
        header_len = int.from_bytes(blob[8:12], "little")
        mangled = blob[:12] + b"\xff" * header_len + blob[12 + header_len :]
        with pytest.raises(ValueError, match="corrupt filter frame header"):
            serial.unpack_frame(mangled)

    def test_dump_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            serial.dump_filter(object())

    def test_pack_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            serial.pack_frame(99, {})


class TestSerialError:
    """Frame failures raise the dedicated SerialError, naming the kind byte."""

    @pytest.fixture(scope="class")
    def blob(self):
        filt = build_bloomrf(64, 14.0, True, list(range(64)))
        return filt.to_bytes()

    def test_is_a_value_error_subclass(self):
        assert issubclass(serial.SerialError, ValueError)

    def test_truncation_raises_serial_error(self, blob):
        for cut in (3, 11, len(blob) // 2):
            with pytest.raises(serial.SerialError, match="truncated"):
                serial.unpack_frame(blob[:cut])
            with pytest.raises(serial.SerialError):
                serial.peek_kind(blob[:3])

    def test_unknown_kind_names_the_kind_byte(self, blob):
        mangled = blob[:6] + (42).to_bytes(2, "little") + blob[8:]
        with pytest.raises(serial.SerialError, match="kind byte 42"):
            serial.unpack_frame(mangled)
        with pytest.raises(serial.SerialError, match="kind byte 42"):
            serial.load_filter(mangled)

    def test_kind_mismatch_names_both_kind_bytes(self, blob):
        with pytest.raises(
            serial.SerialError,
            match=rf"kind byte {serial.KIND_BLOOMRF}.*kind byte {serial.KIND_BLOOM}",
        ):
            serial.unpack_frame(blob, expect_kind=serial.KIND_BLOOM)

    def test_bad_magic_raises_serial_error(self, blob):
        with pytest.raises(serial.SerialError, match="bad magic"):
            serial.peek_kind(b"XXXX" + blob[4:])


class TestFilterBlockRoundTrip:
    """An SST's filter block is the filter's own frame: ``to_bytes()`` on
    write, ``filter_from_bytes`` on reopen."""

    def test_bloomrf_block_round_trip(self):
        keys = np.arange(1_000, 2_000, dtype=np.uint64)
        filt = SpecPolicy("bloomrf", bits_per_key=16, max_range=1 << 16).build(keys)
        restored = filter_from_bytes(filt.to_bytes())
        assert type(restored) is type(filt)
        assert restored.size_bits == filt.size_bits
        assert restored.contains_point_many(keys).all()
        bounds = np.stack([keys, keys + np.uint64(3)], axis=1)
        assert np.array_equal(
            restored.contains_range_many(bounds), filt.contains_range_many(bounds)
        )

    def test_bloom_block_round_trip(self):
        keys = np.arange(5_000, 6_000, dtype=np.uint64)
        filt = SpecPolicy("bloom", bits_per_key=12).build(keys)
        restored = filter_from_bytes(filt.to_bytes())
        assert restored.contains_point_many(keys).all()
        assert restored.to_bytes() == filt.to_bytes()

    def test_none_policy_blocks_round_trip(self):
        # Since the repro.api registry, even the "none" kind persists (a
        # tiny self-describing frame), so spec-driven stores can disable
        # filtering without a serialization special case.
        filt = SpecPolicy("none").build(np.arange(10, dtype=np.uint64))
        restored = filter_from_bytes(filt.to_bytes())
        assert restored.size_bits == 0
        assert restored.contains_point(7) and restored.contains_range(1, 5)
        assert restored.contains_point_many(np.full(8, 7, dtype=np.uint64)).all()
        bounds = np.tile(np.array([[1, 5]], dtype=np.uint64), (32, 1))
        assert restored.contains_range_many(bounds).all()
