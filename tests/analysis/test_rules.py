"""Fixture-based tests for every ``repro lint`` rule.

Each rule is run against a known-bad snippet it must flag and a
known-good twin it must pass.  Fixtures are written to ``tmp_path``
under the same relative layout as the real tree (``repro/lsm/db.py``,
...) because rules select files by path suffix.
"""

import textwrap

import pytest

from repro.analysis import Linter
from repro.analysis.rules import (
    ALL_RULES,
    DtypeDisciplineRule,
    DurabilityDisciplineRule,
    ExceptionDisciplineRule,
    LockDisciplineRule,
    SerialDisciplineRule,
    WalOrderingRule,
)


def lint_snippet(tmp_path, relpath, source, rules=None):
    """Write ``source`` at ``tmp_path/relpath`` and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    rule_classes = rules if rules is not None else ALL_RULES
    return Linter([cls() for cls in rule_classes]).run([path])


def rule_ids(report):
    return sorted({finding.rule for finding in report.findings})


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------

LOCK_BAD = """
    class Engine:
        def rotate(self):
            self.sstables = []

        def unsafe_caller(self):
            self._commit_merge()

        def extend(self, run):
            self.sstables += [run]
"""

LOCK_GOOD = """
    class Engine:
        def __init__(self):
            self.sstables = []

        def rotate(self):
            with self._maintenance_lock:
                self.sstables = []
                self._commit_merge()

        def _swap_locked(self):
            self.sstables = list(self.sstables)
            self._commit_merge()

        def snapshot(self):
            return list(self.sstables)  # lock-free read: fine by design
"""


def test_lock_discipline_flags_unlocked_mutations(tmp_path):
    report = lint_snippet(tmp_path, "repro/lsm/db.py", LOCK_BAD, [LockDisciplineRule])
    assert rule_ids(report) == ["lock-discipline"]
    assert len(report.findings) == 3  # two swaps + one locked-method call


def test_lock_discipline_passes_locked_twin(tmp_path):
    report = lint_snippet(tmp_path, "repro/lsm/db.py", LOCK_GOOD, [LockDisciplineRule])
    assert report.ok, report.render()


def test_lock_discipline_ignores_other_files(tmp_path):
    report = lint_snippet(tmp_path, "repro/other.py", LOCK_BAD, [LockDisciplineRule])
    assert report.ok


# ----------------------------------------------------------------------
# durability-discipline
# ----------------------------------------------------------------------

DURABILITY_BAD = """
    import os

    def sneaky_checkpoint(path, tmp, payload):
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
"""

DURABILITY_GOOD = """
    import os

    def _atomic_write(path, tmp, payload):
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)

    def read_manifest(path):
        with open(path, "rb") as fh:
            return fh.read()

    def read_default_mode(path):
        with open(path) as fh:
            return fh.read()
"""


def test_durability_flags_raw_writes_outside_helpers(tmp_path):
    report = lint_snippet(
        tmp_path, "repro/lsm/store.py", DURABILITY_BAD, [DurabilityDisciplineRule]
    )
    assert rule_ids(report) == ["durability-discipline"]
    assert len(report.findings) == 2  # open("wb") + os.replace


def test_durability_passes_approved_helper_and_reads(tmp_path):
    report = lint_snippet(
        tmp_path, "repro/lsm/store.py", DURABILITY_GOOD, [DurabilityDisciplineRule]
    )
    assert report.ok, report.render()


def test_durability_flags_non_literal_mode(tmp_path):
    source = """
        def helper(path, mode):
            return open(path, mode)
    """
    report = lint_snippet(
        tmp_path, "repro/lsm/wal.py", source, [DurabilityDisciplineRule]
    )
    assert len(report.findings) == 1
    assert "non-literal mode" in report.findings[0].message


# ----------------------------------------------------------------------
# wal-ordering
# ----------------------------------------------------------------------

WAL_BAD = """
    class PersistentEngine:
        def put(self, key, value):
            self.memtable.put(key, value)
            self._wal.append_put(key, value)
"""

WAL_GOOD = """
    class PersistentEngine:
        def put(self, key, value):
            self._wal.append_put(key, value)
            self.memtable.put(key, value)

        def delete(self, key):
            self._wal.append_delete(key)
            super().delete(key)
"""


def test_wal_ordering_flags_mutation_before_append(tmp_path):
    report = lint_snippet(tmp_path, "repro/lsm/store.py", WAL_BAD, [WalOrderingRule])
    assert rule_ids(report) == ["wal-ordering"]
    assert "self.memtable.put()" in report.findings[0].message


def test_wal_ordering_passes_append_first_twin(tmp_path):
    report = lint_snippet(tmp_path, "repro/lsm/store.py", WAL_GOOD, [WalOrderingRule])
    assert report.ok, report.render()


def test_wal_ordering_only_applies_to_persistent_classes(tmp_path):
    source = """
        class VolatileEngine:
            def put(self, key, value):
                self.memtable.put(key, value)
    """
    report = lint_snippet(tmp_path, "repro/lsm/store.py", source, [WalOrderingRule])
    assert report.ok


# ----------------------------------------------------------------------
# serial-discipline
# ----------------------------------------------------------------------

SERIAL_BAD = """
    class SerialError(ValueError):
        pass

    def load(blob):
        raise SerialError("truncated block")
"""

SERIAL_GOOD = """
    class SerialError(ValueError):
        pass

    def load(path, blob):
        raise SerialError(f"{path}: truncated block")

    def load_wrapped(path, blob):
        try:
            if len(blob) < 8:
                raise SerialError("truncated header")
            return blob
        except SerialError as exc:
            raise SerialError(f"{path}: {exc}") from exc
"""


def test_serial_flags_pathless_raise(tmp_path):
    report = lint_snippet(
        tmp_path, "repro/lsm/blocks.py", SERIAL_BAD, [SerialDisciplineRule]
    )
    assert rule_ids(report) == ["serial-discipline"]
    assert "offending" in report.findings[0].message


def test_serial_passes_path_naming_and_wrap_pattern(tmp_path):
    report = lint_snippet(
        tmp_path, "repro/lsm/blocks.py", SERIAL_GOOD, [SerialDisciplineRule]
    )
    assert report.ok, report.render()


KIND_BAD = """
    KIND_A = 1
    KIND_B = 1

    KIND_NAMES = {KIND_A: "a"}
"""

KIND_GOOD = """
    KIND_A = 1
    KIND_B = 2

    KIND_NAMES = {KIND_A: "a", KIND_B: "b"}
"""


def test_serial_kind_registry_static_checks(tmp_path):
    report = lint_snippet(
        tmp_path, "repro/serial.py", KIND_BAD, [SerialDisciplineRule]
    )
    messages = "\n".join(f.message for f in report.findings)
    assert "KIND_B is not registered in KIND_NAMES" in messages
    assert "claimed by" in messages  # duplicate value 1


def test_serial_kind_registry_good_twin(tmp_path):
    # A fixture serial.py is not the installed repro.serial, so only the
    # static KIND_* checks run — no live-registry cross-check findings.
    report = lint_snippet(
        tmp_path, "repro/serial.py", KIND_GOOD, [SerialDisciplineRule]
    )
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# dtype-discipline
# ----------------------------------------------------------------------

DTYPE_BAD = """
    import numpy as np

    def normalize(keys):
        return np.asarray(keys)

    def decode(key_bytes):
        return np.frombuffer(key_bytes)

    def one_row(l_key, r_key):
        # A bound of 2**64 - 1 makes this row float64.
        return np.array([[l_key, r_key]])
"""

DTYPE_GOOD = """
    import numpy as np

    def normalize(keys):
        return np.asarray(keys, dtype=np.uint64)

    def decode(body, keys_len):
        return np.frombuffer(body[:keys_len], dtype="<u8")

    def lengths(body, keys_end, lengths_end):
        # "keys_end" only indexes the slice; the sliced value is lengths.
        return np.frombuffer(body[keys_end:lengths_end], dtype="<u4")

    def widths(values):
        return np.asarray(values)  # not a key/bounds argument

    def one_row(l_key, r_key):
        return np.array([[l_key, r_key]], dtype=np.uint64)

    def sizes(values):
        return np.array(values)  # not a key/bounds argument
"""


def test_dtype_flags_unpinned_key_conversions(tmp_path):
    report = lint_snippet(
        tmp_path, "repro/some_module.py", DTYPE_BAD, [DtypeDisciplineRule]
    )
    assert rule_ids(report) == ["dtype-discipline"]
    assert len(report.findings) == 3
    assert any("np.array()" in f.message for f in report.findings)


def test_dtype_flags_the_unaliased_numpy_module(tmp_path):
    source = """
        import numpy

        def one_row(l_key, r_key):
            return numpy.array([[l_key, r_key]])

        def pinned(keys):
            return numpy.array(keys, dtype=numpy.uint64)
    """
    report = lint_snippet(
        tmp_path, "repro/some_module.py", source, [DtypeDisciplineRule]
    )
    assert rule_ids(report) == ["dtype-discipline"]
    assert len(report.findings) == 1
    assert "numpy.array()" in report.findings[0].message


def test_dtype_passes_pinned_and_non_key_twin(tmp_path):
    report = lint_snippet(
        tmp_path, "repro/some_module.py", DTYPE_GOOD, [DtypeDisciplineRule]
    )
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# exception-discipline
# ----------------------------------------------------------------------

EXCEPT_BAD = """
    def drain(jobs):
        for job in jobs:
            try:
                job()
            except Exception:
                continue
"""

EXCEPT_GOOD = """
    class Scheduler:
        def drain(self, jobs):
            for job in jobs:
                try:
                    job()
                except Exception as exc:
                    self.last_error = exc
"""


def test_exception_flags_swallowed_worker_errors(tmp_path):
    report = lint_snippet(
        tmp_path, "repro/parallel.py", EXCEPT_BAD, [ExceptionDisciplineRule]
    )
    assert rule_ids(report) == ["exception-discipline"]


def test_exception_passes_recorded_errors(tmp_path):
    report = lint_snippet(
        tmp_path, "repro/parallel.py", EXCEPT_GOOD, [ExceptionDisciplineRule]
    )
    assert report.ok, report.render()


def test_bare_except_pass_is_flagged(tmp_path):
    source = """
        def reap(workers):
            for worker in workers:
                try:
                    worker.join()
                except BaseException:
                    pass
    """
    report = lint_snippet(
        tmp_path, "repro/lsm/compaction.py", source, [ExceptionDisciplineRule]
    )
    assert len(report.findings) == 1


# ----------------------------------------------------------------------
# cross-rule sanity
# ----------------------------------------------------------------------


def test_every_rule_has_id_summary_invariant_and_failing_fixture():
    """Guard the rule table contract: metadata present and ids unique."""
    ids = [cls.id for cls in ALL_RULES]
    assert len(ids) == len(set(ids))
    for cls in ALL_RULES:
        assert cls.id and cls.summary and cls.invariant, cls.__name__


BAD_BY_RULE = {
    LockDisciplineRule: ("repro/lsm/db.py", LOCK_BAD),
    DurabilityDisciplineRule: ("repro/lsm/store.py", DURABILITY_BAD),
    WalOrderingRule: ("repro/lsm/store.py", WAL_BAD),
    SerialDisciplineRule: ("repro/lsm/blocks.py", SERIAL_BAD),
    DtypeDisciplineRule: ("repro/some_module.py", DTYPE_BAD),
    ExceptionDisciplineRule: ("repro/parallel.py", EXCEPT_BAD),
}


@pytest.mark.parametrize("rule_cls", ALL_RULES, ids=lambda cls: cls.id)
def test_each_rule_fires_on_its_bad_fixture(rule_cls, tmp_path):
    relpath, source = BAD_BY_RULE[rule_cls]
    report = lint_snippet(tmp_path, relpath, source, [rule_cls])
    assert not report.ok
    assert all(finding.rule == rule_cls.id for finding in report.findings)
