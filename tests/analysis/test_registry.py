"""The serial-discipline registry cross-check, driven by a fake registry.

``SerialDisciplineRule.registry_findings`` normally reads the live
``repro.api`` registry; it takes an injectable mapping so these tests can
exercise every failure mode without touching global state.
"""

import textwrap
import types

from repro.analysis import Linter
from repro.analysis.rules import SerialDisciplineRule

SERIAL_FIXTURE = """
    KIND_A = 1
    KIND_B = 2
    KIND_C = 3

    KIND_NAMES = {KIND_A: "a", KIND_B: "b", KIND_C: "c"}
"""

READER_FIXTURE = """
    import repro.serial as serial

    def read(kind):
        return kind == serial.KIND_C
"""


RETIRED_FIXTURE = SERIAL_FIXTURE + """
    RETIRED_KINDS = frozenset({KIND_C})
"""


def _modules(tmp_path, with_reader=True, serial_source=SERIAL_FIXTURE):
    serial_path = tmp_path / "repro" / "serial.py"
    serial_path.parent.mkdir(parents=True, exist_ok=True)
    serial_path.write_text(textwrap.dedent(serial_source))
    paths = [serial_path]
    if with_reader:
        reader = tmp_path / "repro" / "reader.py"
        reader.write_text(textwrap.dedent(READER_FIXTURE))
        paths.append(reader)
    rule = SerialDisciplineRule()
    modules = Linter([rule]).load(paths)
    serial = next(m for m in modules if m.display.endswith("repro/serial.py"))
    constants = rule._kind_constants(serial)
    values = {value: name for name, (_, value) in constants.items()}
    return rule, serial, constants, values, modules


def _entry(serial_kind):
    return types.SimpleNamespace(serial_kind=serial_kind)


def test_clean_registry_yields_no_findings(tmp_path):
    rule, serial, constants, values, modules = _modules(tmp_path)
    registry = {"alpha": _entry(1), "beta": _entry(2)}
    # KIND_C has no loader but the reader module references it by name.
    findings = list(
        rule.registry_findings(serial, constants, values, modules, registry)
    )
    assert findings == []


def test_loader_without_constant_is_flagged(tmp_path):
    rule, serial, constants, values, modules = _modules(tmp_path)
    registry = {"alpha": _entry(1), "ghost": _entry(9)}
    findings = list(
        rule.registry_findings(serial, constants, values, modules, registry)
    )
    messages = [f.message for f in findings]
    assert any(
        "'ghost' loads serial kind 9" in m and "no KIND_* constant" in m
        for m in messages
    )


def test_duplicate_readers_for_one_kind_are_flagged(tmp_path):
    rule, serial, constants, values, modules = _modules(tmp_path)
    registry = {"alpha": _entry(1), "alias": _entry(1), "beta": _entry(2)}
    findings = list(
        rule.registry_findings(serial, constants, values, modules, registry)
    )
    assert any(
        "serial kind 1 has 2 registered readers" in f.message for f in findings
    )


def test_constant_without_any_reader_is_flagged(tmp_path):
    rule, serial, constants, values, modules = _modules(tmp_path, with_reader=False)
    registry = {"alpha": _entry(1), "beta": _entry(2)}
    findings = list(
        rule.registry_findings(serial, constants, values, modules, registry)
    )
    assert any(
        "KIND_C has no reader" in f.message for f in findings
    )


def test_retired_kind_needs_no_reader(tmp_path):
    rule, serial, constants, values, modules = _modules(
        tmp_path, with_reader=False, serial_source=RETIRED_FIXTURE
    )
    registry = {"alpha": _entry(1), "beta": _entry(2)}
    findings = list(
        rule.registry_findings(serial, constants, values, modules, registry)
    )
    assert findings == []


def test_retired_kind_with_a_loader_is_flagged(tmp_path):
    rule, serial, constants, values, modules = _modules(
        tmp_path, with_reader=False, serial_source=RETIRED_FIXTURE
    )
    registry = {"alpha": _entry(1), "beta": _entry(2), "gamma": _entry(3)}
    findings = list(
        rule.registry_findings(serial, constants, values, modules, registry)
    )
    assert [f.message for f in findings] == [
        "KIND_C is retired but filter kind(s) ['gamma'] still load it"
    ]


def test_entries_without_serial_kind_are_ignored(tmp_path):
    rule, serial, constants, values, modules = _modules(tmp_path)
    registry = {
        "alpha": _entry(1),
        "beta": _entry(2),
        "volatile": types.SimpleNamespace(serial_kind=None),
    }
    findings = list(
        rule.registry_findings(serial, constants, values, modules, registry)
    )
    assert findings == []


def test_live_registry_is_consistent(tmp_path):
    """The real repro.api registry passes its own cross-check (this is
    what the linter's finalize() enforces over the installed tree)."""
    import repro.api as api

    rule, serial, constants, values, modules = _modules(tmp_path)
    del serial, constants, values  # fixture copies; rebuild from the live tree
    import repro.serial

    from pathlib import Path

    live_path = Path(repro.serial.__file__)
    live_modules = Linter([rule]).load([live_path])
    live_serial = live_modules[0]
    live_constants = rule._kind_constants(live_serial)
    live_values = {value: name for name, (_, value) in live_constants.items()}
    findings = list(
        rule.registry_findings(
            live_serial,
            live_constants,
            live_values,
            live_modules,
            dict(api._REGISTRY),
        )
    )
    # The live store modules are not in `live_modules`, so constants read
    # only by the store layer would look reader-less here; restrict the
    # assertion to the registry-shape checks (duplicates / ghost kinds).
    shape_problems = [
        f for f in findings if "has no reader" not in f.message
    ]
    assert shape_problems == []
