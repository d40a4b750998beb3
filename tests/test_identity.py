"""The identity harness, `tests/identity.py`.

The full `check` recomputes every slice outside the suite; here one family
of each section is checked against its stored digests, and the shared
compare and check paths run on small records.
"""

import collections
import importlib
import json
import sys

import pytest


@pytest.fixture()
def identity(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the harness adds src/ and perfbench/
    return importlib.import_module("identity")


def _stored(identity):
    with open(identity.DIGESTS) as fh:
        return json.load(fh)


def test_one_family_of_each_section_matches_its_stored_digests(identity):
    stored = _stored(identity)["digests"]
    for section, family, slices in (
        ("tables", "fat10", 6), ("reports", "fat10", 9), ("screen", "extreme", 3), ("fold", "fat6", 4),
        ("tail", "special", 1),
    ):
        running = identity.slice_digests(section, family)
        assert len(running) == slices
        assert running == {name: stored.get(name) for name in running}


def test_the_stored_digests_name_every_slice(identity):
    expected = {
        f"{name}/{family}/{cap}"
        for name, caps in (
            ("tables", identity.TABLE_CAPS), ("reports", identity.REPORT_CAPS),
            ("screen", identity.BOUNDS), ("fold", identity.FOLD_CAPS), ("tail", (identity.DEV_CAP,)),
        )
        for family in identity.SECTIONS[name].families
        if family not in (identity.CROSSING, identity.REACH)
        for cap in caps
    }
    expected |= {f"tables/{identity.CROSSING}/100000", f"tables/{identity.REACH}/100000"}
    assert set(_stored(identity)["digests"]) == expected
    assert len(expected) == 122


def test_the_crossing_family_finds_every_two_crossing_path(identity):
    """Every enumeration of the crossing family completes, each pair finds
    as many paths, of the same lengths, in both directions, and the paths
    cross 0, 1 and 2 edges in pinned numbers.  A path across two edges is
    the first whose re-trace depends on the order in which it composes the
    transitions."""
    crossings = collections.Counter()
    for _, record in identity.crossing_records():
        enumerations = record["enumerations"]
        for pair, enum in enumerations.items():
            assert enum["complete"]
            i, j = pair.split(",")
            back = enumerations[f"{j},{i}"]["paths"]
            lengths = sorted(float(p[4]) for p in enum["paths"])
            assert lengths == pytest.approx(sorted(float(p[4]) for p in back), abs=1e-9)
            crossings.update(len(p[5]) for p in enum["paths"])
    assert dict(crossings) == {0: 1380, 1: 1020, 2: 210}


def _compare(identity, tmp_path, section, old, new):
    files = []
    for k, records in enumerate((old, new)):
        files.append(str(tmp_path / f"dump{k}.json"))
        with open(files[-1], "w") as fh:
            fh.write(identity.canonical({section: records}))
    return identity.main(["compare", *files])


@pytest.mark.parametrize(
    "section, family, where, value",
    [
        ("tables", "fat10", ("entries", "0,1", "budget"), "0.0"),
        ("reports", "fat10", ("scorecard", "net.simple"), "fail"),
        ("screen", "extreme", ("report",), "ValueError: other"),
    ],
    ids=["tables", "reports", "screen"],
)
def test_compare_names_an_altered_record(identity, tmp_path, capsys, section, family, where, value):
    key, record = next(identity.SECTIONS[section].records(family))
    assert _compare(identity, tmp_path, section, {key: record}, {key: record}) == 0
    assert "0 differences" in capsys.readouterr().out
    altered = json.loads(json.dumps(record))
    target = altered
    for k in where[:-1]:
        target = target[k]
    target[where[-1]] = value
    assert _compare(identity, tmp_path, section, {key: record}, {key: altered}) == 1
    out = capsys.readouterr().out
    assert f"DIFF {section} {key}" in out and "1 differences" in out


@pytest.mark.parametrize("cap, tolerated", [(3, True), (7, True), (1, False), (100000, False)])
def test_a_found_inconclusive_tie_is_tolerated_only_at_caps_3_and_7(identity, tmp_path, capsys, cap, tolerated):
    found = {"status": "found", "path": [], "length": "1.0", "frontier": "2.0", "budget": "3.0"}
    tied = {**found, "status": "inconclusive", "path": None, "length": None, "frontier": repr(1.0 + 5e-13)}
    records = [{f"fat6/0/0/{cap}": {"entries": {"0,1": e}, "enumerations": {}, "developments": 1}} for e in (found, tied)]
    assert _compare(identity, tmp_path, "tables", *records) == (0 if tolerated else 1)
    assert ("tie tables" in capsys.readouterr().out) == tolerated
    off = {**tied, "frontier": repr(1.0 + 2e-12)}
    records[1][f"fat6/0/0/{cap}"]["entries"]["0,1"] = off
    assert _compare(identity, tmp_path, "tables", *records) == 1


def test_check_prints_both_versions_before_the_moved_slices(identity, monkeypatch, tmp_path, capsys):
    section = identity.SECTIONS["screen"]._replace(families=("extreme",))
    monkeypatch.setattr(identity, "SECTIONS", {"screen": section})
    digests = identity.slice_digests("screen", "extreme")
    monkeypatch.setattr(identity, "DIGESTS", str(tmp_path / "digests.json"))
    stored = {"digests": digests, "python": "0.0", "numpy": "0.0"}
    (tmp_path / "digests.json").write_text(json.dumps(stored))
    assert identity.main(["check"]) == 0
    assert capsys.readouterr().out.startswith("3 slices match")
    stored["digests"] = {**digests, "screen/extreme/5": "0" * 64}
    (tmp_path / "digests.json").write_text(json.dumps(stored))
    assert identity.main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "stored by Python 0.0, numpy 0.0"
    assert lines[1].startswith("running Python ")
    assert [line.split(":")[0] for line in lines[2:]] == ["moved screen/extreme/5"]


def test_the_screen_section_enumerates_its_whole_collection(identity):
    """Every screen family yields its angle sets, and the first set of each
    gives a report or the error it raises."""
    count = 0
    for family in identity.SCREEN_FAMILIES:
        sets = list(identity.angle_sets(family))
        count += len(sets)
        assert {name.split("/")[0] for name, _ in sets} == {family}
        record = identity._report(sets[0][1], 16)
        assert record["report"].startswith(("IndependenceReport(bound=16, ", "ValueError: "))
    assert count == 2942
    assert sorted(identity.SCREEN_FAMILIES) == [
        "extreme", "fat10", "fat6", "fat8", "hex-verify", "planted", "screen1", "screen7", "thin8",
    ]
    assert identity._report(identity.EXTREMES[0], 16) == {"report": "ValueError: angles must be finite"}
