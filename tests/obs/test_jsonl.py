"""The shared JSONL record format: sets sorted, bytes as integer lists,
blank lines skipped on read, anything else unserialisable refused."""

import pytest

from repro.obs.jsonl import read_jsonl, write_jsonl


def test_round_trip_normalises_sets_and_bytes(tmp_path):
    path = tmp_path / "r.jsonl"
    records = [
        {"time": 3, "category": "svm.invalidate", "fields": {"targets": {4, 1}}},
        {"raw": b"\x01\x02"},
    ]
    assert write_jsonl(str(path), records) == 2
    assert path.read_text() == (
        '{"time": 3, "category": "svm.invalidate", "fields": {"targets": [1, 4]}}\n'
        '{"raw": [1, 2]}\n'
    )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert read_jsonl(str(path)) == [
        {"time": 3, "category": "svm.invalidate", "fields": {"targets": [1, 4]}},
        {"raw": [1, 2]},
    ]


def test_empty_stream_writes_an_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_jsonl(str(path), []) == 0
    assert read_jsonl(str(path)) == []


def test_unserialisable_field_is_refused(tmp_path):
    with pytest.raises(TypeError, match="unserialisable"):
        write_jsonl(str(tmp_path / "bad.jsonl"), [{"x": object()}])
