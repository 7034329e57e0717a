import json

import numpy as np
import pytest

import swstab.instances as instances
from swstab import (
    InstanceParseError,
    assert_all_unstable,
    generate_random_instance,
    parse_instance,
    write_instance,
)
from swstab.linalg import BATCH_ENTRIES, schur_stable


def test_roundtrip_is_exact(tmp_path, diag_family):
    path = tmp_path / "inst.json"
    write_instance(path, diag_family, name="diagonal-pair", seed=None)
    fam = parse_instance(path)
    assert fam.size == diag_family.size
    for a, b in zip(fam.subsystems, diag_family.subsystems):
        assert np.array_equal(a, b)
    data = json.loads(path.read_text())
    assert data["name"] == "diagonal-pair"
    assert data["dim"] == 2


def _write(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def test_parse_rejects_invalid_json(tmp_path):
    with pytest.raises(InstanceParseError, match="invalid JSON"):
        parse_instance(_write(tmp_path, "{not json"))


def test_parse_rejects_missing_keys(tmp_path):
    with pytest.raises(InstanceParseError, match="expected keys"):
        parse_instance(_write(tmp_path, {"dim": 2}))


def test_parse_rejects_bad_dim(tmp_path):
    for dim in (0, True):
        with pytest.raises(InstanceParseError, match="'dim' must be a positive integer"):
            parse_instance(_write(tmp_path, {"dim": dim, "matrices": []}))


def test_parse_rejects_single_matrix(tmp_path):
    with pytest.raises(InstanceParseError, match="at least two"):
        parse_instance(_write(tmp_path, {"dim": 1, "matrices": [[[2.0]]]}))


def test_parse_reports_offending_row(tmp_path):
    bad = {"dim": 2, "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0]]]}
    with pytest.raises(InstanceParseError, match="matrix 2, row 2"):
        parse_instance(_write(tmp_path, bad))


def test_parse_reports_offending_entry(tmp_path):
    bad = {"dim": 2, "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, "x"], [0.0, 1.0]]]}
    with pytest.raises(InstanceParseError, match="matrix 2, row 1, entry 2"):
        parse_instance(_write(tmp_path, bad))


def test_parse_rejects_booleans_and_non_finite(tmp_path):
    bad = {"dim": 1, "matrices": [[[True]], [[2.0]]]}
    with pytest.raises(InstanceParseError, match="not a number"):
        parse_instance(_write(tmp_path, bad))
    bad = {"dim": 1, "matrices": [[[float("inf")]], [[2.0]]]}
    path = tmp_path / "inf.json"
    path.write_text('{"dim": 1, "matrices": [[[Infinity]], [[2.0]]]}')
    with pytest.raises(InstanceParseError, match="non-finite"):
        parse_instance(path)


# The last three once ended in a traceback: an int past double range,
# bytes that are not UTF-8, and nesting past the parser's recursion limit.
MALFORMED_FILES = {
    "wrong-row-count": (b'{"dim": 2, "matrices": [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]}', "matrix 1: expected 2 rows"),
    "int-past-double-range": (b'{"dim": 1, "matrices": [[[1' + b"0" * 400 + b']], [[2]]]}', "past double range"),
    "not-utf-8": (b'{"dim": 1, "name": "\xff\xfe", "matrices": [[[1.5]], [[2]]]}', "invalid JSON: 'utf-8' codec"),
    "nested-too-deep": (b"[" * 100_000, "invalid JSON: maximum recursion depth"),
}


@pytest.mark.parametrize("case", MALFORMED_FILES)
def test_parse_refuses_malformed_files(tmp_path, case):
    payload, match = MALFORMED_FILES[case]
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    with pytest.raises(InstanceParseError, match=match):
        parse_instance(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_instance(tmp_path / "does-not-exist.json")


def test_random_instance_deterministic_and_unstable():
    a = generate_random_instance(3, 2, seed=42)
    b = generate_random_instance(3, 2, seed=42)
    for x, y in zip(a.subsystems, b.subsystems):
        assert np.array_equal(x, y)
    assert assert_all_unstable(a) == []
    c = generate_random_instance(3, 2, seed=43)
    assert not all(
        np.array_equal(x, y) for x, y in zip(a.subsystems, c.subsystems)
    )


def test_random_instance_validates_arguments():
    with pytest.raises(ValueError):
        generate_random_instance(1, 2, seed=0)
    with pytest.raises(ValueError):
        generate_random_instance(2, 0, seed=0)


def test_max_resamples_is_read_at_call_time(monkeypatch):
    # every 1 x 1 draw on [-1, 1] is Schur stable
    monkeypatch.setattr(instances, "MAX_RESAMPLES", 5)
    with pytest.raises(RuntimeError, match=r"^no unstable matrix found in 5 draws \(dim=1\)$"):
        generate_random_instance(2, 1, seed=0)


def test_draws_come_eight_families_at_a_time_within_the_entry_bound(monkeypatch):
    chunks = []

    def spy(stack):
        chunks.append(stack.shape)
        return schur_stable(stack)

    monkeypatch.setattr(instances, "schur_stable", spy)
    generate_random_instance(3, 2, seed=1000)
    assert chunks and all(shape == (24, 2, 2) for shape in chunks)
    chunks.clear()
    # every 64 x 64 draw is unstable: 32 draws of 4096 entries, then 32 more
    generate_random_instance(40, 64, seed=0)
    assert chunks == [(32, 64, 64)] * 2
    assert 32 * 64 * 64 == BATCH_ENTRIES


def test_resample_cap_counts_rejections_across_chunks(monkeypatch):
    # every 1 x 1 draw is stable; chunks of 16 draws reach 40 rejections in
    # the third chunk, which raises before a fourth is drawn
    chunks = []

    def spy(stack):
        chunks.append(len(stack))
        return schur_stable(stack)

    monkeypatch.setattr(instances, "MAX_RESAMPLES", 40)
    monkeypatch.setattr(instances, "schur_stable", spy)
    with pytest.raises(RuntimeError, match=r"^no unstable matrix found in 40 draws \(dim=1\)$"):
        generate_random_instance(2, 1, seed=0)
    assert chunks == [16, 16, 16]
