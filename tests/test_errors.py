"""The cell budget is read from MULPROB_MAX_CELLS on every check.

``check_cells`` keeps the limit it parsed last and parses again only when
the raw value changed; these cases change the variable in one process, in
each of the ways a caller can, and check that the next check sees it.
"""

import os
from unittest.mock import patch

import pytest

from mulprob.errors import DEFAULT_MAX_CELLS, ResourceLimitError, check_cells

VAR = "MULPROB_MAX_CELLS"
OP = "test cells"


def over_budget(count, limit):
    """Assert that ``count`` cells fail against ``limit`` with the full report."""
    with pytest.raises(ResourceLimitError) as exc:
        check_cells(count, OP)
    assert str(exc.value) == (f"{OP} needs {count} cells, exceeding the limit of {limit} "
                              f"(set {VAR} to raise it)")
    assert (exc.value.op, exc.value.needed, exc.value.limit) == (OP, count, limit)


def invalid(raw):
    """Assert that any check fails on the invalid budget ``raw``."""
    for count in (0, 1, DEFAULT_MAX_CELLS + 1):
        with pytest.raises(ResourceLimitError) as exc:
            check_cells(count, OP)
        assert str(exc.value) == f"invalid {VAR} value: {raw!r}"
        assert (exc.value.op, exc.value.needed, exc.value.limit) == (None, None, None)


def test_changed_limit_applies_to_the_next_check(monkeypatch):
    monkeypatch.setenv(VAR, "10")
    assert check_cells(10, OP) is None
    over_budget(11, 10)
    monkeypatch.setenv(VAR, "20")
    assert check_cells(11, OP) is None
    over_budget(21, 20)
    monkeypatch.setenv(VAR, "3")
    over_budget(4, 3)


def test_deleted_limit_falls_back_to_the_default(monkeypatch):
    monkeypatch.setenv(VAR, "10")
    over_budget(11, 10)
    monkeypatch.delenv(VAR)
    assert check_cells(DEFAULT_MAX_CELLS, OP) is None
    over_budget(DEFAULT_MAX_CELLS + 1, DEFAULT_MAX_CELLS)


def test_invalid_limit_fails_every_check(monkeypatch):
    monkeypatch.setenv(VAR, "10")
    assert check_cells(10, OP) is None
    monkeypatch.setenv(VAR, "ten")
    invalid("ten")
    invalid("ten")
    monkeypatch.setenv(VAR, "")
    invalid("")
    # The last valid value counts again once it is set again.
    monkeypatch.setenv(VAR, "10")
    assert check_cells(10, OP) is None
    over_budget(11, 10)


# The last value has more digits than ``int`` converts by default.
@pytest.mark.parametrize("raw", ["-1", " 5", "5_000", "+7", "\uff11\uff10", "9" * 5000])
def test_limit_is_a_count_in_ascii_digits(monkeypatch, raw):
    monkeypatch.setenv(VAR, "10")
    over_budget(11, 10)
    monkeypatch.setenv(VAR, raw)
    invalid(raw)


def test_patch_dict_sets_and_restores_the_limit(monkeypatch):
    monkeypatch.setenv(VAR, "7")
    over_budget(8, 7)
    with patch.dict(os.environ, {VAR: "2"}):
        over_budget(3, 2)
    over_budget(8, 7)
    with patch.dict(os.environ, {VAR: "lots"}):
        invalid("lots")
    assert check_cells(7, OP) is None
    over_budget(8, 7)
    with patch.dict(os.environ, clear=True):
        over_budget(DEFAULT_MAX_CELLS + 1, DEFAULT_MAX_CELLS)
    over_budget(8, 7)


@pytest.mark.skipif(not hasattr(os, "environb"), reason="no bytes environment on this platform")
def test_bytes_environment_sets_the_limit(monkeypatch):
    monkeypatch.setenv(VAR, "7")
    over_budget(8, 7)
    monkeypatch.setitem(os.environb, VAR.encode(), b"9")
    assert os.environ[VAR] == "9"
    over_budget(10, 9)
