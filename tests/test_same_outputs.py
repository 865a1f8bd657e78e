"""How tools/same_outputs.py names the first difference of two files."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def first_difference(old: bytes, new: bytes) -> str:
    """`_where` of the first non-float difference between two CSV files."""
    path = Path("results.csv")
    old_values = same_outputs._values(path, old)
    _, _, first = same_outputs._deviation(old_values, same_outputs._values(path, new))
    return same_outputs._where(path.suffix, old_values, first[0])


def test_comment_line_difference_names_no_column():
    old = b"# schema_version=1\nd,l\n5,2\n"
    assert first_difference(old, b"# schema_version=2\nd,l\n5,2\n") == "row 1"


def test_data_row_difference_names_its_column():
    old = b"# schema_version=1\nd,l\n5,2\n"
    assert first_difference(old, b"# schema_version=1\nd,l\n5,3\n") == "row 3 column l"
