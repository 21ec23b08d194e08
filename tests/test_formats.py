import json

import numpy as np
import pytest

from anchorpriv import formats


def test_csv_cells_follow_their_type():
    text = formats.csv_text(("a", "b", "c", "d"), [(0.1, np.int64(3), None, "x"),
                                                   (np.float64(2.0) / 3, 7, 0.0, "")])
    assert text == "a,b,c,d\n0.10000000000000001,3,,x\n0.66666666666666663,7,0,\n"


def test_float_csv_round_trip_is_exact(tmp_path):
    values = np.random.default_rng(3).random((4, 3)) * 10.0 ** np.arange(-3, 6, 3)
    formats.write_text(tmp_path / "sub" / "v.csv", formats.csv_text(("a", "b", "c"), values))
    assert np.array_equal(formats.read_float_csv(tmp_path / "sub" / "v.csv"), values)
    formats.write_text(tmp_path / "empty.csv", formats.csv_text(("a", "b"), []))
    assert formats.read_float_csv(tmp_path / "empty.csv").shape == (0, 2)


@pytest.mark.parametrize("text", ["a,b\n1,2\n3\n", "a,b\n1,2,3\n", "a,b\n1,x\n"])
def test_malformed_float_csv_is_value_error(tmp_path, text):
    (tmp_path / "bad.csv").write_text(text)
    with pytest.raises(ValueError, match="malformed CSV .*bad.csv"):
        formats.read_float_csv(tmp_path / "bad.csv")


def test_json_layout(tmp_path):
    path = tmp_path / "new" / "x.json"
    formats.write_json(path, {"b": [1.5, None], "a": 1})
    assert path.read_text() == '{\n "a": 1,\n "b": [\n  1.5,\n  null\n ]\n}\n'
    assert formats.read_json(path) == json.loads(path.read_text())


def test_missing_field_is_named():
    with pytest.raises(ValueError, match="bundle lacks field 'partition.upper'"):
        formats.read_partition({"partition": {"lower": [0.0]}}, "bundle")
    with pytest.raises(ValueError, match="bundle field 'total_eps' must be a number"):
        formats.optional_number({"total_eps": "1"}, "total_eps", "bundle")


def test_header_names_format_and_version():
    formats.check_header({"format": "anchorpriv-x", "version": 2}, "x", 2)
    with pytest.raises(ValueError, match="not an anchorpriv x"):
        formats.check_header({"format": "anchorpriv-y", "version": 2}, "x", 2)
    with pytest.raises(ValueError, match="x file version True is not supported"):
        formats.check_header({"format": "anchorpriv-x", "version": True}, "x", 1)


def test_read_array_checks_axes_and_numbers():
    d = {"a": {"b": [[1, 2.5]], "empty": [], "flat": [1.0], "text": ["1"]}}
    got = formats.read_array(d, "a.b", "doc", 2)
    assert got.dtype == float and got.tolist() == [[1.0, 2.5]]
    assert formats.read_array(d, "a.empty", "doc", 2).size == 0
    for path in ("a.flat", "a.text"):
        with pytest.raises(ValueError, match=f"doc field '{path}' must be a 2-D array"):
            formats.read_array(d, path, "doc", 2)
