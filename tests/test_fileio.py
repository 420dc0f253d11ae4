"""File formats: vectors, density matrices, bases, polytope models."""

import json

import numpy as np
import pytest

from entrokit.fileio import SchemaError, parse_state, read_basis, read_density, read_model, read_vector


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_read_vector_json(tmp_path):
    p = write(tmp_path, "p.json", "[0.5, 0.25, 0.25]")
    assert np.array_equal(read_vector(p), [0.5, 0.25, 0.25])


def test_read_vector_csv_single_column(tmp_path):
    p = write(tmp_path, "p.csv", "0.5\n0.25\n\n0.25\n")
    assert np.array_equal(read_vector(p), [0.5, 0.25, 0.25])


def test_read_vector_rejects_multicolumn(tmp_path):
    p = write(tmp_path, "p.csv", "0.5, 0.5\n")
    with pytest.raises(SchemaError, match="single column"):
        read_vector(p)


def test_read_vector_rejects_text_and_empty(tmp_path):
    with pytest.raises(SchemaError, match="not a number"):
        read_vector(write(tmp_path, "a.csv", "abc\n"))
    with pytest.raises(SchemaError, match="empty"):
        read_vector(write(tmp_path, "b.csv", ""))
    with pytest.raises(SchemaError):
        read_vector(write(tmp_path, "c.json", "[]"))
    with pytest.raises(SchemaError):
        read_vector(write(tmp_path, "d.json", '["x"]'))
    with pytest.raises(SchemaError):
        read_vector(write(tmp_path, "e.json", "[0.5,"))


def test_read_density_real_and_complex(tmp_path):
    p = write(tmp_path, "rho.json", json.dumps({"dim": 2, "re": [[0.5, 0.25], [0.25, 0.5]]}))
    rho = read_density(p)
    assert rho.dim == 2
    q = write(
        tmp_path,
        "rho2.json",
        json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.25], [-0.25, 0.0]]}),
    )
    rho2 = read_density(q)
    assert abs(rho2.matrix[0, 1] - 0.25j) < 1e-15


def test_read_density_schema_errors(tmp_path):
    with pytest.raises(SchemaError, match="missing required key"):
        read_density(write(tmp_path, "a.json", json.dumps({"dim": 2})))
    with pytest.raises(SchemaError, match="2 x 2"):
        read_density(write(tmp_path, "b.json", json.dumps({"dim": 2, "re": [[1.0]]})))
    with pytest.raises(SchemaError, match="integer"):
        read_density(write(tmp_path, "c.json", json.dumps({"dim": "two", "re": [[1.0]]})))
    with pytest.raises(SchemaError, match="JSON object"):
        read_density(write(tmp_path, "d.json", "[1, 2]"))


@pytest.mark.parametrize("dim", [1.9, True, False, "2", None, [2]])
def test_dim_must_be_an_integer(tmp_path, dim):
    with pytest.raises(SchemaError, match="'dim' must be an integer"):
        read_density(write(tmp_path, "rho.json", json.dumps({"dim": dim, "re": [[1.0]]})))
    with pytest.raises(SchemaError, match="'dim' must be an integer"):
        read_model(write(tmp_path, "m.json", json.dumps({"dim": dim, "vertices": [[0.0], [1.0]]})))


def test_integral_float_dim_is_accepted_and_non_positive_rejected(tmp_path):
    assert read_density(write(tmp_path, "rho.json", json.dumps({"dim": 1.0, "re": [[1.0]]}))).dim == 1
    model = read_model(write(tmp_path, "m.json", json.dumps({"dim": 1.0, "vertices": [[0.0], [1.0]]})))
    assert model.n_vertices == 2
    with pytest.raises(SchemaError, match="positive"):
        read_model(write(tmp_path, "m0.json", json.dumps({"dim": 0, "vertices": [[0.0], [1.0]]})))


def test_read_density_domain_errors_are_value_errors(tmp_path):
    # structurally fine but not a state: trace 0.9
    p = write(tmp_path, "rho.json", json.dumps({"dim": 2, "re": [[0.45, 0.0], [0.0, 0.45]]}))
    with pytest.raises(ValueError):
        read_density(p)


def test_read_basis(tmp_path):
    h = 1.0 / np.sqrt(2.0)
    p = write(tmp_path, "basis.json", json.dumps({"dim": 2, "re": [[h, h], [h, -h]]}))
    basis = read_basis(p)
    assert basis.shape == (2, 2)
    assert basis.dtype == complex
    with pytest.raises(SchemaError, match="positive"):
        read_basis(write(tmp_path, "empty.json", json.dumps({"dim": 0, "re": []})))


def test_read_model(tmp_path):
    p = write(
        tmp_path, "m.json",
        json.dumps({"dim": 2, "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}),
    )
    model = read_model(p)
    assert model.n_vertices == 4
    with pytest.raises(SchemaError, match="coordinates"):
        read_model(write(tmp_path, "bad.json", json.dumps({"dim": 3, "vertices": [[1, 1]]})))
    with pytest.raises(SchemaError):
        read_model(write(tmp_path, "bad2.json", json.dumps({"dim": 2, "vertices": []})))


def test_parse_state():
    assert np.array_equal(parse_state("[0.5, -0.25]"), [0.5, -0.25])
    with pytest.raises(SchemaError):
        parse_state("{}")
    with pytest.raises(SchemaError):
        parse_state("[")
    with pytest.raises(SchemaError):
        parse_state('["a"]')


@pytest.mark.parametrize("text", ["[true, false]", "[true, 0.5]", '[0.5, "0.5"]', "[null]", "[[0.5]]"])
def test_json_arrays_hold_only_numbers(tmp_path, text):
    # JSON true/false would otherwise be read as 1/0
    with pytest.raises(SchemaError, match="must be numbers"):
        read_vector(write(tmp_path, "p.json", text))
    with pytest.raises(SchemaError, match="state: array entries must be numbers"):
        parse_state(text)


def test_json_integer_beyond_float_range_is_schema_error(tmp_path):
    text = "[" + "1" * 400 + ", 0.5]"
    with pytest.raises(SchemaError, match="float range"):
        read_vector(write(tmp_path, "p.json", text))
    with pytest.raises(SchemaError, match="float range"):
        parse_state(text)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_vector(str(tmp_path / "missing.json"))
