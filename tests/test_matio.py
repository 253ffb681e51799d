"""Serialization round-trips and format validation."""

import re

import numpy as np
import pytest

from spinpoint import CMatrix, matio

from conftest import random_cmatrix


class TestJson:
    def test_round_trip_bit_exact(self, rng):
        for _ in range(10):
            m = random_cmatrix(rng, int(rng.integers(1, 6)),
                               int(rng.integers(1, 6)))
            assert matio.from_json(matio.to_json(m)) == m

    def test_signed_zero_and_tiny_values(self):
        m = CMatrix([[complex(-0.0, 5e-324), complex(1e308, -1e-308)]])
        assert matio.from_json(matio.to_json(m)) == m

    def test_schema_shape(self):
        m = CMatrix([[1.0 + 2.0j, 3.0], [0.0, -4.0j]])
        obj = matio.matrix_to_dict(m)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"][1] == [3.0, 0.0]  # row-major

    @pytest.mark.parametrize("payload", [
        '{"rows": 2, "cols": 2}',
        '{"rows": 2, "cols": 2, "data": [[1, 0]]}',
        '{"rows": 0, "cols": 1, "data": []}',
        '{"rows": 1, "cols": 1, "data": [[1]]}',
        '{"rows": 1, "cols": 1, "data": [5]}',
        '{"rows": 1, "cols": 1, "data": 5}',
        '{"rows": 1, "cols": 1, "data": [[null, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[{}, 0]]}',
        '{"rows": 1.9, "cols": 1, "data": [[1, 0]]}',
        '{"rows": true, "cols": 1, "data": [[1, 0]]}',
        '{"rows": 1, "cols": "1", "data": [[1, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[true, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[1, "2"]]}',
        pytest.param('{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400),
                     id="integer-beyond-float"),
        'not json',
    ])
    def test_rejects_malformed(self, payload):
        with pytest.raises(ValueError):
            matio.from_json(payload)


class TestMatrixMarket:
    def test_array_round_trip_bit_exact(self, rng):
        for _ in range(10):
            m = random_cmatrix(rng, int(rng.integers(1, 5)),
                               int(rng.integers(1, 5)))
            assert matio.from_matrix_market(matio.to_matrix_market(m)) == m

    def test_coordinate_format(self):
        text = "\n".join([
            "%%MatrixMarket matrix coordinate complex general",
            "% a comment line",
            "2 2 2",
            "1 2 0.5 -1.5",
            "2 1 3.0 0.25",
        ])
        m = matio.from_matrix_market(text)
        assert m == CMatrix([[0.0, 0.5 - 1.5j], [3.0 + 0.25j, 0.0]])

    def test_rejects_real_field(self):
        text = "%%MatrixMarket matrix array real general\n1 1\n1.0"
        with pytest.raises(ValueError):
            matio.from_matrix_market(text)

    def test_rejects_repeated_coordinate(self):
        text = "\n".join([
            "%%MatrixMarket matrix coordinate complex general",
            "2 2 2",
            "1 1 0.5 0.0",
            "1 1 3.0 0.0",
        ])
        with pytest.raises(ValueError, match="listed twice"):
            matio.from_matrix_market(text)

    def test_rejects_wrong_counts(self):
        text = "%%MatrixMarket matrix array complex general\n2 1\n1.0 0.0"
        with pytest.raises(ValueError):
            matio.from_matrix_market(text)

    @pytest.mark.parametrize("text, message", [
        pytest.param("2 2\n1.0 0.0", "missing %%MatrixMarket header",
                     id="no-header"),
        pytest.param("%%MatrixMarket matrix array complex", "malformed header",
                     id="short-header"),
        pytest.param("%%MatrixMarket matrix array complex general\n% note",
                     "missing size line", id="no-size-line"),
        pytest.param("%%MatrixMarket matrix array complex general\n1 1 1\n"
                     "1.0 0.0", "array format expects", id="array-size-line"),
        pytest.param("%%MatrixMarket matrix coordinate complex general\n1 1\n"
                     "1 1 1.0 0.0", "coordinate format expects",
                     id="coordinate-size-line"),
        pytest.param("%%MatrixMarket matrix coordinate complex general\n"
                     "2 2 2\n1 1 1.0 0.0", "expected 2 entry lines, got 1",
                     id="entry-count"),
        pytest.param("%%MatrixMarket matrix coordinate complex general\n"
                     "2 2 1\n3 1 1.0 0.0", "index out of range",
                     id="index-out-of-range"),
        pytest.param("%%MatrixMarket matrix banded complex general\n1 1\n"
                     "1.0 0.0", "unsupported layout 'banded'",
                     id="unknown-layout"),
    ])
    def test_refusals(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            matio.from_matrix_market(text)


class TestDispatch:
    def test_write_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "matrix.txt"
        with pytest.raises(ValueError, match="unknown format 'csv'"):
            matio.write_file(CMatrix.identity(2), str(path), fmt="csv")
        assert not path.exists()

    def test_sniffs_format(self, rng, tmp_path):
        m = random_cmatrix(rng, 3)
        for fmt in ("json", "mm"):
            path = tmp_path / f"matrix.{fmt}"
            matio.write_file(m, str(path), fmt=fmt)
            assert matio.read_file(str(path)) == m
