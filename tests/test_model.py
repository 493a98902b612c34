import io

import numpy as np
import pytest

from conftest import ECSI_MODEL, random_recursive_model
from oplspm import model as model_module
from oplspm.errors import DataError, ModelError
from oplspm.model import DataMatrix, load_csv, load_data, parse_model, serialize_model


class TestParseModel:
    def test_ecsi_structure(self):
        model = parse_model(ECSI_MODEL)
        assert model.exogenous_count == 1
        assert model.endogenous_count == 6
        assert model.n_indicators == 24
        assert model.block_sizes == (5, 3, 7, 2, 3, 1, 3)
        assert int(model.inner_adjacency.sum()) == 12
        # strictly lower triangular with a zero row for the exogenous latent
        t = model.inner_adjacency
        assert np.all(np.triu(t) == 0)
        assert np.all(t[0] == 0)

    def test_degenerate_single_latent(self):
        model = parse_model("latent only exogenous\nindicators only: x1\n")
        assert model.n_latents == 1
        assert model.block_sizes == (1,)
        assert model.inner_adjacency.shape == (1, 1)

    def test_cycle_rejected(self):
        text = (
            "latent a exogenous\nlatent b endogenous\nlatent c endogenous\n"
            "indicators a: a1\nindicators b: b1\nindicators c: c1\n"
            "path a -> b\npath b -> c\npath c -> b\n"
        )
        with pytest.raises(ModelError, match="non-recursive"):
            parse_model(text)

    def test_edge_declaration_order_is_free(self):
        # c depends on b, but b is declared after c
        text = (
            "latent a exogenous\nlatent c endogenous\nlatent b endogenous\n"
            "indicators a: a1\nindicators b: b1\nindicators c: c1\n"
            "path b -> c\npath a -> b\n"
        )
        model = parse_model(text)
        assert model.latent_names == ("a", "b", "c")

    def test_unknown_indicator_latent(self):
        text = "latent a exogenous\nindicators a: a1\nindicators ghost: g1\n"
        with pytest.raises(ModelError, match="ghost"):
            parse_model(text)

    def test_empty_block(self):
        text = "latent a exogenous\nlatent b endogenous\nindicators a: a1\npath a -> b\n"
        with pytest.raises(ModelError, match="empty indicator block"):
            parse_model(text)

    def test_path_into_exogenous(self):
        text = (
            "latent a exogenous\nlatent b endogenous\n"
            "indicators a: a1\nindicators b: b1\npath b -> a\n"
        )
        with pytest.raises(ModelError, match="exogenous"):
            parse_model(text)

    def test_duplicate_indicator(self):
        # listed in two blocks, then twice within one block
        for blocks in ("indicators a: x1\nindicators b: x1\n", "indicators a: x1 x1\nindicators b: y1\n"):
            text = "latent a exogenous\nlatent b endogenous\n" + blocks + "path a -> b\n"
            with pytest.raises(ModelError, match="indicator 'x1' assigned to more than one block"):
                parse_model(text)

    def test_endogenous_without_incoming_path(self):
        text = (
            "latent a exogenous\nlatent b endogenous\nlatent c endogenous\n"
            "indicators a: a1\nindicators b: b1\nindicators c: c1\npath a -> b\n"
        )
        with pytest.raises(ModelError, match="endogenous latent 'c' has no incoming path"):
            parse_model(text)

    def test_unknown_directive(self):
        with pytest.raises(ModelError, match="unknown directive"):
            parse_model("latent a exogenous\nindicators a: a1\nfoo bar\n")

    def test_roundtrip_ecsi(self):
        model = parse_model(ECSI_MODEL)
        again = parse_model(serialize_model(model))
        assert again.latent_names == model.latent_names
        assert again.blocks == model.blocks
        assert np.array_equal(again.inner_adjacency, model.inner_adjacency)

    def test_roundtrip_random_models(self, rng):
        for _ in range(20):
            model = random_recursive_model(rng)
            again = parse_model(serialize_model(model))
            assert again.latent_names == model.latent_names
            assert again.blocks == model.blocks
            assert np.array_equal(again.inner_adjacency, model.inner_adjacency)

    def test_weight_pattern_partition(self, rng):
        model = random_recursive_model(rng)
        chi = model.weight_pattern()
        # every indicator belongs to exactly one block
        assert np.array_equal(chi.sum(axis=1), np.ones(model.n_indicators))


class TestLoadData:
    def _model(self):
        return parse_model(
            "latent a exogenous\nlatent b endogenous\n"
            "indicators a: x1 x2\nindicators b: y1\npath a -> b\n"
        )

    def test_basic_load_and_reorder(self):
        model = self._model()
        csv_text = "y1,x2,x1\n1,2,3\n2,1,4\n3,3,5\n"
        data = load_data(io.StringIO(csv_text), model)
        assert data.columns == ("x1", "x2", "y1")
        assert np.array_equal(data.values[:, 0], [3, 4, 5])
        # shuffled columns give the same matrix as ordered ones
        ordered = load_data(io.StringIO("x1,x2,y1\n3,2,1\n4,1,2\n5,3,3\n"), model)
        assert np.array_equal(data.values, ordered.values)

    def test_kind_inference(self):
        model = self._model()
        data = load_data(io.StringIO("x1,x2,y1\n1,2.5,1\n2,1.0,2\n3,3.5,3\n"), model)
        assert data.kinds == ("ordinal", "interval", "ordinal")

    def test_missing_column(self):
        with pytest.raises(DataError, match="missing data column 'y1'"):
            load_data(io.StringIO("x1,x2\n1,2\n2,1\n3,3\n"), self._model())

    def test_extra_column(self):
        with pytest.raises(DataError, match="unexpected data column"):
            load_data(io.StringIO("x1,x2,y1,zz\n1,2,1,0\n2,1,2,0\n3,3,3,0\n"), self._model())

    def test_blank_cell_names_location(self):
        with pytest.raises(DataError, match="row 3, column 'x2'"):
            load_data(io.StringIO("x1,x2,y1\n1,2,1\n2,,2\n3,3,3\n"), self._model())

    def test_non_numeric_cell(self):
        with pytest.raises(DataError, match="non-numeric"):
            load_data(io.StringIO("x1,x2,y1\n1,2,1\n2,oops,2\n3,3,3\n"), self._model())

    def test_ordinal_validation(self):
        with pytest.raises(DataError, match="integer codes"):
            DataMatrix(
                np.array([[1.5, 1], [2, 2], [3, 3]]),
                ("a", "b"),
                ("ordinal", "ordinal"),
            )

    def test_minimum_rows(self):
        with pytest.raises(DataError, match="at least 3"):
            DataMatrix(np.ones((2, 1)), ("a",), ("interval",))

    def test_zero_columns_rejected(self):
        with pytest.raises(DataError, match="at least one column"):
            DataMatrix(np.empty((5, 0)), (), ())

    def test_load_csv_without_model(self):
        data = load_csv(io.StringIO("a,b\n1,2\n2,3\n3,1\n"), kinds="ordinal")
        assert data.all_ordinal
        assert data.n_rows == 3


class TestStreamedIngest:
    """Chunked conversion keeps the per-cell path's values and messages."""

    def _model(self):
        return parse_model(
            "latent a exogenous\nlatent b endogenous\n"
            "indicators a: x1 x2\nindicators b: y1\npath a -> b\n"
        )

    @staticmethod
    def _rows(n):
        return [f"{i % 5 + 1},{i % 3 + 1},{i % 7 + 1}" for i in range(n)]

    def test_multi_chunk_values(self, tmp_path):
        n = 2 * model_module._CHUNK_ROWS + 17
        path = tmp_path / "big.csv"
        path.write_text("x1,x2,y1\n" + "\n".join(self._rows(n)) + "\n")
        data = load_data(path, self._model())
        i = np.arange(n)
        expected = np.column_stack([i % 5 + 1, i % 3 + 1, i % 7 + 1]).astype(float)
        assert np.array_equal(data.values, expected)

    def test_bad_cell_in_second_chunk_names_row(self):
        rows = self._rows(model_module._CHUNK_ROWS + 100)
        bad = model_module._CHUNK_ROWS + 40  # 0-based data row in the second chunk
        rows[bad] = "1,x,2"
        # blank lines are not counted: row numbers count the header and non-blank rows
        text = "x1,x2,y1\n\n" + "\n\n".join(rows[:10]) + "\n" + "\n".join(rows[10:]) + "\n"
        with pytest.raises(DataError) as info:
            load_data(io.StringIO(text), self._model())
        assert str(info.value) == f"non-numeric value 'x' at row {bad + 2}, column 'x2'"

    def test_short_row_in_second_chunk(self):
        rows = self._rows(model_module._CHUNK_ROWS + 5)
        rows[-2] = "1,2"
        with pytest.raises(DataError) as info:
            load_csv(io.StringIO("a,b,c\n" + "\n".join(rows)))
        assert str(info.value) == f"row {len(rows)}: expected 3 cells, got 2"

    def test_blank_quoted_and_padded_cells(self):
        text = (
            "\n x1 , x2,y1\n"
            "\n"
            '"1", 2 ,3\n'
            "  ,  , \n"  # whitespace-only row: skipped like a blank line
            '4,"5",  6\n'
            "\n"
            '7,"8" ,9.0\n'
        )
        data = load_data(io.StringIO(text), self._model())
        assert np.array_equal(data.values, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        with pytest.raises(DataError, match="missing value at row 5, column 'y1'"):
            load_data(io.StringIO(text + "1,2,\n"), self._model())

    def test_missing_column_before_bad_cell(self):
        with pytest.raises(DataError, match="missing data column 'y1'"):
            load_data(io.StringIO("x1,x2\n1,oops\n2,1\n3,3\n"), self._model())
        with pytest.raises(DataError, match="unexpected data column 'zz'"):
            load_data(io.StringIO("x1,x2,y1,zz\n1,2,3,\n"), self._model())

    def test_repeated_column_before_bad_cell(self):
        with pytest.raises(DataError, match="repeated data column 'x1'"):
            load_data(io.StringIO("x1,x2,y1,x1\n1,2,3,oops\n"), self._model())
        with pytest.raises(DataError, match="repeated data column 'v'"):
            load_csv(io.StringIO("v, v\nx,1\n"))

    def test_header_only_or_empty(self):
        for text in ("", "\n\n", "x1,x2,y1\n", "x1,x2,y1\n , , \n\n"):
            with pytest.raises(DataError, match="header row and at least one data row"):
                load_data(io.StringIO(text), self._model())
