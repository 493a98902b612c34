import csv
import io
import pickle
import warnings
from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ECSI_MODEL, random_recursive_model
from oplspm import model as model_module
from oplspm.errors import DataError, ModelError
from oplspm.model import DataMatrix, load_csv, load_data, parse_model, serialize_model
from oplspm.polychoric import ThresholdSet, crosstab, estimate_thresholds


class TestParseModel:
    def test_ecsi_structure(self):
        model = parse_model(ECSI_MODEL)
        assert model.exogenous_count == 1
        assert model.n_latents - model.exogenous_count == 6
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


class TestModelLayout:
    """The block layout is cached on the model without changing what the model is."""

    @staticmethod
    def outcome(f):
        try:
            return f()
        except Exception as exc:  # the exception type is the outcome compared
            return type(exc)

    def layout(self, model):
        return (
            model.block_sizes,
            model.indicator_names,
            model.n_indicators,
            [model.block_slice(j) for j in range(-model.n_latents, model.n_latents)],
            model.indicator_latents,
        )

    def test_layout_matches_blocks(self, rng):
        for _ in range(10):
            model = random_recursive_model(rng)
            sizes = tuple(len(block) for block in model.blocks)
            starts = np.cumsum((0, *sizes[:-1]))
            assert model.block_sizes == sizes
            assert model.n_indicators == sum(sizes)
            assert model.indicator_names == tuple(chain.from_iterable(model.blocks))
            for j, (start, size) in enumerate(zip(starts, sizes)):
                assert model.block_slice(j) == slice(start, start + size)
                assert model.indicator_latents[start : start + size] == (j,) * size
            assert len(model.indicator_latents) == model.n_indicators
            with pytest.raises(IndexError):
                model.block_slice(model.n_latents)

    def test_equality_hashing_and_pickling_unchanged(self):
        model, twin = parse_model(ECSI_MODEL), parse_model(ECSI_MODEL)

        def behaviour():
            return [
                self.outcome(lambda: model == model),
                self.outcome(lambda: model == twin),
                self.outcome(lambda: hash(model)),
                self.outcome(lambda: repr(model)),
            ]

        before = behaviour()
        layout = self.layout(model)
        assert behaviour() == before
        again = pickle.loads(pickle.dumps(model))
        assert (again.name, again.latent_names, again.blocks) == (
            model.name, model.latent_names, model.blocks
        )
        assert again.exogenous_count == model.exogenous_count
        assert np.array_equal(again.inner_adjacency, model.inner_adjacency)
        assert self.layout(again) == layout

    def test_weight_pattern_is_a_fresh_array(self):
        model = parse_model(ECSI_MODEL)
        chi = model.weight_pattern()
        chi[:] = -1.0
        assert np.array_equal(model.weight_pattern().sum(axis=0), model.block_sizes)


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

    def test_ordinal_codes_below_two_to_the_53(self):
        values = np.array([[1.0, 1], [2, 2], [3, 2.0**53 - 1]])
        assert DataMatrix(values, ("a", "b"), ("ordinal", "ordinal")).codes(1)[2] == 2**53 - 1
        values[2, 1] = 2.0**53
        with pytest.raises(DataError) as info:
            DataMatrix(values, ("a", "b"), ("ordinal", "ordinal"))
        assert str(info.value) == (
            "ordinal column 'b' holds code 9.0072e+15; codes must be below 2**53"
        )
        # every float from 2**53 on is integral, so such a column is not inferred ordinal
        assert load_csv(io.StringIO("a,b\n1,2\n2,1e20\n3,3\n")).kinds == ("ordinal", "interval")

    def test_non_utf8_file_names_it(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b\n1,2\n2,1\n3,3\n# café\n".encode("latin-1"))
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == (
            f"data file '{path}' is not UTF-8 text: invalid continuation byte (byte 0xe9)"
        )

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "y1,x2,x1\n1,2,3\n2,1,4\n3,3,5\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        plain = load_data(io.StringIO(text), self._model())
        for source in (lambda: path, lambda: io.StringIO("\ufeff" + text)):
            data = load_data(source(), self._model())
            assert (data.columns, data.kinds) == (plain.columns, plain.kinds)
            assert np.array_equal(data.values, plain.values)
            assert load_csv(source()).columns == ("y1", "x2", "x1")

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


# A Python int of 2**70 makes numpy build an object array of the column.
BAD_CODES = {"zero": 0.0, "negative": -1.0, "fraction": 1.5, "nan": float("nan"),
             "two_to_the_53": 2.0**53, "beyond_int64": 1e19, "python_int_2_to_the_70": 2**70}
_THRESHOLDS = ThresholdSet(cuts=np.array([0.0]), categories=(1, 2))
CODE_ENTRY_POINTS = {
    "DataMatrix": lambda col: DataMatrix(
        np.column_stack([np.ones(col.size), col]), ("a", "b"), ("ordinal", "ordinal")
    ),
    "estimate_thresholds": estimate_thresholds,
    "map_codes": _THRESHOLDS.map_codes,
    "crosstab": lambda col: crosstab(col, np.ones(col.size), 2, 1),
}


class TestCodeRule:
    """One rule for category codes: an integer >= 1 below 2**53, at every entry point."""

    @pytest.mark.parametrize("bad", BAD_CODES.values(), ids=BAD_CODES)
    @pytest.mark.parametrize("entry", [*CODE_ENTRY_POINTS, "load_csv"])
    def test_every_entry_point_rejects_a_non_code(self, entry, bad):
        column = np.array([1, 2, bad, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if entry == "load_csv":
                text = "a,b\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(column.tolist(), 1))
                if np.isnan(float(bad)):
                    with pytest.raises(DataError, match="non-finite"):
                        load_csv(io.StringIO(text))
                else:
                    assert load_csv(io.StringIO(text)).kinds == ("ordinal", "interval")
                return
            # DataMatrix rejects a NaN anywhere before it applies the rule
            message = "was not seen" if entry == "map_codes" else "codes >= 1|below 2|non-finite"
            with pytest.raises(DataError, match=message):
                CODE_ENTRY_POINTS[entry](column)

    def test_library_entry_points_give_the_data_matrix_messages(self):
        for bad, message in ((1.5, "must hold integer codes >= 1"),
                             (2.0**53, "holds code 9.0072e+15; codes must be below 2**53")):
            column = np.array([1.0, 2.0, bad])
            with pytest.raises(DataError) as info:
                estimate_thresholds(column)
            assert str(info.value) == f"ordinal column {message}"
            with pytest.raises(DataError) as info:
                crosstab(np.ones(3), column, 1, 2)
            assert str(info.value) == f"codes_k {message}"

    def test_map_codes_names_a_non_code(self):
        for bad, shown in ((1.5, "1.5"), (float("nan"), "nan"), (1e19, "1e+19")):
            with pytest.raises(DataError) as info:
                _THRESHOLDS.map_codes(np.array([1.0, bad, 7.0]))
            assert str(info.value) == f"category code {shown} was not seen at threshold estimation"

    def test_estimate_thresholds_rejects_a_2d_array(self):
        # one column per row or per column: it was pooled into one column
        for shape in ((50, 2), (2, 50)):
            with pytest.raises(DataError, match="must be 1-D"):
                estimate_thresholds(np.arange(100).reshape(shape) % 3 + 1)

    def test_first_bad_column_in_order_is_named(self):
        values = np.array([[1.0, 1, 1.5], [2, 2, 2], [3, 3, 3]])
        with pytest.raises(DataError, match="unknown column kind 'nominal'"):
            DataMatrix(values, ("a", "b", "c"), ("ordinal", "nominal", "ordinal"))
        with pytest.raises(DataError, match="ordinal column 'c' must hold"):
            DataMatrix(values, ("a", "b", "c"), ("ordinal", "ordinal", "ordinal"))
        values[0, 1] = 2.0**60
        with pytest.raises(DataError, match="ordinal column 'b' holds code 1.15292e\\+18"):
            DataMatrix(values, ("a", "b", "c"), ("ordinal", "ordinal", "ordinal"))
        # within a column, a non-integer is named before a code above 2**53
        values[1, 1] = 0.5
        with pytest.raises(DataError, match="ordinal column 'b' must hold"):
            DataMatrix(values, ("a", "b", "c"), ("ordinal", "ordinal", "interval"))


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

    def test_bare_carriage_return_names_row(self):
        # a stream is split at "\n" only, so csv sees a bare "\r" inside a line
        with pytest.raises(DataError, match="^row 1: unreadable CSV line"):
            load_csv(io.StringIO("a,b\r1,2\r3,4\r5,6\r"))
        with pytest.raises(DataError, match="^row 1: unreadable CSV line"):
            load_data(io.StringIO("x1,x2,y1\r1,2,3\r4,5,6\r7,8,9\r"), self._model())
        # a stray "\r" in a cell, after a blank line and in a later chunk
        rows = self._rows(model_module._CHUNK_ROWS + 20)
        rows[-3] = "1,2\r,3"
        with pytest.raises(DataError, match=f"^row {len(rows) - 1}: unreadable CSV line"):
            load_data(io.StringIO("x1,x2,y1\n\n" + "\n".join(rows) + "\n"), self._model())
        with pytest.raises(DataError, match="^row 3: unreadable CSV line"):
            load_csv(io.StringIO("a,b\n1,2\n3\r,4\n5,6\n"))


# The parsing path of load_csv/load_data before chunks went through numpy's
# reader, frozen: every row through csv, each chunk converted with one
# float() pass, and a chunk that fails it converted cell by cell.
def _oracle_parse_cells(header, rows, first_row):
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    values = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows, start=first_row):
        if len(row) != len(header):
            raise DataError(f"row {i}: expected {len(header)} cells, got {len(row)}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                raise DataError(f"missing value at row {i}, column '{header[j]}'")
            try:
                values[i - first_row, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric value '{cell}' at row {i}, column '{header[j]}'"
                ) from None
    return values, len(rows)


def _oracle_chunk_values(header, rows, first_row):
    k = len(header)
    if set(map(len, rows)) == {k}:
        try:
            cells = map(float, chain.from_iterable(rows))
            flat = np.fromiter(cells, dtype=float, count=len(rows) * k)
        except ValueError:
            pass
        else:
            return flat.reshape(len(rows), k), len(rows)
    return _oracle_parse_cells(header, rows, first_row)


def oracle_read_values(source, select=None):
    reader = csv.reader(source)
    lines = filter(None, reader)
    nonblank = (row for row in lines if any(cell.strip() for cell in row))
    header, first = next(nonblank, None), next(nonblank, None)
    if first is None:
        raise DataError("CSV needs a header row and at least one data row")
    header = [cell.strip() for cell in header]
    if len(set(header)) < len(header):
        name = next(name for i, name in enumerate(header) if name in header[:i])
        raise DataError(f"repeated data column '{name}'")
    order = select(header) if select is not None else None
    rows = chain([first], lines)
    blocks, row_no = [], 2
    while chunk := list(islice(rows, 8192)):
        values, n = _oracle_chunk_values(header, chunk, row_no)
        blocks.append(values if order is None else values[:, order])
        row_no += n
    return header, np.concatenate(blocks)


PLAIN = ["1", "2", "3", "7", "10", "4.5", "-2", "1e2"]
TRICKY = [
    " 3", "3 ", " 3 ", "\t4", '"3"', '"3', "1_0", "\u0661", "\xa03", "3#x", "nan(1)", "inf",
    "1e-400", "-0", "", " ", "x",
]
HEADERS = ("x1,x2,y1", " y1 ,x1,x2 ")


@st.composite
def csv_texts(draw):
    width = 3
    plain_row = st.lists(st.sampled_from(PLAIN), min_size=width, max_size=width)
    tricky_row = st.lists(
        st.sampled_from(PLAIN + TRICKY), min_size=width - 1, max_size=width + 1
    )
    line = st.one_of(  # plain rows twice, so that whole chunks reach numpy's reader
        plain_row.map(",".join),
        plain_row.map(",".join),
        tricky_row.map(",".join),
        st.sampled_from(["", "  ", "\t", " , , "]),
    )
    body = draw(st.lists(line, min_size=0, max_size=12))
    lead = draw(st.lists(st.sampled_from(["", " "]), max_size=2))
    header = draw(st.sampled_from(HEADERS))
    lines = [*lead, header, *body]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map("".join, zip(lines, ends)))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestLoaderOracle:
    """Plain chunks through numpy's reader: the frozen path's values and messages."""

    MODEL = parse_model(
        "latent a exogenous\nlatent b endogenous\n"
        "indicators a: x1 x2\nindicators b: y1\npath a -> b\n"
    )

    @staticmethod
    def result(load, text, chunk_rows, reader):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "_CHUNK_ROWS", chunk_rows)
            if reader is not None:
                patch.setattr(model_module, "_read_values", reader)
            try:
                return load(io.StringIO(text)).values
            except DataError as exc:
                return str(exc)

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(), chunk_rows=st.integers(2, 3))
    def test_matches_frozen_loader(self, text, chunk_rows):
        loads = (load_csv, lambda source: load_data(source, self.MODEL))
        for load in loads:
            got = self.result(load, text, chunk_rows, None)
            want = self.result(load, text, chunk_rows, oracle_read_values)
            if isinstance(want, str):
                assert got == want
            else:
                assert isinstance(got, np.ndarray), got
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_quoted_first_row_then_plain_chunks(self):
        text = "x1,x2,y1\n" + '"1",2,3\n' + "4,5,6\n" * 5 + "-0,1e-400,7\n"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "_CHUNK_ROWS", 2)
            data = load_csv(io.StringIO(text))
        assert np.array_equal(data.values, [[1, 2, 3], *[[4, 5, 6]] * 5, [0, 0, 7]])
        assert np.array_equal(np.signbit(data.values[-1]), [True, False, False])

    def test_blank_chunk_is_skipped_without_warning(self):
        # the reader warns on a chunk with no data; such a chunk is never handed to it
        text = "x1,x2,y1\n1,2,3\n" + "\n" * 4 + " \n\t\n" + "4,5,6\n" + "7,8,x\n"
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            patch.setattr(model_module, "_CHUNK_ROWS", 2)
            with pytest.raises(DataError, match="non-numeric value 'x' at row 4, column 'y1'"):
                load_csv(io.StringIO(text))
