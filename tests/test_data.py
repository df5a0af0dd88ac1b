"""Data layer: CSV parsing, scalers, folds, subsampling, and the flow generator."""

import codecs
import hashlib
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import field_dataset, field_simulation
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from packedflow import data
from packedflow.data import (
    CSV_COLUMNS,
    CylinderFlowConfig,
    Dataset,
    ScalerPair,
    Simulation,
    SimulationParseError,
    apply_scaler,
    bernoulli_pressure,
    cylinder_velocity,
    fit_scaler,
    generate_cylinder_flow,
    kfold_split,
    load_dataset,
    load_simulation,
    subsample,
    write_dataset,
    write_simulation,
)

HEADER = "x,y,inlet_vx,inlet_vy,distance,nx,ny,vx,vy,p,nut"
ROW = "0.0,1.0,10.0,0.0,0.5,0.0,0.0,9.5,0.1,2.5,0.01"
SURFACE_ROW = "1.0,0.0,10.0,0.0,0.0,1.0,0.0,0.0,0.0,50.0,0.0"


def csv_file(tmp_path, text, name="sim.csv"):
    """A simulation CSV holding exactly ``text`` (str as UTF-8, or bytes), line ends untouched."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


def parse_error(path) -> str:
    with pytest.raises(SimulationParseError) as info:
        load_simulation(path)
    return str(info.value)


# Cells near the grammar's edge: separators, padding (\x0c and \x85 are whitespace to
# float(), \x1c is not), quotes, comments, words and a Unicode digit.
FUZZ_TOKENS = [*"0123456789+-.eE_ \t\xa0\x0c\x1c\x85\"#", "inf", "nan", "١"]


@st.composite
def fuzzed_csv(draw):
    """Simulation CSV text of a few rows: plain numbers, some perhaps fuzzed, padded or made of number bytes."""
    plain_cell = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    number_bytes_cell = st.lists(st.sampled_from("0123456789+-.eE"), max_size=6).map("".join)
    fuzz_cell = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=6).map("".join)
    pad = st.sampled_from(["", " ", "\t", "\xa0", "\x0c", "\x1c", "\x1f", "\x85", "_"])
    lead, trail = draw(pad, label="lead"), draw(pad, label="trail")  # one padding per file
    padded_cell = plain_cell.map(lambda c: lead + c + trail)
    kinds = [plain_cell, padded_cell, st.one_of(plain_cell, number_bytes_cell), st.one_of(plain_cell, fuzz_cell)]
    cell = draw(st.sampled_from(kinds), label="cells")
    header = list(draw(st.permutations(CSV_COLUMNS), label="header"))
    if draw(st.integers(0, 9), label="quoted header") == 0:
        header[0] = f'"{header[0]}"'
    lines = [",".join(header)]
    for fields in draw(st.lists(st.sampled_from([11, 11, 11, 11, 10, 12, 0]), min_size=1, max_size=5)):
        lines.append(",".join(draw(st.lists(cell, min_size=fields, max_size=fields))))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
    return end.join(lines) + draw(st.sampled_from([end, ""]), label="last line end")


PLAIN_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def expected_table(text):
    """The grammar, written independently of the reader: the (N, 11) values of a CSV in
    ``CSV_COLUMNS`` order, or the (row, column) of its first fault (column None for a row fault)."""
    head, *lines = text.split("\n")
    header = [name.strip() for name in head.split(",")]
    if sorted(header) != sorted(CSV_COLUMNS):
        return 1, None
    rows = []
    for row, line in enumerate(lines, start=2):
        if row <= len(lines):  # an LF follows every line but the last, so this CR is a CRLF's
            line = line.removesuffix("\r")
        if not line:
            continue
        cells = line.split(",")
        for column, cell in zip(header, cells):
            if not PLAIN_DECIMAL.fullmatch(cell) or not math.isfinite(float(cell)):
                return row, column
        if len(cells) != len(CSV_COLUMNS):
            return row, None
        rows.append([float(cells[header.index(c)]) for c in CSV_COLUMNS])
    return np.array(rows) if rows else (None, None)


def small_flow_config(**overrides):
    base = dict(
        num_sims=3,
        surface_points=16,
        field_points=24,
        radius_range=(0.5, 1.0),
        inlet_speed_range=(5.0, 15.0),
        circulation_range=(-4.0, 4.0),
        seed=0,
        ood=False,
    )
    base.update(overrides)
    return CylinderFlowConfig(**base)


@pytest.fixture(scope="module")
def large_simulation(tmp_path_factory):
    """A simulation of 20 000 points, as large as the benchmark's eval_large reads, and the
    bytes of the LF-ended CSV ``write_simulation`` writes of it."""
    config = small_flow_config(num_sims=1, surface_points=2000, field_points=18000)
    source = generate_cylinder_flow(config, "train").simulations[0]
    path = tmp_path_factory.mktemp("large") / "sim.csv"
    write_simulation(source, path)
    return source, path.read_bytes()


class TestSimulationInvariants:
    def test_accepts_valid(self):
        sim = field_simulation("ok", 5, 0)
        assert sim.num_points == 5
        assert not sim.surface_mask.any()

    def test_rejects_non_finite(self):
        sim = field_simulation("ok", 5, 0)
        points = sim.points.copy()
        points[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Simulation("bad", points, sim.targets)

    def test_rejects_negative_distance(self):
        sim = field_simulation("ok", 5, 0)
        points = sim.points.copy()
        points[2, 4] = -0.1
        with pytest.raises(ValueError, match="distance"):
            Simulation("bad", points, sim.targets)

    def test_rejects_surface_point_with_distance(self):
        sim = field_simulation("ok", 5, 0)
        points = sim.points.copy()
        points[1, 5:7] = (1.0, 0.0)  # on surface but distance stays > 0
        with pytest.raises(ValueError, match="surface"):
            Simulation("bad", points, sim.targets)

    def test_rejects_non_unit_normals(self):
        sim = field_simulation("ok", 5, 0)
        points = sim.points.copy()
        points[1, 4] = 0.0
        points[1, 5:7] = (0.5, 0.5)
        with pytest.raises(ValueError, match="unit norm"):
            Simulation("bad", points, sim.targets)

    def test_overflowing_normal_norm_is_not_unit(self, tmp_path):
        # hypot(1.7e308, 1.7e308) overflows; the row must fail the unit-norm check, with no warning
        path = csv_file(tmp_path, f"{HEADER}\n1.0,0.0,10.0,0.0,0.0,1.7e308,1.7e308,0.0,0.0,50.0,0.0\n")
        assert parse_error(path) == f"{path}: simulation 'sim': surface normals must have unit norm"

    def test_dataset_rejects_duplicate_names(self):
        sim = field_simulation("dup", 4, 0)
        with pytest.raises(ValueError, match="duplicate"):
            Dataset((sim, sim), split_label="train")


@pytest.fixture
def no_csv_reads(monkeypatch):
    """Fail the test if a simulation CSV is read: a manifest fault must be found first."""

    def read(path):
        raise AssertionError(f"read {path} before the manifest was checked")

    monkeypatch.setattr(data, "load_simulation", read)


class TestSimulationCsv:
    def test_parses_two_rows(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            HEADER + "\n"
            "0.0,1.0,10.0,0.0,0.5,0.0,0.0,9.5,0.1,2.5,0.01\n"
            "1.0,0.0,10.0,0.0,0.0,1.0,0.0,0.0,0.0,50.0,0.0\n"
        )
        sim = load_simulation(path)
        assert sim.num_points == 2
        assert sim.name == "two"
        np.testing.assert_allclose(sim.points[0], [0.0, 1.0, 10.0, 0.0, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(sim.targets[1], [0.0, 0.0, 50.0, 0.0])
        assert sim.surface_mask.tolist() == [False, True]

    @pytest.mark.parametrize("ordered", [True, False])
    def test_a_header_in_column_order_keeps_the_parsed_array(self, tmp_path, monkeypatch, ordered):
        parsed, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: parsed.append(loadtxt(*args, **kwargs)) or parsed[-1])
        order = range(len(CSV_COLUMNS)) if ordered else [1, 0, *range(2, len(CSV_COLUMNS))]  # x and y swapped
        lines = [[CSV_COLUMNS[j] for j in order], *([row.split(",")[j] for j in order] for row in (ROW, SURFACE_ROW))]
        table = data._read_table(csv_file(tmp_path, "".join(",".join(line) + "\n" for line in lines)))
        assert len(parsed) == 1 and (table is parsed[0]) == ordered
        assert table.tolist() == [[float(cell) for cell in row.split(",")] for row in (ROW, SURFACE_ROW)]

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("x,y,inlet_vx,inlet_vy,distance,nx,ny,vx,vy,p\n" + "0," * 9 + "0\n")
        with pytest.raises(SimulationParseError, match="'nut'") as err:
            load_simulation(path)
        assert err.value.column == "nut"

    def test_extra_column_rejected(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(HEADER + ",bogus\n" + "0," * 11 + "0\n")
        with pytest.raises(SimulationParseError, match="bogus"):
            load_simulation(path)

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            HEADER + "\n"
            "0.0,1.0,10.0,0.0,0.5,0.0,0.0,9.5,0.1,2.5,0.01\n"
            "0.0,1.0,10.0,oops,0.5,0.0,0.0,9.5,0.1,2.5,0.01\n"
        )
        with pytest.raises(SimulationParseError, match="row 3") as err:
            load_simulation(path)
        assert err.value.row == 3
        assert err.value.column == "inlet_vy"

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text(HEADER + "\n0.0,1.0,inf,0.0,0.5,0.0,0.0,9.5,0.1,2.5,0.01\n")
        with pytest.raises(SimulationParseError, match="non-finite"):
            load_simulation(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SimulationParseError, match="empty"):
            load_simulation(path)

    def test_round_trip(self, tmp_path):
        source = field_simulation("round", 20, 3)
        write_simulation(source, tmp_path / "round.csv")
        loaded = load_simulation(tmp_path / "round.csv")
        np.testing.assert_allclose(loaded.points, source.points, rtol=0, atol=1e-12)
        np.testing.assert_allclose(loaded.targets, source.targets, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_round_trip_bit_exact_property(self, tmp_path_factory, data):
        # A written file, also with CRLF line ends, is parsed without the fault scan.
        n = data.draw(st.integers(1, 12), label="points")
        values = data.draw(arrays(np.float64, (n, 11), elements=st.floats(allow_nan=False, allow_infinity=False)))
        on_surface = data.draw(arrays(np.bool_, n), label="on_surface")
        angle = data.draw(arrays(np.float64, n, elements=st.floats(-np.pi, np.pi)), label="angle")
        points = values[:, :7].copy()
        points[:, 4] = np.where(on_surface, 0.0, np.abs(points[:, 4]))
        points[:, 5] = np.where(on_surface, np.cos(angle), 0.0)
        points[:, 6] = np.where(on_surface, np.sin(angle), 0.0)
        source = Simulation("round", points, values[:, 7:])
        path = tmp_path_factory.mktemp("sim") / "round.csv"
        write_simulation(source, path)
        end = data.draw(st.sampled_from([b"\n", b"\r\n"]), label="line end")
        path.write_bytes(path.read_bytes().replace(b"\n", end))
        with mock.patch("packedflow.data._first_fault", side_effect=AssertionError("scanned")):
            loaded = load_simulation(path)
        assert loaded.name == "round"
        assert loaded.points.tobytes() == source.points.tobytes()
        assert loaded.targets.tobytes() == source.targets.tobytes()

    @pytest.mark.parametrize(
        "text",
        [HEADER, HEADER + "\n", HEADER + "\n\n\r\n\n", HEADER + "\r\n" + "\r\n\n" * 30000],
        ids=["no-newline", "newline", "blank-lines", "blank-lines-past-a-check-block"],
    )
    def test_header_without_rows_has_no_data_rows(self, tmp_path, text):
        path = csv_file(tmp_path, text)
        assert parse_error(path) == f"{path}: no data rows"

    @pytest.mark.parametrize("fields", [10, 12])
    @pytest.mark.parametrize("good_rows", [0, 1])
    def test_wrong_field_count_names_the_row(self, tmp_path, fields, good_rows):
        # Every row short or long, too: a reader that picks 11 of the columns would accept that.
        wrong = ",".join(["0.5"] * fields)
        path = csv_file(tmp_path, HEADER + "\n" + (ROW + "\n") * good_rows + (wrong + "\n") * 3)
        assert parse_error(path) == f"{path}, row {2 + good_rows}: expected 11 fields, found {fields}"

    def test_permuted_header_gives_the_canonical_arrays(self, tmp_path):
        order = [10, 4, 0, 7, 1, 9, 5, 2, 8, 6, 3]

        def permuted(line):
            cells = line.split(",")
            return ",".join(cells[i] for i in order)

        canonical = load_simulation(csv_file(tmp_path, "\n".join([HEADER, ROW, SURFACE_ROW]) + "\n", "a.csv"))
        shuffled = load_simulation(csv_file(tmp_path, "\n".join(map(permuted, [HEADER, ROW, SURFACE_ROW])) + "\n", "b.csv"))
        assert shuffled.points.tobytes() == canonical.points.tobytes()
        assert shuffled.targets.tobytes() == canonical.targets.tobytes()

    def test_blank_line_is_skipped_and_counted(self, tmp_path):
        assert load_simulation(csv_file(tmp_path, f"{HEADER}\n{ROW}\n\n{SURFACE_ROW}\n")).num_points == 2
        path = csv_file(tmp_path, f"{HEADER}\n{ROW}\n\n{ROW.replace('9.5', 'oops')}\n")
        assert parse_error(path) == f"{path}, row 4, column 'vx': not a number: 'oops'"

    def test_plain_decimal_cells_read_as_float(self, tmp_path):
        cells = ["1.5", "10", "1.", ".5", "0.5", "0", "-0", "9.5e0", "+.1", "2.5E+0", "1e-2"]
        sim = load_simulation(csv_file(tmp_path, HEADER + "\n" + ",".join(cells) + "\n"))
        assert sim.points[0].tolist() + sim.targets[0].tolist() == [float(c) for c in cells]
        assert sim.points[0, 6] == 0.0 and np.signbit(sim.points[0, 6])

    @pytest.mark.parametrize(
        "cell",
        ['"9.5"', "9_5", " 9.5", "9.5\t", "٩", "9.5\x0c"],
        ids=["quoted", "underscore", "leading-space", "trailing-tab", "unicode-digit", "form-feed"],
    )
    def test_cells_outside_the_grammar_are_not_numbers(self, tmp_path, cell):
        # float() reads every one of these cells (after csv unquoting, for the quoted one).
        path = csv_file(tmp_path, f"{HEADER}\n{SURFACE_ROW}\n{ROW.replace('9.5', cell)}\n")
        assert parse_error(path) == f"{path}, row 3, column 'vx': not a number: {cell!r}"

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_line_ends(self, tmp_path, end):
        sim = load_simulation(csv_file(tmp_path, end.join([HEADER, ROW, SURFACE_ROW]) + end))
        assert sim.points.tolist() == [[0.0, 1.0, 10.0, 0.0, 0.5, 0.0, 0.0], [1.0, 0.0, 10.0, 0.0, 0.0, 1.0, 0.0]]
        assert sim.targets.tolist() == [[9.5, 0.1, 2.5, 0.01], [0.0, 0.0, 50.0, 0.0]]

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"{HEADER}\n{ROW}\r{SURFACE_ROW}\r", "row 2, column 'nut': not a number: '0.01\\r1.0'"),
            (f"{HEADER}\n{ROW}\r", "row 2, column 'nut': not a number: '0.01\\r'"),
            (f"{HEADER}\r{ROW}\r{SURFACE_ROW}\r", "row 1, column 'nut': missing column 'nut'"),
            (f"{HEADER}\r\n{ROW}\r\n{SURFACE_ROW}\r", "row 3, column 'nut': not a number: '0.0\\r'"),
        ],
        ids=["body", "last-line", "whole-file", "crlf-file-last-line"],
    )
    def test_lone_cr_is_not_a_line_end(self, tmp_path, text, message):
        path = csv_file(tmp_path, text)
        assert parse_error(path) == f"{path}, {message}"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("#" + ROW, "row 2, column 'x': not a number: '#0.0'"),
            (ROW.replace("9.5", "9.5\x1c"), "row 2, column 'vx': not a number: '9.5\\x1c'"),
            (ROW.replace("9.5", "\x1c9.5"), "row 2, column 'vx': not a number: '\\x1c9.5'"),
            (ROW.replace("9.5", "1e999"), "row 2, column 'vx': non-finite value: '1e999'"),
            (ROW.replace("9.5", ""), "row 2, column 'vx': not a number: ''"),
        ],
        ids=["comment", "trailing-x1c", "leading-x1c", "overflow", "empty"],
    )
    def test_cells_float_rejects(self, tmp_path, row, message):
        path = csv_file(tmp_path, f"{HEADER}\n{ROW}\n".replace(ROW, row))
        assert parse_error(path) == f"{path}, {message}"

    def test_write_simulation_golden_bytes(self, tmp_path):
        points = [[-0.0, 1e-05, 1e16, 5e-324, 0.1 + 0.2, 0.0, 0.0], [1.0, 0.0, 10.0, 0.0, 0.0, 0.6, 0.8]]
        targets = [[1.7976931348623157e308, -2.5, 0.1, 0.0], [-1e-300, 123456789.125, 50.0, 1e22]]
        source = Simulation("golden", points, targets)
        write_simulation(source, tmp_path / "golden.csv")
        assert (tmp_path / "golden.csv").read_bytes() == (
            b"x,y,inlet_vx,inlet_vy,distance,nx,ny,vx,vy,p,nut\n"
            b"-0.0,1e-05,1e+16,5e-324,0.30000000000000004,0.0,0.0,1.7976931348623157e+308,-2.5,0.1,0.0\n"
            b"1.0,0.0,10.0,0.0,0.0,0.6,0.8,-1e-300,123456789.125,50.0,1e+22\n"
        )
        loaded = load_simulation(tmp_path / "golden.csv")
        assert loaded.points.tobytes() == source.points.tobytes()
        assert loaded.targets.tobytes() == source.targets.tobytes()

    @pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
    def test_non_utf8_names_the_byte(self, tmp_path, mark):
        raw = mark + f"{HEADER}\n{ROW}\n".encode().replace(b"9.5", b"9\xe95")
        path = csv_file(tmp_path, raw)
        assert parse_error(path) == f"{path}: not UTF-8 at byte {raw.index(0xE9)}"

    @pytest.mark.parametrize("row", [ROW, ROW.replace("9.5", "9_5")], ids=["numpy-path", "scanned"])
    def test_byte_order_mark_is_skipped(self, tmp_path, row):
        # A marked file loads, or fails at the same row and column, as the plain one does.
        def outcome(path):
            try:
                sim = load_simulation(path)
            except SimulationParseError as exc:
                return exc.row, exc.column, str(exc).removeprefix(str(path))
            return sim.points.tobytes(), sim.targets.tobytes()

        text = f"{HEADER}\n{row}\n"
        plain = outcome(csv_file(tmp_path, text, "plain.csv"))
        assert outcome(csv_file(tmp_path, codecs.BOM_UTF8 + text.encode(), "marked.csv")) == plain

    @pytest.mark.parametrize("body", ["", ROW + ",0.0\n"], ids=["header-only", "with-rows"])
    def test_duplicate_column_named_at_row_1(self, tmp_path, body):
        path = csv_file(tmp_path, f"{HEADER},x\n{body}")
        assert parse_error(path) == f"{path}, row 1, column 'x': duplicate column 'x'"

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_written_file_skips_the_row_loop(self, tmp_path, monkeypatch, end):
        # The row loop is the row-by-row fault scan; a file write_simulation wrote has no fault.
        source = generate_cylinder_flow(small_flow_config(), "train").simulations[0]
        write_simulation(source, tmp_path / "sim.csv")
        (tmp_path / "sim.csv").write_bytes((tmp_path / "sim.csv").read_bytes().replace(b"\n", end.encode()))

        def row_loop(path, header, body):
            raise AssertionError(f"{path} went through the row loop")

        monkeypatch.setattr(data, "_first_fault", row_loop)
        loaded = load_simulation(tmp_path / "sim.csv")
        assert loaded.points.tobytes() == source.points.tobytes()
        assert loaded.targets.tobytes() == source.targets.tobytes()

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_large_file_loads_without_copies_of_its_text(self, tmp_path, end):
        # The body is parsed through a chunked text reader over the file's bytes: no whole
        # decoded text and no copy of the body.
        config = small_flow_config(num_sims=1, surface_points=2000, field_points=18000)
        source = generate_cylinder_flow(config, "train").simulations[0]
        path = tmp_path / "sim.csv"
        write_simulation(source, path)
        path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        tracemalloc.start()
        try:
            loaded = load_simulation(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.points.tobytes() == source.points.tobytes()
        assert peak < 3 * path.stat().st_size, (peak, path.stat().st_size)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_large_written_file_keeps_every_bit(self, tmp_path, monkeypatch, large_simulation, end):
        source, raw = large_simulation
        path = csv_file(tmp_path, raw.replace(b"\n", end))

        def row_loop(path, header, body):
            raise AssertionError(f"{path} went through the row loop")

        monkeypatch.setattr(data, "_first_fault", row_loop)
        loaded = load_simulation(path)
        np.testing.assert_array_equal(loaded.points.view(np.int64), source.points.view(np.int64))
        np.testing.assert_array_equal(loaded.targets.view(np.int64), source.targets.view(np.int64))

    @pytest.mark.parametrize(
        "end, row, column", [(b"\n", 15001, "x"), (b"\r\n", 20001, "nut")], ids=["lf-inner-row", "crlf-last-row"]
    )
    def test_lone_cr_past_the_first_check_block_names_its_cell(self, tmp_path, large_simulation, end, row, column):
        # The cell at (row, column) ends in a lone CR, and the file ends after the last row's cells.
        lines = large_simulation[1].removesuffix(b"\n").split(b"\n")  # lines[i] is row i + 1
        cells = lines[row - 1].split(b",")
        cell = cells[CSV_COLUMNS.index(column)].decode() + "\r"
        cells[CSV_COLUMNS.index(column)] = cell.encode()
        lines[row - 1] = b",".join(cells)
        assert len(end.join(lines[: row - 1])) > data._CHECK_BLOCK_BYTES
        path = csv_file(tmp_path, end.join(lines))
        assert parse_error(path) == f"{path}, row {row}, column {column!r}: not a number: {cell!r}"

    @settings(max_examples=200, deadline=None)
    @given(fuzzed_csv())
    def test_fuzzed_file_loads_exactly_or_names_its_first_fault(self, tmp_path_factory, text):
        # load_simulation builds its Simulation from _read_table, which alone decides the CSV.
        path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = expected_table(text)
        try:
            table = data._read_table(path)
        except SimulationParseError as exc:
            assert not isinstance(expected, np.ndarray), str(exc)
            row, column = expected
            assert exc.row == row, str(exc)
            if row != 1:  # which header column a header fault names is the header check's choice
                assert exc.column == column, str(exc)
        else:
            assert isinstance(expected, np.ndarray), f"loaded a file with a fault at {expected}"
            assert table.shape == expected.shape and table.tobytes() == expected.tobytes()

    def test_dataset_round_trip(self, tmp_path):
        dataset = field_dataset(3, num_points=6, seed=1, split_label="test")
        write_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.split_label == "test"
        assert [s.name for s in loaded.simulations] == [s.name for s in dataset.simulations]
        for a, b in zip(loaded.simulations, dataset.simulations):
            np.testing.assert_allclose(a.points, b.points, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "entries, repeated, stem",
        [
            (["test_000.csv", "test_001.csv", "test_000.csv"], "test_000.csv", "test_000"),
            (["test_001.csv", "copy/test_001.csv"], "copy/test_001.csv", "test_001"),
        ],
    )
    def test_repeated_manifest_entry_rejected_before_reading(
        self, tmp_path, no_csv_reads, entries, repeated, stem
    ):
        write_dataset(field_dataset(2, num_points=6, split_label="test"), tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest_path.write_text(json.dumps({"split_label": "test", "simulations": entries}))
        with pytest.raises(SimulationParseError) as info:
            load_dataset(tmp_path / "ds")
        assert str(info.value).startswith(f"{manifest_path}: ")
        assert f"entry {repeated!r} repeats the simulation name {stem!r}" in str(info.value)

    @pytest.mark.parametrize("entry", ["../train/train_000.csv", "sub/x.csv", "", ".."])
    def test_entry_outside_the_directory_rejected_before_reading(self, tmp_path, no_csv_reads, entry):
        write_dataset(field_dataset(2, num_points=6, split_label="train"), tmp_path / "train")
        write_dataset(field_dataset(2, num_points=6, split_label="test"), tmp_path / "test")
        manifest_path = tmp_path / "test" / "manifest.json"
        manifest_path.write_text(json.dumps({"split_label": "test", "simulations": ["test_000.csv", entry]}))
        with pytest.raises(SimulationParseError) as info:
            load_dataset(tmp_path / "test")
        assert str(info.value).startswith(f"{manifest_path}: ")
        assert f"entry {entry!r} must be one file-name component" in str(info.value)


class TestScaler:
    def test_two_point_channel(self):
        points = np.zeros((2, 7))
        points[:, 0] = [0.0, 2.0]
        points[:, 2] = 10.0
        points[:, 4] = 1.0
        sim = Simulation("s", points, np.zeros((2, 4)))
        scaler = fit_scaler(Dataset((sim,), "train"))
        assert scaler.input_mean[0] == 1.0
        assert scaler.input_std[0] == 1.0  # population std of {0, 2}

    def test_constant_channel_clamped(self):
        dataset = field_dataset(2, num_points=5, seed=0)
        scaler = fit_scaler(dataset)
        assert scaler.input_mean[2] == 10.0  # constant inlet_vx channel
        assert scaler.input_std[2] == 1.0
        transformed = apply_scaler(scaler, dataset.simulations[0].points, "forward", "inputs")
        assert np.all(transformed[:, 2] == 0.0)

    def test_pooled_statistics_match_concatenation(self):
        dataset = field_dataset(2, num_points=7, seed=5)
        scaler = fit_scaler(dataset)
        pooled = np.vstack([s.points for s in dataset.simulations])
        np.testing.assert_allclose(scaler.input_mean, pooled.mean(axis=0), rtol=0, atol=1e-15)
        np.testing.assert_allclose(scaler.input_std[:2], pooled.std(axis=0)[:2], rtol=0, atol=1e-15)

    def test_forward_then_inverse_is_identity(self):
        dataset = field_dataset(2, num_points=9, seed=2)
        scaler = fit_scaler(dataset)
        rng = np.random.default_rng(0)
        data = rng.normal(scale=100.0, size=(11, 4))
        back = apply_scaler(
            scaler, apply_scaler(scaler, data, "forward", "targets"), "inverse", "targets"
        )
        np.testing.assert_allclose(back, data, rtol=0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_inverse_after_forward_is_identity_up_to_rounding(self, data):
        which, width = data.draw(st.sampled_from([("inputs", 7), ("targets", 4)]), label="which")
        value = st.floats(-1e6, 1e6)
        mean = data.draw(arrays(np.float64, width, elements=value), label="mean")
        std = data.draw(arrays(np.float64, width, elements=st.floats(1e-3, 1e3)), label="std")
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 5)), width), elements=value), label="x")
        fields = {"input_mean": np.zeros(7), "input_std": np.ones(7), "target_mean": np.zeros(4)}
        fields.update({"target_std": np.ones(4), f"{which[:-1]}_mean": mean, f"{which[:-1]}_std": std})
        scaler = ScalerPair(**fields)
        back = apply_scaler(scaler, apply_scaler(scaler, x, "forward", which), "inverse", which)
        # Four roundings of at most half an ulp each, relative to |x| + |mean|, and
        # an absolute error of half a subnormal step where (x - mean) / std is subnormal.
        info = np.finfo(np.float64)
        bound = 3 * info.eps * (np.abs(x) + np.abs(mean)) + (std + 1) * info.smallest_subnormal
        assert (np.abs(back - x) <= bound).all()

    def test_transformed_training_data_standardized(self):
        dataset = field_dataset(3, num_points=50, seed=4)
        scaler = fit_scaler(dataset)
        pooled = np.vstack([s.points for s in dataset.simulations])
        transformed = apply_scaler(scaler, pooled, "forward", "inputs")
        varying = [0, 1, 4]  # position and distance channels carry spread
        np.testing.assert_allclose(transformed[:, varying].mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(transformed[:, varying].std(axis=0), 1.0, atol=1e-9)

    def test_zero_output_inverts_to_target_mean(self):
        dataset = field_dataset(2, num_points=9, seed=6)
        scaler = fit_scaler(dataset)
        restored = apply_scaler(scaler, np.zeros((1, 4)), "inverse", "targets")
        np.testing.assert_allclose(restored[0], scaler.target_mean, rtol=0, atol=0)

    def test_channel_mismatch_rejected(self):
        dataset = field_dataset(1, num_points=4, seed=0)
        scaler = fit_scaler(dataset)
        with pytest.raises(ValueError, match="channels"):
            apply_scaler(scaler, np.zeros((3, 7)), "forward", "targets")

    def test_requires_positive_std(self):
        with pytest.raises(ValueError, match="positive"):
            ScalerPair(np.zeros(7), np.zeros(7), np.zeros(4), np.ones(4))

    @pytest.mark.parametrize("field,index", [("target_std", 2), ("input_mean", 0)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, field, index, value):
        fields = {
            "input_mean": np.zeros(7),
            "input_std": np.ones(7),
            "target_mean": np.zeros(4),
            "target_std": np.ones(4),
        }
        fields[field][index] = value
        with pytest.raises(ValueError, match=field):
            ScalerPair(**fields)

    def test_from_dict_names_missing_key(self):
        obj = ScalerPair(np.zeros(7), np.ones(7), np.zeros(4), np.ones(4)).to_dict()
        del obj["target_std"]
        with pytest.raises(ValueError, match=r"^scaler: missing keys \['target_std'\]$"):
            ScalerPair.from_dict(obj)


class TestKfold:
    def test_partition_property(self):
        dataset = field_dataset(8, num_points=3, seed=0)
        folds = kfold_split(dataset, 4, seed=3)
        assert len(folds) == 4
        seen = []
        for train, val in folds:
            assert len(val) == 2 and len(train) == 6
            assert not set(s.name for s in val.simulations) & set(s.name for s in train.simulations)
            seen.extend(s.name for s in val.simulations)
        assert sorted(seen) == sorted(s.name for s in dataset.simulations)

    def test_deterministic(self):
        dataset = field_dataset(7, num_points=3, seed=0)
        a = kfold_split(dataset, 3, seed=11)
        b = kfold_split(dataset, 3, seed=11)
        for (_, va), (_, vb) in zip(a, b):
            assert [s.name for s in va.simulations] == [s.name for s in vb.simulations]

    def test_balanced_sizes_for_103_simulations(self):
        dataset = field_dataset(103, num_points=1, seed=0)
        folds = kfold_split(dataset, 4, seed=0)
        sizes = sorted(len(val) for _, val in folds)
        assert sizes == [25, 26,26, 26]

    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (12, 4, [[0, 2, 9], [7, 10, 11], [3, 5, 6], [1, 4, 8]]),
            (10, 4, [[0, 2, 7], [5, 6, 9], [3, 4], [1, 8]]),
            (7, 3, [[2, 5, 6], [3, 4], [0, 1]]),
        ],
    )
    def test_golden_validation_folds(self, n, k, expected):
        # The bigger folds come first; each fold keeps the dataset's order.
        dataset = field_dataset(n, num_points=1, seed=0)
        folds = kfold_split(dataset, k, seed=2)
        assert [[s.name for s in val.simulations] for _, val in folds] == [
            [f"train_{i:03d}" for i in fold] for fold in expected
        ]
        for (train, _), fold in zip(folds, expected):
            assert [s.name for s in train.simulations] == [f"train_{i:03d}" for i in range(n) if i not in fold]

    def test_too_few_simulations(self):
        dataset = field_dataset(3, num_points=2, seed=0)
        with pytest.raises(ValueError):
            kfold_split(dataset, 4, seed=0)
        with pytest.raises(ValueError):
            kfold_split(dataset, 1, seed=0)


class TestSubsample:
    def test_fraction_one_is_identity(self):
        dataset = field_dataset(5, num_points=2, seed=0)
        kept = subsample(dataset, 1.0, seed=9)
        assert [s.name for s in kept.simulations] == [s.name for s in dataset.simulations]

    def test_one_third_of_103(self):
        dataset = field_dataset(103, num_points=1, seed=0)
        kept = subsample(dataset, 1.0 / 3.0, seed=1)
        assert len(kept) == 35

    def test_deterministic(self):
        dataset = field_dataset(10, num_points=2, seed=0)
        a = subsample(dataset, 0.4, seed=5)
        b = subsample(dataset, 0.4, seed=5)
        assert [s.name for s in a.simulations] == [s.name for s in b.simulations]

    def test_invalid_fraction(self):
        dataset = field_dataset(3, num_points=2, seed=0)
        with pytest.raises(ValueError):
            subsample(dataset, 0.0, seed=0)
        with pytest.raises(ValueError):
            subsample(dataset, 1.5, seed=0)


class TestCylinderFlow:
    def test_surface_points_have_zero_distance_and_radial_normals(self):
        dataset = generate_cylinder_flow(small_flow_config(), "train")
        for sim in dataset.simulations:
            mask = sim.surface_mask
            assert mask.sum() == 16
            assert np.all(sim.points[mask, 4] == 0.0)
            xy = sim.points[mask, :2]
            radius = np.hypot(xy[:, 0], xy[:, 1])
            np.testing.assert_allclose(
                sim.points[mask, 5:7], xy / radius[:, None], rtol=0, atol=1e-12
            )

    def test_far_field_velocity(self):
        radius, speed = 0.7, 12.0
        xy = np.array([[100.0 * radius, 0.0], [0.0, 100.0 * radius], [-70.0 * radius, 70.0 * radius]])
        vel = cylinder_velocity(xy, radius, speed, circulation=0.0)
        np.testing.assert_allclose(vel[:, 0], speed, rtol=1e-3)
        np.testing.assert_allclose(vel[:, 1], 0.0, atol=1e-3 * speed)

    def test_stagnation_point_pressure(self):
        radius, speed = 1.0, 10.0
        vel = cylinder_velocity(np.array([[-radius, 0.0]]), radius, speed, circulation=0.0)
        np.testing.assert_allclose(vel, 0.0, atol=1e-12)
        pressure = bernoulli_pressure(vel, speed)
        np.testing.assert_allclose(pressure, 0.5 * speed**2, rtol=1e-12)

    def test_inside_cylinder_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            cylinder_velocity(np.array([[0.1, 0.0]]), 1.0, 10.0, 0.0)

    @pytest.mark.parametrize("circulation", [0.0, 3.0])
    def test_incompressibility_by_central_differences(self, circulation):
        radius, speed = 0.8, 9.0
        h = 1e-3 * radius
        grid = np.linspace(2.0 * radius, 3.0 * radius, 11)
        worst = 0.0
        for x in grid:
            for y in grid:
                right = cylinder_velocity(np.array([[x + h, y]]), radius, speed, circulation)[0]
                left = cylinder_velocity(np.array([[x - h, y]]), radius, speed, circulation)[0]
                up = cylinder_velocity(np.array([[x, y + h]]), radius, speed, circulation)[0]
                down = cylinder_velocity(np.array([[x, y - h]]), radius, speed, circulation)[0]
                divergence = (right[0] - left[0]) / (2 * h) + (up[1] - down[1]) / (2 * h)
                worst = max(worst, abs(divergence))
        assert worst < 1e-6 * speed / radius

    def test_nu_t_surrogate_field(self):
        dataset = generate_cylinder_flow(small_flow_config(), "train")
        sim = dataset.simulations[0]
        speed = np.hypot(sim.targets[:, 0], sim.targets[:, 1])
        np.testing.assert_allclose(
            sim.targets[:, 3], 0.01 * sim.points[:, 4] * speed, rtol=0, atol=1e-12
        )
        assert np.all(sim.targets[sim.surface_mask, 3] == 0.0)

    def test_deterministic_generation(self):
        a = generate_cylinder_flow(small_flow_config(), "train")
        b = generate_cylinder_flow(small_flow_config(), "train")
        for sa, sb in zip(a.simulations, b.simulations):
            assert np.array_equal(sa.points, sb.points)
            assert np.array_equal(sa.targets, sb.targets)

    def test_ood_parameters_outside_training_ranges(self):
        config = small_flow_config(num_sims=6, ood=True)
        dataset = generate_cylinder_flow(config, "test_ood")
        assert dataset.split_label == "test_ood"
        for sim in dataset.simulations:
            inlet_speed = sim.points[0, 2]
            assert inlet_speed > config.inlet_speed_range[1]
            surface_xy = sim.points[sim.surface_mask, :2]
            radius = np.hypot(surface_xy[:, 0], surface_xy[:, 1]).mean()
            assert radius > config.radius_range[1]

    @pytest.mark.parametrize(
        "ood,expected",
        [
            (False, ["d239adeaa9219d519f26952fb7927707152de6293c8b8fad3c6b141d557097f5",
                     "f7415636995cef204f1069da3b9b49f51a4aa5e14aa665ec8ac4ed44ac6e3269"]),
            (True, ["4a5f639f6a5d51a88c71819217857226e2354990385e98311e4148e5c4999471",
                    "cfbe317e75063c43bfc134d6f952a6d6570bd704b50f88cd74b44132799cd554"]),
        ],
        ids=["in-range", "ood"],
    )
    def test_golden_written_bytes(self, tmp_path, ood, expected):
        digests = []
        split_label = "test_ood" if ood else "train"
        for sim in generate_cylinder_flow(small_flow_config(num_sims=2, ood=ood), split_label).simulations:
            write_simulation(sim, tmp_path / f"{sim.name}.csv")
            digests.append(hashlib.sha256((tmp_path / f"{sim.name}.csv").read_bytes()).hexdigest())
        assert digests == expected

    def test_pressure_is_bernoulli(self):
        dataset = generate_cylinder_flow(small_flow_config(seed=5), "train")
        sim = dataset.simulations[0]
        speed_sq = (sim.targets[:, 0] ** 2 + sim.targets[:, 1] ** 2)
        inlet_speed = sim.points[0, 2]
        np.testing.assert_allclose(
            sim.targets[:, 2], 0.5 * inlet_speed**2 - 0.5 * speed_sq, rtol=0, atol=1e-10
        )
