"""The helper scripts under ``tools/``, loaded by path as the benchmark harness is."""

import runpy
from pathlib import Path

import pytest

SAME_BYTES = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"


@pytest.fixture(scope="module")
def without_timing_columns():
    return runpy.run_path(str(SAME_BYTES))["without_timing_columns"]


def test_timing_columns_leave_a_csv_and_nothing_else_does(without_timing_columns):
    raw = b"name,wall_seconds,loss,train_seconds,error\r\na,1.5,0.25,2.5,\r\nb,10.0,0.5,3.0,boom\r\n"
    assert without_timing_columns(Path("bench_test.csv"), raw) == b"name,loss,error\r\na,0.25,\r\nb,0.5,boom\r\n"
    kept = b"epoch,train_loss\r\n1,0.5\r\n"
    assert without_timing_columns(Path("history.csv"), kept) == kept


def test_train_seconds_leave_a_bench_table_and_nothing_else_does(without_timing_columns):
    table = (
        "evaluation split: test\n"
        "model  params  train seconds  mean relative drag\n"
        "a      10      1.234          0.5\n"
        "bb     200     12.345         -\n"
    )
    expected = (
        "evaluation split: test\n"
        "model  params  mean relative drag\n"
        "a      10      0.5\n"
        "bb     200     -\n"
    )
    assert without_timing_columns(Path("bench_test.txt"), table.encode()) == expected.encode()


@pytest.mark.parametrize("name", ["eval_report.json", "model.pkmlp", "test_0000.csv.bak"])
def test_every_other_file_keeps_its_bytes(without_timing_columns, name):
    raw = b"wall_seconds,train seconds\r\n\xff\x00"
    assert without_timing_columns(Path(name), raw) == raw
