"""File formats: the exact bytes of every CSV and JSON report writer, and the one
fault type of every input reader."""

import re

import pytest
from helpers import cylinder_dataset, two_surface_points

from packedflow.data import Dataset, ScalerPair, SimulationParseError, load_dataset, load_simulation
from packedflow.formats import ConfigError, read_json, write_json
from packedflow.metrics import EvalReport, check_scorable, write_coefficients_csv, write_report_json
from packedflow.packed_net import load_params
from packedflow.training import (
    CVRow,
    TrainHistory,
    write_cv_csv,
    write_cv_fold_csv,
    write_history_csv,
)

HISTORY = TrainHistory(
    train_loss=[0.5, 0.30000000000000004, 1e-05],
    val_loss=[1.0, 0.1, 2.5e-07],
    wall_seconds=[0.125, 2.0, 3.0000000000000004],
)
CV_RESULT = (
    CVRow(False, 1, 1, 0.01, (0.2, 0.4000000000000001)),
    CVRow(True, 4, 2, 1e-05, (25.0, 0.0)),
)
COEFFICIENT_ROWS = [
    ("sim_000", 0.1, -0.0, 1234567.0, 1e-20),
    ("sim, quoted", -2.5, 0.30000000000000004, 3.0, -1e300),
]
REPORT = EvalReport(
    mse_x_velocity=0.5,
    mse_y_velocity=0.30000000000000004,
    mse_pressure=1e-05,
    mse_surface_pressure=2.0,
    mse_turbulent_viscosity=0.0,
    mean_relative_drag=3.3e15,
    mean_relative_lift=0.125,
    spearman_drag=None,
    spearman_lift=-1.0,
)


@pytest.mark.parametrize(
    "write, value, golden",
    [
        pytest.param(
            write_history_csv,
            HISTORY,
            b"epoch,train_loss,val_loss,wall_seconds\r\n"
            b"0,0.5,1.0,0.125\r\n"
            b"1,0.30000000000000004,0.1,2.0\r\n"
            b"2,1e-05,2.5e-07,3.0000000000000004\r\n",
            id="history",
        ),
        pytest.param(
            write_history_csv,
            TrainHistory(train_loss=[0.5, 0.25], val_loss=None, wall_seconds=[1.5, 1e-06]),
            b"epoch,train_loss,val_loss,wall_seconds\r\n0,0.5,,1.5\r\n1,0.25,,1e-06\r\n",
            id="history-without-val",
        ),
        pytest.param(
            write_history_csv,
            TrainHistory(train_loss=[], val_loss=None, wall_seconds=[]),
            b"epoch,train_loss,val_loss,wall_seconds\r\n",
            id="history-zero-epochs",
        ),
        pytest.param(
            write_cv_csv,
            CV_RESULT,
            b"dropout,alpha,gamma,learning_rate,validation_loss\r\n"
            b"False,1,1,0.01,0.30000000000000004\r\n"
            b"True,4,2,1e-05,12.5\r\n",
            id="cv",
        ),
        pytest.param(
            write_cv_fold_csv,
            CV_RESULT,
            b"row,dropout,alpha,gamma,learning_rate,fold,validation_loss\r\n"
            b"0,False,1,1,0.01,0,0.2\r\n"
            b"0,False,1,1,0.01,1,0.4000000000000001\r\n"
            b"1,True,4,2,1e-05,0,25.0\r\n"
            b"1,True,4,2,1e-05,1,0.0\r\n",
            id="cv-folds",
        ),
        pytest.param(
            write_coefficients_csv,
            COEFFICIENT_ROWS,
            b"sim,drag_pred,drag_true,lift_pred,lift_true\r\n"
            b"sim_000,0.1,-0.0,1234567.0,1e-20\r\n"
            b'"sim, quoted",-2.5,0.30000000000000004,3.0,-1e+300\r\n',
            id="coefficients",
        ),
        pytest.param(
            write_report_json,
            REPORT,
            b"{\n"
            b'  "mean_relative_drag": 3300000000000000.0,\n'
            b'  "mean_relative_lift": 0.125,\n'
            b'  "mse_pressure": 1e-05,\n'
            b'  "mse_surface_pressure": 2.0,\n'
            b'  "mse_turbulent_viscosity": 0.0,\n'
            b'  "mse_x_velocity": 0.5,\n'
            b'  "mse_y_velocity": 0.30000000000000004,\n'
            b'  "spearman_drag": null,\n'
            b'  "spearman_lift": -1.0\n'
            b"}\n",
            id="eval-report",
        ),
    ],
)
def test_report_writer_bytes(tmp_path, write, value, golden):
    path = tmp_path / "out"
    write(value, path)
    assert path.read_bytes() == golden


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_write_json_rejects_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "out.json", {"nested": [1.0, {"x": value}]})
    assert not (tmp_path / "out.json").exists()


def read_malformed(kind, path):
    """Feed one malformed input of ``kind``, at ``path``, to the reader of that kind."""
    if kind == "simulation-csv":
        path.write_text("x,y\n1,2\n")
        load_simulation(path)
    elif kind == "manifest":
        path.mkdir()
        (path / "manifest.json").write_text('{"split_label": "val", "simulations": ["sim.csv"]}')
        load_dataset(path)
    elif kind == "json-config":
        path.write_text('{"k": 2, "k": 3}')
        read_json(path)
    elif kind == "model-file":
        path.write_bytes(b"PKMLP")
        load_params(path)
    elif kind == "scaler":
        ScalerPair.from_dict({"input_mean": [0.0] * 7}, str(path))
    elif kind == "unscorable-split":
        sim = two_surface_points(cylinder_dataset(1).simulations[0])
        check_scorable(Dataset((sim,), split_label="test"), path)


@pytest.mark.parametrize(
    "kind", ["simulation-csv", "manifest", "json-config", "model-file", "scaler", "unscorable-split"]
)
def test_every_input_fault_is_a_config_error(tmp_path, kind):
    # So a caller, the CLI's exit 2 among them, catches every input fault by one type.
    assert issubclass(SimulationParseError, ConfigError)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(tmp_path / 'input'))}"):
        read_malformed(kind, tmp_path / "input")
