"""Command-line interface, exercised in process through main(argv).

Grid files written by `simulate` are rebuilt in memory with the same seeds
and compared bit for bit, so these tests double as an end-to-end check that
the CLI applies exactly the library defaults.
"""

import csv
import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest

from tmadfrc import (
    Frame,
    RefineOptions,
    ber_vs_angle,
    bin_to_angle_deg,
    derived_resolutions,
    design_pattern,
    estimate_targets,
    modulate,
    qpsk,
    radar_returns,
)
from tmadfrc import cli, coarse
from tmadfrc.cli import main
from tmadfrc.model import signed_bin_index
from tmadfrc.scene import read_grid, write_grid

# a small frame: 8 receive elements, 16 OFDM symbols
SMALL = ("--set", "num_rx_antennas=8", "--set", "num_ofdm_symbols=16")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# dm-check


def test_dm_check_reference_config_passes(capsys):
    code, out, _ = run(capsys, "dm-check")
    assert code == 0
    assert "condition: satisfied" in out


def test_dm_check_always_on_control_fails(capsys):
    code, out, _ = run(capsys, "dm-check", "--duty", "1.0")
    assert code == 1
    assert "condition: VIOLATED" in out


def test_dm_check_smallest_array(capsys):
    code, out, _ = run(capsys, "dm-check", "--set", "num_tx_antennas=2")
    assert code == 0
    assert "condition: satisfied" in out


def test_dm_check_single_element_is_config_error(capsys):
    code, _, err = run(capsys, "dm-check", "--set", "num_tx_antennas=1")
    assert code == 2
    assert err.startswith("error:")


def test_dm_check_single_subcarrier_fails_clause_3(capsys, tmp_path):
    # one subcarrier leaves no in-band harmonic to leak into: clause (3)
    # fails with a leakage of 0, not with NumPy's zero-size reduction error
    report = tmp_path / "check.json"
    code, out, err = run(capsys, "dm-check", "--set", "num_subcarriers=1", "--out", str(report))
    assert (code, err) == (1, "")
    assert "condition: VIOLATED (clauses 3)" in out
    payload = json.loads(report.read_text())["report"]
    assert payload["failed_clauses"] == [3]
    assert payload["min_off_steer_harmonic"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("--probes", "0"), id="zero_probes"),
        pytest.param(("--probes", "-3"), id="negative_probes"),
        pytest.param(("--probes", str(cli._MAX_PROBES + 1)), id="too_many_probes"),
        # offsets that leave no sine interval to draw from would loop forever
        pytest.param(("--min-sin-offset", "2"), id="offset_2"),
        pytest.param(("--min-sin-offset", "1"), id="offset_1"),
        pytest.param(("--min-sin-offset", "nan"), id="offset_nan"),
        pytest.param(("--min-sin-offset", "-0.1"), id="negative_offset"),
        pytest.param(("--duty", "nan"), id="duty_nan"),
        pytest.param(("--set", "carrier_freq_hz=Infinity"), id="infinite_carrier"),
        # NaN tolerances fail every comparison and used to read as "VIOLATED"
        pytest.param(("--rel-tol", "nan"), id="rel_tol_nan"),
        pytest.param(("--floor", "nan"), id="floor_nan"),
        pytest.param(("--floor", "-1"), id="negative_floor"),
        # used to blame the weights (and warn "invalid value encountered in sin")
        pytest.param(("--angle", "inf"), id="angle_inf"),
        pytest.param(("--angle", "nan"), id="angle_nan"),
    ],
)
def test_dm_check_refuses_bad_input(capsys, argv):
    code, out, err = run(capsys, "dm-check", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    if argv[0] == "--angle":
        assert "direction" in err


def test_dm_check_report_file(capsys, tmp_path):
    report = tmp_path / "check.json"
    code, _, _ = run(capsys, "dm-check", "--out", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["report"]["ok"] is True
    assert payload["report"]["failed_clauses"] == []
    assert payload["steer_angle_deg"] == 60.0
    meta = json.loads((tmp_path / "check.json.meta.json").read_text())
    assert meta["role"] == "dm-check"
    assert meta["config_hash"] == payload["config_hash"]


# ---------------------------------------------------------------------------
# simulate / estimate round trip


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_simulate_estimate_roundtrip(capsys, tmp_path, ref_cfg, ref_scene, ref_pattern):
    grid_path = tmp_path / "received.grid"
    data_path = tmp_path / "transmit.grid"
    est_path = tmp_path / "estimates.json"

    code, out, _ = run(
        capsys, "simulate", "--out", str(grid_path), "--data", str(data_path), "--seed", "0"
    )
    assert code == 0
    assert "wrote receive grid" in out
    assert grid_path.exists() and data_path.exists()
    assert (tmp_path / "received.grid.meta.json").exists()

    # the stored grids must equal an in-memory rebuild with the same seeds
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=2 * ref_cfg.num_subcarriers * ref_cfg.num_ofdm_symbols)
    data = modulate(bits, qpsk()).reshape(ref_cfg.grid_shape)
    received = radar_returns(data, ref_pattern, ref_cfg, ref_scene)
    np.testing.assert_array_equal(read_grid(str(grid_path)), received)
    np.testing.assert_array_equal(read_grid(str(data_path))[0], data)

    code, out, _ = run(
        capsys, "estimate", "--grid", str(grid_path), "--data", str(data_path),
        "--out", str(est_path),
    )
    assert code == 0
    assert "refined targets: 3" in out

    stored = json.loads(est_path.read_text())
    local = estimate_targets(received, data, ref_pattern, ref_cfg).to_dict()
    assert stored["estimates"] == local


def test_estimate_fit_gains(capsys, tmp_path, ref_cfg, ref_pattern):
    grid_path, data_path = tmp_path / "received.grid", tmp_path / "transmit.grid"
    est_path = tmp_path / "estimates.json"
    code, _, _ = run(
        capsys, "simulate", "--out", str(grid_path), "--data", str(data_path), "--seed", "0"
    )
    assert code == 0
    with pytest.warns(RuntimeWarning, match="velocity hit the edge"):
        code, out, _ = run(
            capsys, "estimate", "--grid", str(grid_path), "--data", str(data_path),
            "--fit-gains", "--out", str(est_path),
        )
    assert code == 0
    assert "refined targets: 3" in out
    received, data = read_grid(str(grid_path)), read_grid(str(data_path))[0]
    with pytest.warns(RuntimeWarning, match="velocity hit the edge"):
        local = estimate_targets(
            received, data, ref_pattern, ref_cfg, options=RefineOptions(fit_gains=True)
        )
    assert json.loads(est_path.read_text())["estimates"] == local.to_dict()


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_estimate_three_forced_sources(capsys, tmp_path):
    # three sources on one 101-point range window: 101**3 combinations, the
    # largest search the combination budget admits
    grid_path, data_path = tmp_path / "received.grid", tmp_path / "transmit.grid"
    code, _, _ = run(capsys, "simulate", "--out", str(grid_path), "--data", str(data_path))
    assert code == 0
    code, out, err = run(
        capsys, "estimate", "--grid", str(grid_path), "--data", str(data_path), "--sources", "3"
    )
    assert code == 0, err
    assert "refined targets: 6" in out  # 3 per detected bin, 2 bins


def test_estimate_refuses_more_forced_sources_than_the_dimension(capsys, tmp_path):
    # the frame's signal subspace has dimension 3; 4 used to be cut to 3 silently
    grid_path, data_path = tmp_path / "received.grid", tmp_path / "transmit.grid"
    code, _, _ = run(capsys, "simulate", "--out", str(grid_path), "--data", str(data_path))
    assert code == 0
    code, out, err = run(
        capsys, "estimate", "--grid", str(grid_path), "--data", str(data_path), "--sources", "4"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("analysis failed: 4 forced sources") and "dimension of 3" in err


def simulate_empty(capsys, tmp_path):
    """Receive and transmit grid paths of a frame with no target."""
    scene_path = tmp_path / "empty.json"
    scene_path.write_text(json.dumps({"targets": [], "seed": 1, "snr_db": 10.0}))
    grid_path, data_path = tmp_path / "g.grid", tmp_path / "d.grid"
    code, _, _ = run(
        capsys, "simulate", "--scene", str(scene_path),
        "--out", str(grid_path), "--data", str(data_path),
    )
    assert code == 0
    return grid_path, data_path


def test_estimate_empty_scene_exits_one(capsys, tmp_path):
    grid_path, data_path = simulate_empty(capsys, tmp_path)
    code, out, _ = run(capsys, "estimate", "--grid", str(grid_path), "--data", str(data_path))
    assert code == 1
    assert "refined targets: 0" in out


def test_estimate_empty_scene_exports_no_spectra(capsys, tmp_path):
    grid_path, data_path = simulate_empty(capsys, tmp_path)
    code, out, err = run(
        capsys, "estimate", "--grid", str(grid_path), "--data", str(data_path),
        "--export-spectra", str(tmp_path / "spec"),
    )
    assert code == 1
    assert "refined targets: 0" in out
    assert err.startswith("analysis failed: no angle bin")
    assert list(tmp_path.glob("spec*")) == []


def test_estimate_rejects_truncated_grid(capsys, tmp_path):
    grid_path, data_path = tmp_path / "g.grid", tmp_path / "d.grid"
    code, _, _ = run(
        capsys, "simulate", "--out", str(grid_path), "--data", str(data_path)
    )
    assert code == 0
    raw = grid_path.read_bytes()
    grid_path.write_bytes(raw[:-100])
    code, _, err = run(capsys, "estimate", "--grid", str(grid_path), "--data", str(data_path))
    assert code == 2
    assert "byte" in err


def test_estimate_rejects_mismatched_shape(capsys, tmp_path):
    grid_path, data_path = tmp_path / "g.grid", tmp_path / "d.grid"
    write_grid(str(grid_path), np.zeros((2, 3, 4), dtype=complex))
    write_grid(str(data_path), np.zeros((3, 4), dtype=complex))
    code, _, err = run(capsys, "estimate", "--grid", str(grid_path), "--data", str(data_path))
    assert code == 2
    assert "does not match" in err


def test_estimate_refuses_a_receive_grid_as_the_payload(capsys, tmp_path):
    grid_path = tmp_path / "g.grid"
    code, _, _ = run(capsys, "simulate", "--out", str(grid_path))
    assert code == 0
    code, out, err = run(capsys, "estimate", "--grid", str(grid_path), "--data", str(grid_path))
    assert code == 2
    assert out == ""
    assert "transmit grid shape (24, 64, 256) does not match" in err


def simulate_small(capsys, tmp_path):
    """Receive and transmit grid paths of a one-target small frame."""
    scene_path = tmp_path / "one.json"
    target = {"angle_deg": 20.0, "range_m": 50.0, "velocity_mps": 10.0}
    scene_path.write_text(json.dumps({"targets": [target], "seed": 1, "snr_db": 20.0}))
    grid_path, data_path = tmp_path / "g.grid", tmp_path / "d.grid"
    code, _, _ = run(
        capsys, "simulate", *SMALL, "--scene", str(scene_path),
        "--out", str(grid_path), "--data", str(data_path),
    )
    assert code == 0
    return grid_path, data_path


def test_estimate_rejects_non_finite_grid(capsys, tmp_path):
    grid_path, data_path = simulate_small(capsys, tmp_path)
    # write_grid refuses non-finite grids, so patch a NaN into the payload bytes
    received = read_grid(str(grid_path))
    raw = bytearray(grid_path.read_bytes())
    payload = np.frombuffer(raw, dtype="<c16", offset=len(raw) - received.nbytes)
    payload.reshape(received.shape)[0, 1, 2] = np.nan
    grid_path.write_bytes(bytes(raw))
    code, _, err = run(
        capsys, "estimate", *SMALL, "--grid", str(grid_path), "--data", str(data_path)
    )
    assert code == 2
    assert "non-finite" in err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_estimate_refuses_non_positive_source_count(capsys, tmp_path, count):
    grid_path, data_path = simulate_small(capsys, tmp_path)
    code, _, err = run(
        capsys, "estimate", *SMALL, "--grid", str(grid_path), "--data", str(data_path),
        "--sources", count,
    )
    assert code == 2
    assert "num_sources" in err


def test_estimate_export_spectra(capsys, tmp_path, ref_cfg):
    grid_path, data_path = simulate_small(capsys, tmp_path)
    prefix = tmp_path / "spec"
    code, _, _ = run(
        capsys, "estimate", *SMALL, "--grid", str(grid_path), "--data", str(data_path),
        "--export-spectra", str(prefix),
    )
    assert code == 0
    cfg = dataclasses.replace(ref_cfg, num_rx_antennas=8, num_ofdm_symbols=16)
    with open(f"{prefix}.angle.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["bin", "angle_deg", "power"]
    angles = [float(row["angle_deg"]) for row in rows]
    np.testing.assert_allclose(angles, derived_resolutions(cfg)[2], rtol=0, atol=5e-7)
    # the power column is the stored frame's beam power, to the 10 digits written
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    frame = Frame(read_grid(str(grid_path)), read_grid(str(data_path))[0], pattern, cfg)
    powers = [float(row["power"]) for row in rows]
    np.testing.assert_allclose(powers, coarse.angle_spectrum(frame), rtol=1e-9)
    velocity_files = sorted(tmp_path.glob("spec.bin*.l*.velocity.csv"))
    assert velocity_files
    for path in velocity_files:
        with open(path, newline="", encoding="utf-8") as fh:
            signed = [int(row["signed_bin"]) for row in csv.DictReader(fh)]
        assert signed == signed_bin_index(np.arange(16), 16).tolist()


def test_estimate_export_spectra_runs_the_coarse_stage_once(capsys, tmp_path, monkeypatch):
    grid_path, data_path = simulate_small(capsys, tmp_path)
    pipeline, calls = coarse.coarse_pipeline, []

    def counting(frame):
        calls.append(frame)
        return pipeline(frame)

    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "tmadfrc"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is pipeline:
                monkeypatch.setattr(module, attr, counting)
    code, _, _ = run(
        capsys, "estimate", *SMALL, "--grid", str(grid_path), "--data", str(data_path),
        "--export-spectra", str(tmp_path / "spec"),
    )
    assert code == 0
    assert len(calls) == 1
    assert (tmp_path / "spec.angle.csv").exists()


def test_simulate_output_is_reproducible(capsys, tmp_path):
    first, second = tmp_path / "a.grid", tmp_path / "b.grid"
    assert run(capsys, "simulate", "--out", str(first), "--seed", "7")[0] == 0
    assert run(capsys, "simulate", "--out", str(second), "--seed", "7")[0] == 0
    assert first.read_bytes() == second.read_bytes()


BAD_SCENES = {
    "target_without_angle": {"targets": [{"range_m": 50.0, "velocity_mps": 0.0}]},
    "null_angle": {"targets": [{"angle_deg": None, "range_m": 50.0, "velocity_mps": 0.0}]},
    "short_beta": {
        "targets": [{"angle_deg": 20.0, "range_m": 50.0, "velocity_mps": 0.0, "beta": [1]}]
    },
    "number": 42,
    "targets_number": {"targets": 5},
    # a negative seed used to fail inside NumPy, after the document decoded
    "negative_seed": {"targets": [], "seed": -1},
    "bool_seed": {"targets": [], "seed": True},
}


@pytest.mark.parametrize("command", ["simulate", "reproduce-table2"])
@pytest.mark.parametrize("document", BAD_SCENES.values(), ids=BAD_SCENES)
def test_bad_scene_file_exits_two(capsys, tmp_path, command, document):
    scene_path = tmp_path / "bad.json"
    scene_path.write_text(json.dumps(document))
    outputs = ("--out", str(tmp_path / "g.grid")) if command == "simulate" else ()
    code, out, err = run(capsys, command, "--scene", str(scene_path), *outputs)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Scene") and err.count("\n") == 1
    assert not list(tmp_path.glob("g.grid*"))


@pytest.mark.parametrize("seed", ["-1", "seven"])
@pytest.mark.parametrize("command", ["dm-check", "simulate", "ber-sweep", "reproduce-table2"])
def test_seed_must_be_a_non_negative_integer(capsys, tmp_path, command, seed):
    outputs = ("--out", str(tmp_path / "g.grid")) if command == "simulate" else ()
    with pytest.raises(SystemExit) as excinfo:
        main([command, *outputs, "--seed", seed])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert f"argument --seed: seed must be a non-negative integer, got '{seed}'" in captured.err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# ber-sweep


def test_ber_sweep_writes_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, printed, _ = run(
        capsys, "ber-sweep", "--angles", "60,40", "--symbols", "512", "--out", str(out)
    )
    assert code == 0
    assert printed.count("BER") == 2
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "angle_deg,ber"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(angle) for angle, _ in rows] == [60.0, 40.0]
    assert float(rows[0][1]) < 0.05  # at the steer: essentially clean
    assert float(rows[1][1]) > 0.2  # far off-steer: scrambled


def test_csv_outputs_match_the_in_memory_results_byte_for_byte(capsys, tmp_path, ref_cfg):
    # csv.writer ends every row, the header too, with CRLF
    grid_path, data_path = simulate_small(capsys, tmp_path)
    prefix = tmp_path / "spec"
    code, _, _ = run(
        capsys, "estimate", *SMALL, "--grid", str(grid_path), "--data", str(data_path),
        "--export-spectra", str(prefix),
    )
    assert code == 0
    cfg = dataclasses.replace(ref_cfg, num_rx_antennas=8, num_ofdm_symbols=16)
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    frame = Frame(read_grid(str(grid_path)), read_grid(str(data_path))[0], pattern, cfg)
    angles = bin_to_angle_deg(np.arange(8), cfg)
    rows = [f"{k},{angles[k]:.6f},{v:.9e}" for k, v in enumerate(coarse.angle_spectrum(frame))]
    expected = "".join(f"{row}\r\n" for row in ["bin,angle_deg,power", *rows])
    assert (tmp_path / "spec.angle.csv").read_bytes() == expected.encode()

    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "ber-sweep", "--angles", "60,40", "--symbols", "512", "--out", str(out))
    assert code == 0
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    rates = ber_vs_angle(ref_cfg, pattern, qpsk(), [60.0, 40.0], num_symbols=512, seed=0)
    rows = [f"{a:.6f},{r:.9f}" for a, r in zip([60.0, 40.0], rates)]
    expected = "".join(f"{row}\r\n" for row in ["angle_deg,ber", *rows])
    assert out.read_bytes() == expected.encode()


def test_ber_sweep_range_syntax(capsys):
    code, out, _ = run(capsys, "ber-sweep", "--angles", "50:52:1", "--symbols", "512")
    assert code == 0
    assert out.count("BER") == 3


def test_ber_sweep_range_ends_on_its_stop(capsys):
    # arange alone ends this range at 90.00000000000014, outside [-90, 90]
    code, out, _ = run(capsys, "ber-sweep", "--angles", "80:90:0.2", "--symbols", "64")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 51 and lines[-1].startswith("   90.000 deg")


def test_parse_angles_range_is_unchanged():
    angles = cli._parse_angles("-90:90:0.2")
    assert angles.size == 901 and angles[0] == -90.0 and angles[-1] == 90.0
    np.testing.assert_array_equal(angles, np.minimum(np.arange(-90.0, 90.0 + 2e-10, 0.2), 90.0))
    assert cli._parse_angles(f"0:{cli._MAX_PROBES - 1}:1").size == cli._MAX_PROBES


@pytest.mark.parametrize("spec", ["-90:90:1e-7", f"0:{cli._MAX_PROBES}:1", "0:inf:1"])
def test_ber_sweep_refuses_a_range_with_too_many_probes(capsys, spec):
    # -90:90:1e-7 used to ask np.arange for 1.8e9 floats (13.4 GiB)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "ber-sweep", f"--angles={spec}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "probes" in err and str(cli._MAX_PROBES) in err
    assert peak < 1_000_000


def test_ber_sweep_refuses_an_empty_range(capsys, tmp_path):
    # STOP below START used to exit 0 and write a CSV of the header alone
    path = tmp_path / "ber.csv"
    code, out, err = run(capsys, "ber-sweep", "--angles=10:0:1", "--out", str(path))
    assert code == 2
    assert out == ""
    assert "empty" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "spec,message",
    [
        ("0:1", "START:STOP:STEP"),
        ("0:1:2:3", "START:STOP:STEP"),
        ("0:1:0", "step must be positive"),
        ("0:1:-1", "step must be positive"),
        # these four used to reach np.arange, which refused them in its own words
        *(
            (spec, f"angle range {spec!r} needs a finite START, STOP and STEP")
            for spec in ("0:1:nan", "nan:1:1", "0:nan:1", "0:1:inf")
        ),
    ],
)
def test_ber_sweep_refuses_a_malformed_range(capsys, spec, message):
    code, out, err = run(capsys, "ber-sweep", f"--angles={spec}")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("snr", ["nan", "-inf", "4000", "-4000"])
def test_ber_sweep_refuses_snr_without_a_noise_level(capsys, snr):
    # nan and -inf used to report BER 0 at the steer, as if noise-free, and
    # +-4000 dB to end in a traceback (10 ** 400 overflows, 10 ** -400 is 0)
    code, out, err = run(capsys, "ber-sweep", "--angles", "60", f"--snr={snr}")
    assert code == 2
    assert out == ""
    assert "snr_db" in err


@pytest.mark.parametrize("angles", ["nan", "inf", "-inf", "90.5", "200", "60,nan"])
def test_ber_sweep_refuses_a_direction_outside_the_half_space(capsys, angles):
    # "nan" used to print "nan deg  BER 0.515625" and "200" a BER, both exit 0
    code, out, err = run(capsys, "ber-sweep", f"--angles={angles}", "--symbols", "64")
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "direction" in err


@pytest.mark.parametrize("count", ["0", "-64"])
def test_ber_sweep_refuses_non_positive_symbol_count(capsys, count):
    code, out, err = run(capsys, "ber-sweep", "--angles", "60", f"--symbols={count}")
    assert code == 2
    assert "BER" not in out
    assert "positive" in err


@pytest.mark.parametrize("over", [0, 64])
def test_ber_sweep_bounds_the_symbol_count(capsys, monkeypatch, over):
    # an unbounded count used to reach the payload draw: 2**33 symbols asked
    # for a 2 GiB byte draw and a 17 GB bit array
    calls = []

    def probe(cfg, pattern, constellation, angles, **kwargs):
        calls.append(kwargs["num_symbols"])
        return np.zeros(len(angles))

    monkeypatch.setattr(cli, "ber_vs_angle", probe)
    count = cli._MAX_SYMBOLS + over  # the bound, then one OFDM symbol of 64 past it
    code, out, err = run(capsys, "ber-sweep", "--angles", "60", f"--symbols={count}")
    if over:
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and str(cli._MAX_SYMBOLS) in err
        assert calls == []
    else:
        assert code == 0
        assert calls == [count]


# ---------------------------------------------------------------------------
# reproduce-table2


# The whole stdout of `reproduce-table2` at the default seed: a change that
# keeps the estimator's outputs keeps this text byte for byte.
REPRODUCE_TABLE2_STDOUT = """\
configuration hash 337174191b0b731b, noise/payload seed 2
coarse detections: 3
  bin (  6,  6,   9) ->  -30.000 deg    117.188 m    21.094 m/s
  bin ( 20,  3,   4) ->   19.471 deg     58.594 m     9.375 m/s
  bin ( 20,  3,  -4) ->   19.471 deg     58.594 m    -9.375 m/s
refined targets:   3
  from bin   6 ->  -30.000 deg   119.9219 m   19.9219 m/s
  from bin  20 ->   20.000 deg    50.0000 m  -10.0781 m/s
  from bin  20 ->   22.000 deg    59.9609 m   10.0781 m/s

truth   20.000 deg    50.000 m  -10.000 m/s | expected   20.000 deg   50.0000 m  -10.0781 m/s | got   20.000 deg   50.0000 m  -10.0781 m/s | PASS
truth   22.000 deg    60.000 m   10.000 m/s | expected   22.000 deg   59.9609 m   10.0781 m/s | got   22.000 deg   59.9609 m   10.0781 m/s | PASS
truth  -30.000 deg   120.000 m   20.000 m/s | expected  -30.000 deg  119.9219 m   19.9219 m/s | got  -30.000 deg  119.9219 m   19.9219 m/s | PASS

tolerances: angle 0.100 deg, range 0.200 m, velocity 0.234375 m/s (one refinement step); range grid step 0.195312 m
reproduction: PASS
"""


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_reproduce_reference_passes(capsys, tmp_path):
    report = tmp_path / "repro.json"
    code, out, _ = run(capsys, "reproduce-table2", "--out", str(report))
    assert code == 0
    assert out == REPRODUCE_TABLE2_STDOUT
    payload = json.loads(report.read_text())
    assert payload["ok"] is True
    assert payload["seed"] == 2
    assert [row["status"] for row in payload["targets"]] == ["PASS"] * 3


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_reproduce_stable_under_other_noise_seed(capsys):
    code, out, _ = run(capsys, "reproduce-table2", "--seed", "11")
    assert code == 0
    assert "reproduction: PASS" in out


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_reproduce_degrades_gracefully_in_heavy_noise(capsys):
    code, out, err = run(capsys, "reproduce-table2", "--set", "snr_db=-20")
    assert code == 1
    assert ("reproduction: FAIL" in out) or err.startswith("analysis failed:")


def test_reproduce_refuses_minus_infinite_snr(capsys):
    # used to run noise-free and print "reproduction: PASS"
    code, out, err = run(capsys, "reproduce-table2", "--set", "snr_db=-Infinity")
    assert code == 2
    assert out == ""
    assert "snr_db" in err


@pytest.mark.parametrize("snr", ["4000", "-4000"])
def test_reproduce_refuses_an_snr_beyond_the_float_range(capsys, snr):
    # used to end in a traceback (10 ** 400 overflows, 10 ** -400 is 0)
    code, out, err = run(capsys, "reproduce-table2", "--set", f"snr_db={snr}")
    assert code == 2
    assert out == ""
    assert "snr_db" in err


# ---------------------------------------------------------------------------
# argument handling


def test_set_requires_key_value(capsys):
    code, _, err = run(capsys, "dm-check", "--set", "num_tx_antennas")
    assert code == 2
    assert "KEY=VALUE" in err


def test_set_keeps_a_non_json_value_as_text(capsys):
    # the text reaches the config decoder, which refuses it for a float field
    code, out, err = run(capsys, "dm-check", "--set", "cu_angle_deg=abc")
    assert code == 2
    assert out == ""
    assert "must be a number, got 'abc'" in err


def test_unknown_config_key_rejected(capsys):
    code, _, err = run(capsys, "dm-check", "--set", "bogus_knob=3")
    assert code == 2
    assert "bogus_knob" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "tmadfrc" in capsys.readouterr().out
