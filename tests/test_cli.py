"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from entbound import (DensityMatrix, KrausChannel, PureState, amplitude_damping,
                      apply_one_sided, apply_two_sided, canonical_mes, canonical_probe,
                      depolarizing, phase_damping, random_density, upper_bound_two_sided,
                      wootters_concurrence)
from entbound import cli
from entbound.errors import ZeroProbability
from entbound.cli import SweepConfig, default_base_state, default_sweep_config, \
    evaluate_bound, main, run_sweep, sweep_config_from_json
from entbound.serialize import channel_to_json, dump_json, probe_to_json, state_to_json
from conftest import random_probe, random_tp_kraus


GOLDEN_SWEEP = Path(__file__).parent / "data" / "default_sweep.csv"


def run_cli(*argv):
    return main(list(argv))


def write_state(path, state):
    dump_json(state_to_json(state), path)
    return str(path)


def write_channel(path, channel):
    dump_json(channel_to_json(channel), path)
    return str(path)


def bell_density():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return DensityMatrix((2, 2), np.outer(v, v))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


class TestGen:
    def test_state_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("gen", "state", str(a), "--dims", "2", "2", "--rank", "4",
                       "--seed", "7") == 0
        assert run_cli("gen", "state", str(b), "--dims", "2", "2", "--rank", "4",
                       "--seed", "7") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_amplitude_damping_entries(self, tmp_path):
        out = tmp_path / "ch.json"
        assert run_cli("gen", "channel", str(out), "--family", "amplitude-damping",
                       "--gamma", "0.2") == 0
        doc = json.loads(out.read_text())
        assert doc["kraus"][0][1][1][0] == pytest.approx(np.sqrt(0.8))
        assert doc["kraus"][1][0][1][0] == pytest.approx(np.sqrt(0.2))

    def test_probe_full_rank(self, tmp_path):
        out = tmp_path / "probe.json"
        assert run_cli("gen", "probe", str(out), "--dim", "2", "--seed", "1") == 0
        doc = json.loads(out.read_text())
        m = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        assert abs(np.linalg.norm(m) - 1.0) < 1e-12
        assert np.linalg.svd(m, compute_uv=False)[-1] > 1e-8

    def test_missing_family_parameter(self, tmp_path):
        assert run_cli("gen", "channel", str(tmp_path / "x.json"),
                       "--family", "depolarizing") == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "s.json"
        assert run_cli("gen", "state", str(missing)) == 2
        assert "error: could not write" in capsys.readouterr().err

    def test_probe_dim_below_one_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "probe", str(tmp_path / "p.json"), "--dim", "0")
        assert exc.value.code == 2

    def test_negative_seed_rejected_naming_the_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "state", str(tmp_path / "s.json"), "--seed", "-1")
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("channel", "--family", "depolarizing", "--prob", "0.3", "--gamma", "7"),
         "gen channel --family depolarizing does not use --gamma"),
        (("state", "--lam", "3"), "gen state does not use --lam"),
        (("channel", "--gamma", "0.2", "--seed", "1"),
         "gen channel --family amplitude-damping does not use --seed"),
        (("probe", "--dims", "2", "2"), "gen probe does not use --dims"),
    ], ids=["channel-gamma", "state-lam", "channel-seed", "probe-dims"])
    def test_option_the_kind_or_family_ignores_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.json"
        assert run_cli("gen", argv[0], str(out), *argv[1:]) == 2
        assert capsys.readouterr().err == f"error: invalid parameters: {message}\n"
        assert not out.exists()

    def test_state_too_large_for_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        import entbound.cli

        def refused(dims, rank, seed):  # what NumPy raises for the 1.15 PiB density matrix
            raise MemoryError("Unable to allocate 1.15 PiB for an array with shape "
                              "(1, 9000000, 9000000) and data type complex128")

        monkeypatch.setattr(entbound.cli, "random_density", refused)
        out = tmp_path / "s.json"
        assert run_cli("gen", "state", str(out), "--dims", "3000", "3000", "--rank", "1") == 2
        assert capsys.readouterr().err.startswith(
            "error: request too large for memory: Unable to allocate 1.15 PiB")
        assert not out.exists()

    def test_pure_state_when_rank_omitted(self, tmp_path):
        out = tmp_path / "pure.json"
        assert run_cli("gen", "state", str(out), "--dims", "2", "3", "--seed", "3") == 0
        assert json.loads(out.read_text())["kind"] == "pure"


class TestBound:
    def test_bell_identity_channel(self, tmp_path, capsys):
        state = write_state(tmp_path / "bell.json", bell_density())
        from entbound import KrausChannel
        channel = write_channel(tmp_path / "id.json", KrausChannel(2, (np.eye(2),)))
        assert run_cli("bound", state, channel) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lower"] == pytest.approx(1.0, abs=1e-12)
        assert report["exact"] == pytest.approx(1.0, abs=1e-12)
        assert report["p"] == pytest.approx(1.0, abs=1e-12)

    def test_probe_and_direct_agree(self, tmp_path, capsys):
        state = write_state(tmp_path / "rho.json", default_base_state())
        channel = write_channel(tmp_path / "ad.json", amplitude_damping(0.2))
        assert run_cli("bound", state, channel, "--method", "direct") == 0
        direct = json.loads(capsys.readouterr().out)
        assert run_cli("bound", state, channel, "--method", "probe") == 0
        probe = json.loads(capsys.readouterr().out)
        assert abs(direct["lower_raw"] - probe["lower_raw"]) < 1e-8
        assert direct["p_t"] == pytest.approx(1.0, abs=1e-10)

    def test_two_channels(self, tmp_path, capsys):
        state = write_state(tmp_path / "rho.json", default_base_state())
        ch1 = write_channel(tmp_path / "c1.json", amplitude_damping(0.2))
        ch2 = write_channel(tmp_path / "c2.json", amplitude_damping(0.3))
        assert run_cli("bound", state, ch1, ch2, "--method", "probe") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lower"] <= report["exact"] <= report["upper"] + 1e-9

    def test_rank_deficient_probe_exits_5(self, tmp_path):
        state = write_state(tmp_path / "rho.json", bell_density())
        channel = write_channel(tmp_path / "ch.json", amplitude_damping(0.2))
        probe_doc = {"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 0.0]]]}
        probe_path = tmp_path / "probe.json"
        dump_json(probe_doc, probe_path)
        assert run_cli("bound", state, channel, "--probe-path", str(probe_path)) == 5

    def test_broken_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        channel = write_channel(tmp_path / "ch.json", amplitude_damping(0.2))
        assert run_cli("bound", str(bad), channel) == 2

    def test_dimension_mismatch_exits_4(self, tmp_path):
        from entbound import random_density
        state = write_state(tmp_path / "rho.json", random_density((3, 3), 2, seed=0))
        channel = write_channel(tmp_path / "ch.json", amplitude_damping(0.2))
        assert run_cli("bound", state, channel) == 4

    def test_trivial_dimension_exits_4(self, tmp_path, capsys):
        state = write_state(tmp_path / "rho.json", random_density((2, 1), 2, seed=1))
        channel = write_channel(tmp_path / "ch.json", amplitude_damping(0.2))
        assert run_cli("bound", state, channel) == 4
        assert "error: dimension mismatch" in capsys.readouterr().err

    def test_non_square_direct_method(self, tmp_path, capsys):
        from entbound import random_density
        state = write_state(tmp_path / "rho.json", random_density((2, 3), 3, seed=2))
        channel = write_channel(tmp_path / "ch.json", amplitude_damping(0.2))
        assert run_cli("bound", state, channel, "--method", "direct") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] is None and report["upper"] is None
        assert report["p_prime"] is None and report["p_t"] is None
        assert report["p"] == pytest.approx(1.0, abs=1e-12)

    def test_three_channels_exit_2(self, tmp_path):
        state = write_state(tmp_path / "rho.json", default_base_state())
        channel = write_channel(tmp_path / "ad.json", amplitude_damping(0.2))
        assert run_cli("bound", state, channel, channel, channel) == 2

    def test_annihilating_channel_exits_3(self, tmp_path):
        state = DensityMatrix((2, 2), np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
        state_path = write_state(tmp_path / "rho.json", state)
        channel = write_channel(tmp_path / "kill.json", KrausChannel(2, (np.diag([1.0, 0.0]),)))
        assert run_cli("bound", state_path, channel) == 3

    def test_annihilating_channel_message_prints_a_float(self, tmp_path, capsys):
        state = DensityMatrix((2, 2), np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
        state_path = write_state(tmp_path / "rho.json", state)
        channel = write_channel(tmp_path / "kill.json", KrausChannel(2, (np.diag([1.0, 0.0]),)))
        assert run_cli("bound", state_path, channel) == 3
        err = capsys.readouterr().err
        assert "error: numerical failure: channel image has trace 0.0" in err
        assert "np.float64" not in err

    def test_nearly_annihilating_channel_exits_3(self, tmp_path, capsys):
        # p ~ 2.5e-7 clears the 1e-14 floor, but normalizing the image
        # amplifies rounding past the 1e-12 Hermiticity check
        v = np.array([1.0, 1.0 + 1e-3])
        w = np.array([0.18651688 + 0.9500471j, -0.19597346 + 0.15561606j])
        psi = PureState((2, 2), np.kron(v / np.linalg.norm(v), w / np.linalg.norm(w)))
        a = 1.0 / np.sqrt(2.0)
        kill = KrausChannel(2, (np.array([[a, -a], [0.0, 0.0]]),))
        state = write_state(tmp_path / "psi.json", psi)
        channel = write_channel(tmp_path / "m.json", kill)
        assert run_cli("bound", state, channel) == 3
        assert "error: numerical failure: matrix is not Hermitian" in capsys.readouterr().err

    def test_evaluate_bound_without_probe(self):
        rho, channel = default_base_state(), amplitude_damping(0.2)
        report = evaluate_bound(rho, (channel,), "first", None, "direct")
        assert report.exact == wootters_concurrence(apply_one_sided(channel, rho).output)
        assert report.upper is None and report.p_prime is None and report.p_t is None

    @pytest.mark.parametrize("probe", [canonical_probe(2), None])
    def test_evaluate_bound_rejects_an_unknown_method(self, probe):
        rho, channel = default_base_state(), amplitude_damping(0.2)
        with pytest.raises(ValueError, match="method must be 'direct' or 'probe', got 'probez'"):
            evaluate_bound(rho, (channel,), "first", probe, "probez")

    def test_probe_of_another_dimension_exits_4(self, tmp_path, capsys):
        state = write_state(tmp_path / "rho.json", default_base_state())
        channel = write_channel(tmp_path / "ad.json", amplitude_damping(0.2))
        probe_path = tmp_path / "probe.json"
        dump_json(probe_to_json(canonical_probe(3)), probe_path)
        for method in ("direct", "probe"):
            assert run_cli("bound", state, channel, "--probe-path", str(probe_path),
                           "--method", method) == 4
            assert "error: dimension mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["direct", "probe"])
    def test_probe_of_another_dimension_names_both_dims(self, tmp_path, capsys, method):
        state = write_state(tmp_path / "rho.json", default_base_state())
        channel = write_channel(tmp_path / "ad.json", amplitude_damping(0.2))
        probe_path = tmp_path / "probe.json"
        dump_json(probe_to_json(canonical_probe(3)), probe_path)
        assert run_cli("bound", state, channel, "--probe-path", str(probe_path),
                       "--method", method) == 4
        assert capsys.readouterr().err == ("error: dimension mismatch: a probe of dim 3 does not "
                                           "fit the first subsystem of a state of dims (2, 2)\n")

    def test_probe_method_on_a_non_square_state_names_both_dims(self, tmp_path, capsys):
        state = write_state(tmp_path / "rho.json", random_density((2, 3), 3, seed=2))
        channel = write_channel(tmp_path / "ad.json", amplitude_damping(0.2))
        probe_path = tmp_path / "probe.json"
        dump_json(probe_to_json(canonical_probe(2)), probe_path)
        assert run_cli("bound", state, channel, "--probe-path", str(probe_path),
                       "--method", "probe") == 4
        assert capsys.readouterr().err == ("error: dimension mismatch: a probe of dim 2 needs a "
                                           "state of dims (2, 2), got a state of dims (2, 3)\n")

    @pytest.mark.parametrize("field, value, message", [
        ("dims", [2.9, 2, 7], "could not parse inputs: need two subsystem dimensions, "
                              "got [2.9, 2, 7]"),
        ("dims", [2.0, 2], "could not parse inputs: a subsystem dimension must be an integer, "
                           "got 2.0"),
        ("dims", [True, 4], "could not parse inputs: a subsystem dimension must be an integer, "
                            "got True"),
        ("dims", ["2", 2], "could not parse inputs: a subsystem dimension must be an integer, "
                           "got '2'"),
        ("input_dim", 2.5, "could not parse inputs: input_dim must be an integer, got 2.5"),
        ("dim", 2.5, "could not parse probe: malformed probe document: probe dim must be an "
                     "integer, got 2.5")])
    def test_non_integer_dimension_in_a_file_exits_2(self, tmp_path, capsys, field, value,
                                                     message):
        docs = {"state": state_to_json(default_base_state()),
                "channel": channel_to_json(amplitude_damping(0.2)),
                "probe": probe_to_json(canonical_probe(2))}
        owner = {"dims": "state", "input_dim": "channel", "dim": "probe"}[field]
        docs[owner][field] = value
        paths = {name: tmp_path / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            dump_json(doc, paths[name])
        assert run_cli("bound", str(paths["state"]), str(paths["channel"]), "--probe-path",
                       str(paths["probe"])) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("owner, entry, message", [
        ("state", "0", "could not parse inputs: state data: entries must be numbers, got '0'"),
        ("channel", False, "could not parse inputs: Kraus operator: entries must be numbers, "
                           "got False"),
        ("probe", "0.0", "could not parse probe: probe matrix: entries must be numbers, "
                         "got '0.0'")])
    def test_non_number_matrix_entry_in_a_file_exits_2(self, tmp_path, capsys, owner, entry,
                                                       message):
        # the replaced imaginary part is 0, so converting the entry would change nothing
        docs = {"state": state_to_json(bell_density()),
                "channel": channel_to_json(amplitude_damping(0.2)),
                "probe": probe_to_json(canonical_probe(2))}
        rows = {"state": docs["state"]["data"], "channel": docs["channel"]["kraus"][0],
                "probe": docs["probe"]["matrix"]}[owner]
        rows[0][0][1] = entry
        paths = {name: tmp_path / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            dump_json(doc, paths[name])
        assert run_cli("bound", str(paths["state"]), str(paths["channel"]), "--probe-path",
                       str(paths["probe"])) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integer_beyond_float_range_in_a_file_exits_2(self, tmp_path, capsys):
        # JSON integers have no size limit; one that no float can hold is malformed input
        state = tmp_path / "rho.json"
        state.write_text('{"dims": [1, 2], "kind": "pure", "data": [[[1, 0], [1%s, 0]]]}'
                         % ("0" * 400))
        channel = write_channel(tmp_path / "ad.json", amplitude_damping(0.2))
        assert run_cli("bound", str(state), channel) == 2
        assert capsys.readouterr().err == ("error: could not parse inputs: int too large to "
                                           "convert to float\n")

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_side_with_two_channels_exits_2(self, tmp_path, capsys, side):
        state = write_state(tmp_path / "rho.json", default_base_state())
        ch1 = write_channel(tmp_path / "c1.json", amplitude_damping(0.2))
        ch2 = write_channel(tmp_path / "c2.json", amplitude_damping(0.3))
        assert run_cli("bound", state, ch1, ch2, "--side", side) == 2
        assert "--side" in capsys.readouterr().err

    def test_side_selects_the_subsystem_of_one_channel(self, tmp_path, capsys):
        rho, channel = default_base_state(), amplitude_damping(0.2)
        state = write_state(tmp_path / "rho.json", rho)
        path = write_channel(tmp_path / "ad.json", channel)
        reports = {}
        for side in (None, "first", "second"):
            assert run_cli("bound", state, path, *(("--side", side) if side else ())) == 0
            reports[side] = json.loads(capsys.readouterr().out)
        assert reports[None] == reports["first"] != reports["second"]
        expected = evaluate_bound(rho, (channel,), "second", canonical_probe(2), "direct")
        assert reports["second"] == expected.to_json()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probe_exits_2(self, tmp_path, capsys, bad):
        state = write_state(tmp_path / "rho.json", default_base_state())
        channel = write_channel(tmp_path / "ad.json", amplitude_damping(0.2))
        probe_path = tmp_path / "probe.json"
        dump_json({"dim": 2, "matrix": [[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
                  probe_path)
        assert run_cli("bound", state, channel, "--probe-path", str(probe_path)) == 2
        assert "entries must be finite" in capsys.readouterr().err

    def test_non_square_probe_method_exits_4(self, tmp_path):
        from entbound import random_density
        state = write_state(tmp_path / "rho.json", random_density((2, 3), 3, seed=2))
        channel = write_channel(tmp_path / "ch.json", amplitude_damping(0.2))
        assert run_cli("bound", state, channel, "--method", "probe") == 4


class TestSweep:
    def test_default_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--output", str(out)) == 0
        header, rows = read_csv(out)
        assert header == "x,lower_bound,concurrence,upper_bound,p_total"
        assert rows.shape == (101, 5)
        # x = 0: maximally mixed input stays separable
        assert np.all(np.abs(rows[0, 1:4]) <= 1e-12)
        # ordering along the whole grid
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-9)
        assert np.all(rows[:, 2] <= rows[:, 3] + 1e-9)

    def test_default_sweep_matches_golden_csv(self, tmp_path):
        # tests/data/default_sweep.csv is a committed default sweep; the 12th significant
        # digit may round differently under another NumPy, so numbers agree within 1e-11
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--output", str(out)) == 0
        got, golden = (path.read_text().splitlines() for path in (out, GOLDEN_SWEEP))
        assert got[0] == golden[0] and len(got) == len(golden)
        for line, golden_line in zip(got[1:], golden[1:]):
            cells, golden_cells = line.split(","), golden_line.split(",")
            assert [c == "" for c in cells] == [c == "" for c in golden_cells]
            assert all(abs(float(a) - float(b)) <= 1e-11
                       for a, b in zip(cells, golden_cells) if b)

    def test_non_integer_base_state_dims_exit_2(self, tmp_path, capsys):
        doc = state_to_json(default_base_state())
        cfg_path = tmp_path / "cfg.json"
        dump_json({"base_state": {**doc, "dims": [2, 2.0]}}, cfg_path)
        assert run_cli("sweep", "--config", str(cfg_path), "--output",
                       str(tmp_path / "s.csv")) == 2
        assert capsys.readouterr().err == ("error: could not build sweep config: a subsystem "
                                           "dimension must be an integer, got 2.0\n")

    def test_x1_concurrence_matches_standalone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--output", str(out)) == 0
        _, rows = read_csv(out)
        evolved = apply_two_sided(amplitude_damping(0.2), amplitude_damping(0.3),
                                  default_base_state())
        assert rows[-1, 2] == pytest.approx(wootters_concurrence(evolved.output), abs=1e-12)
        assert rows[-1, 0] == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep", "--output", str(a)) == 0
        assert run_cli("sweep", "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, tmp_path):
        config = {"x_grid": [0.0, 0.5, 1.0], "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        dump_json(config, cfg_path)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--output", str(out)) == 0
        _, rows = read_csv(out)
        assert rows.shape == (3, 5)
        np.testing.assert_allclose(rows[:, 0], [0.0, 0.5, 1.0])

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        dump_json({"x_grid": [0.5, 0.2]}, cfg_path)  # not increasing
        assert run_cli("sweep", "--config", str(cfg_path),
                       "--output", str(tmp_path / "s.csv")) == 2

    @pytest.mark.parametrize("doc", [[1], "x"])
    def test_config_not_an_object_exits_2(self, tmp_path, doc):
        cfg_path = tmp_path / "cfg.json"
        dump_json(doc, cfg_path)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--output", str(out)) == 2
        assert not out.exists()

    def test_nan_in_grid_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        dump_json({"x_grid": [0.0, float("nan"), 1.0]}, cfg_path)
        assert run_cli("sweep", "--config", str(cfg_path),
                       "--output", str(tmp_path / "s.csv")) == 2

    @pytest.mark.parametrize("grid", [[[0.1, 0.2], [0.3, 0.4]], 0.5])
    def test_grid_not_one_dimensional_exits_2(self, tmp_path, capsys, grid):
        cfg_path = tmp_path / "cfg.json"
        dump_json({"x_grid": grid}, cfg_path)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert "could not build sweep config" in err and "1-D" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [{"a": 1}, [{"a": 1}]])
    def test_non_numeric_grid_exits_2(self, tmp_path, capsys, grid):
        cfg_path = tmp_path / "cfg.json"
        dump_json({"x_grid": grid}, cfg_path)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--output", str(out)) == 2
        assert "error: could not build sweep config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [[False, True], [True, 0.5], [0.0, "0.5", 1.0],
                                      [0.0, None, 1.0]])
    def test_non_number_grid_entry_exits_2(self, tmp_path, capsys, grid):
        # a boolean, a numeric string or null is no number, also among numbers
        cfg_path = tmp_path / "cfg.json"
        dump_json({"x_grid": grid}, cfg_path)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert "could not build sweep config: x_grid: entries must be numbers" in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["non_square_state", "channel_1_dim", "probe_dim"])
    def test_mis_dimensioned_config_exits_2(self, tmp_path, capsys, case):
        cfg = {"x_grid": [0.0, 0.5, 1.0]}
        if case == "non_square_state":
            cfg["base_state"] = state_to_json(random_density((2, 3), 3, seed=2))
            cfg["probe"] = probe_to_json(canonical_probe(2))
        elif case == "channel_1_dim":
            cfg["channel_1"] = channel_to_json(KrausChannel(3, (np.eye(3),)))
        else:
            cfg["probe"] = probe_to_json(canonical_probe(3))
        cfg_path = tmp_path / "cfg.json"
        dump_json(cfg, cfg_path)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--output", str(out)) == 2
        assert "could not build sweep config" in capsys.readouterr().err
        assert not out.exists()

    def test_one_level_config_exits_2(self, tmp_path, capsys):
        cfg = {"x_grid": [0.0, 0.5, 1.0],
               "base_state": {"dims": [1, 1], "kind": "density", "data": [[[1.0, 0.0]]]},
               "channel_1": channel_to_json(KrausChannel(1, (np.eye(1),))),
               "channel_2": channel_to_json(KrausChannel(1, (np.eye(1),))),
               "probe": {"dim": 1, "matrix": [[[1.0, 0.0]]]}}
        cfg_path = tmp_path / "cfg.json"
        dump_json(cfg, cfg_path)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert "could not build sweep config" in err and "N >= 2" in err
        assert not out.exists()

    def test_qutrit_sweep_leaves_two_qubit_columns_empty(self, tmp_path):
        from entbound import KrausChannel, random_density
        from entbound.serialize import channel_to_json
        base = random_density((3, 3), 4, seed=8)
        identity3 = KrausChannel(3, (np.eye(3),))
        cfg = {"x_grid": [0.0, 0.5, 1.0],
               "base_state": state_to_json(base),
               "channel_1": channel_to_json(identity3),
               "channel_2": channel_to_json(identity3)}
        cfg_path = tmp_path / "cfg.json"
        dump_json(cfg, cfg_path)
        out = tmp_path / "sweep3.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--output", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        fields = lines[-1].split(",")
        assert fields[2] == "" and fields[3] == ""  # exact/upper 2x2 only
        assert float(fields[4]) == pytest.approx(1.0)


def sweep_oracle(config):
    """Rows of a sweep computed point by point: explicit Kraus sums over
    kron-lifted operators, the canonical-MES overlap of the evolved state
    and the Wootters value of each single state."""
    dims = config.base_state.dims
    n1, n2 = dims
    d = n1 * n2

    def image(channel, rho, side):
        lifted = [np.kron(m, np.eye(n2)) if side == "first" else np.kron(np.eye(n1), m)
                  for m in channel.operators]
        out = sum(op @ rho @ op.conj().T for op in lifted)
        return out / np.trace(out).real, np.trace(out).real

    vec = config.probe.matrix.reshape(-1)
    probe_rho = np.outer(vec, vec.conj())
    probe_1 = DensityMatrix(dims, image(config.channel_1, probe_rho, "first")[0])
    probe_2 = DensityMatrix(dims, image(config.channel_2, probe_rho, "second")[0])
    mes = canonical_mes(dims).amplitudes
    r = min(dims)
    rows = []
    for x in config.x_grid:
        rho = x * config.base_state.matrix + (1.0 - x) * np.eye(d) / d
        mid, p1 = image(config.channel_1, rho, "first")
        out, p2 = image(config.channel_2, mid, "second")
        fidelity = np.vdot(mes, out @ mes).real
        lower = max(0.0, np.sqrt(2.0 * r / (r - 1.0)) * (fidelity - 1.0 / r))
        exact = upper = None
        if dims == (2, 2):
            exact = wootters_concurrence(DensityMatrix(dims, out))
            upper = upper_bound_two_sided(wootters_concurrence(DensityMatrix(dims, rho)),
                                          probe_1, probe_2, config.probe.matrix).raw
        rows.append((x, lower, exact, upper, p1 * p2))
    return rows


def _random_non_tp_config():
    rng = np.random.default_rng(20240817)
    truncated = KrausChannel(2, random_tp_kraus(2, 3, rng).operators[:1])
    return SweepConfig(x_grid=default_sweep_config().x_grid,
                       base_state=random_density((2, 2), 3, seed=11), channel_1=truncated,
                       channel_2=random_tp_kraus(2, 2, rng), probe=random_probe(2, rng))


def _identity_3x3_config():
    identity3 = KrausChannel(3, (np.eye(3),))
    return SweepConfig(x_grid=default_sweep_config().x_grid,
                       base_state=random_density((3, 3), 4, seed=8), channel_1=identity3,
                       channel_2=identity3, probe=random_probe(3, np.random.default_rng(3)))


def config_fields(config):
    """Each field of a SweepConfig, its arrays as bytes and its dataclasses field by field."""
    def plain(value):
        if dataclasses.is_dataclass(value):
            return tuple(plain(getattr(value, f.name)) for f in dataclasses.fields(value))
        if isinstance(value, (tuple, list)):
            return tuple(plain(v) for v in value)
        if isinstance(value, np.ndarray):
            return value.shape, value.dtype.str, value.tobytes()
        return value
    return {f.name: plain(getattr(config, f.name)) for f in dataclasses.fields(config)}


# One non-default value for each key of a sweep config document.
SWEEP_OVERRIDES = {
    "x_grid": [0.0, 0.5, 1.0],
    "base_state": state_to_json(random_density((2, 2), 2, seed=5)),
    "channel_1": channel_to_json(depolarizing(0.1)),
    "channel_2": channel_to_json(phase_damping(0.4)),
    "probe": probe_to_json(random_probe(2, 5)),
}


class TestSweepConfigDefaults:
    def test_default_config_is_the_empty_document(self):
        assert config_fields(default_sweep_config()) == config_fields(sweep_config_from_json({}))

    @pytest.mark.parametrize("key", SWEEP_OVERRIDES)
    def test_one_override_keeps_every_other_default(self, key):
        default = config_fields(default_sweep_config())
        config = config_fields(sweep_config_from_json({key: SWEEP_OVERRIDES[key]}))
        assert config[key] != default[key]
        assert {k: v for k, v in config.items() if k != key} == \
            {k: v for k, v in default.items() if k != key}


class TestStackedSweep:
    @pytest.mark.parametrize("make_config", [default_sweep_config, _random_non_tp_config,
                                             _identity_3x3_config])
    def test_matches_per_point_oracle(self, tmp_path, make_config):
        config = make_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(config, a)
        run_sweep(config, b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")[1:]
        expected = sweep_oracle(config)
        assert len(lines) == len(expected) == len(config.x_grid)
        for line, row in zip(lines, expected):
            for field, value in zip(line.split(","), row):
                if value is None:
                    assert field == ""
                else:  # the CSV keeps 12 significant digits
                    assert abs(float(field) - value) <= 1e-12 * max(1.0, abs(value))

    def test_ill_conditioned_probe_warns_once(self, tmp_path):
        from entbound import probe_from_matrix
        skewed = np.diag([1.0, 2e-5])
        config = default_sweep_config()
        config.probe = probe_from_matrix(skewed / np.linalg.norm(skewed))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(config, tmp_path / "s.csv")
        assert sum("condition" in str(w.message) for w in caught) == 1

    def test_annihilated_point_exits_3_naming_x(self, tmp_path, capsys):
        state = DensityMatrix((2, 2), np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))  # |11><11|
        cfg = {"x_grid": [0.0, 0.5, 1.0], "base_state": state_to_json(state),
               "channel_1": channel_to_json(KrausChannel(2, (np.diag([1.0, 0.0]),)))}
        cfg_path = tmp_path / "cfg.json"
        dump_json(cfg, cfg_path)
        assert run_cli("sweep", "--config", str(cfg_path),
                       "--output", str(tmp_path / "s.csv")) == 3
        assert "x=1.0" in capsys.readouterr().err

    def test_programming_error_is_not_exit_3(self, tmp_path, monkeypatch):
        import entbound.concurrence

        def broken(*args):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(entbound.concurrence, "spin_flip_concurrence", broken)
        with pytest.raises(TypeError):
            run_cli("sweep", "--output", str(tmp_path / "s.csv"))

    def test_unwritable_output_exits_2(self, tmp_path):
        assert run_cli("sweep", "--output", str(tmp_path / "missing" / "s.csv")) == 2

    def test_seed_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--seed", "1", "--output", str(tmp_path / "s.csv"))
        assert exc.value.code == 2


class TestDensityChecks:
    """One density_fault call for the states and their stage images and one for the probe
    and its stage images; the probe method adds one DensityMatrix per probe image."""

    def test_sweep(self, tmp_path, density_checks):
        config = default_sweep_config()
        density_checks.clear()
        run_sweep(config, tmp_path / "sweep.csv")
        # the inputs and two stages' images of 101 points, then |P><P| and its two images
        assert density_checks == [3 * 101, 3]

    @pytest.mark.parametrize("count, method, calls", [(2, "probe", 4), (1, "probe", 3),
                                                      (2, "direct", 2), (1, "direct", 2)])
    def test_bound(self, rng, density_checks, count, method, calls):
        rho = random_density((2, 2), 3, rng)
        probe = random_probe(2, rng)
        channels = tuple(random_tp_kraus(2, 2, rng) for _ in range(count))
        density_checks.clear()
        evaluate_bound(rho, channels, "second", probe, method)
        assert len(density_checks) == calls


class TestCheck:
    def test_mes_basis_suite_passes(self, capsys):
        assert run_cli("check", "mes-basis") == 0
        out = capsys.readouterr().out
        assert "mes-basis: PASS" in out

    def test_small_theorem1_suite(self, capsys):
        assert run_cli("check", "theorem1", "--trials", "50", "--seed", "1") == 0
        assert "theorem1: PASS" in capsys.readouterr().out

    def test_small_sandwich_suite(self, capsys):
        assert run_cli("check", "sandwich", "--trials", "40", "--seed", "2") == 0
        assert "sandwich: PASS" in capsys.readouterr().out

    def test_prints_suite_wall_time(self, capsys):
        assert run_cli("check", "sandwich", "--trials", "3") == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("sandwich: PASS trials=3 ")
        assert float(line.split("wall_s=")[1]) > 0.0

    @pytest.mark.parametrize("suite", ["sandwich", "probe-invariance"])
    def test_one_trial_suite_passes(self, suite):
        from entbound.suites import run_suites
        result, = run_suites(suite, seed=0, trials=1)
        assert result.passed and result.trials == (1 if suite == "sandwich" else 40)

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(SystemExit) as exc:
            run_cli("check", "sandwich", "--trials", trials)
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", ["mes-basis", "theorem1", "all"])
    def test_negative_seed_rejected(self, suite, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("check", suite, "--seed", "-1")
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["sandwich", "probe-invariance"])
    def test_zero_trial_suite_fails(self, suite):
        from entbound.suites import run_suites
        result, = run_suites(suite, seed=0, trials=0)
        assert result.trials == 0 and not result.passed

    def test_too_many_trials_for_memory_exits_2(self, capsys, monkeypatch):
        # np.empty refuses what the machine could not hold, as NumPy does, without
        # allocating; the sandwich suite's first block of 10^11 trials is 5.82 TiB
        empty = np.empty

        def refusing(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) > 2**30:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refusing)
        assert run_cli("check", "sandwich", "--trials", "100000000000") == 2
        assert capsys.readouterr().err == ("error: request too large for memory: Unable to "
                                           "allocate an array with shape (100000000000, 2, 2)\n")

    @pytest.mark.parametrize("suite, trials", [("sandwich", "1000000000000000000"),
                                               ("all", "100000000000000000000")])
    def test_trials_past_addressable_shapes_rejected(self, capsys, suite, trials):
        # rejected while parsing, so nothing is allocated
        with pytest.raises(SystemExit) as exc:
            run_cli("check", suite, "--trials", trials)
        assert exc.value.code == 2
        assert f"argument --trials: must be at most {cli._MAX_TRIALS}, got {trials}" in \
            capsys.readouterr().err

    def test_trial_cap_covers_every_suite(self):
        # the cap's premise: no suite's memory grows by 1 MiB per trial, so at most
        # _MAX_TRIALS trials no array is larger than NumPy can address
        from entbound.suites import _SUITES
        assert cli._MAX_TRIALS * 2**20 <= np.iinfo(np.intp).max
        for suite in _SUITES.values():
            peaks = []
            suite(seed=0, trials=10)  # fills the caches first
            for trials in (10, 40):
                tracemalloc.start()
                suite(seed=0, trials=trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert peaks[1] - peaks[0] < 30 * 2**20

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        assert run_cli("check", "mes-basis", "--report", str(report)) == 0
        assert "mes-basis: PASS" in report.read_text()
        capsys.readouterr()

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        report = tmp_path / "missing" / "report.txt"
        assert run_cli("check", "mes-basis", "--report", str(report)) == 2
        assert "error: could not write" in capsys.readouterr().err

    def test_unwritable_repro_bundle_exits_2(self, tmp_path, capsys, monkeypatch):
        import entbound.cli
        from entbound.suites import SuiteResult

        def fake_run(name, seed=0, trials=None):
            return [SuiteResult("sandwich", False, 10, 1, 0.5, {"trial": 3})]

        monkeypatch.setattr(entbound.cli, "run_suites", fake_run)
        report = tmp_path / "report.txt"
        (tmp_path / "report.txt.repro.json").mkdir()  # a directory is not writable as a file
        assert run_cli("check", "sandwich", "--report", str(report)) == 2
        assert "error: could not write" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [ValueError("bad residual"),
                                       ZeroProbability("channel image has trace 0.0")])
    def test_error_inside_a_suite_exits_3(self, capsys, monkeypatch, error):
        from entbound import suites

        def broken(seed=0, trials=None):
            raise error

        monkeypatch.setitem(suites._SUITES, "sandwich", broken)
        assert run_cli("check", "sandwich") == 3
        assert capsys.readouterr().err == f"error: numerical failure: {error}\n"

    def test_failure_writes_repro_bundle(self, tmp_path, capsys, monkeypatch):
        import entbound.cli
        from entbound.suites import SuiteResult

        def fake_run(name, seed=0, trials=None):
            return [SuiteResult("sandwich", False, 10, 1, 0.5,
                                {"suite": "sandwich", "trial": 3})]

        monkeypatch.setattr(entbound.cli, "run_suites", fake_run)
        report = tmp_path / "report.txt"
        assert run_cli("check", "sandwich", "--report", str(report)) == 1
        bundle = json.loads((tmp_path / "report.txt.repro.json").read_text())
        assert bundle["failure"]["trial"] == 3
        assert "sandwich: FAIL" in capsys.readouterr().out


def test_log_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ENTBOUND_LOG", "debug")
    assert run_cli("check", "mes-basis") == 0
    capsys.readouterr()


def _nearly_annihilated_bound(tmp_path):
    """A bound call whose normalized image fails the Hermiticity check (a ValueError)."""
    v = np.array([1.0, 1.0 + 1e-3])
    w = np.array([0.18651688 + 0.9500471j, -0.19597346 + 0.15561606j])
    psi = PureState((2, 2), np.kron(v / np.linalg.norm(v), w / np.linalg.norm(w)))
    a = 1.0 / np.sqrt(2.0)
    kill = KrausChannel(2, (np.array([[a, -a], [0.0, 0.0]]),))
    return ["bound", write_state(tmp_path / "psi.json", psi),
            write_channel(tmp_path / "m.json", kill)]


def _bound_argv(tmp_path, state, *extra):
    return ["bound", write_state(tmp_path / "rho.json", state),
            write_channel(tmp_path / "ad.json", amplitude_damping(0.2)), *extra]


def _json_file(path, doc):
    dump_json(doc, path)
    return str(path)


_SINGULAR_PROBE = {"dim": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
_NAN_PROBE = {"dim": 2, "matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
_ELEVEN = DensityMatrix((2, 2), np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))  # |11><11|

# Each row of the exit-code table and each prefix of the input-reading step:
# (exit code, stderr prefix, the arguments of a call that reaches it).
EXIT_ROWS = {
    "sweep-config": (2, "could not build sweep config", lambda tmp: [
        "sweep", "--config", _json_file(tmp / "cfg.json", {"x_grid": [0.5, 0.2]}),
        "--output", str(tmp / "s.csv")]),
    "bound-inputs": (2, "could not parse inputs", lambda tmp: [
        "bound", str(tmp / "missing.json"),
        write_channel(tmp / "ad.json", amplitude_damping(0.2))]),
    "bound-probe": (2, "could not parse probe", lambda tmp: _bound_argv(
        tmp, default_base_state(), "--probe-path", _json_file(tmp / "probe.json", _NAN_PROBE))),
    "bound-arity": (2, "bound takes one channel file", lambda tmp: _bound_argv(
        tmp, default_base_state(), str(tmp / "ad.json"), str(tmp / "ad.json"))),
    "gen-parameters": (2, "invalid parameters", lambda tmp: [
        "gen", "channel", str(tmp / "c.json"), "--family", "depolarizing"]),
    "unwritable": (2, "could not write", lambda tmp: [
        "gen", "state", str(tmp / "missing" / "s.json")]),
    "singular-probe": (5, "singular probe", lambda tmp: _bound_argv(
        tmp, bell_density(), "--probe-path", _json_file(tmp / "probe.json", _SINGULAR_PROBE))),
    "dimension-mismatch": (4, "dimension mismatch", lambda tmp: _bound_argv(
        tmp, random_density((3, 3), 2, seed=0))),
    "trivial-dimension": (4, "dimension mismatch", lambda tmp: _bound_argv(
        tmp, random_density((2, 1), 2, seed=1))),
    "arithmetic-error": (3, "numerical failure", lambda tmp: [
        "bound", write_state(tmp / "rho.json", _ELEVEN),
        write_channel(tmp / "kill.json", KrausChannel(2, (np.diag([1.0, 0.0]),)))]),
    "value-error": (3, "numerical failure", _nearly_annihilated_bound),
}


@pytest.mark.parametrize("row", EXIT_ROWS)
def test_exit_code_table_row(tmp_path, capsys, row):
    code, prefix, argv = EXIT_ROWS[row]
    assert run_cli(*argv(tmp_path)) == code
    assert capsys.readouterr().err.startswith(f"error: {prefix}")
