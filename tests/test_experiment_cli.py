"""End-to-end runs through the experiment pipeline and the CLI."""
import errno
import itertools
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sshquench.circuits import (
    evolution_circuit,
    layer_count,
    prepare_neel,
    prepare_singlet_product,
)
from sshquench import experiment
from sshquench.cli import main
from sshquench.config import parse_config, parse_config_text
from sshquench.experiment import compare_report, execute, read_shot_tables
from sshquench.noise import effective_p_tot
from sshquench.randmeas import estimate_purity
from sshquench.state import CapacityError

SMALL = """\
L = 4
initial = neel
boundary = pbc
times = 0, 0.19634954084936207, 0.39269908169872414
quantities = entropy,twist,berry
n_unitaries = 12
n_shots = 256
seed = 4242
"""


def _write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _read(path):
    return path.read_bytes()


class TestRunOutputs:
    def test_files_and_schemas(self, tmp_path):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        entropy = (out / "entropy.csv").read_text().splitlines()
        assert entropy[0] == "t,raw,mitigated,oracle,sigma,flags"
        assert len(entropy) == 4
        twist = (out / "twist.csv").read_text().splitlines()
        assert twist[0] == "t,re_raw,im_raw,re_post,im_post,re_exact,im_exact"
        berry = (out / "berry.csv").read_text().splitlines()
        assert berry[0] == "t,gamma_raw,gamma_post,gamma_exact,flags"
        assert (out / "manifest.txt").exists()

    def test_manifest_is_reparseable(self, tmp_path):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        main(["run", str(conf), "--out", str(out), "--quiet"])
        cfg = parse_config(out / "manifest.txt")
        assert cfg.num_sites == 4
        assert cfg.seed == 4242
        assert len(cfg.times) == 3

    def test_oracle_column_tracks_closed_form(self, tmp_path):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        main(["run", str(conf), "--out", str(out), "--quiet"])
        rows = (out / "entropy.csv").read_text().splitlines()[1:]
        oracle = [float(r.split(",")[3]) for r in rows]
        assert oracle[0] == pytest.approx(0.0, abs=1e-12)
        assert oracle[2] == pytest.approx(2.0, abs=1e-12)
        # a zero prints as 0, not -0
        assert rows[0].split(",")[3] == "0"
        assert "-0" not in (f for r in rows for f in r.split(","))

    def test_exact_probabilities_mode_matches_oracle(self, tmp_path):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert (
            main(
                [
                    "run",
                    str(conf),
                    "--out",
                    str(out),
                    "--exact-probabilities",
                    "--quiet",
                ]
            )
            == 0
        )
        rows = (out / "entropy.csv").read_text().splitlines()[1:]
        raw = np.array([float(r.split(",")[1]) for r in rows])
        oracle = np.array([float(r.split(",")[3]) for r in rows])
        assert np.sqrt(np.mean((raw - oracle) ** 2)) < 1e-9
        twist_rows = (out / "twist.csv").read_text().splitlines()[1:]
        for row in twist_rows:
            f = row.split(",")
            assert float(f[1]) == pytest.approx(float(f[5]), abs=1e-12)

    def test_exact_mode_explicit_sites_take_one_purity_per_time(self, tmp_path, monkeypatch):
        # the oracle of an explicit-site subsystem is the exact entropy itself
        calls, purity = [], experiment.purity
        monkeypatch.setattr(experiment, "purity", lambda *a: calls.append(a) or purity(*a))
        text = SMALL.replace("entropy,twist,berry", "entropy") + "subsystem = 1,2\n"
        out = tmp_path / "out"
        conf = _write_config(tmp_path, text)
        assert main(["run", str(conf), "--out", str(out), "--exact-probabilities", "--quiet"]) == 0
        assert len(calls) == 3
        rows = [r.split(",") for r in (out / "entropy.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == [r[3] for r in rows]

    def test_exact_mode_bulk_oracle_is_exact_where_the_block_cuts_cells(self, tmp_path):
        # at L = 12 the bulk sites 4..9 start and end inside a cell, so no
        # closed form applies and the oracle column is the exact entropy
        text = SMALL.replace("L = 4", "L = 12").replace("entropy,twist,berry", "entropy")
        conf = _write_config(tmp_path, text + "subsystem = bulk\n")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--exact-probabilities", "--quiet"]) == 0
        rows = [r.split(",") for r in (out / "entropy.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3
        for r in rows:
            assert float(r[1]) == pytest.approx(float(r[3]), abs=1e-9)

    def test_reproducible_across_threads(self, tmp_path):
        conf = _write_config(tmp_path, SMALL + "p_layer = 0.01\nreadout_flip = 0.01\n")
        outs = []
        for threads in (1, 3):
            out = tmp_path / f"out{threads}"
            assert (
                main(
                    [
                        "run",
                        str(conf),
                        "--out",
                        str(out),
                        "--threads",
                        str(threads),
                        "--quiet",
                    ]
                )
                == 0
            )
            outs.append(out)
        for name in ("entropy.csv", "twist.csv", "berry.csv"):
            assert _read(outs[0] / name) == _read(outs[1] / name)

    def test_seed_override_changes_samples(self, tmp_path):
        conf = _write_config(tmp_path, SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", str(conf), "--out", str(a), "--quiet"])
        main(["run", str(conf), "--out", str(b), "--seed", "999", "--quiet"])
        assert _read(a / "entropy.csv") != _read(b / "entropy.csv")

    def test_shot_persistence_round_trip(self, tmp_path):
        conf = _write_config(tmp_path, SMALL + "save_shots = true\n")
        out = tmp_path / "out"
        main(["run", str(conf), "--out", str(out), "--quiet"])
        tables = read_shot_tables(out / "shots" / "entropy_t0000.txt")
        assert len(tables) == 12
        assert all(t.num_shots == 256 for t in tables)
        assert all(t.counts.shape == (16,) and t.counts.sum() == 256 for t in tables)
        # re-analysis reproduces the recorded raw estimate at t = 0
        est = estimate_purity(tables, (0, 1), "unbiased")
        raw0 = float((out / "entropy.csv").read_text().splitlines()[1].split(",")[1])
        assert -np.log2(est.value) == pytest.approx(raw0, abs=1e-9)
        twist_tables = read_shot_tables(out / "shots" / "twist_t0000.txt")
        assert twist_tables[0].unitary_index == 0

    @pytest.mark.parametrize(
        "line",
        [
            "1 -101 1",  # sign in the bitstring
            "1 11 2",  # too few bits
            "1 00110 2",  # too many bits
            "1 0120 2",  # not a bit
            "1 0101 -1",  # negative count
            "1 0101 0",  # zero count
            "1 0101 2.0",  # non-integer count
            "1 0101",  # missing field
            "x 0101 2",  # non-integer round
            "1 0011 2",  # repeats the round and bitstring of line 2
            "2 0101 1",  # round above N_U
        ],
    )
    def test_read_shot_tables_rejects_malformed_line(self, tmp_path, line):
        path = tmp_path / "shots.txt"
        path.write_text(f"# L=4 N_U=1 N_M=3 seed=1\n1 0011 1\n{line}\n")
        with pytest.raises(ValueError, match="shots.txt:3:"):
            read_shot_tables(path)

    @pytest.mark.parametrize(
        "header",
        [
            "# N_U=1 N_M=3 seed=1",  # no L
            "# L=4 N_U=1 seed=1",  # no N_M
            "# L=x N_U=1 N_M=3 seed=1",  # non-integer L
            "# L=4 N_M=3 seed=1",  # no N_U
            "# L=4 N_U=2 N_M=3 seed=1",  # round 2 missing, e.g. a cut-off file
            "# L=64 N_U=1 N_M=3 seed=1",  # L above the dense cap
            "# L=0 N_U=1 N_M=3 seed=1",  # no qubits
            "# L=4 N_U=0 N_M=3 seed=1",  # no rounds
            "# L=4 N_U=1 N_M=4 seed=1",  # round 1 sums to 3 shots, not N_M
        ],
    )
    def test_read_shot_tables_rejects_malformed_header(self, tmp_path, header):
        path = tmp_path / "shots.txt"
        path.write_text(f"{header}\n1 0011 3\n")
        with pytest.raises(ValueError, match="shots.txt:1:"):
            read_shot_tables(path)

    @pytest.mark.parametrize(
        "num_qubits, num_rounds, refused",
        [(24, 100, True), (20, 33, True), (20, 32, False)],  # 32 rounds at L=20: 256 MiB
    )
    def test_read_shot_tables_refuses_counts_beyond_a_dense_state(
        self, tmp_path, num_qubits, num_rounds, refused
    ):
        # a header alone: refused before any count vector is allocated
        path = tmp_path / "shots.txt"
        path.write_text(f"# L={num_qubits} N_U={num_rounds} N_M=3 seed=1\n")
        with pytest.raises(ValueError, match="shots.txt:1:") as err:
            read_shot_tables(path)
        assert isinstance(err.value, CapacityError) is refused

    def test_mitigation_improves_noisy_entropy(self, tmp_path):
        conf = _write_config(
            tmp_path,
            "L = 4\ninitial = singlet\nboundary = pbc\n"
            "times = 0.2617993877991494, 0.39269908169872414, 0.5235987755982988\n"
            "n_unitaries = 40\nn_shots = 1024\np_layer = 0.02\nseed = 11\n",
        )
        out = tmp_path / "out"
        main(["run", str(conf), "--out", str(out), "--quiet"])
        rows = (out / "entropy.csv").read_text().splitlines()[1:]
        raw = np.array([float(r.split(",")[1]) for r in rows])
        mit = np.array([float(r.split(",")[2]) for r in rows])
        oracle = np.array([float(r.split(",")[3]) for r in rows])
        assert np.sqrt(np.mean((mit - oracle) ** 2)) < np.sqrt(
            np.mean((raw - oracle) ** 2)
        )

    def test_shift_alignment_applied(self, tmp_path):
        # mitigation off: the column holds the shifted raw series, still
        # flagged as unmitigated; on: the shifted mitigated series
        for mitigate in ("off", "on"):
            conf = _write_config(
                tmp_path,
                SMALL + f"shift_mode = zero_at_t0\np_layer = 0.01\nmitigate = {mitigate}\n",
            )
            out = tmp_path / mitigate
            main(["run", str(conf), "--out", str(out), "--quiet"])
            rows = [r.split(",") for r in (out / "entropy.csv").read_text().splitlines()[1:]]
            assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)
            for r in rows:
                assert r[5].endswith("shifted")
                assert ("no_mitigation" in r[5]) == (mitigate == "off")
            if mitigate == "off":
                raw = np.array([float(r[1]) for r in rows])
                shifted = np.array([float(r[2]) for r in rows])
                np.testing.assert_allclose(shifted, raw - raw[0], atol=1e-11)


    def test_valley_shift_of_an_all_nan_series_stays_nan(self, tmp_path):
        # two shots per round: every raw purity estimate here is nonpositive
        conf = _write_config(
            tmp_path,
            "L = 4\ninitial = neel\nt_points = 2\nn_unitaries = 1\nn_shots = 2\n"
            "mitigate = off\nshift_mode = valley_to_zero\nseed = 2\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        rows = [r.split(",") for r in (out / "entropy.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2
        for r in rows:
            assert r[1] == r[2] == "nan"
            assert r[5] == "raw_nonpositive_purity;no_mitigation;shifted"

    @pytest.mark.parametrize("p_layer", ["0", "0.01"])
    def test_exact_mode_shifts_the_raw_series(self, tmp_path, p_layer):
        # sites 2 and 3 cut two singlets, so S(0) = 2 bits; exact rows are
        # never mitigated, also when p_layer > 0 turns mitigation on
        conf = _write_config(
            tmp_path,
            "L = 4\ninitial = singlet\nsubsystem = 2,3\ntimes = 0, 0.3, 0.6\n"
            f"exact_probabilities = true\nshift_mode = zero_at_t0\np_layer = {p_layer}\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        rows = [r.split(",") for r in (out / "entropy.csv").read_text().splitlines()[1:]]
        raw = np.array([float(r[1]) for r in rows])
        assert raw[0] == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose([float(r[2]) for r in rows], raw - raw[0], atol=1e-12)
        assert [r[5] for r in rows] == ["exact_mode;no_mitigation;shifted"] * 3


class TestFlagTokens:
    """Each flag token the runner writes, pinned row by row. Within a row of
    ``entropy.csv`` the order is exact_mode or raw_nonpositive_purity, then
    p_tot_clamped, then mitigated_clamped or no_mitigation, then shifted; in
    ``berry.csv`` it is exact_unreliable, raw_unreliable, then post_unreliable
    or post_empty."""

    PI_8 = "0.39269908169872414"

    @pytest.mark.parametrize(
        "text, expected",
        [
            # two shots per round: the full-chain purity fit and the mitigated
            # purity clamp
            ("times = 0, 0.3\nn_unitaries = 2\nn_shots = 2\np_layer = 0.05\n"
             "mitigate = on\nshift_mode = zero_at_t0\nseed = 0\n",
             {"entropy": ["raw_nonpositive_purity;p_tot_clamped;mitigated_clamped;shifted",
                          "raw_nonpositive_purity;mitigated_clamped;shifted"]}),
            ("times = 0, 0.3\nn_unitaries = 4\nn_shots = 64\nseed = 0\n",
             {"entropy": ["no_mitigation"] * 2}),
            # with every bit flipped at rate 1/2, neither of the two shots at
            # t = 0.3 is at half filling
            ("times = 0, 0.3\nquantities = twist,berry\nn_shots = 2\nreadout_flip = 0.5\n"
             "seed = 0\n",
             {"berry": ["raw_unreliable", "post_empty"]}),
            # the exact particle twist of the Neel ring vanishes at t = pi/8
            (f"times = 0, {PI_8}\nquantities = berry\nn_shots = 64\nseed = 0\n",
             {"berry": ["", "exact_unreliable;raw_unreliable;post_unreliable"]}),
            # exact mode repeats the exact columns and so adds no raw or post flag
            (f"times = 0, {PI_8}\nquantities = entropy,berry\nexact_probabilities = true\n",
             {"entropy": ["exact_mode;no_mitigation"] * 2, "berry": ["", "exact_unreliable"]}),
        ],
    )
    def test_flags_of_each_row(self, tmp_path, text, expected):
        conf = _write_config(tmp_path, "L = 4\ninitial = neel\n" + text)
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        for name, flags in expected.items():
            rows = (out / f"{name}.csv").read_text().splitlines()[1:]
            assert [r.split(",")[-1] for r in rows] == flags

    def test_empty_postselection_writes_nan_post_columns(self, tmp_path):
        # the one time point keeps no shot: the report leaves the twist post
        # series out and counts no berry post point
        conf = _write_config(
            tmp_path,
            "L = 4\ninitial = neel\ntimes = 0.3\nquantities = twist,berry\nn_shots = 2\n"
            "readout_flip = 0.5\nseed = 4\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        twist = (out / "twist.csv").read_text().splitlines()[1].split(",")
        berry = (out / "berry.csv").read_text().splitlines()[1].split(",")
        assert twist[3:5] == ["nan", "nan"] and berry[2] == "nan"
        assert berry[4] == "post_empty"
        assert compare_report(out).splitlines()[1:] == [
            "twist raw: rms=0.565651571115 max=0.565651571115 points=1",
            "berry gamma_raw: rms=3.14159265359 max=3.14159265359 points=1 "
            "(unreliable rows excluded)",
            "berry gamma_post: rms=nan max=nan points=0 (unreliable rows excluded)",
        ]


class TestManifestLayers:
    @pytest.mark.parametrize("initial", ["neel", "singlet"])
    @pytest.mark.parametrize("boundary", ["pbc", "obc"])
    def test_layer_counts_are_gate_level(self, tmp_path, initial, boundary):
        """The manifest counts the hardware-style gates, not the fused blocks."""
        num_sites, p_layer, t = 8, 0.01, 0.3
        conf = _write_config(
            tmp_path,
            f"L = {num_sites}\ninitial = {initial}\nboundary = {boundary}\n"
            f"times = {t}\nquantities = twist\nn_shots = 64\np_layer = {p_layer}\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        comments = dict(
            line[2:].split(" = ", 1)
            for line in (out / "manifest.txt").read_text().splitlines()
            if line.startswith("# ") and " = " in line
        )
        prep = {"neel": prepare_neel, "singlet": prepare_singlet_product}[initial](num_sites)
        total = layer_count(prep.then(evolution_circuit(t, num_sites, boundary)))
        assert int(comments["layers_prep"]) == layer_count(prep)
        assert int(comments["layers_total"]) == total
        assert float(comments["p_tot_true"]) == float(
            f"{effective_p_tot(p_layer, total):.12g}"
        )
        fused = prep.then(evolution_circuit(t, num_sites, boundary, fused=True))
        assert layer_count(fused) < total


class TestReport:
    def test_report_writes_summary(self, tmp_path, capsys):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        main(["run", str(conf), "--out", str(out), "--quiet"])
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "entropy raw" in captured
        assert "berry gamma_post" in captured
        assert (out / "summary.txt").exists()

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", str(tmp_path / "nowhere")]) == 2

    def test_report_refuses_run_without_manifest(self, tmp_path, capsys):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        (out / "manifest.txt").unlink()
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert "manifest.txt" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize(
        "edit,line",
        [
            (lambda text: "", 1),
            (lambda text: text.replace(",oracle,", ",exact,", 1), 1),
            (lambda text: text.rstrip("\n").rsplit(",", 1)[0] + "\n", 4),  # the last row
            (lambda text: text.replace("\n0,", "\nabc,", 1), 2),  # t = 0 reads "abc"
        ],
        ids=["empty", "no_oracle_column", "short_row", "not_a_number"],
    )
    def test_report_refuses_a_malformed_csv(self, tmp_path, capsys, edit, line):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        path = out / "entropy.csv"
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert f"{path}:{line}: " in capsys.readouterr().err

    def test_report_refuses_rerun_that_crashed(self, tmp_path, capsys, monkeypatch):
        # the rerun writes a new entropy.csv, then fails: the old twist.csv
        # and the old manifest must not pass for a complete run
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        write_table = experiment._write_table

        def crash_after_entropy(path, header, rows):
            write_table(path, header, rows)
            if path.name == "entropy.csv":
                raise RuntimeError("stage failed")

        monkeypatch.setattr(experiment, "_write_table", crash_after_entropy)
        with pytest.raises(RuntimeError, match="stage failed"):
            main(["run", str(conf), "--out", str(out), "--quiet", "--seed", "5"])
        assert (out / "twist.csv").exists() and not (out / "manifest.txt").exists()
        with pytest.raises(FileNotFoundError, match="manifest.txt"):
            compare_report(out)
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert "manifest.txt" in capsys.readouterr().err

    def test_table_that_fails_mid_row_leaves_the_old_file(self, tmp_path, capsys, monkeypatch):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        old = {path.name: path.read_bytes() for path in out.iterdir()}
        fmt, calls = experiment._fmt, itertools.count()

        def fail_in_the_second_row(x):  # entropy.csv, the second row's third number
            if next(calls) == 7:
                raise RuntimeError("write failed")
            return fmt(x)

        monkeypatch.setattr(experiment, "_fmt", fail_in_the_second_row)
        with pytest.raises(RuntimeError, match="write failed"):
            main(["run", str(conf), "--out", str(out), "--quiet", "--seed", "5"])
        assert sorted(path.name for path in out.iterdir()) == sorted(set(old) - {"manifest.txt"})
        for name in old.keys() - {"manifest.txt"}:
            assert (out / name).read_bytes() == old[name]
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert "manifest.txt" in capsys.readouterr().err

    def test_summary_that_fails_mid_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        old = compare_report(out)
        write_text = Path.write_text

        def write_half_then_fail(path, data, *args, **kwargs):
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="No space left"):
            compare_report(out)
        monkeypatch.undo()
        assert (out / "summary.txt").read_text() == old

    def test_replace_file_that_cannot_encode_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "summary.txt"
        path.write_text("old text\n")
        with pytest.raises(UnicodeEncodeError):
            experiment._replace_file(path, "x\udc80")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.txt"]
        assert path.read_text() == "old text\n"

    def test_rerun_removes_partial_copies(self, tmp_path):
        out = tmp_path / "out"
        conf = _write_config(tmp_path, SMALL + "save_shots = true\n")
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        kept = {path.name for path in out.iterdir()} | {".notes.txt.partial"}
        kept_shots = {path.name for path in (out / "shots").iterdir()}
        left = [".entropy.csv.partial", ".summary.txt.partial", ".notes.txt.partial",
                "shots/.twist_t0000.txt.partial", "shots/.entropy_t0099.txt.partial"]
        for name in left:
            (out / name).write_text("half")
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        assert {path.name for path in out.iterdir()} == kept
        assert {path.name for path in (out / "shots").iterdir()} == kept_shots

    def test_killed_rerun_leaves_each_file_old_or_new(self, tmp_path, capsys):
        # the child kills itself in the second file replacement, after the
        # temporary file is written and before it moves into place
        conf = _write_config(tmp_path, SMALL)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        assert main(["run", str(conf), "--out", str(fresh), "--quiet", "--seed", "5"]) == 0
        old = {path.name: path.read_bytes() for path in out.iterdir()}
        new = {path.name: path.read_bytes() for path in fresh.iterdir()}
        child = (
            "import os, signal, sys\n"
            "from pathlib import Path\n"
            "from sshquench import experiment\n"
            "from sshquench.cli import main\n"
            "replace_file, calls = experiment._replace_file, []\n"
            "def replace_file_then_die(path, text):\n"
            "    calls.append(path)\n"
            "    if len(calls) == 2:\n"
            "        Path.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
            "    replace_file(path, text)\n"
            "experiment._replace_file = replace_file_then_die\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", child, "run", str(conf), "--out", str(out), "--quiet",
             "--seed", "5"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        left = {path.name: path.read_bytes() for path in out.iterdir()}
        assert "manifest.txt" not in left
        sources = set()
        for name, data in left.items():
            final = name.removeprefix(".").removesuffix(".partial")
            assert data in (old.get(final), new.get(final)), name
            sources.add("new" if data == new.get(final) else "old")
        assert sources == {"old", "new"}  # killed between two files, not before or after
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert "manifest.txt" in capsys.readouterr().err

    def test_rerun_removes_the_outputs_it_does_not_write(self, tmp_path, capsys):
        out = tmp_path / "out"
        entropy = SMALL.replace("entropy,twist,berry", "entropy") + "save_shots = true\n"
        assert main(["run", str(_write_config(tmp_path, entropy)), "--out", str(out), "--quiet"]) == 0
        assert main(["report", str(out)]) == 0
        (out / "notes.txt").write_text("mine")
        (out / "shots" / "entropy_t0000.txt.bak").write_text("mine")
        twist = "L = 4\ninitial = neel\nt_points = 2\nquantities = twist\nsave_shots = true\n"
        conf = _write_config(tmp_path, twist, "twist.conf")
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "manifest.txt", "notes.txt", "shots", "twist.csv"
        ]
        assert sorted(path.name for path in (out / "shots").iterdir()) == [
            "entropy_t0000.txt.bak", "twist_t0000.txt", "twist_t0001.txt"
        ]
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "entropy" not in capsys.readouterr().out

    def test_exact_mode_report_rms(self, tmp_path):
        conf = _write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        main(["run", str(conf), "--out", str(out), "--exact-probabilities", "--quiet"])
        text = compare_report(out)
        line = next(l for l in text.splitlines() if l.startswith("entropy raw"))
        rms = float(line.split("rms=")[1].split()[0])
        assert rms < 1e-9


class TestOnePass:
    def test_parallel_map_draws_items_only_a_window_ahead(self):
        threads, done = 2, set()

        def items():
            for k in range(40):
                # item k is drawn once every item 2 * threads before it has run
                assert set(range(k - 2 * threads)) <= done
                yield (k,)

        def square(k):
            done.add(k)
            return k * k

        assert experiment._parallel_map(square, items(), threads) == [k * k for k in range(40)]

    @pytest.mark.parametrize("num_sites, quantities", [(14, "twist,berry"), (12, "entropy")])
    def test_peak_memory_does_not_grow_with_the_time_points(
        self, tmp_path, num_sites, quantities
    ):
        peaks = []
        for t_points in (2, 16):
            config = parse_config_text(
                f"L = {num_sites}\ninitial = neel\nquantities = {quantities}\n"
                f"t_points = {t_points}\nexact_probabilities = true\n"
            )
            execute(config, tmp_path / "warm", quiet=True)  # fills the per-length caches
            tracemalloc.start()
            try:
                execute(config, tmp_path / f"t{t_points}", quiet=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 16 << num_sites  # less than one complex128 state


class TestCliErrors:
    def test_invalid_config_exit_two(self, tmp_path, capsys):
        conf = _write_config(tmp_path, "L = 7\ninitial = neel\n")
        assert main(["run", str(conf)]) == 2
        err = capsys.readouterr().err
        assert ":1:" in err and "L must be even" in err

    def test_unknown_key_line_number(self, tmp_path, capsys):
        conf = _write_config(tmp_path, "L = 8\ninitial = neel\nwhat = no\n")
        assert main(["run", str(conf)]) == 2
        assert ":3:" in capsys.readouterr().err

    def test_capacity_exit_three(self, tmp_path):
        conf = _write_config(tmp_path, "L = 26\ninitial = neel\n")
        assert main(["run", str(conf)]) == 3

    @pytest.mark.parametrize(
        "line", ["seed = -3", "times = 0, nan", "times = 0, inf", "t_max = nan"]
    )
    def test_unrunnable_value_exit_two_before_output(self, tmp_path, capsys, line):
        conf = _write_config(
            tmp_path, f"L = 4\ninitial = neel\n{line}\nn_unitaries = 2\nn_shots = 16\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 2
        assert ":3:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exit_two(self, tmp_path, capsys):
        conf = _write_config(tmp_path, "L = 4\ninitial = neel\nn_unitaries = 2\n")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--seed", "-7", "--quiet"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_threads_flag_exit_two(self, tmp_path, capsys):
        conf = _write_config(tmp_path, "L = 4\ninitial = neel\nn_unitaries = 2\n")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--threads", "0", "--quiet"]) == 2
        assert capsys.readouterr().err == "error: threads must be >= 1\n"
        assert not out.exists()

    def test_too_many_threads_flag_exit_two(self, tmp_path, capsys):
        conf = _write_config(tmp_path, "L = 4\ninitial = neel\nn_unitaries = 2\n")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--threads", "65", "--quiet"]) == 2
        assert capsys.readouterr().err == "error: threads must be <= 64\n"
        assert not out.exists()

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.conf")]) == 2

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_a_file"])
    def test_out_path_through_a_file_exit_two(self, tmp_path, capsys, below):
        conf = _write_config(tmp_path, "L = 4\ninitial = neel\nn_unitaries = 2\n")
        taken = tmp_path / "taken.txt"
        taken.write_text("keep\n")
        out = taken / below if below else taken
        assert main(["run", str(conf), "--out", str(out), "--quiet"]) == 2
        assert str(out) in capsys.readouterr().err
        assert taken.read_text() == "keep\n"

    def test_python_dash_m_entry_point(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

        def exit_code(*args):
            return subprocess.run(
                [sys.executable, "-m", "sshquench", *args],
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True,
                timeout=60,
            ).returncode

        assert exit_code("--help") == 0
        assert exit_code("report", str(tmp_path / "nowhere")) == 2
