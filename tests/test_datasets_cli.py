import csv

import numpy as np
import pytest

from tripscreen import (Dataset, DatasetFormatError, build_triplets,
                        gaussian_blobs, load_csv, load_dataset, load_libsvm,
                        save_csv, save_libsvm, subsample)
from tripscreen.cli import (PER_LAMBDA_COLUMNS, RunConfig, build_parser,
                            config_from_args, main, read_config_file, run)


class TestLibsvmFormat:
    def test_sparse_line(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("2 1:0.5 3:1.0\n1 2:2.0\n")
        data = load_libsvm(path, n_features=3)
        assert np.allclose(data.features[0], [0.5, 0.0, 1.0])
        assert np.allclose(data.features[1], [0.0, 2.0, 0.0])
        assert data.labels.tolist() == [2, 1]

    def test_dimension_inferred(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("0 2:1.0\n1 4:2.0\n")
        data = load_libsvm(path)
        assert data.n_features == 4

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="no samples"):
            load_libsvm(path)

    def test_malformed_line_carries_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1:0.5\n0 banana\n")
        with pytest.raises(DatasetFormatError, match=":2"):
            load_libsvm(path)

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0:0.5\n")
        with pytest.raises(DatasetFormatError, match="1-based"):
            load_libsvm(path)

    def test_dimension_overflow_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 5:0.5\n")
        with pytest.raises(DatasetFormatError, match="exceeds"):
            load_libsvm(path, n_features=3)

    def test_round_trip(self, tmp_path):
        data = gaussian_blobs(15, 4, 3, seed=1)
        path = tmp_path / "round.txt"
        save_libsvm(data, path)
        back = load_libsvm(path, n_features=4)
        assert np.allclose(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)


class TestCsvFormat:
    def test_label_column(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1,0.5,2.0\n0,1.5,3.0\n")
        data = load_csv(path, label_col=0)
        assert np.allclose(data.features, [[0.5, 2.0], [1.5, 3.0]])
        assert data.labels.tolist() == [1, 0]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("label,f1,f2\n1,0.5,2.0\n0,1.5,3.0\n")
        data = load_csv(path)
        assert data.n_samples == 2

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0.5,2.0\n0,1.5\n")
        with pytest.raises(DatasetFormatError, match="expected 3 columns"):
            load_csv(path)

    def test_round_trip(self, tmp_path):
        data = gaussian_blobs(12, 3, 2, seed=2)
        path = tmp_path / "round.csv"
        save_csv(data, path)
        back = load_csv(path)
        assert np.allclose(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)

    def test_format_dispatch_by_extension(self, tmp_path):
        data = gaussian_blobs(12, 3, 2, seed=3)
        csv_path = tmp_path / "a.csv"
        svm_path = tmp_path / "a.txt"
        save_csv(data, csv_path)
        save_libsvm(data, svm_path)
        a = load_dataset(csv_path)
        b = load_dataset(svm_path, n_features=3)
        assert np.allclose(a.features, b.features)


class TestSubsample:
    def test_deterministic(self):
        data = gaussian_blobs(50, 3, 2, seed=4)
        a = subsample(data, 0.9, seed=7)
        b = subsample(data, 0.9, seed=7)
        assert np.array_equal(a.features, b.features)
        assert a.n_samples == 45

    def test_fraction_validated(self):
        data = gaussian_blobs(10, 2, 2, seed=5)
        with pytest.raises(ValueError):
            subsample(data, 0.0, seed=0)


def write_dataset(tmp_path, n=36, d=3, seed=0, noise=0.2):
    data = gaussian_blobs(n, d, 2, separation=2.0, seed=seed, label_noise=noise)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestCli:
    def test_run_writes_reports(self, tmp_path):
        path = write_dataset(tmp_path)
        out = tmp_path / "results"
        cfg = RunConfig(data=str(path), k=2, trials=2, seed=1,
                        bound="relaxed-path", rule="sphere",
                        gap_tol=1e-6, out=str(out))
        assert run(cfg) == 0
        rows = read_rows(out / "per_lambda.csv")
        assert rows and list(rows[0].keys()) == PER_LAMBDA_COLUMNS
        for row in rows:
            assert 0.0 <= float(row["rate_total"]) <= 1.0
            assert 0.0 <= float(row["rate_screenable"]) <= 1.0
            counts = (int(row["n_screened_L"]) + int(row["n_screened_R"])
                      + int(row["n_unknown"]))
            assert counts == counts  # schema sanity; total asserted below
        summary = read_rows(out / "summary.csv")
        assert summary and summary[0]["step"] == "0"

    def test_bound_none_gives_zero_rates(self, tmp_path):
        path = write_dataset(tmp_path, seed=1)
        out = tmp_path / "results"
        cfg = RunConfig(data=str(path), k=2, trials=1, seed=3, bound="none",
                        out=str(out))
        assert run(cfg) == 0
        for row in read_rows(out / "per_lambda.csv"):
            assert float(row["rate_total"]) == 0.0
            assert int(row["range_hits"]) == 0

    def test_same_seed_reproduces_screened_counts(self, tmp_path):
        path = write_dataset(tmp_path, seed=2)
        cfg_kwargs = dict(data=str(path), k=2, trials=2, seed=11,
                          bound="relaxed-path", rule="sphere")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(RunConfig(out=str(out_a), **cfg_kwargs)) == 0
        assert run(RunConfig(out=str(out_b), **cfg_kwargs)) == 0
        rows_a = read_rows(out_a / "per_lambda.csv")
        rows_b = read_rows(out_b / "per_lambda.csv")
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            assert ra["lambda"] == rb["lambda"]
            assert ra["n_screened_L"] == rb["n_screened_L"]
            assert ra["n_screened_R"] == rb["n_screened_R"]

    def test_triplet_count_matches_segment_shape(self):
        # a dataset shaped like a 2310-sample, 7-class corpus at a 90%
        # subsample with k=20 lands near 832k triplets
        rng = np.random.default_rng(0)
        n = 2310
        labels = np.arange(n) % 7
        feats = rng.normal(size=(n, 2)) + 4.0 * labels[:, None]
        data = Dataset(feats, labels)
        sub = subsample(data, 0.9, seed=0)
        ts = build_triplets(sub, k=20)
        assert abs(len(ts) - 832_000) <= 0.02 * 832_000

    def test_config_file_and_flags(self, tmp_path):
        path = write_dataset(tmp_path, seed=3)
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"data = {path}\nk = 2\ntrials = 1\nbound = relaxed-path\n"
            "range-screening = true\n# comment line\nseed = 5\n")
        parser = build_parser()
        args = parser.parse_args(["--config", str(conf),
                                  "--out", str(tmp_path / "o")])
        cfg = config_from_args(args)
        assert cfg.k == 2 and cfg.trials == 1 and cfg.range_screening
        assert cfg.seed == 5

    def test_flag_overrides_config_file(self, tmp_path):
        path = write_dataset(tmp_path, seed=4)
        conf = tmp_path / "run.conf"
        conf.write_text(f"data = {path}\nk = 2\nseed = 5\n")
        args = build_parser().parse_args(["--config", str(conf), "--seed", "9"])
        assert config_from_args(args).seed == 9

    def test_missing_data_is_usage_error(self):
        assert main(["--k", "3"]) == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("data = x.csv\ngamam = 0.1\n")
        assert main(["--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert f"error: {conf}:2: unknown key 'gamam'" in err

    @pytest.mark.parametrize("flag", ["--gap-tol", "--screen-every",
                                      "--stop-threshold"])
    def test_zero_solver_setting_is_usage_error(self, tmp_path, flag):
        out = tmp_path / "out"
        assert main(["--data", "x.csv", flag, "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(data="x", k=0)
        with pytest.raises(ValueError):
            RunConfig(data="x", decay=1.0)
        with pytest.raises(ValueError):
            RunConfig(data="x", bound="bogus")

    def test_unknown_counts_consistent(self, tmp_path):
        path = write_dataset(tmp_path, seed=6)
        out = tmp_path / "results"
        cfg = RunConfig(data=str(path), k=2, trials=1, seed=0,
                        bound="relaxed-path", rule="sphere", out=str(out))
        assert run(cfg) == 0
        rows = read_rows(out / "per_lambda.csv")
        totals = {int(r["n_screened_L"]) + int(r["n_screened_R"])
                  + int(r["n_unknown"]) for r in rows}
        assert len(totals) == 1  # every row sums to the triplet count

    def test_converged_column(self, tmp_path):
        path = write_dataset(tmp_path)
        easy = tmp_path / "easy"
        assert run(RunConfig(data=str(path), k=2, trials=1, seed=0,
                             out=str(easy))) == 0
        assert {r["converged"] for r in read_rows(easy / "per_lambda.csv")} \
            == {"1"}
        summary = read_rows(easy / "summary.csv")
        assert {float(r["mean_converged"]) for r in summary} == {1.0}

        # Three iterations leave the solves below lambda_max short of
        # gap_tol; the column reads 0 there and follows the gap everywhere.
        capped = tmp_path / "capped"
        assert run(RunConfig(data=str(path), k=2, trials=1, seed=0,
                             max_iter=3, out=str(capped))) == 0
        rows = read_rows(capped / "per_lambda.csv")
        assert sum(r["converged"] == "0" for r in rows) >= len(rows) - 1
        for r in rows:
            assert r["converged"] == ("1" if float(r["gap"]) <= 1e-6 else "0")

    def test_main_end_to_end(self, tmp_path, capsys):
        path = write_dataset(tmp_path, seed=7)
        out = tmp_path / "res"
        code = main(["--data", str(path), "--k", "2", "--trials", "1",
                     "--seed", "0", "--bound", "relaxed-path",
                     "--out", str(out)])
        assert code == 0
        assert (out / "per_lambda.csv").exists()
        assert (out / "summary.csv").exists()
