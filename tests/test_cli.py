"""Command-line surface: flags, outputs, exit codes, determinism."""

import pytest

from lookupvnet import cli, data, gradcore
from lookupvnet.trainer import read_checkpoint, write_checkpoint


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def train_args(out_dir, *extra):
    return [
        "train", "--dataset", "synthetic:separable", "--classes", "2",
        "--per-class", "16", "--image-size", "8", "--filters", "8",
        "--epochs", "3", "--batch-size", "8", "--no-augment",
        "--seed", "1", "--out", str(out_dir), *extra,
    ]


class TestTrain:
    def test_single_writes_outputs_and_prints_accuracy(self, tmp_path, capsys):
        code, out, _ = run(capsys, *train_args(tmp_path / "run"))
        assert code == 0
        assert "final test accuracy:" in out
        assert (tmp_path / "run" / "checkpoint.lvnc").exists()
        csv = (tmp_path / "run" / "metrics.csv").read_text()
        assert csv.startswith("epoch,split,loss,accuracy,seconds")

    def test_separable_set_trains_to_high_accuracy(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            *train_args(tmp_path / "run", "--per-class", "48", "--epochs", "25", "--lr", "0.05"),
        )
        assert code == 0
        acc = float(out.strip().rsplit(" ", 1)[-1])
        assert acc >= 0.95

    def test_baseline_checkpoint_has_no_table_sections(self, tmp_path, capsys):
        code, _, _ = run(capsys, *train_args(tmp_path / "run", "--baseline"))
        assert code == 0
        sections = read_checkpoint(tmp_path / "run" / "checkpoint.lvnc")
        assert not any(name.startswith("tables/") for name in sections)

    def test_rate_256_accuracy_is_majority_class_frequency(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            *train_args(tmp_path / "run", "--table", "compressed", "--cmp-rate", "256"),
        )
        assert code == 0
        acc = float(out.strip().rsplit(" ", 1)[-1])
        assert acc == 0.5  # balanced 2-class test set, constant prediction

    def test_eval_reproduces_reported_accuracy_exactly(self, tmp_path, capsys):
        code, train_out, _ = run(capsys, *train_args(tmp_path / "run"))
        assert code == 0
        code, eval_out, _ = run(
            capsys, "eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.lvnc"),
            "--dataset", "synthetic:separable", "--classes", "2",
            "--per-class", "16", "--image-size", "8",
        )
        assert code == 0
        assert train_out.strip().splitlines()[-1] == eval_out.strip()

    def test_truncated_checkpoint_exits_2_naming_the_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, *train_args(tmp_path / "run", "--epochs", "1"))
        assert code == 0
        path = tmp_path / "run" / "checkpoint.lvnc"
        path.write_bytes(path.read_bytes()[:-3])
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(path), "--dataset", "synthetic:separable",
            "--classes", "2", "--per-class", "16", "--image-size", "8",
        )
        assert code == 2
        assert str(path) in err and "truncated" in err

    def test_huge_learning_rate_exits_2_naming_the_epoch(self, tmp_path, capsys):
        # every train loss stays finite; epoch 1's test loss is nan
        code, out, err = run(
            capsys, "train", "--classes", "2", "--per-class", "16", "--image-size", "8",
            "--filters", "8", "--epochs", "2", "--lr", "1e30", "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert "final test accuracy" not in out
        assert "test loss nan after epoch 1" in err

    def test_missing_checkpoint_section_exits_2_naming_it(self, tmp_path, capsys):
        code, _, _ = run(capsys, *train_args(tmp_path / "run", "--epochs", "1"))
        assert code == 0
        path = tmp_path / "run" / "checkpoint.lvnc"
        sections = read_checkpoint(path)
        # a cut at a section boundary still parses as a whole, shorter file
        write_checkpoint(path, {k: sections[k] for k in ("meta/model", "meta/stage", "model/conv0.w")})
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(path), "--dataset", "synthetic:separable",
            "--classes", "2", "--per-class", "16", "--image-size", "8",
        )
        assert code == 2
        assert "'model/hidden.w'" in err

    @pytest.mark.parametrize(
        "extra,section,keep,need",
        [((), "meta/model", 5, 8), ((), "meta/model", 11, 12), ((), "meta/stage", 1, 2),
         (("--baseline",), "meta/stage", 2, 3)],
        ids=["model-5", "model-11", "table-stage-1", "baseline-stage-2"],
    )
    def test_short_meta_section_exits_2_naming_it(self, tmp_path, capsys, extra, section, keep, need):
        code, _, _ = run(capsys, *train_args(tmp_path / "run", "--epochs", "1", *extra))
        assert code == 0
        path = tmp_path / "run" / "checkpoint.lvnc"
        sections = read_checkpoint(path)
        sections[section] = sections[section][:keep]
        write_checkpoint(path, sections)
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(path), "--dataset", "synthetic:separable",
            "--classes", "2", "--per-class", "16", "--image-size", "8",
        )
        assert code == 2
        assert f"'{section}' holds {keep} values but needs {need}" in err

    @pytest.mark.parametrize("section,index", [("meta/model", 0), ("meta/stage", 1)])
    def test_non_finite_meta_value_exits_2_naming_it(self, tmp_path, capsys, section, index):
        code, _, _ = run(capsys, *train_args(tmp_path / "run", "--epochs", "1"))
        assert code == 0
        path = tmp_path / "run" / "checkpoint.lvnc"
        sections = read_checkpoint(path)
        sections[section][index] = float("inf")
        write_checkpoint(path, sections)
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(path), "--dataset", "synthetic:separable",
            "--classes", "2", "--per-class", "16", "--image-size", "8",
        )
        assert code == 2
        assert f"'{section}' value {index} is inf" in err

    def test_identical_seeds_give_identical_checkpoints(self, tmp_path, capsys):
        run(capsys, *train_args(tmp_path / "a"))
        run(capsys, *train_args(tmp_path / "b"))
        assert (tmp_path / "a" / "checkpoint.lvnc").read_bytes() == (
            tmp_path / "b" / "checkpoint.lvnc"
        ).read_bytes()

    def test_cross_network_writes_two_checkpoints(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, *train_args(tmp_path / "run", "--strategy", "cross-network", "--epochs", "2")
        )
        assert code == 0
        assert (tmp_path / "run" / "checkpoint_f.lvnc").exists()
        assert (tmp_path / "run" / "checkpoint_g.lvnc").exists()
        assert "final test accuracy (g):" in out

    def test_cross_task_needs_dataset2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, *train_args(tmp_path / "run", "--strategy", "cross-task")
        )
        assert code == 2
        assert "dataset2" in err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epochs=2\nlr=0.01\n# comment\nimage-size=8\n")
        code, out, _ = run(
            capsys, "train", "--config", str(config), "--dataset", "synthetic:separable",
            "--classes", "2", "--per-class", "8", "--filters", "8", "--no-augment",
            "--epochs", "1", "--out", str(tmp_path / "run"),
        )
        assert code == 0
        csv = (tmp_path / "run" / "metrics.csv").read_text()
        # explicit --epochs 1 beats config epochs=2
        assert csv.count("\ntrain,".join([""])) or len(csv.strip().splitlines()) == 3

    def test_unknown_key_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("lerning_rate=0.1\n")
        code, _, err = run(
            capsys, "train", "--config", str(config), "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert "lerning_rate" in err

    def test_bad_value_reports_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("epochs=three\n")
        code, _, err = run(
            capsys, "train", "--config", str(config), "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert "epochs" in err


class TestGradcheck:
    def test_full_tables_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--table", "full", "--dim", "2")
        assert code == 0
        assert "PASS" in out

    def test_compressed_tables_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--table", "compressed", "--cmp-rate", "16")
        assert code == 0
        assert "PASS" in out

    def test_corrupted_backward_fails(self, capsys, monkeypatch):
        true_relu = gradcore.relu

        def broken_relu(x):
            out = true_relu(x)
            mask = x.data > 0
            out.vjp = lambda g: (g * mask * 1.01,)  # deliberately wrong scale
            return out

        monkeypatch.setattr("lookupvnet.network.gradcore.relu", broken_relu)
        code, out, _ = run(capsys, "gradcheck", "--table", "full", "--dim", "1")
        assert code == 1
        assert "FAIL" in out


class TestCost:
    def test_u1_prints_768(self, capsys):
        code, out, _ = run(capsys, "cost", "--u", "1", "--k", "3", "--j", "16")
        assert code == 0
        assert "extra-parameters: 768" in out

    def test_cmp_rate_16_prints_12_bits(self, capsys):
        code, out, _ = run(capsys, "cost", "--cmp-rate", "16")
        assert code == 0
        assert "bits-per-pixel:   12" in out

    def test_pinned_flop_example(self, capsys):
        code, out, _ = run(
            capsys, "cost", "--u", "2", "--m", "32", "--n", "32", "--s", "1", "--k", "3", "--j", "16"
        )
        assert code == 0
        assert "887808" in out

    def test_needs_u_or_rate(self, capsys):
        code, _, err = run(capsys, "cost")
        assert code == 2
        assert "--u or --cmp-rate" in err


class TestRecode:
    def test_writes_ppm_pairs(self, tmp_path, capsys):
        run(capsys, *train_args(tmp_path / "run"))
        code, out, _ = run(
            capsys, "recode", "--checkpoint", str(tmp_path / "run" / "checkpoint.lvnc"),
            "--dataset", "synthetic:separable", "--classes", "2", "--per-class", "8",
            "--image-size", "8", "--count", "3", "--out", str(tmp_path / "imgs"),
        )
        assert code == 0
        for i in range(3):
            assert (tmp_path / "imgs" / f"original_{i:03d}.ppm").exists()
            assert (tmp_path / "imgs" / f"recoded_{i:03d}.ppm").exists()

    def test_baseline_checkpoint_rejected(self, tmp_path, capsys):
        run(capsys, *train_args(tmp_path / "run", "--baseline"))
        code, _, err = run(
            capsys, "recode", "--checkpoint", str(tmp_path / "run" / "checkpoint.lvnc"),
            "--dataset", "synthetic:separable", "--out", str(tmp_path / "imgs"),
        )
        assert code == 2
        assert "table" in err


class TestDatasetSpecs:
    def test_unknown_spec_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, *train_args(tmp_path / "run")[:-2] + ["--dataset", "mnist"])
        assert code == 2

    def test_cifar_spec_without_path_or_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.DATA_ENV, raising=False)
        code, _, err = run(capsys, *train_args(tmp_path / "run", "--dataset", "cifar10"))
        assert code == 2
        assert cli.DATA_ENV in err

    def test_cifar_file_spec_loads(self, tmp_path, capsys):
        from tests.test_data import write_fake_cifar

        path = tmp_path / "batch.bin"
        write_fake_cifar(path, 60, seed=3)
        code, out, _ = run(
            capsys, "train", "--dataset", f"cifar10:{path}", "--epochs", "1",
            "--filters", "8", "--batch-size", "16", "--no-augment",
            "--out", str(tmp_path / "run"),
        )
        assert code == 0
        assert "final test accuracy:" in out

    def test_env_var_supplies_cifar_directory(self, tmp_path, capsys, monkeypatch):
        from tests.test_data import write_fake_cifar

        for i in range(1, 6):
            write_fake_cifar(tmp_path / f"data_batch_{i}.bin", 20, seed=i)
        write_fake_cifar(tmp_path / "test_batch.bin", 20, seed=9)
        monkeypatch.setenv(cli.DATA_ENV, str(tmp_path))
        code, out, _ = run(
            capsys, "train", "--dataset", "cifar10", "--epochs", "1",
            "--filters", "8", "--batch-size", "32", "--no-augment",
            "--out", str(tmp_path / "run"),
        )
        assert code == 0
        assert "final test accuracy:" in out

    def test_file_spec_with_missing_meta_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "set.bin"
        data.save_image_set(data.make_synthetic("separable", 4, 2, 8, 8, seed=0), path)
        meta = tmp_path / "set.bin.meta"
        meta.write_text(meta.read_text().replace("height=8\n", ""))
        code, _, err = run(
            capsys, "train", "--dataset", f"file:{path}", "--epochs", "1",
            "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert str(meta) in err and "'height'" in err

    @pytest.mark.parametrize("defect", ["no-sidecar", "label-beyond-classes"])
    def test_file_spec_with_bad_set_exits_2_naming_the_file(self, tmp_path, capsys, defect):
        path = tmp_path / "set.bin"
        data.save_image_set(data.make_synthetic("separable", 4, 2, 8, 8, seed=0), path)
        meta = tmp_path / "set.bin.meta"
        if defect == "no-sidecar":
            meta.unlink()
        else:
            meta.write_text(meta.read_text().replace("classes=2", "classes=1"))
        code, _, err = run(
            capsys, "train", "--dataset", f"file:{path}", "--epochs", "1",
            "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert str(meta if defect == "no-sidecar" else path) in err

    def test_file_spec_without_records_exits_2_naming_them(self, tmp_path, capsys):
        path = tmp_path / "set.bin"
        data.save_image_set(data.make_synthetic("separable", 4, 2, 8, 8, seed=0), path)
        path.unlink()
        code, _, err = run(
            capsys, "train", "--dataset", f"file:{path}", "--epochs", "1",
            "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert str(path) in err and "missing" in err
