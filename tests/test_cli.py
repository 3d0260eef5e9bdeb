import json
import struct

import numpy as np
import pytest

from tquant import actquant, cli, metrics, tasks
from tquant import ternarize as tz
from tquant.model import (ModelConfig, build_leaves, forward, init_params,
                          load_checkpoint, params_from_loaded, plan_from_notation,
                          save_checkpoint, to_saved_tensors)
from tquant.packed import ManifestError, SavedTensor, load_model, save_model

CFG = ModelConfig(layers=1, hidden=16, heads=2, ffn=32, vocab=8,
                  max_positions=16, classes=4)


def write_float_checkpoint(path, seed=0, config=CFG):
    params = init_params(config, np.random.default_rng(seed))
    save_model(str(path), config.to_dict(), to_saved_tensors(params, None),
               extras={"seed": seed})
    return params


# a 1-layer d16 run of one epoch, 64 examples, on a teacher trained one epoch
D16_RUN = ["--epochs", 1, "--teacher-epochs", 1, "--train-n", 64, "--eval-n", 32,
           "--layers", 1, "--hidden", 16, "--ffn", 32, "--seq-len", 8]


# each command record's keys, in the order its JSONL file holds them
RECORD_KEYS = {
    "size_report": ["kind", "categories", "total_bits", "total_mb", "fp32_mb",
                    "compression_ratio", "seed", "plan"],
    "eval": ["kind", "model", "data", "n", "accuracy", "seed"],
    "histogram": ["kind", "bins", "lo", "hi", "counts", "total", "tensor", "seed"],
    "gemm_bench": ["kind", "m", "n", "k", "repetitions", "ternary_ns_per_op",
                   "float_ns_per_op", "bytes_touched", "seed"],
    "ablation": ["kind", "config", "seed", "plan", "eval_acc", "teacher_acc"],
}
SIZE_CATEGORY_KEYS = ["name", "elements", "bits"]


def assert_record_keys(kind, records):
    """Every record is a ``kind`` record with that kind's keys, in order."""
    assert records
    for rec in records:
        assert list(rec) == RECORD_KEYS[kind] and rec["kind"] == kind
        for c in rec.get("categories", []):
            assert list(c) == SIZE_CATEGORY_KEYS


def run(argv):
    return cli.main([str(a) for a in argv])


class TestQuantizeCommand:
    def test_2_2_8_reports_compression_over_10x(self, tmp_path, capsys):
        ckpt = tmp_path / "in.tqm"
        # weight-dominated micro model, so the 2-bit plan shows its effect
        big = ModelConfig(layers=2, hidden=64, heads=4, ffn=256, vocab=64,
                          max_positions=16, classes=4)
        write_float_checkpoint(ckpt, config=big)
        assert run(["quantize", ckpt, "--plan", "2-2-8", "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        reports = metrics.read_records(tmp_path / "reports.jsonl")
        assert_record_keys("size_report", reports)
        assert reports[0]["compression_ratio"] > 10
        assert reports[0]["seed"] == 0

    def test_noop_plan_round_trips_tensors(self, tmp_path):
        ckpt = tmp_path / "in.tqm"
        params = write_float_checkpoint(ckpt)
        assert run(["quantize", ckpt, "--plan", "32-32-32", "--out", tmp_path]) == 0
        loaded = load_model(str(tmp_path / "quantized.tqm"))
        got, _ = params_from_loaded(loaded.tensors, CFG)
        for name, arr in params.items():
            np.testing.assert_array_equal(got[name], arr)

    def test_invalid_plan_rejected_with_config_exit_code(self, tmp_path):
        ckpt = tmp_path / "in.tqm"
        write_float_checkpoint(ckpt)
        assert run(["quantize", ckpt, "--plan", "2-2-2", "--out", tmp_path]) == \
            cli.EXIT_CONFIG

    def test_8bit_row_granularity_rejected(self, tmp_path):
        ckpt = tmp_path / "in.tqm"
        write_float_checkpoint(ckpt)
        code = run(["quantize", ckpt, "--plan", "8-8-8", "--w-gran", "row",
                    "--out", tmp_path])
        assert code == cli.EXIT_CONFIG

    def test_8bit_plan_with_default_granularity_is_layer_wise(self, tmp_path):
        ckpt = tmp_path / "in.tqm"
        write_float_checkpoint(ckpt)
        assert run(["quantize", ckpt, "--plan", "8-8-8", "--out", tmp_path]) == 0
        loaded = load_model(str(tmp_path / "quantized.tqm"))
        assert {t.granularity for t in loaded.tensors.values()
                if t.bits == 8} == {"layer"}

    def test_missing_input_is_io_error(self, tmp_path):
        assert run(["quantize", tmp_path / "nope.tqm", "--out", tmp_path]) == \
            cli.EXIT_IO


class TestTrainCommand:
    def test_zero_epochs_emits_initialization(self, tmp_path):
        code = run(["train", "--task", "majority", "--epochs", 0,
                    "--teacher-epochs", 1, "--train-n", 32, "--eval-n", 16,
                    "--layers", 1, "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--out", tmp_path, "--seed", 1])
        assert code == 0
        student = load_model(str(tmp_path / "student.tqm"))
        teacher = load_model(str(tmp_path / "teacher.tqm"))
        config = ModelConfig.from_dict(student.config)
        s_params, qinfo = params_from_loaded(student.tensors, config)
        t_params, _ = params_from_loaded(teacher.tensors, config)
        # student is the ternarized teacher
        from tquant.model import quantize_param
        q = quantize_param("layer0.wq", t_params["layer0.wq"],
                           cli._plan_from_args(type("A", (), {
                               "plan": "2-2-8", "method": "twn",
                               "w_gran": "layer", "e_gran": "row",
                               "act": "minmax"})))
        np.testing.assert_array_equal(qinfo["layer0.wq"].codes, q.codes)

    @pytest.mark.parametrize("argv", [
        ["train", "--stages", 2, "--ablation", "no-trm"],
        ["train", "--stages", 2, "--ablation", "no-trm-no-logits"],
        ["train", "--seq-len", 1],
        ["train", "--task", "parity", "--vocab", 1],
        ["ablate", "--task", "parity", "--vocab", 1],
        ["ablate", "--seq-len", 1]])
    def test_bad_schedule_or_task_writes_nothing(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([*argv, "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--batch", 0), ("train", "--train-n", 0), ("train", "--eval-n", 0),
        ("train", "--epochs", -1), ("train", "--teacher-epochs", -1),
        ("train", "--eval-every", -1), ("train", "--checkpoint-every", -1),
        ("ablate", "--batch", 0), ("ablate", "--train-n", 0), ("ablate", "--epochs", -1),
        ("bench", "--reps", -1), ("bench", "--m", 0), ("bench", "--n", 0),
        ("bench", "--k", 0), ("inspect", "--bins", 1),
        ("train", "--seed", -1), ("ablate", "--seed", -1), ("bench", "--seed", -1),
        ("train", "--seq-len", 0), ("ablate", "--seq-len", 0), ("size", "--seq-len", 0)])
    def test_count_below_its_bound_exits_2_writing_nothing(self, command, flag, value,
                                                          tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([command, flag, value, "--out", out])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"must be at least {value + 1}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--lr", "nan"), ("train", "--lr", "inf"), ("train", "--lr", -1),
        ("train", "--lr", "fast"), ("train", "--teacher-lr", -1),
        ("train", "--teacher-lr", "nan"), ("ablate", "--lr", -0.5),
        ("ablate", "--teacher-lr", "inf")])
    def test_rate_not_finite_or_below_0_exits_2_writing_nothing(
            self, command, flag, value, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([command, *D16_RUN, flag, value, "--out", out])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"{flag}: must be a finite number >= 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_rate_is_accepted(self):
        args = cli.build_parser().parse_args(["train", "--lr", "0", "--teacher-lr", "0"])
        assert (args.lr, args.teacher_lr) == (0.0, 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")    # the overflow is the point
    def test_diverging_student_exits_4(self, tmp_path, capsys):
        code = run(["train", "--lr", 1e30, "--epochs", 1, "--teacher-epochs", 1,
                    "--train-n", 64, "--eval-n", 32, "--layers", 1, "--hidden", 16,
                    "--ffn", 32, "--seq-len", 8, "--out", tmp_path])
        assert code == cli.EXIT_NUMERIC == 4
        assert "numerical abort: non-finite loss" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")    # the overflow is the point
    def test_abort_numbers_the_step_as_the_records_do(self, tmp_path, capsys):
        # step 1 ends with a finite record; step 2 is the one that fails
        assert run(["train", *D16_RUN, "--lr", 1e30, "--seed", 7,
                    "--out", tmp_path]) == cli.EXIT_NUMERIC
        assert [r["step"] for r in metrics.read_records(tmp_path / "metrics.jsonl")] == [1]
        assert "non-finite loss at step 2;" in capsys.readouterr().err

    def test_8bit_plan_with_default_granularity_trains(self, tmp_path):
        code = run(["train", "--plan", "8-8-8", "--task", "majority", "--epochs", 1,
                    "--teacher-epochs", 1, "--train-n", 16, "--eval-n", 8,
                    "--layers", 1, "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--out", tmp_path, "--seed", 3])
        assert code == 0

    def test_metrics_file_nonempty_with_monotone_steps(self, tmp_path):
        code = run(["train", "--task", "majority", "--epochs", 2,
                    "--teacher-epochs", 2, "--train-n", 64, "--eval-n", 32,
                    "--layers", 1, "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--out", tmp_path, "--seed", 2])
        assert code == 0
        records = metrics.read_records(tmp_path / "metrics.jsonl")
        assert records
        steps = [r["step"] for r in records]
        assert steps == sorted(steps)
        assert all(r["seed"] == 2 for r in records)
        assert all("weight_delta" in r for r in records)
        assert all("stage" in r and "lr" in r for r in records)

    def test_train_is_deterministic_under_fixed_seed(self, tmp_path, capsys):
        results = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["train", "--task", "majority", "--epochs", 2,
                        "--teacher-epochs", 2, "--train-n", 64, "--eval-n", 32,
                        "--layers", 1, "--hidden", 16, "--ffn", 32,
                        "--seq-len", 8, "--out", out, "--seed", 11]) == 0
            results.append(json.loads(
                capsys.readouterr().out.strip().splitlines()[-1]))
        assert results[0] == results[1]
        a = metrics.read_records(tmp_path / "a" / "metrics.jsonl")
        b = metrics.read_records(tmp_path / "b" / "metrics.jsonl")
        assert a == b

    def test_second_run_replaces_the_metrics_file(self, tmp_path):
        # one --out, two seeds: the file holds the second run's steps only
        for seed in (0, 1):
            assert run(["train", "--task", "majority", "--epochs", 1,
                        "--teacher-epochs", 1, "--train-n", 16, "--eval-n", 8,
                        "--batch", 8, "--layers", 1, "--hidden", 8, "--ffn", 16,
                        "--seq-len", 4, "--out", tmp_path, "--seed", seed]) == 0
        records = metrics.read_records(tmp_path / "metrics.jsonl")
        assert [(r["step"], r["seed"]) for r in records] == [(1, 1), (2, 1)]

    def test_mismatched_teacher_checkpoint_is_config_error(self, tmp_path):
        other = ModelConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=8,
                            max_positions=16, classes=4)
        write_float_checkpoint(tmp_path / "teacher.tqm", config=other)
        code = run(["train", "--task", "majority", "--epochs", 1,
                    "--teacher", tmp_path / "teacher.tqm",
                    "--train-n", 32, "--eval-n", 16, "--layers", 1,
                    "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--out", tmp_path])
        assert code == cli.EXIT_CONFIG

    def test_teacher_file_gives_the_in_process_student(self, tmp_path):
        args = ["train", "--task", "majority", "--epochs", 1, "--teacher-epochs", 1,
                "--train-n", 32, "--eval-n", 16, "--layers", 1, "--hidden", 16,
                "--ffn", 32, "--seq-len", 8, "--seed", 2]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run(args + ["--teacher", tmp_path / "a" / "teacher.tqm",
                           "--out", tmp_path / "b"]) == 0
        assert (tmp_path / "b" / "student.tqm").read_bytes() == \
            (tmp_path / "a" / "student.tqm").read_bytes()
        # same tensor shapes, different attention scale: still another model
        other = ModelConfig(layers=1, hidden=16, heads=2, ffn=32, vocab=8,
                            max_positions=8, classes=4, attn_scale="sqrt_dh")
        write_float_checkpoint(tmp_path / "other.tqm", config=other)
        assert run(args + ["--teacher", tmp_path / "other.tqm",
                           "--out", tmp_path / "c"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("plan", ["2-2-8", "32-32-8", "8-32-32"])
    def test_quantized_teacher_file_is_config_error(self, tmp_path, capsys, plan):
        args = ["train", "--task", "majority", "--epochs", 1, "--teacher-epochs", 1,
                "--train-n", 32, "--eval-n", 16, "--layers", 1, "--hidden", 16,
                "--ffn", 32, "--seq-len", 8]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run(["quantize", tmp_path / "a" / "teacher.tqm", "--plan", plan,
                    "--out", tmp_path / "q"]) == 0
        capsys.readouterr()
        for quantized, notation in ((tmp_path / "q" / "quantized.tqm", plan),
                                    (tmp_path / "a" / "student.tqm", "2-2-8")):
            assert run(args + ["--teacher", quantized, "--out", tmp_path / "b"]) == \
                cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"plan {notation};" in err and "full-precision teacher" in err
        assert not (tmp_path / "b" / "student.tqm").exists()
        # a file whose recorded plan quantizes nothing is a teacher
        assert run(["quantize", tmp_path / "a" / "teacher.tqm", "--plan", "32-32-32",
                    "--out", tmp_path / "f"]) == 0
        assert run(args + ["--teacher", tmp_path / "f" / "quantized.tqm",
                           "--out", tmp_path / "b"]) == 0

    def test_quantized_teacher_without_a_plan_is_io_error(self, tmp_path, capsys):
        # a file without a plan holds fp32 tensors only: the reader refuses it
        params = init_params(CFG, np.random.default_rng(0))
        save_model(str(tmp_path / "t.tqm"), CFG.to_dict(),
                   to_saved_tensors(params, plan_from_notation("2-2-8")))
        assert run(["train", "--task", "majority", "--epochs", 1, "--train-n", 32,
                    "--eval-n", 16, "--layers", 1, "--hidden", 16, "--ffn", 32,
                    "--seq-len", 16, "--teacher", tmp_path / "t.tqm",
                    "--out", tmp_path / "b"]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "io error: emb.word" in err
        assert not (tmp_path / "b" / "student.tqm").exists()

    def test_refused_teacher_leaves_nothing_written(self, tmp_path):
        args = ["train", "--task", "majority", "--epochs", 1, "--teacher-epochs", 1,
                "--train-n", 32, "--eval-n", 16, "--layers", 1, "--hidden", 16,
                "--ffn", 32, "--seq-len", 8]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run(["quantize", tmp_path / "a" / "teacher.tqm", "--plan", "2-2-8",
                    "--out", tmp_path / "q"]) == 0
        other = ModelConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=8,
                            max_positions=16, classes=4)
        write_float_checkpoint(tmp_path / "other.tqm", config=other)
        for teacher, code in ((tmp_path / "missing.tqm", cli.EXIT_IO),
                              (tmp_path / "other.tqm", cli.EXIT_CONFIG),
                              (tmp_path / "q" / "quantized.tqm", cli.EXIT_CONFIG)):
            out = tmp_path / f"out-{teacher.stem}"
            assert run(args + ["--teacher", teacher, "--out", out]) == code
            assert not (out / "train_data.jsonl").exists(), teacher
            assert not (out / "eval_data.jsonl").exists(), teacher

    def test_laq3_needs_a_3bit_width(self, tmp_path):
        args = ["train", "--task", "majority", "--epochs", 0, "--teacher-epochs", 0,
                "--train-n", 8, "--eval-n", 8, "--layers", 1, "--hidden", 16,
                "--ffn", 32, "--seq-len", 8, "--method", "laq3", "--out", tmp_path]
        assert run(args + ["--plan", "2-2-8"]) == cli.EXIT_CONFIG
        assert not (tmp_path / "student.tqm").exists()
        assert run(args + ["--plan", "3-3-8"]) == cli.EXIT_OK
        plan = load_model(str(tmp_path / "student.tqm")).extras["plan"]
        assert (plan["w_method"], plan["e_method"]) == ("laq3", "laq3")

    def test_step_checkpoint_records_the_plan(self, tmp_path, capsys):
        # 64 examples in batches of 32 for one epoch: the step file of step
        # 2 holds the same weights as student.tqm
        assert run(["train", "--task", "majority", "--epochs", 1,
                    "--teacher-epochs", 1, "--train-n", 64, "--eval-n", 32,
                    "--layers", 1, "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--act", "sym", "--checkpoint-every", 2, "--out", tmp_path,
                    "--seed", 4]) == 0
        step = tmp_path / "checkpoints" / "step000002.tqm"
        student = tmp_path / "student.tqm"
        assert load_checkpoint(step).plan is not None
        assert load_checkpoint(step).plan == load_checkpoint(student).plan
        capsys.readouterr()
        accs = []
        for path in (step, student):
            assert run(["eval", path, tmp_path / "eval_data.jsonl",
                        "--out", tmp_path]) == 0
            accs.append(json.loads(capsys.readouterr().out)["accuracy"])
        assert accs[0] == accs[1]

    def test_periodic_checkpoints_written(self, tmp_path):
        # 64 examples in batches of 32 for two epochs: steps 1..4
        assert run(["train", "--epochs", 2, "--teacher-epochs", 1, "--train-n", 64,
                    "--eval-n", 32, "--layers", 1, "--hidden", 16, "--ffn", 32,
                    "--seq-len", 8, "--checkpoint-every", 2, "--out", tmp_path,
                    "--seed", 9]) == 0
        files = sorted((tmp_path / "checkpoints").iterdir())
        assert [f.name for f in files] == ["step000002.tqm", "step000004.tqm"]
        assert [(e["step"], e["seed"]) for e in
                (load_model(str(f)).extras for f in files)] == [(2, 9), (4, 9)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")    # the overflow is the point
    def test_aborted_run_keeps_its_finished_steps(self, tmp_path):
        # step 1 ends; step 2 meets the overflow of step 1's update
        assert run(["train", *D16_RUN, "--lr", 1e30, "--seed", 7,
                    "--out", tmp_path]) == cli.EXIT_NUMERIC
        records = metrics.read_records(tmp_path / "metrics.jsonl")
        assert [(r["step"], r["seed"]) for r in records] == [(1, 7)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborted_run_leaves_no_earlier_outputs(self, tmp_path):
        assert run(["train", *D16_RUN, "--seed", 0, "--out", tmp_path]) == 0
        assert run(["train", *D16_RUN, "--lr", 1e30, "--seed", 7,
                    "--out", tmp_path]) == cli.EXIT_NUMERIC
        records = metrics.read_records(tmp_path / "metrics.jsonl")
        assert [(r["step"], r["seed"]) for r in records] == [(1, 7)]
        assert not (tmp_path / "student.tqm").exists()
        assert load_model(str(tmp_path / "teacher.tqm")).extras["seed"] == 7

    def test_checkpoints_are_the_last_runs_only(self, tmp_path):
        args = ["train", *D16_RUN, "--batch", 16, "--checkpoint-every", 2,
                "--out", tmp_path]
        assert run(args + ["--epochs", 2, "--seed", 0]) == 0
        assert run(args + ["--seed", 5]) == 0
        files = sorted((tmp_path / "checkpoints").iterdir())
        assert [f.name for f in files] == ["step000002.tqm", "step000004.tqm"]
        assert {load_model(str(f)).extras["seed"] for f in files} == {5}
        # the --teacher file stays, though it is an earlier run's output
        teacher = (tmp_path / "teacher.tqm").read_bytes()
        assert run(args + ["--seed", 5, "--teacher", tmp_path / "teacher.tqm"]) == 0
        assert (tmp_path / "teacher.tqm").read_bytes() == teacher

    def test_ablation_flag_controls_losses(self, tmp_path):
        code = run(["train", "--task", "majority", "--epochs", 1,
                    "--teacher-epochs", 1, "--train-n", 32, "--eval-n", 16,
                    "--layers", 1, "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--ablation", "no-trm-no-logits", "--out", tmp_path])
        assert code == 0
        records = metrics.read_records(tmp_path / "metrics.jsonl")
        assert all(r["loss_trm"] is None for r in records)


class TestEvalCommand:
    def _train_quick(self, tmp_path, seed=3):
        assert run(["train", "--task", "majority", "--epochs", 1,
                    "--teacher-epochs", 4, "--train-n", 64, "--eval-n", 32,
                    "--layers", 1, "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--out", tmp_path, "--seed", seed]) == 0

    def test_teacher_reproduces_stored_accuracy(self, tmp_path, capsys):
        self._train_quick(tmp_path)
        teacher = load_model(str(tmp_path / "teacher.tqm"))
        stored = teacher.extras["eval_acc"]
        assert run(["eval", tmp_path / "teacher.tqm",
                    tmp_path / "eval_data.jsonl", "--out", tmp_path]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["accuracy"] == stored

    def test_eval_deterministic(self, tmp_path, capsys):
        self._train_quick(tmp_path)
        accs = []
        for _ in range(2):
            assert run(["eval", tmp_path / "student.tqm",
                        tmp_path / "eval_data.jsonl", "--out", tmp_path]) == 0
            accs.append(json.loads(
                capsys.readouterr().out.strip().splitlines()[-1])["accuracy"])
        assert accs[0] == accs[1]

    @pytest.mark.parametrize("name", ["emb.ln_g", "head.b"])
    def test_nonfinite_logits_exit_4_writing_nothing(self, tmp_path, capsys, name):
        # a 2-2-8 student with one NaN in an fp32 tensor scores NaN logits
        params = init_params(CFG, np.random.default_rng(0))
        params[name].flat[0] = np.nan
        save_checkpoint(tmp_path / "nan.tqm", CFG, params, plan_from_notation("2-2-8"))
        data = tmp_path / "eval.jsonl"
        tasks.save_dataset(str(data), tasks.make_majority_dataset(
            8, seq_len=8, classes=CFG.classes, vocab=CFG.vocab, seed=1))
        out = tmp_path / "out"
        assert run(["eval", tmp_path / "nan.tqm", data, "--out", out]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numerical abort: non-finite logits in evaluation\n"
        assert not (out / "eval.jsonl").exists()

    def test_empty_dataset_is_error_not_zero(self, tmp_path):
        self._train_quick(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run(["eval", tmp_path / "student.tqm", empty, "--out", tmp_path])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("line", ["[1, 2]", '{"tokens": [0, 1], "segments": [0, 0]}',
                                      "{not json"], ids=["list", "no-label", "bad-json"])
    def test_line_that_is_not_an_example_is_config_error(self, tmp_path, capsys, line):
        model = tmp_path / "float.tqm"
        write_float_checkpoint(model)
        data = tmp_path / "bad.jsonl"
        good = json.dumps({"tokens": [0, 1], "segments": [0, 0], "label": 1})
        data.write_text(f"{good}\n\n{line}\n")
        assert run(["eval", model, data, "--out", tmp_path]) == cli.EXIT_CONFIG
        assert f"{data} line 3: not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("line,reason", [
        ('{"tokens": [0, 1], "segments": [0, 0], "label": 9}', "label 9 is outside 0..3"),
        ('{"tokens": [0, 1], "segments": [0, 0], "label": -1}', "label -1 is outside 0..3"),
        ('{"tokens": [0, 1], "segments": [0, 0], "label": true}',
         "line 1: label is not an integer"),
        ('{"tokens": [0, 1.5], "segments": [0, 0], "label": 1}',
         "line 1: tokens is not a non-empty list of integers"),
        ('{"tokens": [0, 1], "segments": [0, false], "label": 1}',
         "line 1: segments is not a non-empty list of integers"),
        ('{"tokens": [0, 1], "segments": [0, 0], "label": 1, "weight": 2}',
         "line 1: not a JSON object with exactly tokens, segments and label"),
        ('{"tokens": [], "segments": [], "label": 1}',
         "line 1: tokens is not a non-empty list of integers"),
    ], ids=["label-9", "label-minus-1", "label-true", "float-token", "bool-segment",
            "extra-key", "empty"])
    def test_dataset_line_outside_the_rule_is_config_error(self, tmp_path, capsys,
                                                           line, reason):
        model = tmp_path / "float.tqm"
        write_float_checkpoint(model)       # 4 classes
        data = tmp_path / "bad.jsonl"
        data.write_text(line + "\n")
        assert run(["eval", model, data, "--out", tmp_path]) == cli.EXIT_CONFIG
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "eval.jsonl").exists()

    @pytest.mark.parametrize("line,reason", [
        ('{"tokens": [0, %d], "segments": [0, 0], "label": 1}' % 10**30,
         "line 1: tokens holds an integer outside int64"),
        ('{"tokens": [0, 1], "segments": [0, %d], "label": 1}' % -10**30,
         "line 1: segments holds an integer outside int64"),
        ('{"tokens": [0, 1], "segments": [0, 0], "label": %d}' % 10**26,
         "line 1: label is an integer outside int64"),
    ], ids=["token", "segment", "label"])
    def test_integer_outside_int64_is_config_error(self, tmp_path, capsys, line, reason):
        model = tmp_path / "float.tqm"
        write_float_checkpoint(model)
        data = tmp_path / "bad.jsonl"
        data.write_text(line + "\n")
        assert run(["eval", model, data, "--out", tmp_path]) == cli.EXIT_CONFIG
        assert f"{data} {reason}" in capsys.readouterr().err
        assert not (tmp_path / "eval.jsonl").exists()

    def test_lines_of_two_lengths_are_config_error(self, tmp_path, capsys):
        model = tmp_path / "float.tqm"
        write_float_checkpoint(model)
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps({"tokens": [0, 1], "segments": [0, 0], "label": 1})
                        + "\n\n"
                        + json.dumps({"tokens": [0, 1, 2], "segments": [0, 0, 0],
                                      "label": 1}) + "\n")
        assert run(["eval", model, data, "--out", tmp_path]) == cli.EXIT_CONFIG
        assert (f"{data} line 3: 3 tokens where the first line holds 2"
                in capsys.readouterr().err)
        assert not (tmp_path / "eval.jsonl").exists()

    def test_quantized_model_matches_dequantized_reference_predictions(
            self, tmp_path):
        self._train_quick(tmp_path)
        from tquant.model import ModelConfig, QuantPlan
        loaded = load_model(str(tmp_path / "student.tqm"))
        config = ModelConfig.from_dict(loaded.config)
        params, _ = params_from_loaded(loaded.tensors, config)
        examples = tasks.load_dataset(str(tmp_path / "eval_data.jsonl"))
        tokens, segments, _ = tasks.as_arrays(examples)
        stored = loaded.extras["plan"]
        act_only = QuantPlan(w_bits=32, e_bits=32, a_bits=stored["a_bits"],
                             act_scheme=stored["act_scheme"])
        # oracle: explicit dequantization happened in params_from_loaded;
        # the CLI eval path must agree prediction-for-prediction
        leaves, _ = build_leaves(params, act_only, trainable=False)
        trace = forward(leaves, config, tokens, segments, plan=act_only)
        oracle = np.argmax(trace.logits.data, axis=-1)
        assert run(["eval", tmp_path / "student.tqm",
                    tmp_path / "eval_data.jsonl", "--out", tmp_path]) == 0
        recorded = metrics.read_records(tmp_path / "eval.jsonl")[-1]
        assert_record_keys("eval", [recorded])
        labels = np.array([e.label for e in examples])
        assert recorded["accuracy"] == float((oracle == labels).mean())


class TestInspectCommand:
    def test_sign_stats_on_hand_built_tensor(self, tmp_path, capsys):
        # one ternary tensor with codes [+1, -1, 0, 0]
        t = tz.TernaryTensor(codes=np.array([[1, -1], [0, 0]], dtype=np.int8),
                             scales=np.array([1.0], dtype=np.float32),
                             granularity="layer")
        zero = tz.TernaryTensor(codes=np.zeros((2, 2), dtype=np.int8),
                                scales=np.array([0.0], dtype=np.float32),
                                granularity="layer")
        cfg = ModelConfig(layers=1, hidden=2, heads=1, ffn=2, vocab=2,
                          max_positions=2, classes=2)
        plan = plan_from_notation("2-2-8", e_gran="layer")
        params = init_params(cfg, np.random.default_rng(0))
        hand_built = {"emb.word": t, "layer0.wq": zero}
        tensors = [SavedTensor(s.name, s.role, s.bits, s.method, s.granularity,
                               quant=hand_built[s.name]) if s.name in hand_built else s
                   for s in to_saved_tensors(params, plan)]
        path = tmp_path / "m.tqm"
        save_model(str(path), cfg.to_dict(), tensors, {"plan": plan.to_dict()})
        assert run(["inspect", path, "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()
                if line.startswith("{") and '"name"' in line]
        emb = [r for r in rows if r.get("name") == "emb.word"][0]
        assert emb["zero_frac"] == 0.5
        assert emb["pos_frac"] == 0.25
        assert emb["neg_frac"] == 0.25
        wq = [r for r in rows if r.get("name") == "layer0.wq"][0]
        assert wq["zero_frac"] == 1.0

    def test_gaussian_twn_zero_fraction_band(self, tmp_path, capsys):
        # threshold 0.7*mean|w| on a Gaussian matrix zeroes roughly half
        cfg = ModelConfig(layers=0, hidden=8, heads=1, ffn=8, vocab=64,
                          max_positions=2, classes=2)
        params = init_params(cfg, np.random.default_rng(1))
        from tquant.model import plan_from_notation
        plan = plan_from_notation("2-2-8", e_gran="layer")
        path = tmp_path / "m.tqm"
        save_checkpoint(path, cfg, params, plan)
        assert run(["inspect", path, "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()
                if line.startswith("{") and '"zero_frac"' in line]
        assert 0.3 <= rows[0]["zero_frac"] <= 0.7

    @pytest.mark.parametrize("notation,w_gran", [
        ("2-2-8", "layer"), ("2-2-8", "row"), ("3-3-8", None), ("8-8-8", None),
        (None, None)])
    def test_bytes_is_each_blobs_recorded_length(self, tmp_path, capsys, notation, w_gran):
        plan = None if notation is None else plan_from_notation(notation, w_gran=w_gran)
        path = tmp_path / "m.tqm"
        save_checkpoint(path, CFG, init_params(CFG, np.random.default_rng(2)), plan)
        data = path.read_bytes()
        (mlen,) = struct.unpack("<I", data[4:8])
        records = json.loads(data[8:8 + mlen])["tensors"]
        assert run(["inspect", path]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()
                if line.startswith('{"name"')]
        assert [(r["name"], r["bytes"]) for r in rows] == \
            [(r["name"], r["length"]) for r in records]

    def test_probe_histograms(self, tmp_path):
        write_float_checkpoint(tmp_path / "m.tqm")
        data = tasks.make_majority_dataset(8, seq_len=8, classes=4, vocab=8,
                                           seed=0)
        tasks.save_dataset(str(tmp_path / "probe.jsonl"), data)
        assert run(["inspect", tmp_path / "m.tqm", "--probe",
                    tmp_path / "probe.jsonl", "--bins", 8,
                    "--out", tmp_path]) == 0
        hists = metrics.read_records(tmp_path / "histograms.jsonl")
        assert_record_keys("histogram", hists)
        assert len(hists) == CFG.layers + 1
        assert all(sum(h["counts"]) == h["total"] for h in hists)

    def test_probe_runs_the_activation_plan(self, tmp_path):
        cfg = ModelConfig(layers=2, hidden=16, heads=2, ffn=32, vocab=8,
                          max_positions=16, classes=4)
        params = init_params(cfg, np.random.default_rng(5), std=1.0)
        save_checkpoint(tmp_path / "m.tqm", cfg, params, plan_from_notation("2-2-8"))
        data = tasks.make_majority_dataset(8, seq_len=8, classes=4, vocab=8,
                                           seed=0)
        tasks.save_dataset(str(tmp_path / "probe.jsonl"), data)
        assert run(["inspect", tmp_path / "m.tqm", "--probe",
                    tmp_path / "probe.jsonl", "--bins", 16,
                    "--out", tmp_path]) == 0
        ckpt = load_checkpoint(tmp_path / "m.tqm")
        leaves, _ = build_leaves(ckpt.params, trainable=False)
        tokens, segments, _ = tasks.as_arrays(data)
        trace = forward(leaves, cfg, tokens, segments, plan=ckpt.plan)
        want = [actquant.histogram_export(h, 16) for h in trace.hidden]
        got = metrics.read_records(tmp_path / "histograms.jsonl")
        assert_record_keys("histogram", got)
        assert [{k: r[k] for k in want[0]} for r in got] == want


def rewrite_manifest(path, edit):
    """Apply ``edit`` to a model file's manifest, moving the blob offsets by
    the change in the manifest's length."""
    data = path.read_bytes()
    (mlen,) = struct.unpack("<I", data[4:8])
    manifest = json.loads(data[8:8 + mlen])
    tensors = manifest["tensors"]
    edit({t["name"]: t for t in tensors})
    shift = len(json.dumps(manifest)) - mlen
    for t in tensors:
        if type(t["offset"]) is int:
            t["offset"] += shift
    body = json.dumps(manifest).encode()
    assert len(body) == mlen + shift
    path.write_bytes(data[:4] + struct.pack("<I", len(body)) + body + data[8 + mlen:])


class TestBadManifest:
    def test_rewritten_manifest_with_a_harmless_edit_loads(self, tmp_path):
        path = tmp_path / "m.tqm"
        write_float_checkpoint(path)

        def reverse_keys(ts):           # the same record, its keys reordered
            items = list(ts["head.b"].items())
            ts["head.b"].clear()
            ts["head.b"].update(reversed(items))

        rewrite_manifest(path, reverse_keys)
        assert run(["inspect", path, "--out", tmp_path]) == cli.EXIT_OK

    @pytest.mark.parametrize("edit", [
        dict(role=[1], method={"a": 1}),
        dict(granularity=None),
        dict(shape="4"),
        dict(shape=[4.0]),
        dict(shape=[-4]),
        dict(crc32="0"),
    ], ids=["role-method", "granularity", "shape-string", "shape-float",
            "shape-negative", "crc32"])
    def test_record_field_types(self, tmp_path, capsys, edit):
        path = tmp_path / "m.tqm"
        write_float_checkpoint(path)
        rewrite_manifest(path, lambda ts: ts["head.b"].update(edit))
        with pytest.raises(ManifestError):
            load_checkpoint(path)
        assert run(["inspect", path, "--out", tmp_path]) == cli.EXIT_IO
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda ts: ts["head.b"].update(shape=[8]),           # fp32 count
        lambda ts: ts["emb.word"].update(shape=[128]),       # quantized rank
        lambda ts: ts["emb.word"].update(granularity="col"),
        lambda ts: ts["layer0.wq"].update(offset="0"),
        lambda ts: ts["head.b"].update(bits=32.0),
        lambda ts: ts["head.b"].update(name=["head.b"]),
    ], ids=["fp32-count", "rank", "granularity", "offset-type", "bits-type",
            "name-type"])
    def test_inspect_exits_with_io_error(self, tmp_path, capsys, edit):
        params = init_params(CFG, np.random.default_rng(0))
        path = tmp_path / "m.tqm"
        save_model(str(path), CFG.to_dict(),
                   to_saved_tensors(params, plan_from_notation("2-2-8")))
        rewrite_manifest(path, edit)
        assert run(["inspect", path, "--out", tmp_path]) == cli.EXIT_IO
        assert "io error" in capsys.readouterr().err


def _transpose_w1(f):
    i = next(i for i, t in enumerate(f["tensors"]) if t.name == "layer0.w1")
    old = f["tensors"][i]
    f["tensors"][i] = SavedTensor(
        name=old.name, role=old.role, bits=2, method=old.method, granularity="layer",
        quant=tz.TernaryTensor(codes=old.quant.codes.T, scales=old.quant.scales,
                               granularity="layer"))


def _fp32_file_with_method(path, params, method):
    save_checkpoint(path, CFG, params)
    rewrite_manifest(path, lambda ts: ts["head.b"].update(method=method))


def _with_extra_byte(path, params, plan, after):
    """A checkpoint with one byte more, after the blob of tensor ``after``
    (None: the last blob); the offsets of the blobs behind it move by one."""
    save_checkpoint(path, CFG, params, plan)
    if after is None:
        path.write_bytes(path.read_bytes() + b"\0")
        return

    def move(ts):
        end = ts[after]["offset"] + ts[after]["length"]
        for t in ts.values():
            if t["offset"] >= end:
                t["offset"] += 1

    rewrite_manifest(path, move)
    data = path.read_bytes()
    (mlen,) = struct.unpack("<I", data[4:8])
    rec = next(t for t in json.loads(data[8:8 + mlen])["tensors"] if t["name"] == after)
    end = rec["offset"] + rec["length"]
    path.write_bytes(data[:end] + b"\0" + data[end:])


class TestCheckpointMismatch:
    """A file whose config, tensor set or plan does not describe one model:
    ``load_checkpoint`` raises ``ManifestError``, eval and inspect exit 3."""

    @pytest.mark.parametrize("edit", [
        lambda f: f["config"].update(heads=3),
        lambda f: f["config"].update(pooler=True),
        lambda f: f["config"].pop("layers"),
        lambda f: f.update(config=[1]),
        lambda f: f["config"].update(layers="1"),
        lambda f: f.update(tensors=[t for t in f["tensors"] if t.name != "head.b"]),
        lambda f: f["tensors"].append(SavedTensor(
            name="layer0.extra", role="other", bits=32, array=np.zeros(4, np.float32))),
        _transpose_w1,
        lambda f: f["extras"]["plan"].update(a_bits=4),
        lambda f: f["extras"].update(plan="2-2-8"),
        lambda f: f.update(tensors=to_saved_tensors(
            init_params(CFG, np.random.default_rng(0)), None)),
        lambda f: f["extras"]["plan"].update(w_gran="row"),
        lambda f: f["extras"]["plan"].update(w_method="lat_approx",
                                             e_method="lat_approx"),
        lambda f: setattr(next(t for t in f["tensors"] if t.name == "layer0.wq"),
                          "role", "other"),
        lambda f: f["extras"]["plan"].update(lat_iter=3),
    ], ids=["heads-divide-hidden", "unknown-key", "missing-key", "config-array",
            "layers-string", "missing-tensor", "extra-tensor", "transposed-w1",
            "plan-a_bits-4", "plan-string", "float-tensors-2-2-8-plan",
            "layer-tensors-row-plan", "twn-tensors-lat-plan", "wq-role-other",
            "plan-unknown-key"])
    def test_rejected_by_load_eval_and_inspect(self, tmp_path, capsys, edit):
        plan = plan_from_notation("2-2-8")
        params = init_params(CFG, np.random.default_rng(0))
        f = {"config": CFG.to_dict(), "tensors": to_saved_tensors(params, plan),
             "extras": {"plan": plan.to_dict()}}
        edit(f)
        path = tmp_path / "m.tqm"
        save_model(str(path), f["config"], f["tensors"], f["extras"])
        data = tmp_path / "data.jsonl"
        tasks.save_dataset(str(data), tasks.make_majority_dataset(
            4, seq_len=8, classes=4, vocab=8, seed=0))
        with pytest.raises(ManifestError):
            load_checkpoint(path)
        assert run(["eval", path, data, "--out", tmp_path]) == cli.EXIT_IO
        assert run(["inspect", path, "--out", tmp_path]) == cli.EXIT_IO
        assert capsys.readouterr().err.count("io error") == 2

    @pytest.mark.parametrize("write", [
        lambda path, params, plan: save_model(str(path), CFG.to_dict(),
                                              to_saved_tensors(params, plan)),
        lambda path, params, plan: _fp32_file_with_method(path, params, "none "),
        lambda path, params, plan: _with_extra_byte(path, params, plan, None),
        lambda path, params, plan: _with_extra_byte(path, params, plan, "emb.word"),
    ], ids=["no-plan-2bit-tensors", "no-plan-fp32-method", "byte-after-last-blob",
            "byte-between-blobs"])
    def test_one_rule_with_or_without_a_plan(self, tmp_path, capsys, write):
        """A file without a plan holds fp32 tensors only, and the blobs tile
        the file: files that an earlier reader took, and no writer writes."""
        path = tmp_path / "m.tqm"
        write(path, init_params(CFG, np.random.default_rng(0)),
              plan_from_notation("2-2-8"))
        data = tmp_path / "data.jsonl"
        tasks.save_dataset(str(data), tasks.make_majority_dataset(
            4, seq_len=8, classes=4, vocab=8, seed=0))
        with pytest.raises(ManifestError):
            load_checkpoint(path)
        assert run(["eval", path, data, "--out", tmp_path]) == cli.EXIT_IO
        assert run(["inspect", path, "--out", tmp_path]) == cli.EXIT_IO
        assert capsys.readouterr().err.count("io error") == 2


    @pytest.mark.parametrize("legacy", [{"lat_iters": 3, "v_floor": 1e-12},
                                        {"lat_iters": "3", "v_floor": None}])
    def test_plan_with_legacy_solver_keys_loads(self, tmp_path, capsys, legacy):
        """Older files record ``lat_iters`` and ``v_floor`` in the plan; the
        reader drops them and loads the same model."""
        plan = plan_from_notation("2-2-8", "lat")
        rng = np.random.default_rng(0)
        params = init_params(CFG, rng)
        moments = {k: rng.random(v.shape).astype(np.float32) for k, v in params.items()}
        data = tmp_path / "data.jsonl"
        tasks.save_dataset(str(data), tasks.make_majority_dataset(
            16, seq_len=8, classes=4, vocab=8, seed=0))
        accs, ckpts = [], []
        for extra in ({}, legacy):
            path = tmp_path / f"m{len(extra)}.tqm"
            save_model(str(path), CFG.to_dict(), to_saved_tensors(params, plan, moments),
                       {"plan": {**plan.to_dict(), **extra}})
            ckpts.append(load_checkpoint(path))
            assert run(["eval", path, data, "--out", tmp_path]) == cli.EXIT_OK
            accs.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
        new, old = ckpts
        assert old.file.extras["plan"].keys() - new.file.extras["plan"].keys() \
            == {"lat_iters", "v_floor"}
        assert (old.config, old.plan) == (new.config, new.plan)
        for name in params:
            assert old.params[name].tobytes() == new.params[name].tobytes()
        assert old.qinfo.keys() == new.qinfo.keys()
        for name, t in new.qinfo.items():
            np.testing.assert_array_equal(old.qinfo[name].codes, t.codes)
            assert old.qinfo[name].scales.tobytes() == t.scales.tobytes()
        assert accs[0]["accuracy"] == accs[1]["accuracy"]


class TestBenchCommand:
    def test_bench_record(self, tmp_path, capsys):
        assert run(["bench", "--m", 8, "--n", 8, "--k", 8, "--reps", 2,
                    "--out", tmp_path]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert metrics.read_records(tmp_path / "bench.jsonl") == [rec]
        assert_record_keys("gemm_bench", [rec])
        assert rec["ternary_ns_per_op"] > 0
        assert rec["bytes_touched"] == (8 * 8 + 3) // 4 + 8 * 8 + 8 * 8 * 4

    def test_overflow_plan_is_config_error(self, tmp_path):
        assert run(["bench", "--k", 2**24, "--out", tmp_path]) == cli.EXIT_CONFIG


class TestOutDir:
    def test_out_is_the_one_output_setting(self, tmp_path, monkeypatch):
        # a TQ_METRICS_DIR left in the environment moves no output
        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv("TQ_METRICS_DIR", str(elsewhere))
        out = tmp_path / "out"
        assert run(["train", "--teacher-epochs", 1, "--epochs", 1, "--train-n", 16,
                    "--eval-n", 8, "--layers", 1, "--hidden", 8, "--ffn", 16,
                    "--seq-len", 4, "--out", out]) == 0
        assert {p.name for p in out.iterdir()} == {
            "train_data.jsonl", "eval_data.jsonl", "teacher.tqm", "student.tqm",
            "metrics.jsonl"}
        assert not elsewhere.exists()


class TestMain:
    def test_key_error_is_a_crash_not_a_config_error(self, monkeypatch):
        def broken(args):
            raise KeyError("no such entry")

        monkeypatch.setitem(cli.COMMANDS, "size", broken)
        with pytest.raises(KeyError):
            run(["size"])


class TestSizeCommand:
    def test_bert_base_size(self, tmp_path, capsys):
        assert run(["size", "--bert-base", "--plan", "2-2-8"]) == 0
        out = capsys.readouterr().out
        assert "ratio: 14.9x" in out

    @pytest.mark.parametrize("flag", ["--seed", "--out"])
    def test_takes_no_seed_or_out(self, flag, capsys):
        # size draws nothing and writes nothing: such a flag would be ignored
        with pytest.raises(SystemExit) as exc:
            run(["size", "--plan", "2-2-8", flag, "1"])
        assert exc.value.code == 2


class TestAblateCommand:
    def test_grid_emits_nine_records(self, tmp_path):
        assert run(["ablate", "--teacher-epochs", 1, "--epochs", 1,
                    "--train-n", 32, "--eval-n", 16, "--layers", 1,
                    "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--out", tmp_path]) == 0
        records = metrics.read_records(tmp_path / "ablation.jsonl")
        assert_record_keys("ablation", records)
        assert len(records) == 9
        labels = {r["config"] for r in records}
        assert "gran w=layer e=row" in labels
        assert "act sym" in labels
        assert "distill no-trm-no-logits" in labels
        # derived seeds differ per grid cell
        assert len({r["seed"] for r in records}) == 9

    def test_grid_shares_one_teacher_store(self, tmp_path, monkeypatch):
        stores = []

        class Recorded(cli.TeacherTargets):
            def __init__(self, *args):
                super().__init__(*args)
                stores.append(self)

        monkeypatch.setattr(cli, "TeacherTargets", Recorded)
        # one batch a run: the first distilling run forwards the teacher,
        # the other seven read its rows
        assert run(["ablate", "--teacher-epochs", 1, "--epochs", 2,
                    "--train-n", 32, "--eval-n", 16, "--layers", 1,
                    "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--out", tmp_path]) == 0
        assert len(stores) == 1
        assert stores[0].forwards == 1 and len(stores[0]) == 32

    def test_parity_task_trains_on_parity_data(self, tmp_path, monkeypatch):
        def no_majority(*args, **kwargs):
            raise AssertionError("majority data built for --task parity")

        monkeypatch.setattr(tasks, "make_majority_dataset", no_majority)
        assert run(["ablate", "--task", "parity", "--teacher-epochs", 1,
                    "--epochs", 1, "--train-n", 32, "--eval-n", 16,
                    "--layers", 1, "--hidden", 16, "--ffn", 32, "--seq-len", 8,
                    "--out", tmp_path]) == 0
        records = metrics.read_records(tmp_path / "ablation.jsonl")
        assert_record_keys("ablation", records)
        assert len(records) == 9


class TestMakeDataset:
    def test_same_examples_as_the_task_builders(self):
        assert tasks.make_dataset("majority", 20, 8, 8, 3) == \
            tasks.make_majority_dataset(20, seq_len=8, classes=4, vocab=8, seed=3)
        assert tasks.make_dataset("parity", 20, 8, 8, 3) == \
            tasks.make_parity_dataset(20, seq_len=8, vocab=8, seed=3)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            tasks.make_dataset("sorting", 4, 8, 8, 0)

    def test_unknown_task_has_no_class_count(self):
        with pytest.raises(ValueError, match="sorting"):
            tasks.task_classes("sorting")
