"""Command-line front end.

Subcommands: quantize a checkpoint, run distillation-aware training on a
synthetic task, evaluate, inspect a model file, benchmark the integer
GEMM, and run the ablation grid.  Exit codes: 0 success, 2 configuration
error, 3 I/O error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import actquant, metrics, qkernels, tasks
from .model import (ACT_ALIASES, METHOD_ALIASES, ModelConfig, QuantPlan,
                    bert_base_config, build_leaves, forward, load_checkpoint,
                    plan_from_notation, save_checkpoint)
from .packed import ModelFileError, size_report
from .train import (DistillLossConfig, OptimizerConfig, TeacherTargets,
                    TrainSettings, TrainState, TrainingDiverged, check_schedule,
                    evaluate, run_training, train_float_baseline, training_steps)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

ABLATIONS = {
    "full": DistillLossConfig(True, True),
    "no-trm": DistillLossConfig(False, True),
    "no-trm-no-logits": DistillLossConfig(False, False),
}


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return count


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plan", default="2-2-8", help="W-E-A bit triple, e.g. 2-2-8")
    p.add_argument("--method", default="twn", choices=list(METHOD_ALIASES))
    p.add_argument("--w-gran", choices=["layer", "row"], help="default: layer")
    p.add_argument("--e-gran", choices=["layer", "row"],
                   help="default: row, or layer for an 8-bit embedding")
    p.add_argument("--act", default="minmax", choices=list(ACT_ALIASES))


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--ffn", type=int, default=64)
    p.add_argument("--seq-len", type=int, default=16)
    p.add_argument("--vocab", type=int, default=8)


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", default="majority", choices=sorted(tasks.TASKS))
    p.add_argument("--train-n", type=_at_least(1), default=512)
    p.add_argument("--eval-n", type=_at_least(1), default=256)


def _add_run_flags(p: argparse.ArgumentParser, epochs: int) -> None:
    p.add_argument("--teacher-epochs", type=_at_least(0), default=8)
    p.add_argument("--teacher-lr", type=float, default=2e-3)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=_at_least(0), default=epochs)
    p.add_argument("--batch", type=_at_least(1), default=32)


def _plan_from_args(args) -> QuantPlan:
    return plan_from_notation(args.plan, method=args.method,
                              w_gran=args.w_gran, e_gran=args.e_gran,
                              act=args.act)


def _config_from_args(args, classes: int) -> ModelConfig:
    return ModelConfig(layers=args.layers, hidden=args.hidden, heads=args.heads,
                       ffn=args.ffn, vocab=args.vocab,
                       max_positions=max(args.seq_len, 2), classes=classes)


def _out_path(args, name: str) -> Path:
    Path(args.out).mkdir(parents=True, exist_ok=True)
    return Path(args.out) / name


# ---------------------------------------------------------------------------
# commands


def cmd_quantize(args) -> int:
    ckpt = load_checkpoint(args.input)
    plan = _plan_from_args(args)
    report = size_report(ckpt.config, plan, include_task_head=args.include_head)
    out = _out_path(args, "quantized.tqm")
    # post-training quantization has no optimizer history; loss-aware
    # methods fall back to a uniform curvature proxy
    save_checkpoint(out, ckpt.config, ckpt.params, plan, extras={"seed": args.seed})
    record = report.to_dict()
    record["seed"] = args.seed
    record["plan"] = plan.notation
    metrics.write_records(_out_path(args, "reports.jsonl"), [record])
    print(report)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_size(args) -> int:
    plan = _plan_from_args(args)
    config = bert_base_config() if args.bert_base else _config_from_args(args, 2)
    report = size_report(config, plan, include_task_head=args.include_head)
    print(report)
    return EXIT_OK


def _datasets(args):
    """The run's train set (seed) and eval set (seed + 1) of ``--task``."""
    return (tasks.make_dataset(args.task, args.train_n, args.seq_len, args.vocab,
                               args.seed),
            tasks.make_dataset(args.task, args.eval_n, args.seq_len, args.vocab,
                               args.seed + 1))


def _train_teacher(args, config, data_train, data_eval):
    opt = OptimizerConfig(lr=args.teacher_lr)
    settings = TrainSettings(epochs=args.teacher_epochs, batch_size=args.batch,
                             eval_every=0, seed=args.seed)
    params, _ = train_float_baseline(config, data_train, data_eval, opt, settings)
    acc = evaluate(params, config, data_eval)
    return params, acc


def cmd_train(args) -> int:
    loss_cfg = ABLATIONS[args.ablation]
    check_schedule(loss_cfg, args.stages)
    classes = tasks.task_classes(args.task)
    config = _config_from_args(args, classes)
    plan = _plan_from_args(args)
    if args.teacher:    # refused before anything is written
        ckpt = load_checkpoint(args.teacher)
        if ckpt.config != config:
            raise ValueError("teacher checkpoint config does not match run config")
        if ckpt.qinfo or ckpt.plan is not None:
            # only a recorded plan codes anything (load_checkpoint checked it)
            recorded = QuantPlan.from_dict(ckpt.file.manifest.extras["plan"])
            raise ValueError(f"teacher checkpoint {args.teacher} was quantized under "
                             f"plan {recorded.notation}; distillation needs a "
                             "full-precision teacher")
    data_train, data_eval = _datasets(args)
    # the first write: the --out directory keeps no earlier run's outputs
    out, ckpt_dir = Path(args.out), Path(args.out) / "checkpoints"
    for path in [out / "metrics.jsonl", out / "student.tqm", out / "teacher.tqm",
                 *ckpt_dir.glob("step*.tqm")]:
        if path.exists() and not (args.teacher and path.samefile(args.teacher)):
            path.unlink()
    tasks.save_dataset(str(_out_path(args, "train_data.jsonl")), data_train)
    tasks.save_dataset(str(_out_path(args, "eval_data.jsonl")), data_eval)

    if args.teacher:
        teacher = ckpt.params
        teacher_acc = evaluate(teacher, config, data_eval)
    else:
        teacher, teacher_acc = _train_teacher(args, config, data_train, data_eval)
        save_checkpoint(_out_path(args, "teacher.tqm"), config, teacher,
                        extras={"seed": args.seed, "eval_acc": teacher_acc})

    state = TrainState.create(config, teacher, teacher, plan,
                              OptimizerConfig(lr=args.lr),
                              loss_cfg=loss_cfg, seed=args.seed,
                              stages=args.stages)
    settings = TrainSettings(epochs=args.epochs, batch_size=args.batch,
                             eval_every=args.eval_every, seed=args.seed)

    def steps():    # each step's record is written before the next step runs
        for rec in training_steps(state, data_train, data_eval, settings):
            yield rec
            if args.checkpoint_every and rec["step"] % args.checkpoint_every == 0:
                ckpt_dir.mkdir(exist_ok=True)
                save_checkpoint(ckpt_dir / f"step{rec['step']:06d}.tqm", config,
                                state.params, plan, state.opt.v,
                                extras={"step": rec["step"], "stage": rec["stage"],
                                        "seed": args.seed})
    metrics.write_records(_out_path(args, "metrics.jsonl"), steps())

    student_acc = evaluate(state.params, config, data_eval, plan=plan,
                           second_moments=state.opt.v)
    save_checkpoint(_out_path(args, "student.tqm"), config, state.params, plan,
                    second_moments=state.opt.v,
                    extras={"seed": args.seed, "eval_acc": student_acc,
                            "teacher_acc": teacher_acc,
                            "ablation": args.ablation, "stages": args.stages})
    print(json.dumps({"teacher_acc": teacher_acc, "student_acc": student_acc,
                      "plan": plan.notation, "ablation": args.ablation,
                      "steps": state.opt.step, "seed": args.seed}))
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.model)
    examples = tasks.load_dataset(args.data)
    acc = evaluate(ckpt.params, ckpt.config, examples, plan=ckpt.plan)
    record = {"kind": "eval", "model": str(args.model), "data": str(args.data),
              "n": len(examples), "accuracy": acc, "seed": args.seed}
    metrics.write_records(_out_path(args, "eval.jsonl"), [record])
    print(json.dumps(record))
    return EXIT_OK


def cmd_inspect(args) -> int:
    ckpt = load_checkpoint(args.model)
    manifest = ckpt.file.manifest
    print(json.dumps({"config": manifest.config, "extras": manifest.extras}, indent=2))
    rows = []
    for rec in manifest.records:
        row = {"name": rec.name, "role": rec.role, "bits": rec.bits,
               "method": rec.method, "granularity": rec.granularity,
               "shape": list(rec.shape), "bytes": rec.length}
        if rec.name in ckpt.qinfo:
            codes = ckpt.qinfo[rec.name].codes
            total = codes.size
            row["zero_frac"] = float((codes == 0).sum() / total)
            row["pos_frac"] = float((codes > 0).sum() / total)
            row["neg_frac"] = float((codes < 0).sum() / total)
        rows.append(row)
        print(json.dumps(row))
    if args.probe:
        examples = tasks.load_dataset(args.probe)
        tokens, segments, _ = tasks.as_arrays(examples)
        # the file's activation plan, as in cmd_eval: a 2-2-8 student's
        # layers see 8-bit inputs
        leaves, _ = build_leaves(ckpt.params, trainable=False)
        trace = forward(leaves, ckpt.config, tokens, segments, plan=ckpt.plan)
        hists = []
        for i, h in enumerate(trace.hidden):
            rec = actquant.histogram_export(h, args.bins).to_dict()
            rec["tensor"] = f"hidden[{i + 1}]"
            rec["seed"] = args.seed
            hists.append(rec)
            print(json.dumps(rec))
        metrics.write_records(_out_path(args, "histograms.jsonl"), hists)
    return EXIT_OK


def cmd_bench(args) -> int:
    plan = qkernels.GemmPlan(m=args.m, n=args.n, k=args.k,
                             act_scheme=ACT_ALIASES[args.act])
    rec = qkernels.bench_gemm(plan, args.reps,
                              np.random.default_rng(args.seed)).to_dict()
    rec["seed"] = args.seed
    metrics.write_records(_out_path(args, "bench.jsonl"), [rec])
    print(json.dumps(rec))
    return EXIT_OK


def cmd_ablate(args) -> int:
    classes = tasks.task_classes(args.task)
    config = _config_from_args(args, classes)
    data_train, data_eval = _datasets(args)
    teacher, teacher_acc = _train_teacher(args, config, data_train, data_eval)
    # one store for the whole grid: each distinct example meets the
    # teacher's forward once, whichever run sees it first
    targets = TeacherTargets(teacher, config)

    grid: list[tuple[str, QuantPlan, DistillLossConfig]] = []
    for wg in ("layer", "row"):
        for eg in ("layer", "row"):
            grid.append((f"gran w={wg} e={eg}",
                         plan_from_notation("2-2-8", "twn", wg, eg, "minmax"),
                         ABLATIONS["full"]))
    for act in ("minmax", "sym"):
        grid.append((f"act {act}",
                     plan_from_notation("2-2-8", "twn", "layer", "row", act),
                     ABLATIONS["full"]))
    for name in ("full", "no-trm", "no-trm-no-logits"):
        grid.append((f"distill {name}",
                     plan_from_notation("2-2-8", "twn", "layer", "row", "minmax"),
                     ABLATIONS[name]))

    records = []
    print(f"{'configuration':28s} {'eval_acc':>8s}   (teacher {teacher_acc:.3f})")
    for i, (label, plan, loss_cfg) in enumerate(grid):
        seed = args.seed + 100 + i
        state = TrainState.create(config, teacher, targets, plan,
                                  OptimizerConfig(lr=args.lr),
                                  loss_cfg=loss_cfg, seed=seed)
        settings = TrainSettings(epochs=args.epochs, batch_size=args.batch,
                                 eval_every=0, seed=seed)
        run_training(state, data_train, data_eval, settings)
        acc = evaluate(state.params, config, data_eval, plan=plan,
                       second_moments=state.opt.v)
        records.append({"kind": "ablation", "config": label, "seed": seed,
                        "plan": plan.notation, "eval_acc": acc,
                        "teacher_acc": teacher_acc})
        print(f"{label:28s} {acc:8.3f}")
    metrics.write_records(_out_path(args, "ablation.jsonl"), records)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tquant",
                                description="ternary transformer quantization toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="quantize a checkpoint and report sizes")
    q.add_argument("input", help="input .tqm checkpoint")
    _add_plan_flags(q)
    q.add_argument("--include-head", action="store_true")

    s = sub.add_parser("size", help="size report for a config under a plan")
    _add_plan_flags(s)
    _add_model_flags(s)
    s.add_argument("--bert-base", action="store_true",
                   help="use the BERT-base geometry")
    s.add_argument("--include-head", action="store_true")

    t = sub.add_parser("train", help="distillation-aware training on a synthetic task")
    _add_plan_flags(t)
    _add_model_flags(t)
    _add_task_flags(t)
    _add_run_flags(t, epochs=12)
    t.add_argument("--teacher", help="teacher checkpoint; trained here if omitted")
    t.add_argument("--ablation", default="full", choices=sorted(ABLATIONS))
    t.add_argument("--stages", type=int, default=1, choices=[1, 2])
    t.add_argument("--eval-every", type=_at_least(0), default=25)
    t.add_argument("--checkpoint-every", type=_at_least(0), default=0,
                   help="save a checkpoint every N steps (0 = off)")

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    e.add_argument("model")
    e.add_argument("data")

    i = sub.add_parser("inspect", help="dump manifest, sign stats, histograms")
    i.add_argument("model")
    i.add_argument("--probe", help="dataset file for activation histograms")
    i.add_argument("--bins", type=_at_least(2), default=32)

    b = sub.add_parser("bench", help="time the ternary GEMM against float")
    b.add_argument("--m", type=_at_least(1), default=64)
    b.add_argument("--n", type=_at_least(1), default=64)
    b.add_argument("--k", type=_at_least(1), default=64)
    b.add_argument("--reps", type=_at_least(0), default=20)
    b.add_argument("--act", default="minmax", choices=list(ACT_ALIASES))

    a = sub.add_parser("ablate", help="granularity/activation/distillation grid")
    _add_model_flags(a)
    _add_task_flags(a)
    _add_run_flags(a, epochs=8)

    for cmd in (q, t, e, i, b, a):      # size writes nothing and draws nothing
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", default=".", help="output directory")
    return p


COMMANDS = {
    "quantize": cmd_quantize,
    "size": cmd_size,
    "train": cmd_train,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
    "bench": cmd_bench,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (TrainingDiverged, FloatingPointError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ModelFileError, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
