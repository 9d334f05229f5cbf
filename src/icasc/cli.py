"""Command-line entry point: dataset synthesis, training, evaluation,
attention export, and KS charts.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Flag precedence is flags > config file > defaults, and every command echoes
its fully resolved configuration into the output directory.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import data as dio
from . import metrics as mx
from .attention import LAYERS, MECHANISMS, class_gradients, compute_attention
from .autodiff import Tape
from .losses import IcascConfig, parse_kv_file
from .nn import ConfigError, NumericalError, load_checkpoint
from .training import TrainConfig, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def build_parser() -> _Parser:
    parser = _Parser(prog="icasc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic confusable dataset")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--canvas", type=int, default=32)
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--motif-size", type=int, default=7)
    p.add_argument("--pair", type=_int_tuple, default=(0, 1),
                   help="confusable class pair, e.g. 0,1")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model (ICASC or baseline)")
    p.add_argument("--data", required=True)
    p.add_argument("--test-data", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--schedule", choices=("step", "cosine"), default=None)
    p.add_argument("--milestones", type=_int_tuple, default=None)
    p.add_argument("--channels", type=_int_tuple, default=None)
    p.add_argument("--mechanism", choices=MECHANISMS, default=None)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--multi-label", action="store_true")
    p.add_argument("--flip", action="store_true")
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--topk", type=int, default=None)
    p.add_argument("--attention", action="store_true",
                   help="also compute the attention-overlap report")
    p.add_argument("--config", default=None)
    p.add_argument("--mechanism", choices=MECHANISMS, default=None)

    p = sub.add_parser("attend", help="export attention heatmaps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", default=None,
                   help="comma-separated sample ids (default: first 4)")
    p.add_argument("--classes", type=int, default=5,
                   help="top-K predicted classes per sample")
    p.add_argument("--color", action="store_true", help="write PPM heatmaps")

    p = sub.add_parser("ks", help="KS separation chart on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=101)

    return parser


def _resolved_icasc(args) -> IcascConfig:
    cfg = IcascConfig()
    if getattr(args, "config", None):
        cfg = cfg.apply_kv(parse_kv_file(args.config))
    if getattr(args, "mechanism", None):
        cfg = cfg.apply_kv({"mechanism": args.mechanism})
    return cfg


def _echo(out_dir: Path, text: str, name: str = "resolved_config.txt") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def cmd_synth(args) -> int:
    try:
        spec = dio.SynthSpec(n_classes=args.classes, canvas=args.canvas,
                             noise_std=args.noise_std,
                             motif_size=args.motif_size,
                             confusable_pair=tuple(args.pair), seed=args.seed)
    except ValueError as e:
        raise UsageError(str(e))
    count = dio.generate_synth(spec, args.per_class, args.out)
    _echo(Path(args.out), f"classes = {args.classes}\nper_class = {args.per_class}\n"
          f"seed = {args.seed}\ncanvas = {args.canvas}\n"
          f"noise_std = {args.noise_std!r}\nmotif_size = {args.motif_size}\n"
          f"pair = {args.pair[0]},{args.pair[1]}\n", "synth_config.txt")
    print(f"wrote {count} images across {args.classes} classes to {args.out}")
    return 0


def cmd_train(args) -> int:
    icasc_cfg = _resolved_icasc(args)

    def pick(flag, default):
        return flag if flag is not None else default

    cfg = TrainConfig(
        data_dir=args.data, test_dir=args.test_data, out_dir=args.out,
        epochs=pick(args.epochs, 10), batch_size=pick(args.batch_size, 32),
        lr=pick(args.lr, 0.05), momentum=pick(args.momentum, 0.9),
        weight_decay=pick(args.weight_decay, 5e-4),
        schedule=pick(args.schedule, "cosine"),
        milestones=tuple(args.milestones) if args.milestones else (),
        seed=pick(args.seed, 0), channels=tuple(pick(args.channels, (8, 16))),
        baseline=args.baseline, multi_label=args.multi_label,
        flip=args.flip, resume=args.resume, icasc=icasc_cfg)
    result = train(cfg)
    last = result.log[-1]
    print(f"trained {cfg.epochs} epochs; final total={last.total:.4f} "
          f"train_acc={last.train_acc:.4f} test_acc={last.test_acc:.4f}; "
          f"best epoch {result.best_epoch}")
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    dataset = dio.load_dataset(args.data, n_classes=model.config.n_classes)
    multi = dataset.multi_label
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    probs, labels = mx.predict(model, dataset, multi)

    rows: list[tuple[str, str, float]] = []
    if multi:
        aps, mean_ap = mx.mean_average_precision(probs, labels)
        for c, ap in enumerate(aps):
            rows.append(("average_precision", str(c), ap))
        rows.append(("average_precision", "all", mean_ap))
        rows.append(("auc", "all", mx.macro_auc(probs, labels)))
    else:
        rows.append(("top1_accuracy", "all", mx.topk_accuracy(probs, labels, 1)))
        k = args.topk if args.topk else min(5, model.config.n_classes)
        if k > model.config.n_classes:
            raise UsageError(f"topk {k} exceeds class count "
                             f"{model.config.n_classes}")
        if k > 1:
            rows.append((f"top{k}_accuracy", "all",
                         mx.topk_accuracy(probs, labels, k)))

    if args.attention:
        report = mx.attention_overlap_report(model, dataset,
                                             _resolved_icasc(args))
        mx.write_overlap_csv(out / "attention_overlap.csv", report)
        rows.append(("mean_l_as_last", "all", report.mean_l_as_last))
        rows.append(("mean_l_ac", "all", report.mean_l_ac))
        rows.append(("attention_skip_rate", "all", report.skip_rate))

    mx.write_metrics_csv(out / "metrics.csv", rows)
    _echo(out, f"checkpoint = {args.checkpoint}\ndata = {args.data}\n")
    for metric, cls, value in rows:
        print(f"{metric}[{cls}] = {value:.6f}")
    return 0


def cmd_attend(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    if args.classes > model.config.n_classes:
        raise UsageError(f"--classes {args.classes} exceeds the model's "
                         f"{model.config.n_classes} classes")
    dataset = dio.load_dataset(args.data, n_classes=model.config.n_classes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    by_id = {s.id: s for s in dataset.samples}
    if args.samples:
        wanted = args.samples.split(",")
        missing = [sid for sid in wanted if sid not in by_id]
        if missing:
            raise dio.DataError(f"unknown sample ids: {', '.join(missing)}")
    else:
        wanted = [s.id for s in dataset.samples[:4]]

    size = model.config.input_size
    manifest = []
    for sid in wanted:
        sample = by_id[sid]
        images = sample.image[None]
        tape = Tape()
        record = model.forward(images, tape=tape)
        top = np.argsort(-record.probabilities[0], kind="stable")[:args.classes]
        for class_id in top:
            # one backward serves both mechanisms
            grads = class_gradients(record, [class_id], LAYERS)
            for layer in LAYERS:
                for mech in MECHANISMS:
                    amap = compute_attention(mech, record.feats[layer].detach(),
                                             grads[layer], [class_id], layer)
                    ext = "ppm" if args.color else "pgm"
                    fname = f"{sid}_c{class_id}_{layer}_{mech}.{ext}"
                    mx.export_heatmap(amap.detached()[0], (size, size),
                                      out / fname, color=args.color)
                    manifest.append((sid, int(class_id), layer, mech, fname,
                                     float(record.probabilities[0, class_id])))
    with open(out / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "class", "layer", "mechanism", "file",
                         "probability"])
        for row in manifest:
            writer.writerow(row)
    print(f"wrote {len(manifest)} heatmaps to {out}")
    return 0


def cmd_ks(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    dataset = dio.load_dataset(args.data, n_classes=model.config.n_classes)
    if dataset.multi_label:
        raise dio.DataError("ks command expects a single-label dataset")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    curve = mx.model_ks_chart(model, dataset, args.grid)
    mx.write_ks_csv(out / "ks_curve.csv", curve)
    _echo(out, f"checkpoint = {args.checkpoint}\ndata = {args.data}\n"
               f"grid = {args.grid}\n")
    print(f"ks_exact = {curve.ks_exact:.6f} at p = {curve.ks_exact_threshold:.6f}")
    print(f"ks_grid  = {curve.ks_grid:.6f} at p = {curve.ks_grid_threshold:.6f}")
    return 0


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
             "attend": cmd_attend, "ks": cmd_ks}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (dio.DataError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
