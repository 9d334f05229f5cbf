"""Command-line entry point: dataset synthesis, training, evaluation,
attention export, and KS charts.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Flag precedence is flags > config file > defaults, and every command echoes
its fully resolved configuration into the output directory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as dio
from . import metrics as mx
from .attention import LAYERS, MECHANISMS, class_gradients, compute_attention
from .autodiff import Tape, Tensor, keep_freed_heap
from .losses import IcascConfig, parse_kv_file
from .nn import SCHEDULES, ConfigError, NumericalError, load_checkpoint
from .training import TrainConfig, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _count(low: int):
    """Argument type: an int no smaller than ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


def build_parser() -> _Parser:
    parser = _Parser(prog="icasc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic confusable dataset")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=_count(1), required=True)
    p.add_argument("--seed", type=_count(0), default=0)
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
    p.add_argument("--seed", type=_count(0), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--schedule", choices=SCHEDULES, default=None)
    p.add_argument("--milestones", type=_int_tuple, default=None)
    p.add_argument("--channels", type=_int_tuple, default=None)
    p.add_argument("--mechanism", choices=MECHANISMS, default=None)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--flip", action="store_true")
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--topk", type=_count(1), default=None)
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
    p.add_argument("--classes", type=_count(1), default=None,
                   help="top-K predicted classes per sample "
                        "(default: min(5, class count))")
    p.add_argument("--color", action="store_true", help="write PPM heatmaps")

    p = sub.add_parser("ks", help="KS separation chart on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=_count(2), default=101)

    return parser


def _resolved_icasc(args) -> IcascConfig:
    cfg = IcascConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **parse_kv_file(args.config))
    if getattr(args, "mechanism", None):
        cfg = replace(cfg, mechanism=args.mechanism)
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


# train flags named after a TrainConfig field pass their value when given;
# the defaults live in TrainConfig alone
_TRAIN_FIELDS = tuple(f.name for f in fields(TrainConfig))


def cmd_train(args) -> int:
    if args.baseline and (args.config or args.mechanism):
        raise UsageError("--baseline trains without the attention objective, "
                         "so it takes no --config or --mechanism")
    given = {key: getattr(args, key) for key in _TRAIN_FIELDS
             if getattr(args, key, None) is not None}
    cfg = TrainConfig(
        data_dir=args.data, test_dir=args.test_data, out_dir=args.out,
        icasc=None if args.baseline else _resolved_icasc(args), **given)
    result = train(cfg)
    last = result.log[-1]
    print(f"trained {cfg.epochs} epochs; final total={last.total:.4f} "
          f"train_acc={last.train_acc:.4f} test_acc={last.test_acc:.4f}; "
          f"best epoch {result.best_epoch}")
    return 0


def _load_for(model, path) -> dio.Dataset:
    """The set at ``path``, checked against what ``model`` reads: its class
    count, and its image channels and size."""
    cfg = model.config
    return dio.load_dataset(path, n_classes=cfg.n_classes, image_shape=(
        cfg.input_channels, cfg.input_size, cfg.input_size))


def _require_confusing_class(checkpoint, n_classes: int) -> None:
    """``ks`` and ``eval --attention`` score each sample against its most
    probable other class, which a one-class model lacks."""
    if n_classes < 2:
        raise dio.DataError(f"{checkpoint}: the model has {n_classes} class; "
                            "a confusing class needs at least 2 classes")


def cmd_eval(args) -> int:
    if not args.attention and (args.config or args.mechanism):
        raise UsageError("--config and --mechanism set the attention "
                         "report's loss, so they need --attention")
    # resolved before --out exists, so a bad config file leaves no output
    icasc = _resolved_icasc(args) if args.attention else None
    model, _ = load_checkpoint(args.checkpoint)
    n_classes = model.config.n_classes
    dataset = _load_for(model, args.data)
    labels = dataset.label_array()
    if args.attention:
        _require_confusing_class(args.checkpoint, n_classes)
    k = min(5, n_classes) if args.topk is None else args.topk
    if k > n_classes:
        raise UsageError(f"topk {k} exceeds class count {n_classes}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    echo = f"checkpoint = {args.checkpoint}\ndata = {args.data}\ntopk = {k}\n"
    if args.attention:
        # the report's taped forwards also score accuracy: one pass, not two
        report = mx.attention_overlap_report(model, dataset, icasc)
        probs = report.probabilities
    else:
        probs, _ = mx.predict(model, dataset)

    rows = [("top1_accuracy", "all", mx.topk_accuracy(probs, labels, 1))]
    if k > 1:
        rows.append((f"top{k}_accuracy", "all",
                     mx.topk_accuracy(probs, labels, k)))

    if args.attention:
        mx.write_overlap_csv(out / "attention_overlap.csv", report)
        echo += icasc.to_text()
        rows.append(("mean_l_as_last", "all", report.mean_l_as_last))
        rows.append(("mean_l_ac", "all", report.mean_l_ac))
        rows.append(("attention_skip_rate", "all", report.skip_rate))

    mx.write_metrics_csv(out / "metrics.csv", rows)
    _echo(out, echo)
    for metric, cls, value in rows:
        print(f"{metric}[{cls}] = {value:.6f}")
    return 0


# samples per taped forward in ``attend``: 8 recovers most of the per-op
# overhead of batch 1; a multiple of 4, which ``_attend_chunks`` needs
_ATTEND_CHUNK = 8


def _attend_chunks(samples: list) -> list[list]:
    """``samples`` in chunks of ``_ATTEND_CHUNK``, except that when their
    count is 1 more than a multiple of 4 the last sample runs alone.

    NumPy computes a 1-row matmul with gemv, which rounds the head's logits
    differently from the gemm it uses for 2 or more rows; gemm gives each
    row the same bits at any row count.  Chunks of 4 ran that last sample
    alone, so it keeps its bytes, and every other sample runs with others,
    so its probabilities equal ``predict``'s: 13 samples run as 8, 4, 1.
    """
    lone = len(samples) % 4 == 1
    body = samples[:-1] if lone else samples
    return ([body[i:i + _ATTEND_CHUNK]
             for i in range(0, len(body), _ATTEND_CHUNK)]
            + ([samples[-1:]] if lone else []))


def _attend_chunk(model, samples, k: int, out: Path,
                  color: bool) -> list[list[tuple]]:
    """Write the top-``k`` heatmaps of ``samples`` and return each sample's
    manifest rows, in rank, layer, mechanism order.

    One forward serves the chunk, taped from the inner features on (all
    that gradients toward the tracked layers read), and one backward per
    rank gives every sample's gradient for its own class at that rank (the
    model has no batch-coupling op).  Per layer, the ranks' gradients are
    stacked rank-major against the chunk's features tiled ``k`` times, so each
    (layer, mechanism) makes one map call and one render call across all
    ranks; every op of both works per sample, so each map keeps its bytes.
    Each rank's gradients go straight into both layers' stacks, and the
    tape is freed before the map calls: at 8 samples the tape, stacks and
    backward temporaries set ``attend``'s peak memory.
    """
    record = model.forward(np.stack([s.image for s in samples]), tape=Tape(),
                           from_inner=True)
    probs = record.probabilities
    top = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    n = len(samples)
    stacks = {layer: np.empty((k * n,) + record.feats[layer].shape[1:])
              for layer in LAYERS}
    for rank in range(k):
        for layer, grad in class_gradients(record, top[:, rank], LAYERS).items():
            stacks[layer][rank * n:(rank + 1) * n] = grad.data
    feats = {layer: record.feats[layer].data for layer in LAYERS}
    del record
    size = model.config.input_size
    images = {}
    for layer in LAYERS:
        pair = (Tensor(np.tile(feats[layer], (k, 1, 1, 1))),
                Tensor(stacks.pop(layer)))
        for mech in MECHANISMS:
            images[layer, mech] = mx.render_heatmaps(
                compute_attention(mech, *pair).data, (size, size), color)

    ext, write = ("ppm", dio.write_ppm) if color else ("pgm", dio.write_pgm)
    rows = []
    for i, sample in enumerate(samples):
        rows.append([])
        for rank, class_id in enumerate(top[i]):
            for layer in LAYERS:
                for mech in MECHANISMS:
                    fname = f"{sample.id}_c{class_id}_{layer}_{mech}.{ext}"
                    write(out / fname, images[layer, mech][rank * n + i])
                    rows[i].append((sample.id, int(class_id), layer, mech,
                                    fname, float(probs[i, class_id])))
    return rows


def cmd_attend(args) -> int:
    if args.samples == "":
        raise UsageError("--samples is empty; name at least one sample id, "
                         "or leave the flag out for the first 4")
    model, _ = load_checkpoint(args.checkpoint)
    n_classes = model.config.n_classes
    k = min(5, n_classes) if args.classes is None else args.classes
    if k > n_classes:
        raise UsageError(f"--classes {k} exceeds the model's "
                         f"{n_classes} classes")
    dataset = _load_for(model, args.data)
    by_id = {s.id: s for s in dataset.samples}
    if args.samples:
        wanted = args.samples.split(",")
        missing = [sid for sid in wanted if sid not in by_id]
        if missing:
            # quoted, so an empty id or one with a stray space shows
            raise dio.DataError("unknown sample ids: "
                                + ", ".join(map(repr, missing)))
    else:
        wanted = [s.id for s in dataset.samples[:4]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # a repeated id is rendered once; the manifest keeps a row set per mention
    distinct = [by_id[sid] for sid in dict.fromkeys(wanted)]
    rows = {}
    for chunk in _attend_chunks(distinct):
        rows.update(zip((s.id for s in chunk),
                        _attend_chunk(model, chunk, k, out, args.color)))
    manifest = [row for sid in wanted for row in rows[sid]]
    dio.write_csv(out / "manifest.csv", ("sample_id", "class", "layer",
                                         "mechanism", "file", "probability"),
                  manifest)
    _echo(out, f"checkpoint = {args.checkpoint}\ndata = {args.data}\n"
               f"samples = {','.join(wanted)}\nclasses = {k}\n"
               f"color = {'true' if args.color else 'false'}\n")
    print(f"wrote {sum(map(len, rows.values()))} heatmaps to {out}")
    return 0


def cmd_ks(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    dataset = _load_for(model, args.data)
    _require_confusing_class(args.checkpoint, model.config.n_classes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    probs, labels = mx.predict(model, dataset)
    curve = mx.model_ks_chart(probs, labels, args.grid)
    mx.write_ks_csv(out / "ks_curve.csv", curve)
    _echo(out, f"checkpoint = {args.checkpoint}\ndata = {args.data}\n"
               f"grid = {args.grid}\n")
    print(f"ks_exact = {curve.ks_exact:.6f} at p = {curve.ks_exact_threshold:.6f}")
    print(f"ks_grid  = {curve.ks_grid:.6f} at p = {curve.ks_grid_threshold:.6f}")
    return 0


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
             "attend": cmd_attend, "ks": cmd_ks}


def main(argv=None) -> int:
    keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (dio.DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
