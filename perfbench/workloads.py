"""The three benchmark workloads and the loop that measures them.

Each workload is a closed loop with one client in one process: an
iteration calls a public entry point of icasc (``training.train`` or
``cli.main``), waits for it, then checks what it wrote.  Only the call is
timed; checks run between iterations.

* ``train_icasc``: ``training.train`` with the a-ch ICASC objective, its
  per-epoch test pass and checkpoint writes.  Double backprop through
  ``autodiff``, ``losses`` and ``attention`` does most of its work.
* ``eval_attention``: ``eval --attention`` then ``ks`` on a checkpoint and a
  test set.  Frozen weights, untaped forwards for the predictions, taped
  forwards with first-order backwards for the overlap report.
* ``attend``: ``attend`` at batch 1 over many samples, the top classes and
  both mechanisms.  Arrays are tiny, so per-op tape overhead, heatmap
  export and PGM writes dominate.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from icasc import autodiff as ad
from icasc import cli, data as dio, nn, training
from icasc.losses import IcascConfig, icasc_objective

import layers
import spans as sp
from reference import reference_s, scale

SRC = Path(__file__).resolve().parent.parent / "src"
ITERATION_SPAN = "bench.iteration"
SETUP_SPAN = "bench.setup"


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``BENCH`` is the benchmark; tests use smaller ones."""

    batch: int = 32
    canvas: int = 32
    channels: tuple[int, ...] = (8, 16)
    classes: int = 4
    train_samples: int = 128       # per training.train call
    train_epochs: int = 2
    test_samples: int = 64         # the per-epoch test pass of training
    eval_samples: int = 256
    attend_samples: int = 32
    ckpt_train_samples: int = 64   # one epoch trains the set-up checkpoint
    setup_repeats: int = 7


BENCH = Sizes()


def _synth(out: Path, sizes: Sizes, total: int, seed: int) -> Path:
    spec = dio.SynthSpec(n_classes=sizes.classes, canvas=sizes.canvas, seed=seed)
    dio.generate_synth(spec, total // sizes.classes, out)
    return out


def _trained_checkpoint(work: Path, sizes: Sizes, seed: int) -> Path:
    """One ICASC epoch on a small synthetic set, so commands and the gradient
    check see a trained model rather than its initialisation.

    ``icasc train`` runs in a child process, so the training tape does not
    set the peak memory of a workload that only evaluates.
    """
    train_dir = _synth(work / "ckpt_train", sizes, sizes.ckpt_train_samples,
                       seed + 2_000_003)
    out = work / "ckpt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-m", "icasc.cli", "train", "--data", str(train_dir),
         "--out", str(out), "--epochs", "1", "--seed", str(seed),
         "--batch-size", str(sizes.batch),
         "--channels", ",".join(str(c) for c in sizes.channels)],
        env=env, check=True, capture_output=True, timeout=120)
    return out / "final.ckpt"


def _written(*paths: Path) -> bool:
    return all(p.is_file() and p.stat().st_mtime_ns > 0 for p in paths)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one command; returns its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _in(value: float, lo: float, hi: float) -> bool:
    return math.isfinite(value) and lo <= value <= hi


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """One workload: set-up, one timed iteration, and its output checks.

    ``ops`` is the number of operations (training steps or commands) in one
    iteration; ``check`` returns how many of them failed an output check.
    """

    name = ""
    ops = 1

    def __init__(self, work: Path, seed: int, sizes: Sizes) -> None:
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.theta = IcascConfig().theta
        self.out = work / "out"

    def _outputs(self) -> Path:
        """The output directory, with every file in it marked unwritten.

        Commands overwrite their outputs in place, and a file counts as
        written by this iteration once its mtime has moved off 0.  On an
        ext4 volume, creating the files anew each iteration, or deleting
        them in between, stalled now and then for tens to hundreds of
        milliseconds and made the run-to-run spread several times wider.
        """
        if self.out.is_dir():
            for f in self.out.rglob("*"):
                if f.is_file():
                    os.utime(f, ns=(0, 0))
        return self.out

    def setup(self) -> None:
        """Synthesise the inputs and train the checkpoint the commands (or,
        for training, the gradient check) use."""
        self.ckpt = _trained_checkpoint(self.work, self.sizes, self.seed)
        nn.load_checkpoint(self.ckpt)

    def once(self) -> int:
        """Run one iteration; returns the work items it completed."""
        raise NotImplementedError

    def check(self) -> int:
        raise NotImplementedError

    def outcome(self) -> dict:
        return {}


class TrainIcasc(Workload):
    name = "train_icasc"

    def __init__(self, work, seed, sizes):
        super().__init__(work, seed, sizes)
        self.ops = sizes.train_epochs * math.ceil(sizes.train_samples / sizes.batch)
        self.result = None

    def setup(self):
        s = self.sizes
        self.train_dir = _synth(self.work / "train", s, s.train_samples, self.seed)
        self.test_dir = _synth(self.work / "test", s, s.test_samples,
                               self.seed + 1_000_003)
        train_set = dio.load_dataset(self.train_dir)
        dio.load_dataset(self.test_dir, n_classes=train_set.n_classes)
        super().setup()

    def once(self):
        s = self.sizes
        self._outputs()
        self.result = training.train(training.TrainConfig(
            data_dir=str(self.train_dir), test_dir=str(self.test_dir),
            out_dir=str(self.out), epochs=s.train_epochs, batch_size=s.batch,
            seed=self.seed, channels=s.channels))
        return s.train_epochs * s.train_samples

    def check(self):
        if not _written(self.out / "train_log.csv", self.out / "final.ckpt"):
            return self.ops
        log = training.read_log(self.out / "train_log.csv")
        ok = len(log) == self.sizes.train_epochs
        for row in log:
            ok &= all(math.isfinite(v) for v in
                      (row.lr, row.l_c, row.total))
            ok &= _in(row.l_as_in, 0.0, 1.0) and _in(row.l_as_la, 0.0, 1.0)
            ok &= _in(row.l_ac, self.theta - 1.0, self.theta)
            ok &= _in(row.train_acc, 0.0, 1.0) and _in(row.test_acc, 0.0, 1.0)
            ok &= _in(row.skip_rate, 0.0, 1.0)
        model, _ = nn.load_checkpoint(self.out / "final.ckpt")
        ok &= all(np.all(np.isfinite(p)) for p in model.params.values())
        return 0 if ok else self.ops

    def outcome(self):
        last = self.result.log[-1] if self.result else None
        return {"final_test_acc": last.test_acc if last else 0.0,
                "final_skip_rate": last.skip_rate if last else 0.0}


class EvalAttention(Workload):
    name = "eval_attention"
    ops = 2                        # the eval command and the ks command

    def setup(self):
        s = self.sizes
        self.test_dir = _synth(self.work / "test", s, s.eval_samples, self.seed)
        dio.load_dataset(self.test_dir, n_classes=s.classes)
        super().setup()

    def once(self):
        out = self._outputs()
        common = ["--checkpoint", str(self.ckpt), "--data", str(self.test_dir)]
        self.codes = [None, None]
        self.codes[0], _ = _cli(["eval", *common, "--out", str(out / "eval"),
                                 "--attention"])
        self.codes[1], self.ks_stdout = _cli(["ks", *common, "--out",
                                              str(out / "ks")])
        return self.sizes.eval_samples

    def _eval_ok(self) -> bool:
        out = self.out / "eval"
        if self.codes[0] != 0 or not _written(out / "metrics.csv",
                                              out / "attention_overlap.csv"):
            return False
        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = {(r["metric"], r["class"]): float(r["value"])
                    for r in csv.DictReader(fh)}
        k = min(5, self.sizes.classes)
        want = {("top1_accuracy", "all"), (f"top{k}_accuracy", "all"),
                ("mean_l_as_last", "all"), ("mean_l_ac", "all"),
                ("attention_skip_rate", "all")}
        if set(rows) != want or not all(math.isfinite(v) for v in rows.values()):
            return False
        with open(out / "attention_overlap.csv", newline="", encoding="utf-8") as fh:
            overlap = list(csv.DictReader(fh))
        samples = [r for r in overlap if r["sample_id"] != "mean"]
        return (len(samples) == self.sizes.eval_samples
                and all(_in(float(r["l_as_last"]), 0.0, 1.0) for r in samples)
                and all(_in(float(r["l_ac"]), self.theta - 1.0, self.theta)
                        for r in samples))

    def _ks_ok(self) -> bool:
        if self.codes[1] != 0:
            return False
        found = re.search(r"ks_exact = (\S+)", self.ks_stdout)
        curve = self.out / "ks" / "ks_curve.csv"
        if not found or not _in(float(found.group(1)), 0.0, 1.0) \
                or not _written(curve):
            return False
        with open(curve, encoding="utf-8") as fh:
            return sum(1 for _ in fh) == 1 + 101

    def check(self):
        return (not self._eval_ok()) + (not self._ks_ok())


class Attend(Workload):
    name = "attend"
    layers_times_mechanisms = 4    # (inner, last) x (grad-cam, a-ch)

    def setup(self):
        s = self.sizes
        self.data_dir = _synth(self.work / "data", s, s.attend_samples, self.seed)
        dataset = dio.load_dataset(self.data_dir, n_classes=s.classes)
        super().setup()
        self.ids = [sample.id for sample in dataset.samples]
        self.expected = len(self.ids) * s.classes * self.layers_times_mechanisms

    def once(self):
        self.code, _ = _cli(["attend", "--checkpoint", str(self.ckpt),
                             "--data", str(self.data_dir),
                             "--out", str(self._outputs()),
                             "--classes", str(self.sizes.classes),
                             "--samples", ",".join(self.ids)])
        return self.expected

    def check(self):
        if self.code != 0 or not _written(self.out / "manifest.csv"):
            return 1
        with open(self.out / "manifest.csv", newline="", encoding="utf-8") as fh:
            manifest = list(csv.DictReader(fh))
        written = {f.name for f in self.out.glob("*.pgm") if _written(f)}
        if len(manifest) != self.expected or len(written) != self.expected \
                or written != {row["file"] for row in manifest}:
            return 1
        shape = (1, self.sizes.canvas, self.sizes.canvas)
        return int(any(dio.read_image(self.out / row["file"]).shape != shape
                       for row in manifest))


WORKLOADS = {w.name: w for w in (TrainIcasc, EvalAttention, Attend)}


# --------------------------------------------------------------------------
# double-backprop gradient check
# --------------------------------------------------------------------------


def double_backprop_check(model: nn.Model, train_dir: Path, sizes: Sizes,
                          seed: int) -> dict:
    """Directional finite difference of the objective against backward.

    The objective is re-evaluated with its ``ObjectiveContext`` frozen, so
    the masks, confusing classes and skip selection stay fixed and only the
    differentiable path (through the create_graph backwards) is compared.
    A step counts only when no ReLU, min or pool routing flips across it;
    ``model`` should be trained, since at initialisation the zero biases
    put exact ties on the tape that any bias step flips.
    """
    dataset = dio.load_dataset(train_dir)
    _, images, labels = next(dio.batch_iter(dataset, sizes.batch, seed))
    config = IcascConfig()
    tape = ad.Tape()
    record = model.forward(images, tape=tape)
    base = icasc_objective(record, labels, config)
    leaves = record.param_leaves
    grads = ad.backward(base.total_tensor, list(leaves.values()))
    grads_lc = ad.backward(nn.cross_entropy(record.logits, labels),
                           list(leaves.values()))
    base_sig = tape.kink_signature()

    def value(direction, step: float):
        params = {k: v + step * direction[k] for k, v in model.params.items()}
        t = ad.Tape()
        r = nn.Model(model.config, params).forward(images, tape=t)
        b = icasc_objective(r, labels, config, context=base.context)
        return b.total, t.kink_signature()

    def along(g, direction) -> float:
        return sum(float(np.sum(g[leaves[k].node].data * d))
                   for k, d in direction.items())

    rng = np.random.default_rng(seed)
    for _ in range(3):
        direction = {k: rng.standard_normal(v.shape) for k, v in model.params.items()}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        direction = {k: d / norm for k, d in direction.items()}
        analytic = along(grads, direction)
        for h in (1e-5, 1e-6, 1e-7):
            fp, sig_p = value(direction, h)
            fm, sig_m = value(direction, -h)
            if sig_p == sig_m == base_sig:
                fd = (fp - fm) / (2 * h)
                rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6)
                return {"ok": rel < 1e-4, "h": h, "analytic": analytic, "fd": fd,
                        "rel_err": rel,
                        "attention_part": analytic - along(grads_lc, direction),
                        "skip_rate": base.skip_rate}
    return {"ok": False, "reason": "every step crossed a kink"}


# --------------------------------------------------------------------------
# measuring
# --------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def iteration(self, wl: Workload, tracer: sp.Tracer | None = None):
        """Run, time and check one iteration; returns ``(items, seconds)``,
        or None when it failed."""
        self.attempted += wl.ops
        start = time.perf_counter()
        try:
            if tracer is None:
                items = wl.once()
            else:
                with sp.instrument(tracer), tracer.span(ITERATION_SPAN):
                    items = wl.once()
            elapsed = time.perf_counter() - start
            failed = wl.check()
        except Exception as e:  # a failing iteration is counted, not fatal
            self.failed += wl.ops
            self.errors.append(f"{type(e).__name__}: {e}")
            return None
        self.failed += failed
        if failed:
            self.errors.append(f"{failed} of {wl.ops} operations failed a check")
            return None
        return items, elapsed

    def measure(self, wl: Workload, seconds: float,
                tracers: tuple[sp.Tracer | None, ...] = (None,)):
        """Iterate until ``seconds`` have passed, in rounds of one iteration
        per entry of ``tracers`` (None runs untraced); at least one round.

        Alternating traced and untraced iterations exposes both to the same
        drift of the machine.  Returns, per entry, the iterations'
        throughputs as measured and as scaled to the nominal reference speed
        (see ``reference.py``).
        """
        raw = [[] for _ in tracers]
        scaled = [[] for _ in tracers]
        before = reference_s()
        deadline = time.perf_counter() + seconds
        while True:
            for k, tracer in enumerate(tracers):
                done = self.iteration(wl, tracer)
                after = reference_s()
                if done is not None:
                    items, elapsed = done
                    raw[k].append(items / elapsed)
                    scaled[k].append(items / scale(elapsed, before, after))
                before = after
            if time.perf_counter() >= deadline:
                return raw, scaled


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> dict:
    """Sample count, median and the 10th and 90th percentiles."""
    if len(values) < 2:
        return {"n": len(values), "p50": _median(values)}
    deciles = statistics.quantiles(values, n=10)
    return {"n": len(values), "p10": deciles[0], "p50": _median(values),
            "p90": deciles[-1]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        sizes: Sizes = BENCH) -> dict:
    """Set up, measure and check one workload.

    Returns ``{"result": ..., "info": ..., "spans": ...}``; ``result`` is the
    benchmark's result object and ``spans`` is empty unless ``trace``.
    """
    wl = WORKLOADS[name](work, seed, sizes)
    tally = Tally()
    info: dict = {"workload": name, "seed": seed}
    tracer = sp.Tracer()

    if trace:
        with sp.instrument(tracer), tracer.span(SETUP_SPAN):
            wl.setup()
        tally.iteration(wl)                                    # warm-up
        _, (untraced, traced) = tally.measure(wl, seconds, (None, tracer))
        tracemalloc.start()
        tally.iteration(wl)
        mem_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    else:
        setup_raw, setup_s = [], []
        before = reference_s()
        for _ in range(sizes.setup_repeats):   # later repeats overwrite the first
            start = time.perf_counter()
            wl.setup()
            elapsed = time.perf_counter() - start
            after = reference_s()
            setup_raw.append(elapsed)
            setup_s.append(scale(elapsed, before, after))
            before = after
        tally.iteration(wl)                                    # warm-up
        (raw,), (rates,) = tally.measure(wl, seconds)
        peak_rss = _peak_rss_mb()

    if isinstance(wl, TrainIcasc):
        try:
            model, _ = nn.load_checkpoint(wl.ckpt)
            info["gradcheck"] = double_backprop_check(model, wl.train_dir,
                                                      sizes, seed)
        except Exception as e:  # reported as a failed check, not a crash
            info["gradcheck"] = {"ok": False, "reason": f"{type(e).__name__}: {e}"}
    info["outcome"] = wl.outcome()
    info["failed_ratio"] = tally.failed / tally.attempted
    info["errors"] = tally.errors[:10]

    if trace:
        stats = sp.SpanStats(tracer.spans, ITERATION_SPAN, SETUP_SPAN)
        metrics = layers.per_layer(stats, tracer.census or {}, {
            "untraced": _median(untraced), "traced": _median(traced),
            "mem_peak_mb": mem_peak / 2**20, **wl.outcome()})
        info["trace"] = {"iterations": {"untraced": len(untraced),
                                        "traced": len(traced)},
                         "spans": len(tracer.spans)}
    else:
        metrics = {"items_per_s": (_median(rates), "1/s"),
                   "setup_s": (_median(setup_s), "s"),
                   "peak_rss_mb": (peak_rss, "MB")}
        info["items_per_s"] = _spread(rates)
        info["setup_s"] = _spread(setup_s)
        info["measured"] = {"items_per_s": _spread(raw),
                            "setup_s": _spread(setup_raw)}

    correct = tally.failed == 0 and info.get("gradcheck", {"ok": True})["ok"]
    result = {"correct": bool(correct), "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"result": result, "info": info,
            "spans": tracer.records() if trace else []}
