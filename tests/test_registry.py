"""Guards on the op registry: every kind the engine can record has a
derivative rule, so any tape it builds can be differentiated again; and the
engine keeps only the kinds and meta keys that the program records and
reads.  A census of the settable values pins every command's flags and the
fields of the four configs, so a new one shows up as a diff to this file."""

import argparse
import ast
from dataclasses import fields
from pathlib import Path

import numpy as np

from icasc import autodiff as ad
from icasc import cli, metrics, training
from icasc.data import SynthSpec
from icasc.losses import IcascConfig
from icasc.nn import ModelConfig, SgdOptimizer
from icasc.training import TrainConfig

import helpers


def engine_tree() -> ast.Module:
    return ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))


def recorded_kinds() -> set[str]:
    """String kinds passed to ``_emit(...)`` and ``._record(...)``."""
    kinds = set()
    for node in ast.walk(engine_tree()):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        first = node.args[0]
        if name in ("_emit", "_record") and isinstance(first, ast.Constant):
            kinds.add(first.value)
    return kinds


def test_every_recorded_kind_has_a_rule():
    assert recorded_kinds() == set(ad._RULES) | {"leaf", "constant"}


def test_public_names_resolve():
    missing = [name for name in ad.__all__ if not hasattr(ad, name)]
    assert missing == []


class _Positional(ast.NodeTransformer):
    """Rename a rule's parameters to their positions."""

    def __init__(self, params: list[str]):
        self.names = {name: f"arg{i}" for i, name in enumerate(params)}

    def visit_Name(self, node):
        node.id = self.names.get(node.id, node.id)
        return node


def rule_bodies() -> dict[str, str]:
    """Kind -> ``ast.dump`` of its ``@_rule`` function body, parameters
    renamed to positional placeholders."""
    bodies = {}
    for node in ast.walk(engine_tree()):
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name) \
                    and dec.func.id == "_rule":
                rename = _Positional([a.arg for a in node.args.args])
                body = [rename.visit(stmt) for stmt in node.body]
                bodies[dec.args[0].value] = ast.dump(ast.Module(body, []))
    return bodies


def test_no_two_rules_share_a_body():
    bodies = rule_bodies()
    assert set(bodies) == set(ad._RULES)
    kinds_by_body: dict[str, list[str]] = {}
    for kind, body in bodies.items():
        kinds_by_body.setdefault(body, []).append(kind)
    assert [k for k in kinds_by_body.values() if len(k) > 1] == []


class _ReadLog(dict):
    """A node's meta record that notes each key read from it."""

    def __init__(self, meta):
        super().__init__(meta)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_the_engine_keeps_only_what_the_program_records_and_reads(monkeypatch):
    """Tiny program paths: an ICASC step with its final backward, a
    baseline step and an overlap-report batch, then each tape's kink
    signature.

    They record every rule kind but ``conv2d_dw``, the closure rule that
    keeps a ``create_graph`` backward toward conv weights exact, which the
    program never runs.  Every meta key they record is read by the rules
    of its op family or by ``kink_signature``; the three conv kinds are one
    family, since they share one record.  The conv record's ``stride`` and
    ``padding`` are read by the benchmark's tape census only.
    """
    nodes, tapes = [], {}
    record = ad.Tape._record

    def logged(tape, kind, inputs, value, meta=None):
        if not isinstance(meta, _ReadLog):     # a shared record stays one log
            meta = _ReadLog(meta or {})
        nodes.append((kind, meta))
        tapes[id(tape)] = tape
        return record(tape, kind, inputs, value, meta)

    monkeypatch.setattr(ad.Tape, "_record", logged)
    model = helpers.tiny_model(channels=(4, 8), size=8)
    images = np.random.default_rng(0).random((4, 1, 8, 8))
    labels = np.arange(4) % 3
    for icasc in (IcascConfig(), None):
        training._train_step(model, SgdOptimizer(0.9, 0.0), images, labels,
                             icasc, 0.01)
    metrics._overlap_batch(model, np.arange(4), images, labels, IcascConfig())
    for tape in tapes.values():
        tape.kink_signature()

    kinds = {kind for kind, _ in nodes}
    assert "conv2d_dw" not in kinds
    assert kinds | {"conv2d_dw"} == set(ad._RULES) | {"leaf", "constant"}

    recorded, read = {}, {}
    for kind, meta in nodes:
        family = "conv2d" if kind.startswith("conv2d") else kind
        recorded.setdefault(family, set()).update(meta)
        read.setdefault(family, set()).update(meta.read)
    assert {(family, key) for family, keys in recorded.items()
            for key in keys - read[family]} == {("conv2d", "stride"),
                                                ("conv2d", "padding")}


def command_flags() -> dict[str, list[str]]:
    """Each command's flags, in ``build_parser``'s order, ``--help`` left out."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return {name: [flag for action in sub._actions
                   for flag in action.option_strings
                   if flag not in ("-h", "--help")]
            for name, sub in commands.choices.items()}


def test_the_settable_values_are_the_ones_listed():
    """40 flags across 5 commands and 32 config fields."""
    assert command_flags() == {
        "synth": ["--classes", "--per-class", "--seed", "--canvas",
                  "--noise-std", "--motif-size", "--pair", "--out"],
        "train": ["--data", "--test-data", "--out", "--config", "--seed",
                  "--epochs", "--batch-size", "--lr", "--momentum",
                  "--weight-decay", "--schedule", "--milestones",
                  "--channels", "--baseline", "--flip", "--resume"],
        "eval": ["--checkpoint", "--data", "--out", "--topk", "--attention",
                 "--config"],
        "attend": ["--checkpoint", "--data", "--out", "--samples",
                   "--classes", "--color"],
        "ks": ["--checkpoint", "--data", "--out", "--grid"],
    }
    assert {cls.__name__: [f.name for f in fields(cls)]
            for cls in (IcascConfig, TrainConfig, ModelConfig, SynthSpec)} == {
        "IcascConfig": ["omega", "sigma_factor", "theta", "weight_as_inner",
                        "weight_as_last", "weight_ac"],
        "TrainConfig": ["data_dir", "out_dir", "test_dir", "epochs",
                        "batch_size", "lr", "momentum", "weight_decay",
                        "schedule", "milestones", "seed", "channels", "flip",
                        "resume", "icasc"],
        "ModelConfig": ["channels", "input_size", "input_channels",
                        "n_classes", "kernel_size"],
        "SynthSpec": ["n_classes", "canvas", "noise_std", "confusable_pair",
                      "motif_size", "seed"],
    }
