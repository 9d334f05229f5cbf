import math
import platform
import weakref

import pytest

from icasc import autodiff as ad
from icasc import data as dio
from icasc import training
from icasc.losses import IcascConfig
from icasc.nn import ConfigError
from icasc.training import LOG_COLUMNS, TrainConfig, read_log, train


@pytest.fixture(scope="module")
def synth_set(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth") / "d"
    dio.generate_synth(dio.SynthSpec(n_classes=3, canvas=16, motif_size=3,
                                     seed=2), 4, root)
    return root


@pytest.mark.parametrize("baseline", [True, False])
def test_epoch_logs_finite_in_range_row(synth_set, tmp_path, baseline):
    theta = IcascConfig().theta
    result = train(TrainConfig(
        data_dir=str(synth_set), test_dir=str(synth_set),
        out_dir=str(tmp_path / "run"), epochs=1, batch_size=8,
        channels=(4, 8), lr=0.01, icasc=None if baseline else IcascConfig()))
    (row,) = result.log
    assert all(math.isfinite(getattr(row, c)) for c in LOG_COLUMNS)
    assert row.l_c > 0
    assert 0.0 <= row.train_acc <= 1.0 and 0.0 <= row.test_acc <= 1.0
    assert 0.0 <= row.skip_rate <= 1.0
    if baseline:
        assert (row.l_as_in, row.l_as_la, row.l_ac, row.skip_rate) == \
            (0.0, 0.0, 0.0, 0.0)
        assert row.total == row.l_c
    else:
        assert 0.0 <= row.l_as_in <= 1.0 and 0.0 <= row.l_as_la <= 1.0
        assert theta - 1.0 <= row.l_ac <= theta
        assert row.total == pytest.approx(
            row.l_c + row.l_as_in + row.l_as_la + row.l_ac, rel=1e-12)
    assert read_log(tmp_path / "run" / "train_log.csv") == result.log


def test_run_config_echoes_icasc_settings_only_when_used(tmp_path):
    def echo(icasc):
        return TrainConfig(data_dir="d", out_dir="o", icasc=icasc).to_kv()

    assert echo(None).endswith("channels = 8,16\nbaseline = true\n"
                               "flip = false\n")
    assert echo(IcascConfig()) == \
        echo(None).replace("baseline = true", "baseline = false") + \
        IcascConfig().to_text()


@pytest.mark.parametrize("baseline", [True, False])
def test_training_loop_holds_one_tape_at_a_time(synth_set, tmp_path,
                                                monkeypatch, baseline):
    """Each step's tape is dead before the next step makes its own, so the
    loop never holds two tapes."""
    made = []

    class WatchedTape(ad.Tape):
        def __init__(self):
            live = [k for k, ref in enumerate(made) if ref() is not None]
            assert not live, f"tapes {live} alive at step {len(made)}"
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(training, "Tape", WatchedTape)
    train(TrainConfig(data_dir=str(synth_set), out_dir=str(tmp_path / "run"),
                      epochs=2, batch_size=4, channels=(4, 8), lr=0.01,
                      icasc=None if baseline else IcascConfig()))
    assert len(made) == 2 * 3         # 12 samples in batches of 4, 2 epochs


def test_train_sets_the_allocator_policy_first(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(ad, "keep_freed_heap", lambda: calls.append("policy"))
    with pytest.raises(dio.DataError):
        train(TrainConfig(data_dir=str(tmp_path / "missing"),
                          out_dir=str(tmp_path / "o")))
    assert calls == ["policy"]


@pytest.mark.parametrize("libc, expected", [
    (("glibc", "2.39"), [(-3, 32 << 20), (-1, 1 << 30)]),
    (("", ""), []),                   # what musl and other C libraries report
], ids=["glibc", "other"])
def test_allocator_policy_sets_mallopt_on_glibc_only(monkeypatch, libc,
                                                     expected):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    class Libc:
        def __init__(self, name):
            assert name is None
            self.mallopt = mallopt

    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: libc)
    monkeypatch.setattr(ad.ctypes, "CDLL", Libc)
    ad.keep_freed_heap.cache_clear()
    try:
        ad.keep_freed_heap()
        ad.keep_freed_heap()           # cached: the policy is set once
    finally:
        # the next call sets the real policy again
        ad.keep_freed_heap.cache_clear()
    assert calls == expected


def test_unknown_schedule_is_rejected_before_out_dir(synth_set, tmp_path):
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match="schedule"):
        train(TrainConfig(data_dir=str(synth_set), out_dir=str(out),
                          schedule="cosin"))
    assert not out.exists()


class Crash(Exception):
    pass


@pytest.mark.parametrize("target", ["best.ckpt", "final.ckpt"])
def test_resume_after_crash_between_epoch_writes_is_byte_identical(
        tmp_path, monkeypatch, target):
    root = tmp_path / "d"
    dio.generate_synth(dio.SynthSpec(n_classes=2, canvas=16, motif_size=3,
                                     noise_std=0.02, seed=3), 16, root)

    # epoch 1 is a new best here, so both checkpoints are due in its window
    def config(out, resume=False):
        return TrainConfig(data_dir=str(root), out_dir=str(out), epochs=3,
                           batch_size=4, channels=(4, 8), lr=0.1, seed=1,
                           resume=resume)

    train(config(tmp_path / "full"))

    # epoch 1 dies after its log row is written, before ``target`` is saved
    real_save = training.save_checkpoint
    crashed = []

    def crashing_save(path, model, extra=None, velocity=None):
        if path.name == target and extra["epoch"] == 1:
            crashed.append(path)
            raise Crash
        real_save(path, model, extra, velocity)

    monkeypatch.setattr(training, "save_checkpoint", crashing_save)
    with pytest.raises(Crash):
        train(config(tmp_path / "cut"))
    assert crashed
    assert len(read_log(tmp_path / "cut" / "train_log.csv")) == 2
    monkeypatch.setattr(training, "save_checkpoint", real_save)

    train(config(tmp_path / "cut", resume=True))
    for name in ("final.ckpt", "best.ckpt", "train_log.csv"):
        assert (tmp_path / "cut" / name).read_bytes() == \
            (tmp_path / "full" / name).read_bytes(), name
