"""Release gate: one test per headline guarantee, each printing a pass/fail line.

Every check here re-derives its expected values independently of the
library (naive loops, closed-form constants, counting arguments) rather
than trusting the implementation under test.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from lidkit.augment import AugmentConfig, apply_specaugment
from lidkit.diagnostics import run_all_checks
from lidkit.encoder import EncoderConfig
from lidkit.evaluation import confusion, load_taxonomy, rollup, top1_accuracy
from lidkit.features import FeatureConfig, FeatureMap, compute_mfsc
from lidkit.model import batch_from_features, build_model, model_forward
from lidkit.sap import sap_forward
from lidkit.synthetic import make_corpus
from lidkit.tensor_ops import (
    conv1d_depthwise,
    conv1d_depthwise_backward,
    conv1d_pointwise,
    conv1d_pointwise_backward,
)
from lidkit.training import TrainConfig, cosine_lr, evaluate_top1, load_checkpoint, save_checkpoint, train
from tests.conftest import DATA_DIR


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient suite: every layer and the full composite, 20 seeds


def test_gradient_suite():
    start = time.monotonic()
    failures = []
    for seed in range(20):
        for result in run_all_checks(seed=seed):
            if not result.passed:
                failures.append(f"seed {seed} {result.name} err={result.max_rel_err:.2e}")
    elapsed = time.monotonic() - start
    _report(
        "gradient suite (20 seeds, all layers + composite)",
        not failures and elapsed < 60.0,
        f"{elapsed:.1f}s" + (f"; {failures[:3]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 2. convolution oracle: independent triple-loop reference


def _naive_depthwise(x, k):
    n, c, t = x.shape
    kk = k.shape[1]
    half = kk // 2
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for ti in range(t):
                acc = 0.0
                for j in range(kk):
                    src = ti + j - half
                    if 0 <= src < t:
                        acc += k[ci, j] * x[ni, ci, src]
                out[ni, ci, ti] = acc
    return out


def _naive_depthwise_backward(g, x, k):
    n, c, t = x.shape
    kk = k.shape[1]
    half = kk // 2
    gx = np.zeros_like(x)
    gk = np.zeros_like(k)
    for ni in range(n):
        for ci in range(c):
            for ti in range(t):
                for j in range(kk):
                    src = ti + j - half
                    if 0 <= src < t:
                        gx[ni, ci, src] += k[ci, j] * g[ni, ci, ti]
                        gk[ci, j] += x[ni, ci, src] * g[ni, ci, ti]
    return gx, gk


def _naive_pointwise(x, w, b):
    n, ci, t = x.shape
    co = w.shape[0]
    out = np.zeros((n, co, t))
    for ni in range(n):
        for oi in range(co):
            for ti in range(t):
                acc = b[oi]
                for ii in range(ci):
                    acc += w[oi, ii] * x[ni, ii, ti]
                out[ni, oi, ti] = acc
    return out


def _naive_pointwise_backward(g, x, w):
    n, ci, t = x.shape
    co = w.shape[0]
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    gb = np.zeros(co)
    for ni in range(n):
        for oi in range(co):
            for ti in range(t):
                gb[oi] += g[ni, oi, ti]
                for ii in range(ci):
                    gx[ni, ii, ti] += w[oi, ii] * g[ni, oi, ti]
                    gw[oi, ii] += x[ni, ii, ti] * g[ni, oi, ti]
    return gx, gw, gb


def test_convolution_oracle():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 9))
        t = int(rng.integers(1, 33))
        k = int(rng.choice([1, 3, 5, 7]))
        co = int(rng.integers(1, 9))
        x = rng.standard_normal((n, c, t))
        kern = rng.standard_normal((c, k))
        g = rng.standard_normal((n, c, t))
        worst = max(worst, float(np.abs(conv1d_depthwise(x, kern) - _naive_depthwise(x, kern)).max()))
        gx, gk = conv1d_depthwise_backward(g, x, kern)
        ngx, ngk = _naive_depthwise_backward(g, x, kern)
        worst = max(worst, float(np.abs(gx - ngx).max()), float(np.abs(gk - ngk).max()))

        w = rng.standard_normal((co, c))
        b = rng.standard_normal(co)
        gp = rng.standard_normal((n, co, t))
        worst = max(worst, float(np.abs(conv1d_pointwise(x, w, b) - _naive_pointwise(x, w, b)).max()))
        gx, gw, gb = conv1d_pointwise_backward(gp, x, w)
        ngx, ngw, ngb = _naive_pointwise_backward(gp, x, w)
        worst = max(
            worst,
            float(np.abs(gx - ngx).max()),
            float(np.abs(gw - ngw).max()),
            float(np.abs(gb - ngb).max()),
        )
    elapsed = time.monotonic() - start
    _report(
        "convolution oracle (100 draws, forward + backward)",
        worst <= 1e-6 and elapsed < 10.0,
        f"max abs diff {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. attention-pooling invariants, 1000 random cases of N = 3 rows each


def _pooling_case_failure(rng) -> str | None:
    """Pool three rows of independent valid lengths; the first broken invariant, or None."""
    c = int(rng.integers(2, 9))
    t = int(rng.integers(2, 17))
    valid = rng.integers(1, t + 1, size=3)
    d_att = int(rng.integers(2, 7))
    params = {
        "sap.W": rng.standard_normal((d_att, c)),
        "sap.b": rng.standard_normal(d_att),
        "sap.mu": rng.standard_normal(d_att),
    }
    x = rng.standard_normal((3, c, t))
    st = sap_forward(x, params, valid)
    x_pad = x.copy()  # garbage beyond each valid length must be bit-neutral
    for i, v in enumerate(valid):
        x_pad[i, :, v:] = 1e6
    st_pad = sap_forward(x_pad, params, valid)
    st1 = sap_forward(x[:, :, :1], params, [1, 1, 1])  # single frames: pooling is the identity
    stu = sap_forward(np.repeat(x[:, :, :1], t, axis=2), params, valid)  # identical frames: uniform weights

    for i, v in enumerate(valid):
        w, e = st.weights[i], st.embedding[i]
        alone = sap_forward(x[i : i + 1], params, valid[i : i + 1])
        checks = [
            (abs(w.sum() - 1.0) <= 1e-6, f"weights sum {w.sum()}"),
            (np.all(w[v:] == 0.0), "weight beyond valid length"),
            (np.all(e >= x[i, :, :v].min(axis=1) - 1e-9) and np.all(e <= x[i, :, :v].max(axis=1) + 1e-9),
             "embedding escapes the frame hull"),
            (np.array_equal(e, st_pad.embedding[i]), "padding leaked into the embedding"),
            (np.abs(st1.embedding[i] - x[i, :, 0]).max() <= 1e-7, "single-frame identity"),
            (np.abs(stu.weights[i, :v] - 1.0 / v).max() <= 1e-6, "uniform frames not uniformly weighted"),
            # to rounding only: the N = 3 call multiplies over max(valid) frames, this one over v
            (np.abs(w - alone.weights[0]).max() <= 1e-12 and np.abs(e - alone.embedding[0]).max() <= 1e-12,
             "row differs from its own N = 1 call"),
        ]
        for passed, what in checks:
            if not passed:
                return f"row {i} (valid {v} of {t}): {what}"
    return None


def test_pooling_invariants():
    rng = np.random.default_rng(11)
    ok = True
    detail = ""
    for case in range(1000):
        failure = _pooling_case_failure(rng)
        if failure:
            ok, detail = False, f"case {case}, {failure}"
            break
    _report("attention pooling invariants (1000 cases of 3 rows)", ok, detail)


# ---------------------------------------------------------------------------
# 4. learning-rate schedule endpoints and monotonicity


def test_schedule_endpoints():
    total = 10_000
    exact = cosine_lr(0, total, 0.005, 1e-4) == 0.005 and cosine_lr(total, total, 0.005, 1e-4) == 1e-4
    sweep = [cosine_lr(s, total, 0.005, 1e-4) for s in range(total + 1)]
    monotone = all(a >= b for a, b in zip(sweep, sweep[1:]))
    _report(
        "cosine schedule (exact endpoints, 10000-step monotone sweep)",
        exact and monotone,
        f"lr(0)={sweep[0]}, lr(total)={sweep[-1]}",
    )


# ---------------------------------------------------------------------------
# 5. learning smoke test on the synthetic spectral-band corpus


def test_learning_smoke():
    start = time.monotonic()
    corpus = make_corpus(n_classes=3, clips_per_class=10, seed=0)
    fcfg = FeatureConfig()
    labels = sorted({lab for _, lab in corpus})
    idx = {lab: i for i, lab in enumerate(labels)}
    data = [(compute_mfsc(clip, fcfg), idx[lab]) for clip, lab in corpus]

    # untrained 23-class model scores classes near-uniformly: loss ~ ln 23
    model23 = build_model(EncoderConfig.tiny(), [f"l{i}" for i in range(23)], seed=0, d_att=16)
    x, valid = batch_from_features([data[0][0]])
    _, loss23, _ = model_forward(model23, x, valid, targets=[0], mode="eval")
    init_ok = abs(loss23 - math.log(23)) <= 0.2

    model = build_model(EncoderConfig.tiny(), labels, seed=0, d_att=16)
    cfg = TrainConfig(epochs=150, batch_size=30, seed=0, patience=1000, lr_max=0.05, lr_min=1e-3)
    train(model, data, data, cfg)
    acc = evaluate_top1(model, data)
    elapsed = time.monotonic() - start
    _report(
        "learning smoke test (3-class corpus, <=200 epochs)",
        init_ok and acc >= 0.95 and elapsed < 300.0,
        f"initial 23-class loss {loss23:.4f} (ln 23 = {math.log(23):.4f}), "
        f"train top-1 {acc:.2f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. evaluation algebra on the 23-language / 4-genus / 2-family fixture


def test_evaluation_algebra():
    tax = load_taxonomy(DATA_DIR / "taxonomy_23_4_2.tsv")
    langs = sorted(tax.entries)
    genus_set = {genus for genus, _ in tax.entries.values()}
    family_set = {family for _, family in tax.entries.values()}
    assert (len(langs), len(genus_set), len(family_set)) == (23, 4, 2)
    rng = np.random.default_rng(5)
    ok = True
    detail = ""
    for draw in range(1000):
        n = int(rng.integers(5, 60))
        labels = [langs[i] for i in rng.integers(0, len(langs), n)]
        known = sorted(rng.choice(langs, size=int(rng.integers(3, len(langs))), replace=False))
        preds = [known[i] for i in rng.integers(0, len(known), n)]

        known_pairs = [(p, y) for p, y in zip(preds, labels) if y in set(known)]
        if known_pairs:
            kp = [p for p, _ in known_pairs]
            ky = [y for _, y in known_pairs]
            a_lang = top1_accuracy(kp, ky)
            a_gen = top1_accuracy(rollup(kp, tax, "genus"), rollup(ky, tax, "genus"))
            a_fam = top1_accuracy(rollup(kp, tax, "family"), rollup(ky, tax, "family"))
            if not (a_fam >= a_gen >= a_lang):
                ok, detail = False, f"draw {draw}: roll-up not monotone ({a_lang}, {a_gen}, {a_fam})"
                break

        known_cm, unknown_cm = confusion(preds, labels, known)
        if known_cm.counts.sum() + unknown_cm.counts.sum() != n:
            ok, detail = False, f"draw {draw}: confusion matrices do not partition the utterances"
            break
    _report("evaluation algebra (1000 draws, roll-up monotone + partition)", ok, detail)


# ---------------------------------------------------------------------------
# 7. checkpoint round trip and bit-identical resume


def _resume_dataset(rng, n=24, t=12, f=8):
    data = []
    for i in range(n):
        fm = FeatureMap(data=rng.standard_normal((t, f)).astype(np.float32), id=f"u{i}")
        data.append((fm, i % 3))
    return data


def test_serialization_and_resume(tmp_path):
    cfg_enc = EncoderConfig(channels=(4, 4), kernel_sizes=(3, 3), sub_blocks=2,
                            input_dim=8, out_channels=6, dropout_rate=0.0)
    data = _resume_dataset(np.random.default_rng(3))
    labels = ["a", "b", "c"]

    model = build_model(cfg_enc, labels, seed=1, d_att=4)
    p1 = tmp_path / "rt1.lidk"
    p2 = tmp_path / "rt2.lidk"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    round_trip = p1.read_bytes() == p2.read_bytes()

    # 24 utterances at batch size 4 -> 6 steps per epoch; 10 epochs = 60 steps
    common = dict(batch_size=4, seed=9, patience=1000, total_steps=60)
    full = build_model(cfg_enc, labels, seed=1, d_att=4)
    train(full, data, data, TrainConfig(epochs=10, **common))

    part = build_model(cfg_enc, labels, seed=1, d_att=4)
    ckpt = tmp_path / "resume.lidk"
    train(part, data, data, TrainConfig(epochs=5, **common), checkpoint_path=ckpt)
    resumed = load_checkpoint(ckpt)
    train(resumed, data, data, TrainConfig(epochs=10, **common), start_epoch=5)

    identical = (
        full.step == resumed.step == 60
        and all(np.array_equal(full.params[k], resumed.params[k]) for k in full.params)
        and all(np.array_equal(full.state[k], resumed.state[k]) for k in full.state)
    )
    _report(
        "serialization (byte-identical round trip, bit-identical 60-step resume)",
        round_trip and identical,
        f"round_trip={round_trip}, resume_identical={identical}",
    )


# ---------------------------------------------------------------------------
# 8. masking augmentation: passthrough, bounds, start uniformity


def test_masking_augmentation():
    rng = np.random.default_rng(2)
    base = FeatureMap(data=np.abs(rng.standard_normal((30, 12))).astype(np.float32) + 0.5, id="aug")

    disabled = apply_specaugment(base, AugmentConfig(enabled=False), np.random.default_rng(0))
    zero = apply_specaugment(
        base,
        AugmentConfig(freq_mask_width=0, time_mask_width=0, n_freq_masks=2, n_time_masks=2),
        np.random.default_rng(0),
    )
    passthrough = np.array_equal(disabled.data, base.data) and np.array_equal(zero.data, base.data)

    cfg = AugmentConfig(freq_mask_width=4, n_freq_masks=1, time_mask_width=6, n_time_masks=1)
    draw_rng = np.random.default_rng(12345)
    bounds = True
    starts_by_width: dict[int, list[int]] = {}
    for _ in range(10_000):
        out = apply_specaugment(base, cfg, draw_rng)
        zero_cols = np.flatnonzero(np.all(out.data == 0.0, axis=0))
        zero_rows = np.flatnonzero(np.all(out.data == 0.0, axis=1))
        if len(zero_cols) > cfg.freq_mask_width or len(zero_rows) > cfg.time_mask_width:
            bounds = False
            break
        if len(zero_cols):  # contiguous band at the drawn width
            if zero_cols[-1] - zero_cols[0] + 1 != len(zero_cols):
                bounds = False
                break
            starts_by_width.setdefault(len(zero_cols), []).append(int(zero_cols[0]))

    # start positions should be uniform over the legal range, given the width
    width, starts = max(starts_by_width.items(), key=lambda kv: len(kv[1]))
    n_positions = base.n_bins - width + 1
    observed = np.bincount(starts, minlength=n_positions)
    _, p_value = stats.chisquare(observed)
    _report(
        "masking augmentation (passthrough, bounds, chi-square uniformity)",
        passthrough and bounds and p_value >= 0.01,
        f"chi-square p={p_value:.3f} at width {width} over {len(starts)} draws",
    )


# ---------------------------------------------------------------------------
# optional large-scale track


@pytest.mark.skip(
    reason="multi-hour full-size run on the six-language VoxForge corpus; "
    "see demos/voxforge_reproduction.py for the documented recipe"
)
def test_voxforge_track():
    pass
