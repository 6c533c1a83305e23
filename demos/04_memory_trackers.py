"""Print the memory trackers that every memory change is measured by.

Four numbers, each from seeded random features and tracemalloc (what
the call allocates beyond what already exists), the first three in MiB:

- one 20 s ``predict`` (1998 frames) by the full-size 15x5/512 model;
- one list ``predict`` of that model over 20 clips of 98 frames (1 s
  each), which runs as one batch within the 20 s clip's frame budget;
- one N = 2 train step (forward + backward, dropout 0.1) of that model
  on clips of 150 and 200 frames;
- the bytes per frame that a train-mode cache holds in the benchmark's
  layout: 5 blocks of 1 sub-block, 512 channels, dropout 0.1, clips of
  148 and 198 frames.  Views count once, through the array that owns
  their memory, and parameters and running statistics are left out.

Run:  python3 demos/04_memory_trackers.py   (under 10 s on 2 vCPU, ~0.5 GB)
"""

import tracemalloc
from dataclasses import replace

import numpy as np

from lidkit.encoder import EncoderConfig
from lidkit.features import FeatureMap
from lidkit.model import batch_from_features, build_model, model_backward, model_forward, predict

MIB = 1 << 20
LABELS = [f"lang{i}" for i in range(6)]


def full_size_model():
    return build_model(replace(EncoderConfig.full_size(), dropout_rate=0.1), LABELS, seed=0)


def bench_layout_model():
    cfg = EncoderConfig(channels=(512,) * 5, kernel_sizes=(33, 39, 51, 63, 75), sub_blocks=1, input_dim=40,
                        out_channels=512, dropout_rate=0.1)
    return build_model(cfg, LABELS, seed=0)


def feature_maps(frames, seed):
    rng = np.random.default_rng(seed)
    return [FeatureMap(rng.standard_normal((t, 40)).astype(np.float32)) for t in frames]


def train_step(model, maps):
    x, valid = batch_from_features(maps)
    _, _, cache = model_forward(model, x, valid, targets=list(range(len(maps))), mode="train",
                                rng=np.random.default_rng(1))
    model_backward(model, cache)


def peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def cache_bytes(model, cache) -> int:
    """Bytes owned by the arrays reachable from a model_forward cache, parameters and state left out."""
    skip = {id(a) for a in (*model.params.values(), *model.state.values())}
    owners, seen, stack = {}, set(), [cache]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in skip:
                owners[id(obj)] = obj
        elif id(obj) not in seen:
            seen.add(id(obj))
            if isinstance(obj, (list, tuple)):
                stack.extend(obj)
            elif isinstance(obj, dict):
                stack.extend(obj.values())
            elif hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
    return sum(a.nbytes for a in owners.values())


def main():
    model = full_size_model()
    (fm,) = feature_maps([1998], seed=2)
    print(f"full-size 20 s predict:             {peak_mib(lambda: predict(model, fm)):8.2f} MiB")
    clips = feature_maps([98] * 20, seed=5)
    print(f"full-size list predict, 20 x 98 fr: {peak_mib(lambda: predict(model, clips)):8.2f} MiB")
    maps = feature_maps([150, 200], seed=3)
    print(f"full-size train step, 150+200 fr:   {peak_mib(lambda: train_step(model, maps)):8.2f} MiB")
    del model

    model = bench_layout_model()
    x, valid = batch_from_features(feature_maps([148, 198], seed=4))
    _, _, cache = model_forward(model, x, valid, targets=[0, 1], mode="train", rng=np.random.default_rng(1))
    per_frame = cache_bytes(model, cache) / (x.shape[0] * x.shape[2])
    print(f"bench-layout train cache per frame: {per_frame:8.0f} B")


if __name__ == "__main__":
    main()
