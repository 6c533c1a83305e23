"""Full-size six-language run on VoxForge data.  Hours per epoch; not a test.

Recipe
------
1. Download free-speech WAV submissions from voxforge.org for six
   languages: English, German, Spanish, Italian, French, Russian.
   Take 1,500 clips per language (16 kHz mono, clips under 20 s),
   split 1,200 train / 300 validation per language.

2. Build manifests with one JSON object per line:

       {"audio_filepath": "/data/voxforge/en/utt0001.wav", "label": "en"}

3. Train the full-size configuration (15 blocks x 5 sub-blocks,
   512 channels) with the config below.  Measured on 2 vCPU (numpy
   2.4.6, OpenBLAS 0.3.31), one training step of this encoder on two
   clips of 1.5 and 2 s takes 1.4 s (3.2 s when the machine ran ~2x
   slower): ~240 frames/s at 786 MB peak RSS.  At that rate one epoch
   of 7,200 clips of 5 s each (3.6 M frames) takes ~4 h, and the
   config's 100 epochs about 17 days.  Its batch of 16 clips needs far
   more activation memory than such a two-clip step; see ROADMAP.md.

4. Evaluate against data/taxonomy_voxforge.tsv.  A successful run lands
   around 90% language-level validation accuracy, with the residual
   confusion concentrated inside the Romance (es<->it) and Germanic
   (en<->de) genera.

Run:  python3 demos/voxforge_reproduction.py --data-root /data/voxforge
"""

import argparse
import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from lidkit.encoder import EncoderConfig

FULL_CONFIG = {
    "encoder": dataclasses.asdict(dataclasses.replace(EncoderConfig.full_size(), dropout_rate=0.1)),
    "d_att": 256,
    "train": {
        "epochs": 100,
        "batch_size": 16,
        "lr_max": 0.005,
        "lr_min": 1e-4,
        "seed": 0,
        "patience": 10,
        "total_steps": None,
    },
    "augment": {
        "freq_mask_width": 15,
        "n_freq_masks": 2,
        "time_mask_width": 25,
        "n_time_masks": 2,
        "mask_value": 0.0,
        "enabled": True,
    },
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-root", required=True,
                        help="directory with train.jsonl and val.jsonl manifests")
    parser.add_argument("--out", default="voxforge_run")
    args = parser.parse_args()

    root = Path(args.data_root)
    train_m, val_m = root / "train.jsonl", root / "val.jsonl"
    if not (train_m.exists() and val_m.exists()):
        sys.exit(f"expected {train_m} and {val_m}; see the module docstring for the recipe")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(FULL_CONFIG, indent=2))
    print("WARNING: full-size training takes ~4 h per epoch of 7,200 5 s clips on 2 CPU cores.")

    taxonomy = Path(__file__).resolve().parent.parent / "data" / "taxonomy_voxforge.tsv"
    steps = [
        [sys.executable, "-m", "lidkit.cli", "train", "--config", str(cfg_path),
         "--train-manifest", str(train_m), "--val-manifest", str(val_m), "--out", str(out)],
        [sys.executable, "-m", "lidkit.cli", "evaluate", "--checkpoint", str(out / "checkpoint.lidk"),
         "--manifest", str(val_m), "--taxonomy", str(taxonomy),
         "--config", str(cfg_path), "--out", str(out / "eval")],
    ]
    for cmd in steps:
        print("+", " ".join(cmd))
        subprocess.run(cmd, check=True)
    print(f"report: {out / 'eval' / 'report.json'}")


if __name__ == "__main__":
    main()
