#!/usr/bin/env python3
"""Full worm-permutation x 10-fold cross-validation sweep on synthetic worms.

Generates five individuals, then for each model runs every size-r worm
permutation with 10-fold cross-validation (pairs give 10 x 10 = 100 runs
per model) and writes per-run records plus a mean +- std summary.
"""

import argparse
import json
from pathlib import Path

from wormgnn import models as m
from wormgnn import training as tr
from wormgnn.synth import SynthConfig, generate_worm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--timesteps", type=int, default=640)
    parser.add_argument("--permutation-size", type=int, default=2)
    parser.add_argument("--out", type=Path, default=Path("results/crossval"))
    args = parser.parse_args()

    recs = {}
    for i in range(5):
        cfg = SynthConfig(n_neurons=15, n_timesteps=args.timesteps, n_states=2,
                          noise_std=0.05, mixing_seed=1000 * args.seed + i,
                          latent_seed=args.seed, angular_velocity_jitter=0.05)
        rec = generate_worm(cfg, worm_id=f"w{i}")
        recs[rec.worm_id] = rec

    args.out.mkdir(parents=True, exist_ok=True)
    train_cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=args.epochs,
                               seed=args.seed)
    plan = tr.ExperimentPlan(task="classify2", train_worm_ids=sorted(recs))

    for kind in (m.ModuleKind.MLP, m.ModuleKind.GNN):
        model_cfg = m.ModelConfig(module_kind=kind, task=m.Task.CLASSIFY, n_neurons=15,
                                  n_states=2, hidden_dim=16, edge_mode=m.EdgeMode.STATIC)
        done = []

        def progress(pi, fold, metrics, todo):
            done.append(None)
            if len(done) % 20 == 0:
                print(f"  {kind.value}: {len(done)} cells")

        records, summary = tr.cross_validate(recs, plan, train_cfg, model_cfg,
                                             permutation_size=args.permutation_size,
                                             progress=progress)
        path = args.out / f"{kind.value}_records.jsonl"
        path.write_text("\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in records) + "\n")
        (args.out / f"{kind.value}_summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=1) + "\n")
        acc = summary.get("accuracy_test", {})
        gen = summary.get("accuracy_generalization", {})
        print(f"{kind.value}: {summary['runs']} runs, "
              f"test {acc.get('mean', float('nan')):.3f} +- {acc.get('std', 0.0):.3f}, "
              f"held-out {gen.get('mean', float('nan')):.3f} +- {gen.get('std', 0.0):.3f}")


if __name__ == "__main__":
    main()
