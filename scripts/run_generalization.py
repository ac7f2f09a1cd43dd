#!/usr/bin/env python3
"""Cross-individual generalization experiment on synthetic worms.

Trains the linear hinge-loss baseline, the MLP and the edge-inferring GNN
on three individuals and evaluates on two unseen ones, across several master
seeds; the linear row is included for the qualitative trend (its cross-worm
accuracy is reported, not asserted).  Prints a summary table shaped like
the binary-classification comparison and writes a TSV alongside.
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from wormgnn import evaluation as ev
from wormgnn import models as m
from wormgnn import training as tr
from wormgnn.synth import SynthConfig, generate_worm


def build_worms(master_seed: int, n_worms: int, t: int) -> dict:
    recs = {}
    for i in range(n_worms):
        cfg = SynthConfig(n_neurons=15, n_timesteps=t, n_states=2, noise_std=0.05,
                          mixing_seed=1000 * master_seed + i, latent_seed=master_seed,
                          angular_velocity_jitter=0.05)
        rec = generate_worm(cfg, worm_id=f"w{i}")
        recs[rec.worm_id] = rec
    return recs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3, help="number of master seeds")
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--timesteps", type=int, default=800)
    parser.add_argument("--out", type=Path, default=Path("results/generalization"))
    args = parser.parse_args()

    rows = {"linear": ([], []), "mlp": ([], []), "gnn": ([], [])}
    for master_seed in range(args.seeds):
        recs = build_worms(master_seed, 5, args.timesteps)
        cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=args.epochs,
                             seed=master_seed)
        plan = tr.ExperimentPlan(task="classify2", train_worm_ids=["w0", "w1", "w2"],
                                 held_out_worm_ids=["w3", "w4"])
        prepared = tr.prepare_worms(recs, "classify2", cfg, cfg.seed)

        for kind in (m.ModuleKind.LINEAR, m.ModuleKind.MLP, m.ModuleKind.GNN):
            model = m.NeuralModel(
                m.ModelConfig(module_kind=kind, task=m.Task.CLASSIFY, n_neurons=15,
                              n_states=2, hidden_dim=16, edge_mode=m.EdgeMode.STATIC),
                master_seed=master_seed)
            run_cfg = replace(cfg, learning_rate=0.05) if kind is m.ModuleKind.LINEAR else cfg
            _, metrics = tr.train(model, plan, run_cfg, prepared, test_fold=0, val_fold=1)
            rows[kind.value][0].append(metrics.accuracy_test)
            rows[kind.value][1].append(metrics.accuracy_generalization)
        print(f"seed {master_seed}: done")

    print(f"\n{'model':<8} {'same-worm test':>18} {'held-out worms':>18}")
    table = []
    for label in ("linear", "mlp", "gnn"):
        test_accs, gen_accs = rows[label]
        test = f"{np.mean(test_accs):.3f} +- {np.std(test_accs):.3f}"
        gen = f"{np.mean(gen_accs):.3f} +- {np.std(gen_accs):.3f}"
        print(f"{label:<8} {test:>18} {gen:>18}")
        table.append((label, float(np.mean(gen_accs)), float(np.std(gen_accs))))

    args.out.mkdir(parents=True, exist_ok=True)
    ev.export_accuracy_table(args.out / "heldout_accuracy.tsv", table)
    print(f"\nwrote {args.out / 'heldout_accuracy.tsv'}")


if __name__ == "__main__":
    main()
