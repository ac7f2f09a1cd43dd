#!/usr/bin/env python3
"""Neuron-level trajectory prediction with 16-step evaluation rollouts.

Trains Markovian predictors (MLP, per-node MLP, dynamic-edge GNN) with
scheduled sampling on synthetic worms and reports per-step MSE on unseen
individuals, including the 1/8/16-step summary triple.
"""

import argparse
from pathlib import Path

from wormgnn import evaluation as ev
from wormgnn import models as m
from wormgnn import training as tr
from wormgnn.synth import SynthConfig, generate_worm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=400)
    parser.add_argument("--timesteps", type=int, default=640)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--out", type=Path, default=Path("results/trajectory"))
    args = parser.parse_args()

    recs = {}
    for i in range(4):
        cfg = SynthConfig(n_neurons=10, n_timesteps=args.timesteps, n_states=2,
                          noise_std=0.03, mixing_seed=1000 * args.seed + i,
                          latent_seed=args.seed, angular_velocity_jitter=0.05)
        rec = generate_worm(cfg, worm_id=f"w{i}")
        recs[rec.worm_id] = rec

    train_cfg = tr.TrainConfig(fold_count=10, window_len=8, max_epochs=args.epochs,
                               seed=args.seed)
    plan = tr.ExperimentPlan(task="predict", train_worm_ids=["w0", "w1", "w2"],
                             extended_eval_ids=["w3"])
    prepared = tr.prepare_worms(recs, "predict", train_cfg, train_cfg.seed)

    variants = {
        "mlp": m.ModelConfig(module_kind=m.ModuleKind.MLP, task=m.Task.PREDICT,
                             n_neurons=10, hidden_dim=args.hidden),
        "node_mlp": m.ModelConfig(module_kind=m.ModuleKind.NODE_MLP, task=m.Task.PREDICT,
                                  n_neurons=10, hidden_dim=args.hidden),
        "gnn": m.ModelConfig(module_kind=m.ModuleKind.GNN, task=m.Task.PREDICT,
                             n_neurons=10, hidden_dim=args.hidden,
                             edge_mode=m.EdgeMode.DYNAMIC),
    }
    curves = {}
    print(f"{'model':<10} {'1-step':>10} {'8-step':>10} {'16-step':>10}")
    for label, model_cfg in variants.items():
        model = m.NeuralModel(model_cfg, master_seed=args.seed)
        # the run's evaluation rolls the model out 16 steps on the unseen worm w3
        _, metrics = tr.train(model, plan, train_cfg, prepared, test_fold=0, val_fold=1)
        per_step = metrics.per_step_mse
        curves[label] = per_step
        print(f"{label:<10} {per_step[0]:>10.5f} {per_step[7]:>10.5f} {per_step[15]:>10.5f}")

    args.out.mkdir(parents=True, exist_ok=True)
    ev.export_mse_curves(args.out / "mse_per_step.tsv", curves)
    print(f"\nwrote {args.out / 'mse_per_step.tsv'}")


if __name__ == "__main__":
    main()
