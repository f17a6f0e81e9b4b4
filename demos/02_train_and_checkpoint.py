"""
Training the parallel model transductively
==========================================

One branch of two graph convolutions runs per graph; a ranking layer
fuses the branch logits with scalar weights.  Training is full batch:
every subject participates in propagation, only labeled training rows
enter the loss.  The ranking weights stay frozen at 1/M during the
warm-up epochs, then train with everything else.
"""

import os
import tempfile

import numpy as np

from pgcn import (
    TrainConfig,
    accuracy,
    build_graph,
    forward,
    load_checkpoint,
    save_checkpoint,
    synth_generate,
    train,
)

dataset, informative, nuisance = synth_generate(120, 10, seed=5, informative_strength=2.0)
graphs = [build_graph(informative, dataset.X), build_graph(nuisance, dataset.X)]

config = TrainConfig(seed=5, max_epochs=80, omega_warmup_epochs=20, hidden_width=16)
params, history = train(dataset, graphs, config)

print(f"trained {len(history)} epochs, best validation loss at epoch {history.best_epoch}")
first, last = history.records[0], history.records[-1]
print(f"epoch   1: train_loss {first.train_loss:.4f}  val_loss {first.val_loss:.4f}  "
      f"val_acc {first.val_acc:.3f}  omega {np.round(first.omega, 3)}")
print(f"epoch {last.epoch:3d}: train_loss {last.train_loss:.4f}  val_loss {last.val_loss:.4f}  "
      f"val_acc {last.val_acc:.3f}  omega {np.round(last.omega, 3)}")

# The ranking weights stay at 0.5/0.5 through the warm-up, then move.
omegas = history.omegas()
print(f"\nomega at warm-up end : {np.round(omegas[19], 4)}")
print(f"omega five epochs on : {np.round(omegas[24], 4)}")

# Histories export as CSV (epoch, losses, accuracy, one omega column per
# graph) -- the raw material for a weight-trajectory plot -- and
# checkpoints round-trip bit-exactly.  Both files go to a temporary
# directory that is removed after the block.
with tempfile.TemporaryDirectory() as tmp:
    history.to_csv(os.path.join(tmp, "history.csv"))
    with open(os.path.join(tmp, "history.csv")) as fh:
        print(f"\nhistory CSV header: {fh.readline().strip()}")
    save_checkpoint(params, config.seed, os.path.join(tmp, "model.npz"))
    restored, seed = load_checkpoint(os.path.join(tmp, "model.npz"))
ops = [g.normalized for g in graphs]
same = np.array_equal(
    forward(dataset.X, ops, params).probs,
    forward(dataset.X, ops, restored).probs,
)
print(f"checkpoint round trip bit-exact: {same}")

# Evaluation-mode forward is deterministic; dropout only runs in training.
probs = forward(dataset.X, ops, restored).probs
print(f"full-cohort accuracy of restored model: "
      f"{accuracy(probs, dataset.Y, dataset.labeled_mask):.3f}")
