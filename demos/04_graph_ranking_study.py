"""
Which graph matters?  A ranking study with shared-split CV
==========================================================

The experiment matrix mirrors the usual ablations: single-graph
baselines, the parallel model with fixed fusion weights, the parallel
model with a trainable ranking layer, and a random-graph control at
matched density.  Every arm trains on the same stratified Monte-Carlo
splits so the paired t-tests are valid.
"""

import os
import tempfile

import numpy as np

from pgcn import (
    Arm,
    ExperimentConfig,
    TrainConfig,
    rank_report,
    render_rank_report,
    run_experiment,
    synth_generate,
)

dataset, _, _ = synth_generate(200, 10, seed=42, informative_strength=1.0, noise=1.0)

config = ExperimentConfig(
    arms=(
        Arm("baseline_informative", ("informative",), fixed_omega=(1.0,)),
        Arm("baseline_nuisance", ("nuisance",), fixed_omega=(1.0,)),
        Arm("fixed_half", ("informative", "nuisance"), fixed_omega=(0.5, 0.5)),
        Arm("trainable", ("informative", "nuisance")),
        Arm("trainable_random", ("informative", "random")),
    ),
    # stronger weight decay keeps the irrelevant branch from memorizing
    # training residuals, so the ranking weights reflect graph utility
    train=TrainConfig(seed=42, l2_lambda=2e-2),
    repeats=5,
)

# run_experiment writes report.txt and one history CSV per training run;
# here they go to a temporary directory that is removed after the block.
with tempfile.TemporaryDirectory() as tmp:
    report = run_experiment(dataset, config, out_dir=tmp)
    summaries = rank_report([os.path.join(tmp, f"history_trainable_rep{r}.csv") for r in range(5)])

print("accuracy by arm (mean +/- sd over shared splits):")
for arm in report.arms:
    print(f"  {arm.name:22s} {arm.mean_acc:.3f} +/- {arm.std_acc:.3f}   auc {arm.mean_auc:.3f}")

print("\npaired comparisons on accuracy:")
for comp in report.comparisons:
    tag = "  (degenerate)" if comp.degenerate else ""
    print(f"  {comp.arm_a} vs {comp.arm_b}: t {comp.t:+.2f}  p {comp.p:.2e}{tag}")

# The trainable arm's final ranking weights point at the useful graph.
history = report.histories[("trainable", 0)]
omega = np.asarray(history.records[-1].omega)
print(f"\ntrainable arm, repeat 0: final omega = {np.round(omega, 4)}")
print("  -> omega_1 (informative) should dominate omega_2 (nuisance)")

print("\n" + render_rank_report(summaries))
