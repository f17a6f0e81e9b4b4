"""
Building population graphs from subject metadata
=================================================

Every metadata element (age, gender, site, ...) induces its own graph
over the same cohort: subjects are vertices, and two subjects are joined
when their values agree (categorical) or lie within a threshold
(continuous).  Feature similarity then weights each edge, and the
propagation operator is the symmetrically normalized weight matrix with
self-loops.
"""

import os
import tempfile

import numpy as np

from pgcn import (
    MetaColumn,
    build_affinity,
    build_edges,
    build_graph,
    load_edge_list,
    normalize,
    random_graph,
    save_edge_list,
    similarity_matrix,
    synth_generate,
)

rng = np.random.default_rng(0)

# A small synthetic cohort: 40 subjects, 8 features, one metadata column
# that tracks the label and one that ignores it.
dataset, informative, nuisance = synth_generate(40, 8, seed=7, informative_strength=2.0)
print(f"cohort: {dataset.n_subjects} subjects, {dataset.n_features} features")
print(f"informative codes: {informative.values[:10]} ...")

# Step 1: edges from one metadata column.  Categorical columns connect
# equal codes; continuous columns use |difference| < beta.
edges = build_edges(informative)
print(f"\ninformative-column edges: {np.count_nonzero(np.triu(edges, 1))} pairs")

ages = MetaColumn("age", "continuous", rng.uniform(40.0, 70.0, size=40))
age_edges = build_edges(ages, beta=5.0)
print(f"age edges with beta=5 years: {np.count_nonzero(np.triu(age_edges, 1))} pairs")

# Step 2: weight surviving edges by feature similarity (Pearson by
# default).  Anti-correlated pairs keep their edge but drop to weight 0,
# because the normalization needs nonnegative weights.
sim = similarity_matrix(dataset.X)
weights = build_affinity(sim, edges)
print(f"\nsimilarity range on edges: "
      f"[{weights.data.min() if weights.nnz else 0.0:.3f}, "
      f"{weights.data.max() if weights.nnz else 0.0:.3f}]")
print(f"clamped (zero-weight) edges: {np.count_nonzero(weights.data == 0.0) // 2}")

# Step 3: the propagation operator D^{-1/2} (W + I) D^{-1/2}.  Its
# spectrum lives in [-1, 1], which keeps repeated propagation stable.
a_hat = normalize(weights)
dense = a_hat.to_dense()
top = np.max(np.abs(np.linalg.eigvalsh(dense)))
print(f"\nnormalized operator: dim {a_hat.dim}, nnz {a_hat.nnz}, spectral radius {top:.12f}")

# One call does all three steps.
graph = build_graph(informative, dataset.X)
print(f"pipeline graph '{graph.source}': {graph.edge_count} edges, density {graph.density:.3f}")

# Random graphs (for ablation studies) and edge-list round trips.
rand = random_graph(40, density=graph.density, seed=3)
print(f"random graph at matched density: {rand.edge_count} edges")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "graph.txt")
    save_edge_list(graph, path)
    reloaded = load_edge_list(path)
print(f"edge-list round trip: weights identical = "
      f"{np.array_equal(reloaded.weights.to_dense(), graph.weights.to_dense())}")
