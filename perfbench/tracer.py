"""Per-layer timings and counts for the traced run.

The tracer wraps public functions of ``pgcn``'s modules from outside.  A
function is patched under every name that any ``pgcn`` module bound it
to (``pgcn.model.spmm``, ``pgcn.training.forward``, ``pgcn.cli.forward_eval``
and so on), so calls through imported names are seen too.  Each call
records inclusive time, and self time: inclusive time minus the
inclusive time of wrapped calls made inside it.
"""

import sys
import time
import tracemalloc
from collections import defaultdict

TARGETS = (
    ("pgcn.linalg", "spmm"),
    ("pgcn.graphs", "build_edges"),
    ("pgcn.graphs", "similarity_matrix"),
    ("pgcn.graphs", "build_affinity"),
    ("pgcn.graphs", "normalize"),
    ("pgcn.graphs", "random_graph"),
    ("pgcn.graphs", "build_graph"),
    ("pgcn.graphs", "save_edge_list"),
    ("pgcn.graphs", "load_edge_list"),
    ("pgcn.data", "load_dataset"),
    ("pgcn.experiments", "build_arm_graphs"),
    ("pgcn.model", "forward"),
    ("pgcn.model", "backward"),
    ("pgcn.training", "train"),
    ("pgcn.training", "adam_step"),
    ("pgcn.training", "loss"),
    ("pgcn.training", "grad_check"),
    ("pgcn.stats", "accuracy"),
    ("pgcn.stats", "auc"),
    ("pgcn.stats", "paired_t_test"),
    ("pgcn.stats", "stratified_mc_split"),
    ("pgcn.crossval", "cross_validate"),
)
STATS_FUNCTIONS = ("stats.accuracy", "stats.auc", "stats.paired_t_test", "stats.stratified_mc_split")


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.build_keys = []
        self.first_build = None
        self._stack = []
        self._patches = []

    def _wrap(self, key, fn, after=None):
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.inclusive[key] += elapsed
                self.own[key] += elapsed - children[0]
                self.calls[key] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # counters read from a wrapped call's arguments and result

    def _after_spmm(self, args, kwargs, out):
        self.counts["spmm_flops"] += 2 * args[0].nnz * out.shape[1]

    def _after_build_graph(self, args, kwargs, out):
        col = args[0]
        self.build_keys.append((col.name, kwargs.get("beta"), kwargs.get("metric", "pearson")))
        if self.first_build is None:
            self.first_build = (args, kwargs)

    def _after_edge_io(self, args, kwargs, out):
        graph = args[0] if out is None else out
        self.counts["edge_lines"] += int(graph.edges.sum()) // 2

    def _after_train(self, args, kwargs, out):
        config = args[2]
        history = out[1]
        self.counts["epochs"] += len(history)
        self.counts["best_epochs"] += history.best_epoch
        self.counts["runs_at_max_epochs"] += len(history) == config.max_epochs

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "pgcn" or name.startswith("pgcn.")]
        hooks = {
            "linalg.spmm": self._after_spmm,
            "graphs.build_graph": self._after_build_graph,
            "graphs.save_edge_list": self._after_edge_io,
            "graphs.load_edge_list": self._after_edge_io,
            "training.train": self._after_train,
        }
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            key = f"{module_name[5:]}.{attr}"
            traced = self._wrap(key, original, hooks.get(key))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)
                        self._patches.append((module, name, original))
        matrix = sys.modules["pgcn.linalg"].SparseSymMatrix
        original = matrix.__dict__["from_dense"]
        matrix.from_dense = classmethod(self._wrap("linalg.from_dense", original.__func__))
        self._patches.append((matrix, "from_dense", original))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def build_peak_mb(self):
        """tracemalloc peak of the job's first ``build_graph`` call, run again untraced."""
        if self.first_build is None:
            return 0.0
        args, kwargs = self.first_build
        tracemalloc.start()
        try:
            sys.modules["pgcn.graphs"].build_graph(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def metrics(self):
        inc, own, calls, counts = self.inclusive, self.own, self.calls, self.counts
        epochs = counts["epochs"]
        builds = len(self.build_keys)
        return {
            "graphs.build_edges_s": inc["graphs.build_edges"],
            "graphs.similarity_matrix_s": inc["graphs.similarity_matrix"],
            "graphs.similarity_matrix_calls": calls["graphs.similarity_matrix"],
            "graphs.build_affinity_s": inc["graphs.build_affinity"],
            "graphs.normalize_s": inc["graphs.normalize"],
            "linalg.from_dense_s": inc["linalg.from_dense"],
            "graphs.build_peak_mb": self.build_peak_mb(),
            "graphs.build_useful_ratio": len(set(self.build_keys)) / builds if builds else 0.0,
            "graphs.random_graph_s": inc["graphs.random_graph"],
            "graphs.save_edge_list_s": inc["graphs.save_edge_list"],
            "graphs.load_edge_list_s": inc["graphs.load_edge_list"],
            "graphs.edge_lines": counts["edge_lines"],
            "data.load_dataset_s": inc["data.load_dataset"],
            "experiments.build_arm_graphs_s": inc["experiments.build_arm_graphs"],
            "linalg.spmm_s": inc["linalg.spmm"],
            "linalg.spmm_calls": calls["linalg.spmm"],
            "linalg.spmm_flops": counts["spmm_flops"],
            "model.forward_s": inc["model.forward"],
            "model.backward_s": inc["model.backward"],
            "model.self_s": own["model.forward"] + own["model.backward"],
            "training.train_s": inc["training.train"],
            "training.epochs": epochs,
            "training.epoch_ms": 1000.0 * inc["training.train"] / epochs if epochs else 0.0,
            "training.adam_step_s": inc["training.adam_step"],
            "training.loss_s": inc["training.loss"],
            "training.grad_check_s": inc["training.grad_check"],
            "training.best_epoch_ratio": counts["best_epochs"] / epochs if epochs else 0.0,
            "training.runs_at_max_epochs": counts["runs_at_max_epochs"],
            "stats.total_s": sum(inc[k] for k in STATS_FUNCTIONS),
            "crossval.self_s": own["crossval.cross_validate"],
        }
