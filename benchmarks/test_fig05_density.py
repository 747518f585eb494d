"""Fig. 5: density of node-feature maps across datasets and models.

At sim scale the hidden densities are the paper's reported Fig. 5
values (used as workload statistics); this bench additionally measures
the *trained* hidden-layer density on the train-scale graph, showing
the moderate (not extreme) sparsity that motivates feature compression.
"""

from conftest import once

from repro.eval import print_table
from repro.graphs import load_dataset
from repro.graphs.statistics import density
from repro.nn import TrainConfig, build_model, train
from repro.paper_data import FIG5_HIDDEN_DENSITY
from repro.tensor import Tensor, no_grad


def _measure_densities(quick):
    dataset = "cora"
    graph = load_dataset(dataset, scale="tiny" if quick else "train")
    config = TrainConfig(epochs=20 if quick else 120, patience=1000)
    rows = []
    for model_name in ("gcn", "gin", "graphsage"):
        model = build_model(model_name, graph.feature_dim, graph.num_classes,
                            seed=0)
        train(model, graph, config=config)
        model.eval()
        with no_grad():
            hidden = model.hidden_features(Tensor(graph.features), graph)
        rows.append([model_name, dataset, density(graph.features),
                     density(hidden.data),
                     FIG5_HIDDEN_DENSITY[model_name][dataset]])
    return rows


def test_fig05_feature_density(benchmark, quick):
    rows = once(benchmark, _measure_densities, quick)
    print_table(rows, ["model", "dataset", "input_density",
                       "hidden_density(measured)", "hidden_density(paper)"],
                title="Fig. 5 — feature-map density", float_format="{:.3f}")
    for _, _, input_density, hidden_density, _ in rows:
        # Inputs are very sparse; hidden maps are moderately dense
        # (post-ReLU), the regime Fig. 5 reports (12%-88%).
        assert input_density < 0.2
        assert 0.05 < hidden_density <= 1.0
