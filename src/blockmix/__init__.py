"""Mixture modelling for networks via stochastic blockmodels.

Fits blockmodels with three engines: vertex-switching search (Bernoulli,
Poisson and degree-corrected Poisson), variational EM (Bernoulli and
Poisson), and Monte-Carlo EM over a piecewise-constant graphon with
per-node allocation uncertainty (Bernoulli).

The public names below load their submodule on first use (PEP 562), so
``import blockmix`` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCE = {
    **dict.fromkeys(["EdgeListError", "Network", "degrees", "density", "discretize_weights",
                     "load_edge_list", "load_labels", "load_weighted_edge_list",
                     "to_edge_list_text"], "graph"),
    **dict.fromkeys(["BlockParams", "GraphonStep", "Partition", "bernoulli_loglik",
                     "dc_poisson_loglik", "graphon_eval", "mle_block_params",
                     "poisson_complete_loglik"], "models"),
    **dict.fromkeys(["GenConfig", "sample_sbm"], "generate"),
    **dict.fromkeys(["VemConfig", "vem_fit"], "vem"),
    **dict.fromkeys(["MoveDelta", "SwitchConfig", "delta_loglik", "profile_loglik", "switch_fit"],
                    "switch"),
    **dict.fromkeys(["LatentPositions", "McemConfig", "PosteriorSummary", "gini_uncertainty",
                     "mcem_fit"], "mcem"),
    **dict.fromkeys(["PartitionComparison", "rand_index"], "evaluate"),
    **dict.fromkeys(["FitResult", "from_json", "to_json"], "results"),
}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    # an unknown name, a submodule's included, is an AttributeError, so that
    # ``from blockmix import vem`` falls through to importing the submodule
    if name not in _SOURCE:
        raise AttributeError(f"module 'blockmix' has no attribute {name!r}")
    return getattr(importlib.import_module(f"blockmix.{_SOURCE[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
