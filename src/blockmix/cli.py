"""Command-line front end: stats, fit, generate, eval.

Every command is a pure function of its input files and flags, so
repeating an invocation reproduces its output byte for byte.  Exit
codes: 0 on success, 1 for data errors (unreadable or inconsistent
input files), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

# The engines, generate, evaluate and results are imported by the commands
# that run them, so starting the CLI loads only numpy, graph and models.
from blockmix.graph import (
    EdgeListError,
    Network,
    density,
    discretize_weights,
    load_edge_list,
    load_labels,
    load_weighted_edge_list,
    to_edge_list_text,
)
from blockmix.models import MODEL_KINDS, BlockParams, Partition, check_kind

METHODS = ("vem", "switch", "mcem")


def _int_in(low: int, high: float = float("inf")):
    """argparse type: an integer in [low, high)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value >= high:
            raise argparse.ArgumentTypeError(f"must be below {high}, got {value}")
        return value

    return integer


def _add_input_flags(sub: argparse.ArgumentParser):
    sub.add_argument("edgelist", help="edge-list file: 'src dst [value]' lines, '#' comments")
    sub.add_argument("--directed", action="store_true", help="treat edges as directed")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="values are integer counts")
    group.add_argument(
        "--bins",
        type=_int_in(1, 2**53 + 1),
        metavar="N",
        help="input carries [0,1] weights; discretize into N count bins (floor rule, top bin closed)",
    )


def _load_network(args) -> Network:
    text = Path(args.edgelist).read_text(encoding="utf-8")
    if args.bins is not None:
        weights, labels = load_weighted_edge_list(text, directed=args.directed)
        return discretize_weights(
            weights, args.bins, n_nodes=len(labels), directed=args.directed, node_labels=labels
        )
    kind = "count" if args.count else "binary"
    return load_edge_list(text, directed=args.directed, value_kind=kind)


def cmd_stats(args, parser) -> int:
    net = _load_network(args)
    rho = density(net)  # may raise: print nothing before it has
    print(f"nodes\t{net.n_nodes}\nedges\t{net.n_edges}\ndensity\t{rho:.3f}")
    return 0


def _check_out_dirs(*paths) -> None:
    """Fail before any work if an output file's folder is missing."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"output folder {str(Path(path).parent)!r} does not exist")


def cmd_fit(args, parser) -> int:
    try:
        check_kind(None, args.model, args.method)
    except ValueError as exc:
        parser.error(str(exc))
    if args.trace_out and args.method != "mcem":
        parser.error("--trace-out applies to the mcem method only")
    _check_out_dirs(args.out, args.trace_out)
    net = _load_network(args)
    if args.K > net.n_nodes:
        parser.error("K cannot exceed the number of nodes")
    restarts = {} if args.restarts is None else {"restarts": args.restarts}

    if args.method == "vem":
        from blockmix.vem import VemConfig, vem_fit

        cfg = VemConfig(K=args.K, seed=args.seed, **restarts)
        result = vem_fit(net, cfg, kind=args.model)
    elif args.method == "switch":
        from blockmix.switch import SwitchConfig, switch_fit

        cfg = SwitchConfig(K=args.K, seed=args.seed, kind=args.model, **restarts)
        result = switch_fit(net, cfg)
    else:
        from blockmix.mcem import McemConfig, mcem_fit_positions

        cfg = McemConfig(K=args.K, seed=args.seed, **restarts)
        result, positions = mcem_fit_positions(net, cfg)

    from blockmix.results import to_json

    Path(args.out).write_text(to_json(result), encoding="utf-8")
    if args.trace_out:
        lines = []
        for it, u_hat in enumerate(positions, start=1):
            for node, value in zip(result.node_labels, u_hat):
                lines.append(f"{it}\t{node}\t{format(float(value), '.17g')}")
        Path(args.trace_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _parse_vector(text: str, what: str, parser) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        parser.error(f"could not parse {what}: {text!r}")


def _parse_matrix(text: str, parser) -> np.ndarray:
    rows = [_parse_vector(row, "--block-matrix row", parser) for row in text.split(";")]
    if any(r.size != len(rows) for r in rows):
        parser.error("--block-matrix must be square: rows ';'-separated, entries ','-separated")
    return np.vstack(rows)


def cmd_generate(args, parser) -> int:
    from blockmix.generate import GenConfig, sample_sbm

    K = args.K
    pi = np.full(K, 1.0 / K) if args.pi is None else _parse_vector(args.pi, "--pi", parser)
    matrix = _parse_matrix(args.block_matrix, parser)
    gamma = None if args.gamma is None else _parse_vector(args.gamma, "--gamma", parser)
    try:  # BlockParams and GenConfig check the values and their sizes
        params = BlockParams(args.model, K, pi, matrix, gamma=gamma)
        cfg = GenConfig(n=args.n, params=params, directed=args.directed, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    _check_out_dirs(args.out_prefix)
    net, part = sample_sbm(cfg)
    labels = net.labels()
    edge_path = Path(args.out_prefix + ".edges")
    label_path = Path(args.out_prefix + ".labels")
    edge_path.write_text(to_edge_list_text(net), encoding="utf-8")
    label_lines = [f"{labels[i]} {part.labels[i]}" for i in range(net.n_nodes)]
    label_path.write_text("\n".join(label_lines) + "\n", encoding="utf-8")
    print(f"wrote {edge_path} and {label_path}")
    return 0


def _labels_from_file(path: str):
    """Node -> group mapping plus node order, from a fit file or label file."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        from blockmix.results import from_json

        result = from_json(text)
        order = list(result.node_labels)
        mapping = {node: str(result.labels[i]) for i, node in enumerate(order)}
        return mapping, order, result
    mapping = load_labels(text)
    return mapping, list(mapping), None


def _to_partition(order, mapping) -> Partition:
    groups: dict[str, int] = {}
    labels = []
    for node in order:
        g = mapping[node]
        if g not in groups:
            groups[g] = len(groups) + 1
        labels.append(groups[g])
    return Partition(np.array(labels), max(len(groups), 1))


def cmd_eval(args, parser) -> int:
    from blockmix.evaluate import rand_index

    pred_map, order, result = _labels_from_file(args.predicted)
    truth_map = load_labels(Path(args.truth).read_text(encoding="utf-8"))
    for node in order:
        if node not in truth_map:
            raise EdgeListError(f"node {node!r} missing from the truth labels")
    for node in truth_map:
        if node not in pred_map:
            raise EdgeListError(f"node {node!r} missing from the predicted labels")

    pred = _to_partition(order, pred_map)
    truth = _to_partition(order, truth_map)
    cmp = rand_index(pred, truth)
    print(f"rand_index\t{cmp.rand_index:.4f}")
    print(f"adjusted_rand\t{cmp.adjusted_rand:.4f}")
    print(f"agreements\t{cmp.agreements}")
    print(f"pairs\t{cmp.total_pairs}")
    print("confusion:")
    for row in cmp.confusion:
        print("\t".join(str(int(v)) for v in row))

    if result is not None and result.posterior is not None:
        post = result.posterior
        count = min(args.uncertain, len(order))
        ranked = sorted(range(len(order)), key=lambda i: (post.gini[i], i))[:count]
        print("most_uncertain:")
        for i in ranked:
            freqs = " ".join(f"{v:.4f}" for v in post.freq[i])
            print(f"{order[i]}\t{post.gini[i]:.4f}\t{freqs}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmix",
        description="Fit stochastic blockmodels to networks and score the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print node, edge, and density statistics")
    _add_input_flags(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_fit = sub.add_parser("fit", help="fit a blockmodel and write a result file")
    _add_input_flags(p_fit)
    p_fit.add_argument("--model", choices=MODEL_KINDS, default="bernoulli")
    p_fit.add_argument("--method", choices=METHODS, required=True)
    p_fit.add_argument("--K", type=_int_in(1), required=True, help="number of blocks")
    p_fit.add_argument(
        "--restarts", type=_int_in(1), default=None, help="override the engine default"
    )
    p_fit.add_argument("--seed", type=_int_in(0, 2**64), default=0)
    p_fit.add_argument("--out", required=True, help="output path for the result JSON")
    p_fit.add_argument(
        "--trace-out",
        default=None,
        help="mcem only: write per-iteration (iteration, node, position) lines",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_gen = sub.add_parser("generate", help="sample a synthetic network with known blocks")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--K", type=_int_in(1), required=True)
    p_gen.add_argument("--pi", default=None, help="comma-separated mixing weights (default uniform)")
    p_gen.add_argument(
        "--block-matrix",
        required=True,
        help="rows ';'-separated, entries ','-separated; probabilities, or log-rates for poisson kinds",
    )
    p_gen.add_argument("--model", choices=MODEL_KINDS, default="bernoulli")
    p_gen.add_argument("--gamma", default=None, help="dc_poisson only: comma-separated node offsets")
    p_gen.add_argument("--directed", action="store_true")
    p_gen.add_argument("--seed", type=_int_in(0, 2**64), default=0)
    p_gen.add_argument("--out-prefix", required=True, help="writes <prefix>.edges and <prefix>.labels")
    p_gen.set_defaults(func=cmd_generate)

    p_eval = sub.add_parser("eval", help="compare a fit or label file against truth labels")
    p_eval.add_argument("predicted", help="fit result JSON or 'node group' label file")
    p_eval.add_argument("truth", help="'node group' label file")
    p_eval.add_argument(
        "--uncertain", type=_int_in(0), default=3, help="how many lowest-confidence nodes to print"
    )
    p_eval.set_defaults(func=cmd_eval)
    return parser


# generate's value lists, whose entries may be negative ("-2.3,-4;-4,-2.3")
_VALUE_LISTS = ("--pi", "--block-matrix", "--gamma")


def _join_value_lists(argv: list[str]) -> list[str]:
    """Join each value-list option with a following token that starts with one '-'.

    argparse reads a token such as "-1,0" as an option, not as a value;
    "--gamma -1,0" becomes "--gamma=-1,0", which it reads as the value.
    A following "--option" is left alone, so a missing value is still
    argparse's usage error.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _VALUE_LISTS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_value_lists(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:  # EdgeListError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
