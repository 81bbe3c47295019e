"""End-to-end command-line behavior, run in process."""

import json
import re

import numpy as np
import pytest

from blockmix import cli
from blockmix.cli import main
from blockmix.graph import load_edge_list, to_edge_list_text
from blockmix.mcem import McemConfig, mcem_fit_positions
from blockmix.models import BlockParams
from blockmix.results import from_json, to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def planted(tmp_path, capsys):
    """Generated 30-node two-block network with its truth labels."""
    prefix = str(tmp_path / "net")
    code, _, _ = run(
        capsys,
        "generate", "--n", "30", "--K", "2",
        "--block-matrix", "0.6,0.05;0.05,0.6", "--seed", "11",
        "--out-prefix", prefix,
    )
    assert code == 0
    return prefix + ".edges", prefix + ".labels"


class TestStats:
    def test_exact_output(self, tmp_path, capsys):
        path = tmp_path / "toy.edges"
        path.write_text("a b\nc d\n")
        code, out, err = run(capsys, "stats", str(path))
        assert code == 0
        assert err == ""
        assert out == "nodes\t4\nedges\t2\ndensity\t0.333\n"

    def test_count_input(self, tmp_path, capsys):
        path = tmp_path / "toy.edges"
        path.write_text("a b 5\nb c 2\n")
        code, out, _ = run(capsys, "stats", "--count", str(path))
        assert code == 0
        assert "edges\t2" in out

    def test_binned_weight_input(self, tmp_path, capsys):
        path = tmp_path / "toy.edges"
        path.write_text("a b 0.39\nb c 1.0\n")
        code, out, _ = run(capsys, "stats", "--bins", "10", str(path))
        assert code == 0
        assert "nodes\t3" in out
        assert "density\t0.667" in out

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.edges"
        path.write_text("")
        code, out, err = run(capsys, "stats", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert "no edges" in err

    def test_one_node_file_prints_only_the_error(self, tmp_path, capsys):
        path = tmp_path / "one.edges"
        path.write_text("a\n")
        code, out, err = run(capsys, "stats", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: density needs at least two nodes\n"

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "stats", str(tmp_path / "absent.edges"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("lines, message", [
        (["a b 9223372036854775807", "a b 1"], "line 2: 'a' 'b' total more than 2**63 - 1"),
        (["a b 9223372036854775807", "b c 9223372036854775807"],
         "stored values (both orientations when undirected) total more than 2**63 - 1"),
    ])
    @pytest.mark.parametrize("command", [["stats"], ["fit", "--model", "poisson", "--method", "switch", "--K", "2"],
                                         ["fit", "--model", "poisson", "--method", "vem", "--K", "2"]])
    @pytest.mark.parametrize("directed", [False, True])
    def test_count_totals_beyond_int64_are_one_error(self, lines, message, command, directed, tmp_path, capsys):
        # they once wrapped: a negative stored value, or a NaN block matrix from the fit
        path = tmp_path / "big.edges"
        path.write_text("\n".join(lines) + "\n")
        out = ["--out", str(tmp_path / "fit.json")] if command[0] == "fit" else []
        flags = ["--directed"] * directed
        code, printed, err = run(capsys, command[0], str(path), "--count", *flags, *command[1:], *out)
        assert (code, printed, err) == (1, "", f"error: {message}\n")

    def test_repeat_is_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "toy.edges"
        path.write_text("a b\nb c\nc d\n")
        _, out1, _ = run(capsys, "stats", str(path))
        _, out2, _ = run(capsys, "stats", str(path))
        assert out1 == out2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("fit", "x.edges", "--method", "mcem", "--model", "poisson", "--K", "2", "--out", "r.json"),
             "the mcem method fits the model kinds bernoulli, not poisson"),
            (("fit", "x.edges", "--method", "mcem", "--model", "dc_poisson", "--K", "2", "--out", "r.json"),
             "the mcem method fits the model kinds bernoulli, not dc_poisson"),
            (("fit", "x.edges", "--method", "vem", "--model", "dc_poisson", "--K", "2", "--out", "r.json"),
             "the vem method fits the model kinds bernoulli, poisson, not dc_poisson"),
            (("fit", "x.edges", "--method", "vem", "--K", "2", "--out", "r.json", "--trace-out", "t.tsv"),
             "--trace-out applies to the mcem method only"),
        ],
    )
    def test_incompatible_flags_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f" error: {message}\n")

    def test_k_larger_than_network_exit_2(self, tmp_path, capsys):
        path = tmp_path / "toy.edges"
        path.write_text("a b\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(path), "--method", "switch", "--K", "5", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--pi", "0.5,0.3,0.2", "--block-matrix", "0.5,0.1;0.1,0.5"), "pi must have length K"),
            (("--pi", "0.7,0.7", "--block-matrix", "0.5,0.1;0.1,0.5"), "pi must be a simplex vector"),
            (("--pi", "nan,0.5", "--block-matrix", "0.5,0.1;0.1,0.5"), "pi must not contain NaN"),
            (("--block-matrix", "0.5,0.1,0.2;0.1,0.5,0.1;0.2,0.1,0.5"), "block_matrix must be K x K"),
            (("--block-matrix", "0.5,0.1,0.2;0.1,0.5"),
             "--block-matrix must be square: rows ';'-separated, entries ','-separated"),
            (("--block-matrix", "0.5,0.1;0.1,0.5", "--gamma", "0,0,0,0"),
             "gamma is required exactly for dc_poisson"),
            (("--model", "dc_poisson", "--block-matrix", "0.5,0.1;0.1,0.5"), "gamma is required exactly for dc_poisson"),
            (("--model", "dc_poisson", "--block-matrix", "0.5,0.1;0.1,0.5", "--gamma", "0,0,0"),
             "gamma must have one entry per node"),
            (("--model", "dc_poisson", "--block-matrix", "0.5,0.1;0.1,0.5", "--gamma", "0,0,x,0"),
             "could not parse --gamma: '0,0,x,0'"),
        ],
    )
    def test_generate_flag_validation_exit_2(self, flags, message, tmp_path, capsys):
        prefix = str(tmp_path / "x")
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n", "4", "--K", "2", *flags, "--out-prefix", prefix])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f" error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [
            ("--seed", "-1"),
            ("--seed", str(2**64)),
            ("--K", "0"),
            ("--restarts", "0"),
            ("--restarts", "-3"),
        ],
    )
    def test_fit_bad_integer_flag_exit_2(self, flags, tmp_path, capsys):
        path = tmp_path / "toy.edges"
        path.write_text("a b\nb c\n")
        argv = ["fit", str(path), "--method", "switch", "--K", "2", "--out", str(tmp_path / "r.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv + list(flags))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flags[0]}" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [("stats", "w.edges", "--bins", "0"), ("stats", "w.edges", "--bins", str(2**53 + 1)),
         ("eval", "a.labels", "a.labels", "--uncertain", "-1")],
    )
    def test_other_bad_integer_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_largest_seed_accepted(self, tmp_path, capsys):
        path = tmp_path / "toy.edges"
        path.write_text("a b\nb c\n")
        code, _, _ = run(capsys, "fit", str(path), "--method", "switch", "--K", "2",
                         "--seed", str(2**64 - 1), "--out", str(tmp_path / "r.json"))
        assert code == 0

    @pytest.mark.parametrize(
        "flags",
        [("--seed", "-1"), ("--K", "0"), ("--block-matrix", "nan")],
    )
    def test_generate_bad_value_exit_2(self, flags, tmp_path, capsys):
        argv = ["generate", "--n", "4", "--K", "1", "--block-matrix", "0.5",
                "--out-prefix", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as exc:
            main(argv + list(flags))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / "x.edges").exists()

    def test_model_kind_mismatch_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "toy.edges"
        path.write_text("a b 4\nb c 1\n")
        code, _, err = run(
            capsys, "fit", "--count", str(path),
            "--method", "vem", "--K", "2", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "binary" in err


class TestGenerate:
    def test_writes_both_files(self, planted):
        edges, labels = planted
        edge_text = open(edges).read()
        label_text = open(labels).read()
        assert len(label_text.splitlines()) == 30
        assert all(len(line.split()) == 2 for line in label_text.splitlines())
        node_lines = [l for l in edge_text.splitlines() if len(l.split()) == 1]
        assert len(node_lines) == 30  # every node declared, isolated ones included

    def test_deterministic(self, tmp_path, capsys):
        args = (
            "generate", "--n", "12", "--K", "2",
            "--block-matrix", "0.5,0.1;0.1,0.5", "--seed", "3",
        )
        run(capsys, *args, "--out-prefix", str(tmp_path / "a"))
        run(capsys, *args, "--out-prefix", str(tmp_path / "b"))
        assert open(tmp_path / "a.edges").read() == open(tmp_path / "b.edges").read()
        assert open(tmp_path / "a.labels").read() == open(tmp_path / "b.labels").read()

    def test_asymmetric_block_matrix_needs_directed(self, tmp_path, capsys):
        args = ["generate", "--n", "6", "--K", "2", "--block-matrix", "0.9,0.1;0.5,0.9"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out-prefix", str(tmp_path / "u")])
        assert exc.value.code == 2
        assert "symmetric" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        code, _, _ = run(capsys, *args, "--directed", "--out-prefix", str(tmp_path / "d"))
        assert code == 0 and (tmp_path / "d.edges").exists()

    def test_unsampleable_poisson_rate_is_one_error(self, tmp_path, capsys):
        # exp(800) overflows; the rate is refused before any file is written
        code, out, err = run(
            capsys,
            "generate", "--n", "6", "--K", "2", "--model", "poisson",
            "--block-matrix", "800,0;0,800", "--out-prefix", str(tmp_path / "p"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: node pair (") and err.count("\n") == 1
        assert "RuntimeWarning" not in err
        assert list(tmp_path.iterdir()) == []

    def test_poisson_model(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "generate", "--n", "10", "--K", "1", "--model", "poisson",
            "--block-matrix", "0.7", "--out-prefix", str(tmp_path / "p"),
        )
        assert code == 0
        _, out, _ = run(capsys, "stats", "--count", str(tmp_path / "p.edges"))
        assert "nodes\t10" in out


    @pytest.mark.parametrize(
        "model, flags",
        [
            ("poisson", ("--block-matrix", "-0.3,-2;-2,-0.3")),
            ("dc_poisson", ("--block-matrix", "-0.3,-2;-2,-0.3", "--gamma", "-1,0,0.5,-0.5,0,0,1,-0.2")),
        ],
    )
    def test_negative_value_lists_in_both_forms(self, model, flags, tmp_path, capsys):
        from blockmix.generate import GenConfig, sample_sbm

        base = ("generate", "--n", "8", "--K", "2", "--model", model, "--seed", "4")
        joined = tuple(f"{opt}={value}" for opt, value in zip(flags[::2], flags[1::2]))
        for prefix, form in (("spaced", flags), ("joined", joined)):
            code, _, err = run(capsys, *base, *form, "--out-prefix", str(tmp_path / prefix))
            assert code == 0, err
        text = (tmp_path / "spaced.edges").read_text()
        assert text == (tmp_path / "joined.edges").read_text()
        assert (tmp_path / "spaced.labels").read_text() == (tmp_path / "joined.labels").read_text()
        gamma = np.array(flags[3].split(","), dtype=float) if model == "dc_poisson" else None
        params = BlockParams(model, 2, [0.5, 0.5], [[-0.3, -2.0], [-2.0, -0.3]], gamma=gamma)
        net, _ = sample_sbm(GenConfig(8, params, seed=4))
        assert net.n_edges > 0 and text == to_edge_list_text(net)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--seed", "-1"), "argument --seed: must be at least 0"),
            (("--pi", "-0.5,1.5"), "simplex"),
            (("--gamma", "--directed"), "argument --gamma: expected one argument"),
        ],
    )
    def test_negative_values_after_a_value_list(self, flags, message, tmp_path, capsys):
        argv = ["generate", "--n", "4", "--K", "2", "--model", "poisson",
                "--block-matrix", "-1,-2;-2,-1", *flags, "--out-prefix", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_folder_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        import blockmix.generate

        monkeypatch.setattr(blockmix.generate, "sample_sbm", lambda cfg: pytest.fail("sampled"))
        missing = tmp_path / "missing"
        code, out, err = run(capsys, "generate", "--n", "6", "--K", "2", "--block-matrix", "0.5,0.1;0.1,0.5",
                             "--out-prefix", str(missing / "x"))
        assert code == 1
        assert out == ""
        assert err == f"error: output folder {str(missing)!r} does not exist\n"


class TestFitAndEval:
    def test_switch_pipeline_recovers_truth(self, planted, tmp_path, capsys):
        edges, labels = planted
        out = str(tmp_path / "fit.json")
        code, _, _ = run(capsys, "fit", edges, "--method", "switch", "--K", "2", "--out", out)
        assert code == 0
        result = from_json(open(out).read())
        assert result.engine == "switch"
        assert result.labels.size == 30

        code, text, _ = run(capsys, "eval", out, labels)
        assert code == 0
        assert "rand_index\t1.0000" in text
        assert "adjusted_rand\t1.0000" in text
        assert "confusion:" in text
        rows = text.split("confusion:\n")[1].splitlines()[:2]
        table = [[int(v) for v in row.split("\t")] for row in rows]
        assert sum(sum(r) for r in table) == 30

    def test_vem_fit_writes_valid_json(self, planted, tmp_path, capsys):
        edges, _ = planted
        out = str(tmp_path / "fit.json")
        code, _, _ = run(capsys, "fit", edges, "--method", "vem", "--K", "2",
                         "--restarts", "3", "--seed", "5", "--out", out)
        assert code == 0
        obj = json.loads(open(out).read())
        assert obj["engine"] == "vem"
        assert obj["config"]["restarts"] == 3
        assert obj["config"]["seed"] == 5
        assert len(obj["partition"]) == 30

    def test_fit_rerun_is_byte_identical(self, planted, tmp_path, capsys):
        edges, _ = planted
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            run(capsys, "fit", edges, "--method", "vem", "--K", "2",
                "--restarts", "3", "--out", out)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_eval_fit_against_itself(self, planted, tmp_path, capsys):
        edges, _ = planted
        out = str(tmp_path / "fit.json")
        run(capsys, "fit", edges, "--method", "switch", "--K", "2", "--out", out)
        result = from_json(open(out).read())
        self_truth = tmp_path / "self.labels"
        self_truth.write_text(
            "\n".join(f"{n} {result.labels[i]}" for i, n in enumerate(result.node_labels)) + "\n"
        )
        code, text, _ = run(capsys, "eval", out, str(self_truth))
        assert code == 0
        assert "rand_index\t1.0000" in text

    def test_eval_label_files_hand_value(self, tmp_path, capsys):
        pred = tmp_path / "pred.labels"
        truth = tmp_path / "truth.labels"
        pred.write_text("a 1\nb 1\nc 2\n")
        truth.write_text("a 1\nb 1\nc 1\n")
        code, text, _ = run(capsys, "eval", str(pred), str(truth))
        assert code == 0
        assert "rand_index\t0.3333" in text
        assert "agreements\t1" in text
        assert "pairs\t3" in text
        assert "most_uncertain:" not in text

    def test_eval_disjoint_nodes_is_data_error(self, tmp_path, capsys):
        pred = tmp_path / "pred.labels"
        truth = tmp_path / "truth.labels"
        pred.write_text("a 1\nzz 2\n")
        truth.write_text("a 1\nb 1\n")
        code, _, err = run(capsys, "eval", str(pred), str(truth))
        assert code == 1
        assert "node 'zz' missing from the truth labels" in err

        pred.write_text("a 1\nb 1\n")
        truth.write_text("a 1\nb 1\nextra 2\n")
        code, _, err = run(capsys, "eval", str(pred), str(truth))
        assert code == 1
        assert "node 'extra' missing from the predicted labels" in err

    @pytest.mark.parametrize("text, partition, posterior", [
        ('{"schema_version": 1}', None, None), (None, None, None), (None, [1.5, 7], None), (None, [3], None),
        (None, [], (1, 2)), (None, [], (0, 3)),
    ])
    def test_eval_malformed_result_file(self, planted, tmp_path, capsys, text, partition, posterior):
        edges, truth = planted
        out = tmp_path / "fit.json"
        if text is None:
            # a K = 2 fit file whose partition is null or has its leading
            # labels replaced, or that gains a posterior short of
            # ``posterior[0]`` rows with ``posterior[1]`` columns
            run(capsys, "fit", edges, "--method", "switch", "--K", "2", "--out", str(out))
            obj = json.loads(out.read_text())
            if partition is not None:
                partition = partition + obj["partition"][len(partition):]
            obj["partition"] = partition
            if posterior is not None:
                rows, width = len(obj["node_labels"]) - posterior[0], posterior[1]
                obj["posterior"] = {"freq": [[1.0] + [0.0] * (width - 1)] * rows, "gini": [1.0] * rows}
            text = json.dumps(obj)
        out.write_text(text)
        code, text_out, err = run(capsys, "eval", str(out), truth)
        assert code == 1
        assert text_out == ""
        assert err.startswith("error: malformed result file:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_eval_repeated_node_in_result_file(self, tmp_path, capsys):
        # the repeated node "a" was once counted twice, and eval exited 0
        fit, truth = tmp_path / "fit.json", tmp_path / "truth.labels"
        params = {"kind": "bernoulli", "K": 1, "pi": [1.0], "block_matrix": [[0.5]], "gamma": None, "tau": None}
        fit.write_text(json.dumps({
            "schema_version": 1, "engine": "switch", "model": "bernoulli", "K": 1, "seed": 0, "config": {},
            "node_labels": ["a", "a", "b", "c"], "partition": [1, 1, 1, 1], "params": params,
            "objective": 0.0, "trace": [], "posterior": None,
        }))
        truth.write_text("a 1\nb 1\nc 2\n")
        code, out, err = run(capsys, "eval", str(fit), str(truth))
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed result file: bad field 'node_labels'") and err.count("\n") == 1

    def test_eval_nan_graphon_boundary(self, tmp_path, capsys):
        # an mcem file whose tau holds NaN was once scored with exit 0
        fit, truth = tmp_path / "fit.json", tmp_path / "truth.labels"
        params = {"kind": "bernoulli", "K": 2, "pi": [0.5, 0.5], "block_matrix": [[0.5, 0.1], [0.1, 0.5]],
                  "gamma": None, "tau": [0.0, float("nan"), 1.0]}
        fit.write_text(json.dumps({
            "schema_version": 1, "engine": "mcem", "model": "bernoulli", "K": 2, "seed": 0, "config": {},
            "node_labels": ["a", "b"], "partition": [1, 2], "params": params,
            "objective": 0.0, "trace": [], "posterior": None,
        }))
        truth.write_text("a 1\nb 2\n")
        code, out, err = run(capsys, "eval", str(fit), str(truth))
        assert (code, out) == (1, "")
        assert err == "error: malformed result file: bad field 'params' (tau must not contain NaN)\n"

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("method, model", [
        ("vem", "bernoulli"), ("vem", "poisson"),
        ("switch", "bernoulli"), ("switch", "poisson"), ("switch", "dc_poisson"),
    ])
    def test_fit_edgeless_network(self, method, model, directed, tmp_path, capsys):
        edges = tmp_path / "iso.edges"
        edges.write_text("a\nb\nc\nd\n")
        flags = (["--directed"] if directed else []) + ([] if model == "bernoulli" else ["--count"])
        out = tmp_path / "fit.json"
        code, _, err = run(capsys, "fit", str(edges), "--method", method, "--model", model, "--K", "2",
                           "--restarts", "2", "--out", str(out), *flags)
        assert code == 0, err
        assert from_json(out.read_text()).labels.size == 4


    @pytest.mark.parametrize("flag", ["--out", "--trace-out"])
    def test_missing_output_folder_fails_before_loading(self, flag, tmp_path, capsys, monkeypatch):
        path = tmp_path / "toy.edges"
        path.write_text("a b\nb c\n")
        missing = tmp_path / "missing"
        outs = {"--out": str(tmp_path / "r.json"), "--trace-out": str(tmp_path / "t.tsv")}
        outs[flag] = str(missing / "x")
        monkeypatch.setattr(cli, "_load_network", lambda args: pytest.fail("the network was loaded"))
        code, out, err = run(capsys, "fit", str(path), "--method", "mcem", "--K", "2",
                             "--out", outs["--out"], "--trace-out", outs["--trace-out"])
        assert code == 1
        assert out == ""
        assert err == f"error: output folder {str(missing)!r} does not exist\n"
        assert not (tmp_path / "r.json").exists()


class TestMcemCli:
    def test_fit_trace_and_uncertainty(self, tmp_path, capsys):
        prefix = str(tmp_path / "m")
        run(capsys, "generate", "--n", "24", "--K", "2",
            "--block-matrix", "0.6,0.05;0.05,0.6", "--seed", "2",
            "--out-prefix", prefix)
        out = str(tmp_path / "fit.json")
        trace = str(tmp_path / "trace.tsv")
        code, _, _ = run(capsys, "fit", prefix + ".edges", "--method", "mcem",
                         "--K", "2", "--restarts", "3", "--out", out,
                         "--trace-out", trace)
        assert code == 0

        lines = open(trace).read().splitlines()
        assert lines
        first = lines[0].split("\t")
        assert first[0] == "1"
        assert 0.0 <= float(first[2]) < 1.0
        iterations = {int(l.split("\t")[0]) for l in lines}
        assert len(lines) == len(iterations) * 24
        # the winning restart's positions: one block of 24 lines per EM iteration of its trace
        result = from_json(open(out).read())
        assert sorted(iterations) == list(range(1, len(result.trace) + 1))
        net = load_edge_list(open(prefix + ".edges").read())
        fit, positions = mcem_fit_positions(net, McemConfig(K=2, seed=0, restarts=3))
        assert to_json(fit) == open(out).read()
        expected = [f"{it}\t{node}\t{format(float(v), '.17g')}"
                    for it, u_hat in enumerate(positions, start=1) for node, v in zip(net.labels(), u_hat)]
        assert lines == expected

        code, text, _ = run(capsys, "eval", out, prefix + ".labels", "--uncertain", "2")
        assert code == 0
        assert "rand_index\t1.0000" in text
        section = text.split("most_uncertain:\n")[1].splitlines()
        assert len(section) == 2
        assert re.fullmatch(r"\S+\t\d\.\d{4}\t\d\.\d{4} \d\.\d{4}", section[0])

    def test_result_json_has_posterior(self, tmp_path, capsys):
        prefix = str(tmp_path / "m")
        run(capsys, "generate", "--n", "16", "--K", "2",
            "--block-matrix", "0.7,0.05;0.05,0.7", "--seed", "4",
            "--out-prefix", prefix)
        out = str(tmp_path / "fit.json")
        run(capsys, "fit", prefix + ".edges", "--method", "mcem",
            "--K", "2", "--restarts", "2", "--out", out)
        result = from_json(open(out).read())
        assert result.posterior is not None
        assert result.posterior.freq.shape == (16, 2)
        assert isinstance(result.params.tau, np.ndarray)
