"""The command-line surface: subcommands, JSON output, exit codes."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit.cli import _group_from_text, _int_list, main
from epkit.errors import InputError
from epkit.generators import random_instance
from epkit.graph import dump_json, graph_from_json_dict, graph_to_json_dict
from epkit.groups import Cyclic, Product, Symmetric
from epkit.packing import expansion_from_json_dict, verify_expansion
from epkit.treedec import tree_decomposition
from test_treedec import td_to_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, argv_gen, capsys):
    path = tmp_path / name
    code = main(list(argv_gen) + ["--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


class TestHelpers:
    def test_int_list(self):
        assert _int_list("0,4,2") == [0, 4, 2]
        assert _int_list("7") == [7]
        # int() alone reads "1_0" as 10 and Arabic-Indic or superscript digits
        for bad in ("1,x", "0,1_0", "\u0663", "1,\u00b2"):
            with pytest.raises(InputError):
                _int_list(bad)

    def test_group_from_text(self):
        assert _group_from_text("z3") == Cyclic(3)
        assert _group_from_text("s4") == Symmetric(4)
        assert _group_from_text("z2*s3") == Product((Cyclic(2), Symmetric(3)))
        for bad in ("q5", "z", "3", "z2**s3", "z\u00b2", "s\u0663", "z2*z\u00b2"):
            with pytest.raises(InputError):
                _group_from_text(bad)


class TestGen:
    def test_stdout_is_a_graph(self, capsys):
        code, out, _ = run(capsys, "gen", "odd_cycles", "--count", "2")
        assert code == 0
        g = graph_from_json_dict(json.loads(out))
        assert g.n == 6

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "gen", "random", "--n", "7", "--arcs", "11",
                      "--group", "z3", "--seed", "5")
        _, b, _ = run(capsys, "gen", "random", "--n", "7", "--arcs", "11",
                      "--group", "z3", "--seed", "5")
        assert a == b

    def test_witness_out(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        wpath = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "gen", "subdivided_clique", "--ell", "4",
            "--out", str(gpath), "--witness-out", str(wpath),
        )
        assert code == 0
        g = graph_from_json_dict(json.loads(gpath.read_text()))
        eta = expansion_from_json_dict(json.loads(wpath.read_text()))
        assert verify_expansion(g, eta, 4)

    def test_witness_out_rejected_for_plain_family(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "odd_cycles", "--count", "1",
            "--witness-out", str(tmp_path / "w.json"),
        )
        assert code == 2
        assert "witness" in err


class TestSolveVerify:
    def test_roundtrip(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, "g.json", ["gen", "odd_cycles", "--count", "2"], capsys)
        cpath = tmp_path / "cert.json"
        code, _, _ = run(capsys, "solve", gpath, "-k", "2", "--out", str(cpath))
        assert code == 0
        doc = json.loads(cpath.read_text())
        assert doc["outcome"]["kind"] == "packing"
        code, out, _ = run(capsys, "verify", gpath, str(cpath))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_verify_rejects_foreign_certificate(self, tmp_path, capsys):
        g1 = write_graph(tmp_path, "g1.json", ["gen", "odd_cycles", "--count", "2"], capsys)
        g2 = write_graph(tmp_path, "g2.json", ["gen", "odd_cycles", "--count", "3"], capsys)
        cpath = tmp_path / "cert.json"
        run(capsys, "solve", g2, "-k", "3", "--out", str(cpath))
        code, out, _ = run(capsys, "verify", g1, str(cpath))
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_expansion_witness_flag(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        wpath = tmp_path / "w.json"
        run(capsys, "gen", "subdivided_clique", "--ell", "4",
            "--out", str(gpath), "--witness-out", str(wpath))
        code, out, _ = run(
            capsys, "solve", str(gpath), "-k", "1",
            "--tw-threshold", "2", "--expansion-witness", str(wpath),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"]["kind"] == "packing"
        assert any(t["step"] == "clique-branch" for t in doc["trail"])

    def test_oracle_fallback_flag(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, "w.json", ["gen", "escher_wall", "--height", "2"], capsys)
        # without the flag the bounded-treewidth program answers above the
        # threshold, within its own bound
        code, out, _ = run(capsys, "solve", gpath, "-k", "2", "--tw-threshold", "2")
        assert code == 0
        dp = json.loads(out)["trail"][-1]
        assert dp["step"] == "bounded-treewidth"
        assert dp["result"] == "cover"
        assert dp["cover_size"] <= dp["bound"]
        code, out, _ = run(
            capsys, "solve", gpath, "-k", "2", "--tw-threshold", "2", "--oracle-fallback"
        )
        assert code == 0
        assert any(t["step"] == "oracle-fallback" for t in json.loads(out)["trail"])

    @pytest.mark.parametrize(
        "gen, ks",
        [
            (["random", "--n", "60", "--arcs", str(arcs), "--group", group,
              "--seed", "7"], (1, 2, 5))
            for arcs in (72, 90, 120)
            for group in ("z2", "s3")
        ]
        + [(["escher_wall", "--height", str(h)], (2,)) for h in (3, 5, 8)],
        ids=[f"random-60-{a}-{grp}" for a in (72, 90, 120) for grp in ("z2", "s3")]
        + [f"wall-{h}" for h in (3, 5, 8)],
    )
    def test_above_threshold_answers_and_verifies(self, tmp_path, capsys, gen, ks):
        gpath = write_graph(tmp_path, "g.json", ["gen"] + gen, capsys)
        for k in ks:
            cpath = tmp_path / f"cert-{k}.json"
            code, _, err = run(capsys, "solve", gpath, "-k", str(k), "--out", str(cpath))
            assert code == 0, err
            code, out, _ = run(capsys, "verify", gpath, str(cpath))
            assert code == 0
            assert json.loads(out)["valid"] is True

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "solve", "/no/such/file.json", "-k", "1")
        assert code == 2

    def test_guard_exit_code(self, tmp_path, capsys):
        # 21 vertices at min-fill width 6, above a threshold of 2: the oracle
        # fallback trips its vertex guard
        gpath = write_graph(tmp_path, "wall.json", ["gen", "escher_wall", "--height", "3"], capsys)
        code, _, err = run(
            capsys, "solve", gpath, "-k", "2", "--tw-threshold", "2", "--oracle-fallback"
        )
        assert code == 3
        assert "guard" in err
        # 21 vertices at treewidth 2 answer within the default guards
        gpath = write_graph(tmp_path, "big.json", ["gen", "odd_cycles", "--count", "7"], capsys)
        code, out, _ = run(capsys, "solve", gpath, "-k", "1")
        assert code == 0
        assert json.loads(out)["outcome"]["kind"] == "packing"

    @pytest.mark.parametrize(
        "gen, k",
        [
            (["odd_cycles", "--count", "7"], 2),
            (["odd_cycles", "--count", "1", "--length", "3000"], 1),
            (["odd_cycles", "--count", "300"], 200),
            (["zm_grid", "--modulus", "3", "--rows", "4", "--cols", "100"], 2),
        ],
        ids=["odd-cycles-7", "cycle-3000", "triangles-300", "zm-grid-3x4x100"],
    )
    def test_large_low_width_instances_pack(self, tmp_path, capsys, gen, k):
        gpath = write_graph(tmp_path, "g.json", ["gen", *gen], capsys)
        cpath = tmp_path / "cert.json"
        code, _, _ = run(capsys, "solve", gpath, "-k", str(k), "--out", str(cpath))
        assert code == 0
        doc = json.loads(cpath.read_text())
        assert doc["outcome"]["kind"] == "packing"
        assert [t["step"] for t in doc["trail"]] == [
            "strip", "treewidth", "bounded-treewidth"
        ]
        code, out, _ = run(capsys, "verify", gpath, str(cpath))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_long_odd_cycle_covers(self, tmp_path, capsys):
        gen = ["gen", "odd_cycles", "--count", "1", "--length", "3000"]
        gpath = write_graph(tmp_path, "g.json", gen, capsys)
        cpath = tmp_path / "cert.json"
        code, _, _ = run(capsys, "solve", gpath, "-k", "2", "--out", str(cpath))
        assert code == 0
        doc = json.loads(cpath.read_text())
        assert doc["outcome"]["kind"] == "gfvs"
        code, out, _ = run(capsys, "verify", gpath, str(cpath))
        assert code == 0
        assert json.loads(out)["valid"] is True

    @pytest.mark.parametrize(
        "td",
        [
            {"nodes": [0], "parent": [None], "bags": {"0": [0, 1, 2]}},
            {"nodes": [0], "parent": {"0": None}, "bags": [[0, 1, 2]]},
            {"nodes": [0], "parent": {"x": None}, "bags": {"0": [0, 1, 2]}},
            {"nodes": [0], "parent": {"0": None}, "bags": {"x": [0, 1, 2]}},
            {"nodes": [0], "parent": None, "bags": {"0": [0, 1, 2]}},
        ],
        ids=["parent-list", "bags-list", "parent-key", "bag-key", "parent-null"],
    )
    def test_malformed_td_is_input_error(self, tmp_path, capsys, td):
        gpath = write_graph(tmp_path, "g.json", ["gen", "odd_cycles", "--count", "1"], capsys)
        tdpath = tmp_path / "td.json"
        tdpath.write_text(json.dumps(td))
        code, _, err = run(capsys, "solve", gpath, "-k", "1", "--td", str(tdpath))
        assert code == 2
        assert "error" in err

    # Each document below names the same decomposition or expansion as the
    # valid one once a bool, a float or a padded key is read as an integer,
    # so only the reader can refuse it.
    @pytest.mark.parametrize(
        "td",
        [
            {"nodes": [False], "parent": {"0": None}, "bags": {"0": [0, 1, 2]}},
            {"nodes": [0.0], "parent": {"0": None}, "bags": {"0": [0, 1, 2]}},
            {"nodes": [0], "parent": {"0": None}, "bags": {"0": [False, True, 2]}},
            {"nodes": [0], "parent": {"0": None}, "bags": {"0": [0, 1, 2.0]}},
            {"nodes": [0], "parent": {"0": None}, "bags": {"0": "012"}},
            {"nodes": [0], "parent": {" 0": None}, "bags": {"0": [0, 1, 2]}},
            {"nodes": [0], "parent": {"0": None}, "bags": {"+0": [0, 1, 2]}},
            {
                "nodes": [0, 1],
                "parent": {"0": None, "1": False},
                "bags": {"0": [0, 1, 2], "1": [0]},
            },
        ],
        ids=[
            "node-bool", "node-float", "bag-bools", "bag-float", "bag-string",
            "parent-key-space", "bag-key-plus", "parent-bool",
        ],
    )
    def test_non_integer_td_is_input_error(self, tmp_path, capsys, td):
        gpath = write_graph(tmp_path, "g.json", ["gen", "odd_cycles", "--count", "1"], capsys)
        tdpath = tmp_path / "td.json"
        tdpath.write_text(json.dumps(td))
        code, _, err = run(capsys, "solve", gpath, "-k", "1", "--td", str(tdpath))
        assert code == 2
        assert "integer" in err or "must be a list" in err

    @pytest.mark.parametrize(
        "field, key, new_key, value",
        [
            ("supernodes", "3", "3", "3"),
            ("supernodes", "1", "1", [True, 7, 8]),
            ("supernodes", "2", "2", [2, 9.0]),
            ("supernodes", "3", " 3", [3]),
            ("tree_edges", "2", "2", [10.5]),
            ("edge_map", "0,1", "0,1", 1.9),
            ("edge_map", "0,1", "0,1", True),
            ("edge_map", "0,1", "0, 1", 1),
            ("centers", "1", "1", 1.5),
            ("centers", "1", "1", True),
        ],
        ids=[
            "supernode-string", "supernode-bool", "supernode-float",
            "supernode-key-space", "tree-edge-float", "edge-float", "edge-bool",
            "edge-key-space", "center-float", "center-bool",
        ],
    )
    def test_non_integer_expansion_is_input_error(
        self, tmp_path, capsys, field, key, new_key, value
    ):
        gpath = tmp_path / "g.json"
        wpath = tmp_path / "w.json"
        run(capsys, "gen", "subdivided_clique", "--ell", "4",
            "--out", str(gpath), "--witness-out", str(wpath))
        argv = ["solve", str(gpath), "-k", "1", "--tw-threshold", "2",
                "--expansion-witness", str(wpath)]
        assert run(capsys, *argv)[0] == 0
        doc = json.loads(wpath.read_text())
        del doc[field][key]
        doc[field][new_key] = value
        wpath.write_text(json.dumps(doc))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "integer" in err or "must be a list" in err

    # Each document below is valid once the later of two keys that name one
    # id wins, so only the reader can refuse it.
    @pytest.mark.parametrize(
        "td",
        [
            {
                "nodes": [0, 1],
                "parent": {"0": None, "1": 7, "01": 0},
                "bags": {"0": [0, 1, 2], "1": [0]},
            },
            {"nodes": [0], "parent": {"0": None}, "bags": {"0": [0], "-0": [0, 1, 2]}},
        ],
        ids=["parent-leading-zero", "bag-minus-zero"],
    )
    def test_repeated_td_id_is_input_error(self, tmp_path, capsys, td):
        gpath = write_graph(tmp_path, "g.json", ["gen", "odd_cycles", "--count", "1"], capsys)
        tdpath = tmp_path / "td.json"
        tdpath.write_text(json.dumps(td))
        code, _, err = run(capsys, "solve", gpath, "-k", "1", "--td", str(tdpath))
        assert code == 2
        assert "names one id under two keys" in err

    @pytest.mark.parametrize(
        "field, key, twin",
        [
            ("supernodes", "1", "01"),
            ("tree_edges", "2", "002"),
            ("edge_map", "0,1", "1,0"),
            ("edge_map", "0,1", "00,1"),
            ("centers", "0", "-0"),
        ],
        ids=["supernode", "tree-edges", "edge-reversed", "edge-leading-zero", "center"],
    )
    def test_repeated_expansion_id_is_input_error(self, tmp_path, capsys, field, key, twin):
        gpath = tmp_path / "g.json"
        wpath = tmp_path / "w.json"
        run(capsys, "gen", "subdivided_clique", "--ell", "4",
            "--out", str(gpath), "--witness-out", str(wpath))
        argv = ["solve", str(gpath), "-k", "1", "--tw-threshold", "2",
                "--expansion-witness", str(wpath)]
        doc = json.loads(wpath.read_text())
        doc[field][twin] = doc[field][key]
        wpath.write_text(json.dumps(doc))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "names one id under two keys" in err

    def test_largest_threshold_routes_like_the_paper(self, tmp_path, capsys):
        # the paper's width threshold exceeds every graph; 2^63 - 1 is the
        # largest --tw-threshold, and the dynamic program answers under it
        gpath = write_graph(tmp_path, "g.json", ["gen", "escher_wall", "--height", "2"], capsys)
        code, out, _ = run(
            capsys, "solve", gpath, "-k", "2", "--tw-threshold", str(2**63 - 1)
        )
        assert code == 0
        trail = json.loads(out)["trail"]
        assert [t["step"] for t in trail] == ["strip", "treewidth", "bounded-treewidth"]
        assert trail[1]["threshold"] == 2**63 - 1
        code, _, err = run(capsys, "solve", gpath, "-k", "2", "--tw-threshold", str(2**63))
        assert code == 2
        assert "tw_threshold" in err

    def test_help_describes_every_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "changes an answer only with --expansion-witness or --oracle-fallback" in out
        for text in (
            "graph JSON file", "cycles to pack", "at most 2^63-1",
            "answer by exact search", "the driver branches on it",
            "used instead of min-fill's", "certificate file",
        ):
            assert text in out

    def test_seed_option_is_gone(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, "g.json", ["gen", "odd_cycles", "--count", "1"], capsys)
        with pytest.raises(SystemExit) as exc:
            main(["solve", gpath, "-k", "1", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["solve", "-k", "1", "--thresholds", "paper"], "--thresholds"),
            (["twreduce", "--terminals", "0,1", "-t", "2", "--paper-size-check"],
             "--paper-size-check"),
            (["irrelevant", "--side-a", "0,1,2", "--side-b", "0,1", "--z", "2",
              "-p", "2", "-k", "1", "--paper-size-check"], "--paper-size-check"),
        ],
        ids=["solve-thresholds", "twreduce-paper-size-check", "irrelevant-paper-size-check"],
    )
    def test_paper_mode_options_are_gone(self, tmp_path, capsys, argv, option):
        gpath = write_graph(tmp_path, "g.json", ["gen", "odd_cycles", "--count", "1"], capsys)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], gpath, *argv[1:]])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


GOOD_GRAPH = {"group": {"cyclic": 2}, "n": 2, "arcs": [[0, 1, "1"]]}


class TestMalformedInput:
    @pytest.mark.parametrize(
        "change",
        [
            {"arcs": [[0, "a", "1"]]},
            {"arcs": [[0, 1.5, "1"]]},
            {"arcs": [[0, True, "1"]]},
            {"arcs": [[0.0, 1, "1"]]},
            {"n": "x"},
            {"n": True},
            {"n": 2.0},
            {"vertices": [0, True]},
            {"vertices": [0, 1.0]},
            {"vertices": "01"},
            {"arc_ids": "0"},
            {"arc_ids": [True]},
            {"arc_ids": [0.0]},
            {"group": {"cyclic": True}, "arcs": []},
            {"group": {"symmetric": True}, "arcs": []},
            {"group": {"product": [{"cyclic": 2}, {"cyclic": True}]}, "arcs": []},
            {"n": 3, "vertices": [0, 1, 1]},
            {"n": 5, "vertices": [0, 1]},
            {"group": {"cyclic": 2}, "n": -3, "arcs": []},
        ],
        ids=[
            "arc-string-vertex", "arc-float-vertex", "arc-bool-vertex",
            "arc-float-tail", "n-string", "n-bool", "n-float", "vertex-bool",
            "vertex-float", "vertices-string", "arc-ids-string", "arc-id-bool",
            "arc-id-float", "cyclic-bool", "symmetric-bool", "product-part-bool",
            "vertices-repeated", "n-not-vertices-length", "n-negative",
        ],
    )
    def test_graph_is_input_error(self, tmp_path, capsys, change):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({**GOOD_GRAPH, **change}))
        code, _, err = run(capsys, "solve", str(gpath), "-k", "1")
        assert code == 2
        assert err.startswith("error: ")
        assert "unknown vertex" not in err

    def test_good_graph_solves(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(GOOD_GRAPH))
        assert run(capsys, "solve", str(gpath), "-k", "1")[0] == 0

    @pytest.mark.parametrize(
        "change",
        [{"cover_size": "a"}, {"cover_size": None}, {"bound": None}, {"bound": 6.0}],
        ids=["size-string", "size-missing", "bound-missing", "bound-float"],
    )
    def test_bad_trail_entry_is_invalid(self, tmp_path, capsys, change):
        gpath = write_graph(tmp_path, "g.json", ["gen", "odd_cycles", "--count", "2"], capsys)
        cpath = tmp_path / "cert.json"
        assert run(capsys, "solve", gpath, "-k", "3", "--out", str(cpath))[0] == 0
        doc = json.loads(cpath.read_text())
        entry = next(t for t in doc["trail"] if t["step"] == "bounded-treewidth")
        for key, value in change.items():
            if value is None:
                del entry[key]
            else:
                entry[key] = value
        cpath.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", gpath, str(cpath))
        assert code == 1
        assert json.loads(out)["valid"] is False
        assert err == ""

    def test_bool_k_is_input_error(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, "g.json", ["gen", "odd_cycles", "--count", "2"], capsys)
        cpath = tmp_path / "cert.json"
        run(capsys, "solve", gpath, "-k", "1", "--out", str(cpath))
        doc = json.loads(cpath.read_text())
        doc["k"] = True
        cpath.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", gpath, str(cpath))
        assert code == 2
        assert "k must be an integer" in err


def _drop_key(data, doc):
    del doc[data.draw(st.sampled_from(sorted(doc)))]


def _foreign_vertex(data, doc):
    bag = doc["bags"][data.draw(st.sampled_from(sorted(doc["bags"])))]
    bag.append(data.draw(st.sampled_from([-1, 6, 7, 10**20])))


def _parent_cycle(data, doc):
    # a self-loop, or two nodes that name each other
    a, b = (data.draw(st.sampled_from(doc["nodes"])) for _ in range(2))
    doc["parent"][str(a)] = b
    doc["parent"][str(b)] = a


def _two_roots(data, doc):
    doc["parent"][str(data.draw(st.sampled_from(doc["nodes"])))] = None


def _wrong_type(data, doc):
    bad = data.draw(st.sampled_from([True, False, 1.0, 0.0, "1", "0"]))
    where = data.draw(st.sampled_from(["nodes", "parent", "bags"]))
    if where == "nodes":
        doc["nodes"][data.draw(st.integers(0, len(doc["nodes"]) - 1))] = bad
    elif where == "parent":
        doc["parent"][data.draw(st.sampled_from(sorted(doc["parent"])))] = bad
    else:
        bag = doc["bags"][data.draw(st.sampled_from(sorted(doc["bags"])))]
        bag.insert(data.draw(st.integers(0, len(bag))), bad)


def _non_decimal_key(data, doc):
    table = doc[data.draw(st.sampled_from(["parent", "bags"]))]
    key = data.draw(st.sampled_from(sorted(table)))
    prefix = data.draw(st.sampled_from([" ", "+", "0x", "_"]))
    table[data.draw(st.sampled_from([prefix + key, key + ".0", key + " ", "one"]))] = table.pop(key)


def _repeated_id(data, doc):
    # a second key for a node already named, with the same value: read with
    # the later key winning, the document would still be the valid one
    table = doc[data.draw(st.sampled_from(["parent", "bags"]))]
    key = data.draw(st.sampled_from(sorted(table)))
    table["-0" if key == "0" else "0" + key] = copy.deepcopy(table[key])


TD_MUTATIONS = [
    _drop_key, _foreign_vertex, _parent_cycle, _two_roots, _wrong_type, _non_decimal_key,
    _repeated_id,
]


class TestTdProperty:
    """`solve --td` on a mutated decomposition document of a 6-vertex graph
    exits 0 or 2 and raises nothing."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("td")
        graphs = []
        for seed in range(4):
            g = random_instance(6, 8, Cyclic(3), seed=seed)
            gpath = root / f"g{seed}.json"
            gpath.write_text(dump_json(graph_to_json_dict(g)))
            graphs.append((str(gpath), td_to_json_dict(tree_decomposition(g))))
        return root / "td.json", graphs

    @settings(max_examples=200)
    @given(data=st.data())
    def test_mutated_document_exits_cleanly(self, paths, data):
        tdpath, graphs = paths
        gpath, valid = data.draw(st.sampled_from(graphs))
        doc = copy.deepcopy(valid)
        applied = set()
        for mutate in data.draw(st.lists(st.sampled_from(TD_MUTATIONS), max_size=3)):
            if {"nodes", "parent", "bags"} <= set(doc) and all(doc.values()):
                mutate(data, doc)
                applied.add(mutate)
        tdpath.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", gpath, "-k", "2", "--td", str(tdpath)])
        assert code in (0, 2)
        if doc == valid:
            assert code == 0
        # no later mutation takes a repeated id away
        if _repeated_id in applied:
            assert code == 2


class TestOracle:
    def test_enumerates_once(self, tmp_path, capsys, cycle_enumerations):
        # the cycle count, the cover and both packings share one enumeration
        gpath = write_graph(tmp_path, "g.json", ["gen", "escher_wall", "--height", "2"], capsys)
        code, out, _ = run(capsys, "oracle", gpath)
        assert code == 0
        assert json.loads(out)["packing_half_integral"] == 3
        assert cycle_enumerations == [1]

    def test_fields(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, "g.json", ["gen", "escher_wall", "--height", "2"], capsys)
        code, out, _ = run(capsys, "oracle", gpath)
        assert code == 0
        doc = json.loads(out)
        assert doc["non_null_cycles"] == 93
        assert doc["packing_integral"] == 1
        assert doc["packing_half_integral"] == 3
        assert len(doc["min_gfvs"]) == 2


class TestCutCommands:
    def test_impsep(self, tmp_path, capsys):
        gpath = tmp_path / "p.json"
        gpath.write_text(json.dumps({
            "group": {"cyclic": 2}, "n": 3,
            "arcs": [[0, 1, "0"], [1, 2, "0"]],
        }))
        code, out, _ = run(capsys, "impsep", str(gpath), "--source", "0",
                           "--target", "2", "--max-size", "1")
        assert code == 0
        assert json.loads(out) == {"inseparable": False, "separators": [[1]]}

    def test_twreduce(self, tmp_path, capsys):
        gpath = write_graph(
            tmp_path, "k7.json",
            ["gen", "random", "--n", "2", "--arcs", "0", "--group", "z2"], capsys,
        )
        # complete identity graph written directly; the generator above only
        # reserved the filename
        import itertools
        doc = {
            "group": {"cyclic": 2}, "n": 7,
            "arcs": [[u, v, "0"] for u, v in itertools.combinations(range(7), 2)],
        }
        (tmp_path / "k7.json").write_text(json.dumps(doc))
        code, out, _ = run(capsys, "twreduce", str(gpath), "--terminals", "0,1", "-t", "2")
        assert code == 0
        assert json.loads(out) == {"marked": []}

    def test_irrelevant(self, tmp_path, capsys):
        import itertools
        doc = {
            "group": {"cyclic": 2}, "n": 9,
            "arcs": [[u, v, "0"] for u, v in itertools.combinations(range(7), 2)]
            + [[0, 7, "0"], [1, 7, "0"], [7, 8, "0"], [7, 8, "1"]],
        }
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "irrelevant", str(gpath),
            "--side-a", "0,1,2,3,4,5,6", "--side-b", "0,1,7,8",
            "--z", "2,3,4,5,6", "-p", "2", "-k", "1",
        )
        assert code == 0
        assert json.loads(out) == {"vertex": 2}

    def test_precondition_failure_is_input_error(self, tmp_path, capsys):
        gpath = tmp_path / "p.json"
        gpath.write_text(json.dumps({
            "group": {"cyclic": 2}, "n": 3,
            "arcs": [[0, 1, "0"], [1, 2, "0"]],
        }))
        code, _, err = run(capsys, "twreduce", str(gpath), "--terminals", "0", "-t", "1")
        assert code == 2
