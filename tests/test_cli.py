"""End-to-end tests of the command-line interface."""

import json
import random
import re

import pytest
from click.testing import CliRunner

from megraph.cli import main
from megraph.cospan import iso
from megraph.egraph import egraph_of_term_tree, translate
from megraph.serialize import dumps_cospan, dumps_egraph, loads_cospan
from megraph.term import parse

from .fixtures import pipeline_egraphs
from .helpers import ARITH, ARITH_SIG_TEXT, BASIC_SIG_TEXT, interp

RUNNER = CliRunner()


@pytest.fixture
def sig(tmp_path):
    p = tmp_path / "basic.sig"
    p.write_text(BASIC_SIG_TEXT)
    return str(p)


@pytest.fixture
def arith_sig(tmp_path):
    p = tmp_path / "arith.sig"
    p.write_text(ARITH_SIG_TEXT)
    return str(p)


def write_graph(tmp_path, cospan, name="g.json"):
    p = tmp_path / name
    p.write_text(dumps_cospan(cospan))
    return str(p)


class TestInterp:
    def test_shared_constant_pipeline_input(self, tmp_path, arith_sig):
        res = RUNNER.invoke(
            main,
            ["interp", "(a * (two ; dup)) ; (mul * id:1) ; div",
             "--sig", arith_sig, "--cartesian"],
        )
        assert res.exit_code == 0
        c = loads_cospan(res.stdout)
        assert sorted(c.carrier.label.values()) == ["a", "div", "dup", "mul", "two"]

    def test_type_error_exits_1(self, sig):
        res = RUNNER.invoke(main, ["interp", "f ; k", "--sig", sig])
        assert res.exit_code == 1

    def test_usage_error_exits_2(self):
        res = RUNNER.invoke(main, ["interp"])
        assert res.exit_code == 2


class TestCheck:
    def test_valid_graph(self, tmp_path, sig):
        path = write_graph(tmp_path, interp("f ; g"))
        res = RUNNER.invoke(main, ["check", path, "--sig", sig])
        assert res.exit_code == 0
        assert res.stdout.strip() == "ok"

    def test_corrupted_graph_exits_1(self, tmp_path, sig):
        doc = json.loads(dumps_cospan(interp("f ; g")))
        doc["edges"][0]["targets"] = []  # break generator typing
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = RUNNER.invoke(main, ["check", str(path), "--sig", sig])
        assert res.exit_code == 1

    def test_unreadable_file_exits_1(self):
        res = RUNNER.invoke(main, ["check", "/no/such/file.json"])
        assert res.exit_code == 1


class TestRewrite:
    def test_single_step_is_deterministic(self, tmp_path, sig):
        path = write_graph(tmp_path, interp("f ; f"))
        rules = tmp_path / "rules.txt"
        rules.write_text("fg : f => g\n")
        out1 = RUNNER.invoke(main, ["rewrite", path, "--rules", str(rules), "--sig", sig])
        out2 = RUNNER.invoke(main, ["rewrite", path, "--rules", str(rules), "--sig", sig])
        assert out1.exit_code == 0
        assert out1.stdout == out2.stdout
        stepped = loads_cospan(out1.stdout)
        assert iso(stepped, interp("f ; g")) is not None or iso(
            stepped, interp("g ; f")
        ) is not None

    def test_all_runs_to_fixpoint(self, tmp_path, sig):
        path = write_graph(tmp_path, interp("f ; f"))
        rules = tmp_path / "rules.txt"
        rules.write_text("fg : f => g\n")
        res = RUNNER.invoke(
            main, ["rewrite", path, "--rules", str(rules), "--sig", sig, "--all"]
        )
        assert res.exit_code == 0
        assert iso(loads_cospan(res.stdout), interp("g ; g")) is not None

    def test_negative_budget_rejected(self, tmp_path, sig):
        path = write_graph(tmp_path, interp("f ; f"))
        rules = tmp_path / "rules.txt"
        rules.write_text("fg : f => g\n")
        res = RUNNER.invoke(main, ["rewrite", path, "--rules", str(rules), "--sig", sig,
                                   "--all", "--budget", "-3"])
        assert res.exit_code == 1
        assert "--budget must be non-negative" in res.output
        assert "Traceback" not in res.output


class TestNormalizeExtractSaturate:
    def test_normalize(self, tmp_path):
        path = write_graph(tmp_path, interp("h ; (f + g)"))
        res = RUNNER.invoke(main, ["normalize", path])
        assert res.exit_code == 0
        assert iso(loads_cospan(res.stdout), interp("(h ; f) + (h ; g)")) is not None

    @pytest.mark.parametrize("text, budget, code", [
        ("f ; g", "0", 0), ("h ; (f + g)", "0", 1), ("f ; g", "-1", 1)])
    def test_normalize_budget(self, tmp_path, text, budget, code):
        path = write_graph(tmp_path, interp(text))
        res = RUNNER.invoke(main, ["normalize", path, "--budget", budget])
        assert res.exit_code == code, res.output
        assert "Traceback" not in res.output
        if code == 0:
            assert iso(loads_cospan(res.stdout), interp(text)) is not None

    def test_saturate(self, tmp_path, sig):
        path = write_graph(tmp_path, interp("f"))
        rules = tmp_path / "rules.txt"
        rules.write_text("fg : f => g\n")
        res = RUNNER.invoke(
            main, ["saturate", path, "--rules", str(rules), "--sig", sig]
        )
        assert res.exit_code == 0
        assert iso(loads_cospan(res.stdout), interp("f + g")) is not None

    def test_saturate_keeps_a_crossing_in_front_of_the_box(self, tmp_path, sig):
        path = write_graph(tmp_path, interp("sym:1,1 ; ((f * g) + (g * g))"))
        rules = tmp_path / "rules.txt"
        rules.write_text("r : f => h\n")
        res = RUNNER.invoke(
            main, ["saturate", path, "--rules", str(rules), "--sig", sig]
        )
        assert res.exit_code == 0
        saturated = tmp_path / "saturated.json"
        saturated.write_text(res.stdout)
        res = RUNNER.invoke(main, ["extract", str(saturated)])
        assert res.exit_code == 0
        assert res.stdout.strip() == "sym:1,1 ; f * g"

    def test_saturate_keeps_the_external_order_of_a_loaded_document(self, tmp_path, sig):
        def cross_inputs(doc):
            doc["ext_in"] = [1, 0]

        path = write_doc(tmp_path, interp("f * g"), cross_inputs, name="g.json")
        assert RUNNER.invoke(main, ["check", path, "--sig", sig]).exit_code == 0
        res = RUNNER.invoke(main, ["extract", path])
        assert res.stdout.strip() == "sym:1,1 ; f * g"
        rules = tmp_path / "rules.txt"
        rules.write_text("r : f => h\n")
        res = RUNNER.invoke(
            main, ["saturate", path, "--rules", str(rules), "--sig", sig]
        )
        assert res.exit_code == 0
        saturated = tmp_path / "saturated.json"
        saturated.write_text(res.stdout)
        res = RUNNER.invoke(main, ["extract", str(saturated)])
        assert res.exit_code == 0
        assert res.stdout.strip() == "sym:1,1 ; f * g"

    def test_extract_with_costs(self, tmp_path):
        path = write_graph(tmp_path, interp("(f ; g) + h"))
        costs = tmp_path / "costs.txt"
        costs.write_text("h = 10\n")
        res = RUNNER.invoke(main, ["extract", str(path), "--costs", str(costs)])
        assert res.exit_code == 0
        assert res.stdout.strip() == "f ; g"

    @pytest.mark.parametrize("diagram", ["f + g", "f ; g"])
    @pytest.mark.parametrize("line, message", [
        ("f = -1", "cost line 2: negative cost for 'f'"),
        ("zzz = -1", "cost line 2: negative cost for 'zzz'"),
        (" = 3", "cost line 2: empty name"),
    ])
    def test_extract_rejects_bad_cost_lines(self, tmp_path, diagram, line, message):
        path = write_graph(tmp_path, interp(diagram))
        costs = tmp_path / "costs.txt"
        costs.write_text(f"g = 2\n{line}\n")
        res = RUNNER.invoke(main, ["extract", str(path), "--costs", str(costs)])
        assert res.exit_code == 1
        assert message in res.stderr

    def test_extract_default_costs(self, tmp_path):
        path = write_graph(tmp_path, interp("(f ; g) + h"))
        res = RUNNER.invoke(main, ["extract", path])
        assert res.exit_code == 0
        assert res.stdout.strip() == "h"


def write_doc(tmp_path, cospan, edit, name="bad.json"):
    doc = json.loads(dumps_cospan(cospan))
    edit(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def duplicate_edge_id(doc):
    doc["edges"][1]["id"] = doc["edges"][0]["id"]


def external_slot_out_of_range(doc):
    doc["ext_in"] = [0, 5]


def relabel_second_edge_k(doc):
    doc["edges"][1]["label"] = "k"  # k : 2 -> 1 on a one-input edge


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["saturate", "rewrite"])
    def test_rewriting_commands_type_their_input_by_the_signature(
        self, tmp_path, sig, command
    ):
        path = write_doc(tmp_path, interp("f ; g"), relabel_second_edge_k)
        rules = tmp_path / "rules.txt"
        rules.write_text("fh : f => h\n")
        assert RUNNER.invoke(main, ["check", path, "--sig", sig]).exit_code == 1
        res = RUNNER.invoke(main, [command, path, "--rules", str(rules), "--sig", sig])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""

    @pytest.mark.parametrize("edit", [duplicate_edge_id, external_slot_out_of_range])
    @pytest.mark.parametrize("command", ["extract", "normalize", "check"])
    def test_exits_1_without_traceback(self, tmp_path, edit, command):
        path = write_doc(tmp_path, interp("f ; g"), edit)
        res = RUNNER.invoke(main, [command, path])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""


# ---------------------------------------------------------------------------
# Fuzz: mutated documents through every command that reads a diagram
# ---------------------------------------------------------------------------

FUZZ_BASES = ["f ; g", "h ; (f + g)", "(f ; g) + h", "s ; k", "(f + g) * h",
              "s ; ((f ; g) + (g ; f)) * h ; k"]


def _mutate(doc, rng):
    """One random edit of endpoints, slots, external positions, components,
    parents or labels; ids may become dangling or repeated."""
    vs = doc["vertices"] + [max(doc["vertices"]) + 1]
    es = [ed["id"] for ed in doc["edges"]] + [len(doc["edges"])]
    what = rng.choice(["endpoint", "slot", "external", "component", "parent",
                       "label"])
    if what == "endpoint":
        ed = rng.choice(doc["edges"])
        ports = ed[rng.choice(["sources", "targets"])]
        if ports and rng.random() < 0.7:
            ports[rng.randrange(len(ports))] = rng.choice(vs)
        elif ports and rng.random() < 0.5:
            ports.pop()
        else:
            ports.append(rng.choice(vs))
    elif what == "slot":
        slots = doc[rng.choice(["int_in", "int_out"])]
        if slots and rng.random() < 0.5:
            slots[rng.randrange(len(slots))] = rng.choice(vs)
        elif slots and rng.random() < 0.5:
            slots.pop(rng.randrange(len(slots)))
        else:
            slots.append(rng.choice(vs))
    elif what == "external":
        ext = doc[rng.choice(["ext_in", "ext_out"])]
        if ext and rng.random() < 0.7:
            ext[rng.randrange(len(ext))] = rng.randint(-1, len(ext) + 1)
        else:
            ext.append(rng.randint(0, 2))
    elif what in ("component", "parent") and doc["parents"] and rng.random() < 0.8:
        rec = rng.choice(doc["parents"])
        if what == "component":
            rec["component"] = rng.randint(-1, 2)
        elif rng.random() < 0.5:
            rec["parent"] = rng.choice(es)
        else:
            doc["parents"].remove(rec)
    elif what in ("component", "parent"):
        kind = rng.choice("ve")
        child = rng.choice(vs if kind == "v" else es)
        doc["parents"].append({"child": f"{kind}{child}", "parent": rng.choice(es),
                               "component": rng.randint(0, 1)})
    else:
        rng.choice(doc["edges"])["label"] = rng.choice(["f", "g", "k", "s", "#box", "zz"])


def fuzz_documents(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        doc = json.loads(dumps_cospan(interp(FUZZ_BASES[i % len(FUZZ_BASES)])))
        for _ in range(rng.choice([1, 1, 2])):
            _mutate(doc, rng)
        yield json.dumps(doc)


class TestFuzzedDocuments:
    def test_no_traceback_and_exit_0_only_on_valid_input(self, tmp_path, sig):
        rules = tmp_path / "rules.txt"
        rules.write_text("swap : f ; g => g ; f\nfh : f => h\n")
        extra = ["--rules", str(rules), "--sig", sig]
        commands = {"check": [], "check --sig": ["--sig", sig], "extract": [],
                    "normalize": [], "saturate": extra + ["--bidirectional"],
                    "rewrite": extra + ["--all"]}
        valid = 0
        for i, text in enumerate(fuzz_documents(seed=3, count=100)):
            path = tmp_path / f"doc{i}.json"
            path.write_text(text)
            codes, outputs = {}, {}
            for command, options in commands.items():
                res = RUNNER.invoke(main, [command.split()[0], str(path), *options])
                where = f"{command} on document {i}: {text}"
                assert res.exit_code in (0, 1, 2), where
                assert res.exception is None or isinstance(res.exception, SystemExit), where
                assert "Traceback" not in res.output, where
                codes[command], outputs[command] = res.exit_code, res.stdout
            if codes["check"] != 0:
                assert 0 not in codes.values(), (codes, text)
            if codes["extract"] == 0:
                parse(outputs["extract"])
            # The rewriting commands are given the signature, so they type
            # their input by it, as `check --sig` does.
            if codes["check --sig"] != 0:
                assert codes["saturate"] != 0 and codes["rewrite"] != 0, (codes, text)
            valid += codes["check"] == 0
        assert 0 < valid < 100


FUZZ_EGRAPH_TREES = [("div", ("mul", "a", "two"), "two"), ("mul", "a", "a"),
                     ("shl", ("mul", "one", "two"), ("div", "a", "one"))]


def _mutate_egraph(doc, rng):
    """One random corruption of an e-graph document: an unknown child id, an
    emptied class, a repeated class id, or a value of the wrong type."""
    classes = doc["classes"]
    intact = [c for c in classes if isinstance(c["id"], int) and isinstance(c["nodes"], list)
              and c["nodes"] and all(isinstance(n["children"], list) for n in c["nodes"])]
    if not intact:
        return
    cd = rng.choice(intact)
    what = rng.choice(["child", "empty", "repeat", "type"])
    if what == "child":
        unknown = max(c["id"] for c in intact) + rng.randint(1, 3)
        kids = rng.choice(cd["nodes"])["children"]
        if kids and rng.random() < 0.7:
            kids[rng.randrange(len(kids))] = unknown
        else:
            kids.append(unknown)
    elif what == "empty":
        cd["nodes"] = []
    elif what == "repeat":
        other = rng.choice(classes)
        if rng.random() < 0.5:
            cd["id"] = other["id"]
        else:
            classes.append(json.loads(json.dumps(other)))
    else:
        bad = rng.choice(["x", None, [], {}, 1.5, "7"])
        node = rng.choice(cd["nodes"])
        where = rng.choice(["id", "nodes", "head", "children", "child", "classes"])
        if where in ("id", "nodes"):
            cd[where] = bad
        elif where in ("head", "children"):
            node[where] = bad
        elif where == "child" and node["children"]:
            node["children"][rng.randrange(len(node["children"]))] = bad
        else:
            doc["classes"] = bad


def fuzz_egraph_documents(seed, count):
    bases = [egraph_of_term_tree(t)[0] for t in FUZZ_EGRAPH_TREES] + list(pipeline_egraphs())
    rng = random.Random(seed)
    for i in range(count):
        doc = json.loads(dumps_egraph(bases[i % len(bases)]))
        for _ in range(rng.choice([0, 1, 1, 2])):
            if isinstance(doc["classes"], list) and doc["classes"]:
                _mutate_egraph(doc, rng)
        yield json.dumps(doc)


class TestFuzzedEGraphDocuments:
    def test_no_traceback_and_exit_0_only_on_valid_input(self, tmp_path, arith_sig):
        valid = 0
        for i, text in enumerate(fuzz_egraph_documents(seed=5, count=100)):
            path = tmp_path / f"eg{i}.json"
            path.write_text(text)
            res = RUNNER.invoke(main, ["import-egraph", str(path), "--sig", arith_sig])
            where = f"import-egraph on document {i}: {text}"
            assert res.exit_code in (0, 1), where
            assert res.exception is None or isinstance(res.exception, SystemExit), where
            assert "Traceback" not in res.output, where
            if res.exit_code == 0:
                out = tmp_path / f"g{i}.json"
                out.write_text(res.stdout)
                assert RUNNER.invoke(main, ["check", str(out)]).exit_code == 0, where
                valid += 1
        assert 0 < valid < 100


class TestLongTerms:
    """Terms longer, and nested deeper, than Python's recursion limit."""

    def test_long_chain_interprets_and_extracts_back(self, tmp_path):
        (tmp_path / "f.sig").write_text("f : 1 -> 1\n")
        text = " ; ".join(["f"] * 1100)
        res = RUNNER.invoke(main, ["interp", text, "--sig", str(tmp_path / "f.sig")])
        assert res.exit_code == 0, res.output[-300:]
        c = loads_cospan(res.stdout)
        path = tmp_path / "c.json"
        path.write_text(res.stdout)
        res = RUNNER.invoke(main, ["extract", str(path)])
        assert res.exit_code == 0, res.output[-300:]
        assert res.stdout == text + "\n"
        assert iso(interp(res.stdout), c) is not None

    def test_deep_egraph_imports_and_extracts(self, tmp_path):
        (tmp_path / "neg.sig").write_text("a : 0 -> 1\nneg : 1 -> 1\n")
        classes = [{"id": 0, "nodes": [{"head": "a", "children": []}]}] + [
            {"id": i, "nodes": [{"head": "neg", "children": [i - 1]}]} for i in range(1, 1500)]
        (tmp_path / "eg.json").write_text(json.dumps({"classes": classes}))
        res = RUNNER.invoke(main, ["import-egraph", str(tmp_path / "eg.json"),
                                   "--sig", str(tmp_path / "neg.sig")])
        assert res.exit_code == 0, res.output[-300:]
        (tmp_path / "c.json").write_text(res.stdout)
        res = RUNNER.invoke(main, ["extract", str(tmp_path / "c.json")])
        assert res.exit_code == 0, res.output[-300:]
        assert res.stdout == " ; ".join(["a"] + ["neg"] * 1499) + "\n"

    def test_deep_nesting_exits_1(self, sig):
        res = RUNNER.invoke(main, ["interp", "(" * 1200 + "f" + ")" * 1200, "--sig", sig])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "term nested too deeply" in res.output
        assert "Traceback" not in res.output


class TestBareWires:
    def test_normalize_leaves_a_box_beside_a_bare_wire(self, tmp_path):
        host = interp("(f + g) * id:1")
        res = RUNNER.invoke(main, ["normalize", write_graph(tmp_path, host)])
        assert res.exit_code == 0
        assert iso(loads_cospan(res.stdout), host) is not None

    def test_rewrite_with_a_bare_wire_rule_applies_nothing(self, tmp_path, sig):
        path = write_graph(tmp_path, interp("f * h"))
        rules = tmp_path / "rules.txt"
        rules.write_text("wire : f * id:1 => g * id:1\n")
        res = RUNNER.invoke(main, ["rewrite", path, "--rules", str(rules), "--sig", sig])
        assert res.exit_code == 0
        assert iso(loads_cospan(res.stdout), interp("f * h")) is not None


class TestImportAndDot:
    def test_import_egraph(self, tmp_path, arith_sig):
        eg, _ = egraph_of_term_tree(("div", ("mul", "a", "two"), "two"))
        path = tmp_path / "eg.json"
        path.write_text(dumps_egraph(eg))
        res = RUNNER.invoke(main, ["import-egraph", str(path), "--sig", arith_sig])
        assert res.exit_code == 0
        assert iso(loads_cospan(res.stdout), translate(eg, ARITH)) is not None

    def test_import_egraph_rejects_congruent_nodes(self, tmp_path, arith_sig):
        path = tmp_path / "eg.json"
        path.write_text(json.dumps({"classes": [
            {"id": 0, "nodes": [{"head": "a", "children": []}]},
            {"id": 1, "nodes": [{"head": "a", "children": []}]},
        ]}))
        res = RUNNER.invoke(main, ["import-egraph", str(path), "--sig", arith_sig])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.stdout == ""

    def test_export_dot(self, tmp_path):
        path = write_graph(tmp_path, interp("f + g"))
        res = RUNNER.invoke(main, ["export-dot", path])
        assert res.exit_code == 0
        assert res.stdout.startswith("digraph")
        assert "cluster" in res.stdout

    def test_export_dot_escapes_labels(self, tmp_path):
        labels = ['a"];evil[shape="star', "b\\", "h"]
        path = write_doc(tmp_path, interp("f ; g ; h"),
                         lambda doc: [ed.update(label=label)
                                      for ed, label in zip(doc["edges"], labels)])
        assert RUNNER.invoke(main, ["check", path]).exit_code == 0
        res = RUNNER.invoke(main, ["export-dot", path])
        assert res.exit_code == 0
        # Statements, split at semicolons outside DOT strings.
        string = r'"(?:[^"\\]|\\.)*"'
        bare = re.sub(string, '""', res.stdout)
        nodes = [re.match(r"\s*(\w+)\s*\[", st) for st in re.split(r"[;{}\n]", bare)
                 if "->" not in st]
        nodes = sorted(m[1] for m in nodes if m and m[1] != "node")
        assert nodes == ["e0", "e1", "e2"] + [f"v{i}" for i in range(4)]
        written = re.findall(rf"e\d+ \[shape=box, label=({string})\];", res.stdout)
        assert [re.sub(r"\\(.)", r"\1", w[1:-1]) for w in written] == labels

    @pytest.mark.parametrize("label", ["id", "sym", "f g", 'a"];evil[shape="star'])
    def test_extract_rejects_a_label_that_is_not_a_generator_name(self, tmp_path, label):
        path = write_doc(tmp_path, interp("f ; g"),
                         lambda doc: doc["edges"][1].update(label=label))
        assert RUNNER.invoke(main, ["check", path]).exit_code == 0
        res = RUNNER.invoke(main, ["extract", path])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert repr(label) in res.output
        assert res.stdout == ""
