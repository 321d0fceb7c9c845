"""Command-line interface: document round trips, report contents, the
construct/blowup/classify pipeline, batch mode, and exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import masslin
from masslin.cli import (
    classify_document,
    document_to_polytope,
    dumps,
    fmt_frac,
    main,
    parse_frac,
    polytope_to_document,
)
from masslin.constructions import (
    Bundle121Spec,
    D2PolygonBundleSpec,
    YkBundleSpec,
    blowup,
    bundle_121,
    bundle_D2_polygon,
    bundle_Yk,
    double_expansion,
    minimal_family_a3,
    simplex,
)
from masslin.errors import PolytopeError
from masslin.polytope import HPolytope
from masslin.recognize import classify4d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


@pytest.fixture()
def bar_file(tmp_path):
    """The worked example: twist (1,1,0), kappa (0,0,0,1,0,2)."""
    poly = bundle_Yk(YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)))
    path = tmp_path / "bar.polytope.json"
    path.write_text(dumps(polytope_to_document(poly)))
    return path


class TestDocuments:
    def test_fraction_formatting(self):
        assert fmt_frac(Fr(3, 2)) == "3/2"
        assert fmt_frac(Fr(-7, 1)) == "-7"
        assert parse_frac("3/2") == Fr(3, 2)
        assert parse_frac(4) == Fr(4)
        with pytest.raises(PolytopeError, match="rational"):
            parse_frac("1.5x")

    def test_round_trip_is_byte_stable(self):
        poly = bundle_Yk(YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)))
        text = dumps(polytope_to_document(poly))
        again = dumps(polytope_to_document(document_to_polytope(json.loads(text))))
        assert again == text

    def test_labels_and_name_preserved(self):
        poly = simplex(3)
        doc = polytope_to_document(poly)
        back = document_to_polytope(doc)
        assert back == poly and back.labels == poly.labels

    def test_invalid_documents_rejected(self):
        with pytest.raises(PolytopeError, match="facets"):
            document_to_polytope({"dim": 2})
        with pytest.raises(PolytopeError, match="normal"):
            document_to_polytope(
                {"dim": 2, "facets": [{"normal": [0.5, 1], "kappa": "0"}]}
            )
        with pytest.raises(PolytopeError, match="label"):
            document_to_polytope(
                {
                    "dim": 2,
                    "facets": [
                        {"normal": [-1, 0], "kappa": "0", "label": "A"},
                        {"normal": [0, -1], "kappa": "0"},
                        {"normal": [1, 1], "kappa": "1", "label": "B"},
                    ],
                }
            )
        triangle = [
            {"normal": [-1, 0], "kappa": "0"},
            {"normal": [0, -1], "kappa": "0"},
            {"normal": [1, 1], "kappa": "1"},
        ]
        document_to_polytope({"dim": 2, "facets": triangle})
        # bool is an int subclass, so JSON true must be caught by type
        for dim in (2.7, "2", True, None):
            with pytest.raises(PolytopeError, match="dim must be an integer"):
                document_to_polytope({"dim": dim, "facets": triangle})
        with pytest.raises(PolytopeError, match="normal"):
            document_to_polytope(
                {"dim": 2, "facets": [{"normal": [True, 0], "kappa": "0"}] + triangle[1:]}
            )
        with pytest.raises(PolytopeError, match="rational"):
            document_to_polytope(
                {"dim": 2, "facets": triangle[:2] + [{"normal": [1, 1], "kappa": True}]}
            )
        # labels and names are strings or null, never converted
        for label in (True, 1, [1], {"a": 1}):
            labelled = [dict(f, label=str(i)) for i, f in enumerate(triangle)]
            labelled[1]["label"] = label
            with pytest.raises(PolytopeError, match="facet 1 label must be a string"):
                document_to_polytope({"dim": 2, "facets": labelled})
        for name in (True, 3, [1], {"a": 1}):
            with pytest.raises(PolytopeError, match="name must be a string"):
                document_to_polytope({"dim": 2, "facets": triangle, "name": name})
        named = document_to_polytope({"dim": 2, "facets": triangle, "name": "T"})
        assert named.name == "T"
        assert document_to_polytope({"dim": 2, "facets": triangle, "name": None}).name is None


class TestConstruct:
    def test_bundle_yk(self, capsys):
        doc = run_json(
            capsys, "construct", "bundle-yk", "k=3", "a=1,1,0", "kappa=0,0,0,1,0,2"
        )
        poly = document_to_polytope(doc)
        assert poly.dim == 4 and poly.n_facets == 6
        assert poly.labels == ("F1", "F2", "F3", "F4", "G1", "G2")
        assert doc["facets"][5]["normal"] == [1, 1, 0, 1]

    def test_simplex_and_minimal_families(self, capsys):
        doc = run_json(capsys, "construct", "simplex", "n=4", "size=2")
        assert document_to_polytope(doc).dim == 4
        doc = run_json(capsys, "construct", "minimal-b", "n=6")
        assert document_to_polytope(doc).n_facets == 6

    def test_expansion_from_core_file(self, capsys, tmp_path):
        core = tmp_path / "core.polytope.json"
        code, out, _ = run(capsys, "construct", "simplex", "n=2")
        core.write_text(out)
        doc = run_json(
            capsys, "construct", "expansion", f"core={core}", "facet=F1", "fold=2"
        )
        assert document_to_polytope(doc).dim == 4

    def test_product_of_files(self, capsys, tmp_path):
        a = tmp_path / "a.polytope.json"
        b = tmp_path / "b.polytope.json"
        _, out, _ = run(capsys, "construct", "simplex", "n=2")
        a.write_text(out)
        _, out, _ = run(capsys, "construct", "simplex", "n=1")
        b.write_text(out)
        doc = run_json(capsys, "construct", "product", f"of={a},{b}")
        assert document_to_polytope(doc).dim == 3

    @pytest.mark.parametrize(
        "argv, build",
        [
            (
                ("bundle-121", "a=1,2,3", "d=1", "kappa=0,1,0,0,4,0,40"),
                lambda square: bundle_121(Bundle121Spec((1, 2, 3), 1, (0, 1, 0, 0, 4, 0, 40))),
            ),
            (
                ("bundle-d2-polygon", "polygon={square}", "twists=0,0,0,0,1,-1,0,0", "kappa=0,0,1,0,0,3,3"),
                lambda square: bundle_D2_polygon(
                    D2PolygonBundleSpec(square, ((0, 0), (0, 0), (1, -1), (0, 0)), (0, 0, 1, 0, 0, 3, 3))
                ),
            ),
            (
                ("double-expansion", "core={square}", "j1=F1", "j2=2"),
                lambda square: double_expansion(square, 0, 2),
            ),
            (("minimal-a3", "n=8"), lambda square: minimal_family_a3(8)),
        ],
        ids=["bundle-121", "bundle-d2-polygon", "double-expansion", "minimal-a3"],
    )
    def test_document_parses_back_to_the_builder(self, capsys, tmp_path, argv, build):
        square = HPolytope(2, ((-1, 0), (0, -1), (1, 0), (0, 1)), (0, 0, 3, 3))
        path = tmp_path / "square.polytope.json"
        path.write_text(dumps(polytope_to_document(square)))
        doc = run_json(capsys, "construct", *(a.format(square=path) for a in argv))
        built = build(square)
        back = document_to_polytope(doc)
        assert back == built and back.labels == built.labels

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "hypercube", "n=3")
        assert code == 1

    def test_bad_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "simplex", "n=2", "bogus=1")
        assert code == 1 and "bogus" in err


class TestCheck:
    def test_worked_example(self, capsys, bar_file):
        doc = run_json(capsys, "check", str(bar_file), "-H", "0,2,2,0")
        assert doc["smooth"] and doc["mass_linear"]
        assert doc["gamma"] == ["1", "-1", "-1", "1", "0", "0"]
        assert doc["pairing"] == "1"
        assert doc["equivalence_classes"] == [["F1", "F2"], ["F3", "F4"], ["G1", "G2"]]
        assert doc["symmetric"] == ["G1", "G2"]
        assert doc["inessential"] and not doc["essential"]
        assert doc["beta"] == ["1", "-1", "-1", "1", "0", "0"]
        assert doc["fully_mass_linear"]
        assert len(set(doc["skeleton_pairings"])) == 1

    def test_triangle_inessential(self, capsys, tmp_path):
        path = tmp_path / "s2.polytope.json"
        path.write_text(dumps(polytope_to_document(simplex(2))))
        doc = run_json(capsys, "check", str(path), "-H", "1,0")
        assert doc["mass_linear"] and doc["inessential"] and not doc["essential"]

    def test_seed_is_usage_error(self, capsys, bar_file):
        # every verdict is exact, so check takes no sampling seed
        code, _, err = run(capsys, "check", str(bar_file), "-H", "0,2,2,0", "--seed", "3")
        assert code == 1 and "--seed" in err

    def test_report_serialization_stable(self, capsys, bar_file):
        code, out, _ = run(capsys, "check", str(bar_file), "-H", "0,2,2,0")
        assert dumps(json.loads(out)) == out

    def test_wrong_dimension_is_domain_error(self, capsys, bar_file):
        code, out, _ = run(capsys, "check", str(bar_file), "-H", "1,0")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValueError"

    def test_text_format(self, capsys, bar_file):
        code, out, _ = run(
            capsys, "check", str(bar_file), "-H", "0,2,2,0", "--format", "text"
        )
        assert code == 0
        assert "gamma: 1, -1, -1, 1, 0, 0" in out


class TestPipeline:
    def test_blowup_then_check_then_classify(self, capsys, bar_file, tmp_path):
        code, out, _ = run(capsys, "blowup", str(bar_file), "--face", "F2,F4,G1")
        assert code == 0
        blown_doc = json.loads(out)
        assert blown_doc["facets"][0]["label"] == "E1"
        assert blown_doc["facets"][0]["normal"] == [1, 0, 1, -1]
        blown = tmp_path / "blown.polytope.json"
        blown.write_text(out)

        doc = run_json(capsys, "check", str(blown), "-H", "0,2,2,0")
        assert doc["gamma"] == ["0", "1", "-1", "-1", "1", "0", "0"]
        assert doc["essential"]
        assert all(len(c) == 1 for c in doc["equivalence_classes"])

        doc = run_json(capsys, "classify", str(blown), "-H", "0,2,2,0")
        assert doc["type"] == "b"
        assert len(doc["trace"]) == 1
        step = doc["trace"][0]
        assert step["removed"] == "E1"
        assert step["face"] == ["F2", "F4", "G1"]
        assert step["tag"] == "edge_type_Fij_G"
        assert document_to_polytope(doc["terminal"]) == document_to_polytope(
            json.loads(bar_file.read_text())
        )
        assert doc["certificate"]["base"] == ["F1", "F2", "F3", "F4"]
        assert not doc["terminal_essential"]

    def test_classify_trace_stages(self, capsys, bar_file, tmp_path):
        _, out, _ = run(capsys, "blowup", str(bar_file), "--face", "F2,F4,G1")
        blown = tmp_path / "blown.polytope.json"
        blown.write_text(out)
        doc = run_json(capsys, "classify", str(blown), "-H", "0,2,2,0", "--trace")
        assert len(doc["stages"]) == 2
        assert doc["stages"][0] == json.loads(out)
        assert doc["stages"][1] == doc["terminal"]

    def test_classify_builds_no_more_than_classify4d(self, builds):
        def blown():
            bar = bundle_Yk(YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)))
            return blowup(blowup(bar, (1, 3, 4)), (0, 5))

        first, second = blown(), blown()
        builds.clear()
        classify4d(first, (0, 2, 2, 0))
        walked = len(builds)
        builds.clear()
        doc = classify_document(second, (0, 2, 2, 0), with_stages=True)
        assert len(doc["stages"]) == 3
        assert len(builds) <= walked

    def test_blowdown_inverts_blowup(self, capsys, bar_file, tmp_path):
        _, out, _ = run(capsys, "blowup", str(bar_file), "--face", "F1,F3", "--eps", "1/4")
        blown = tmp_path / "blown.polytope.json"
        blown.write_text(out)
        code, out, _ = run(capsys, "blowdown", str(blown), "--facet", "E1")
        assert code == 0
        assert out == bar_file.read_text()

    def test_blowdown_failure_is_domain_error(self, capsys, bar_file):
        code, out, _ = run(capsys, "blowdown", str(bar_file), "--facet", "F1")
        assert code == 2
        assert json.loads(out) == {"error": {
            "type": "BlowdownNotPossible",
            "message": "facet F1 does not blow down: no fiber set of facet F1 has conormals "
                       "summing to its conormal",
            "failed_condition": "conormal sum",
            "alternatives": [],
        }}

    def test_unknown_facet_label(self, capsys, bar_file):
        code, out, _ = run(capsys, "blowup", str(bar_file), "--face", "F9,G1")
        assert code == 2
        assert "F9" in json.loads(out)["error"]["message"]


class TestBarycenters:
    def test_simplex_table(self, capsys, tmp_path):
        path = tmp_path / "s2.polytope.json"
        path.write_text(dumps(polytope_to_document(simplex(2))))
        doc = run_json(capsys, "barycenters", str(path), "-H", "1,0")
        assert [row["k"] for row in doc["table"]] == [0, 1, 2]
        assert all(row["barycenter"] == ["1/3", "1/3"] for row in doc["table"])
        assert all(row["pairing"] == "1/3" for row in doc["table"])

    def test_wrong_length_functional_reads_as_in_check(self, capsys, tmp_path):
        path = tmp_path / "s2.polytope.json"
        path.write_text(dumps(polytope_to_document(simplex(2))))
        outcomes = [run(capsys, command, str(path), "-H", "1,2,3")[:2] for command in ("check", "barycenters")]
        assert outcomes[0] == outcomes[1]
        code, out = outcomes[1]
        assert code == 2 and json.loads(out)["error"]["message"] == "functional has wrong dimension"


class TestMlSpace:
    def test_yk_spaces(self, capsys):
        doc = run_json(capsys, "mlspace", "bundle-yk", "k=3", "a=1,1,0")
        assert not doc["has_essential"]
        assert len(doc["mass_linear"]) == 3 == len(doc["inessential"])
        doc = run_json(capsys, "mlspace", "bundle-yk", "k=3", "a=1,2,3")
        assert doc["has_essential"]

    def test_121_space(self, capsys):
        doc = run_json(capsys, "mlspace", "bundle-121", "a=1,2,3", "d=1")
        assert doc["has_essential"]
        for entry in doc["mass_linear"]:
            coeffs = [Fr(c) for c in entry["coefficients"]]
            assert sum(coeffs) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("bundle-121", "a=1,1,1", "d=-1"),
            ("bundle-121", "a=1,2", "d=0"),
            ("bundle-yk", "k=0", "a=0"),
            ("bundle-yk", "k=2", "a=1"),
        ],
    )
    def test_parameters_the_spec_rejects_are_domain_errors(self, capsys, argv):
        code, out, _ = run(capsys, "mlspace", *argv)
        assert code == 2 and json.loads(out)["error"]["type"] == "PolytopeError"

    def test_d2_space_from_file(self, capsys, tmp_path):
        path = tmp_path / "sq.polytope.json"
        from masslin.polytope import HPolytope

        square = HPolytope(2, ((-1, 0), (0, -1), (1, 0), (0, 1)), (0, 0, 3, 3))
        path.write_text(dumps(polytope_to_document(square)))
        doc = run_json(
            capsys,
            "mlspace",
            "bundle-d2-polygon",
            f"polygon={path}",
            "twists=0,0,0,0,0,0,0,0",
            "kappa=0,0,1,0,0,3,3",
        )
        assert not doc["has_essential"]
        assert len(doc["mass_linear"]) == 4


class TestBatch:
    def test_directory_batch(self, capsys, bar_file, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "a.polytope.json").write_text(bar_file.read_text())
        _, out, _ = run(capsys, "blowup", str(bar_file), "--face", "F2,F4,G1")
        (batch / "b.polytope.json").write_text(out)
        doc = run_json(capsys, "check", str(batch), "-H", "0,2,2,0")
        assert doc["command"] == "check-batch"
        assert [r["file"] for r in doc["reports"]] == [
            "a.polytope.json",
            "b.polytope.json",
        ]
        assert [r["essential"] for r in doc["reports"]] == [False, True]

    def test_jobs_do_not_change_output(self, capsys, bar_file, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "a.polytope.json").write_text(bar_file.read_text())
        (batch / "b.polytope.json").write_text(
            dumps(polytope_to_document(simplex(4)))
        )
        code1, out1, _ = run(capsys, "check", str(batch), "-H", "0,2,2,0")
        code2, out2, _ = run(capsys, "check", str(batch), "-H", "0,2,2,0", "--jobs", "2")
        assert (code1, out1) == (code2, out2)

    def test_import_loads_no_process_pool(self):
        # only a batch run with --jobs > 1 needs the process machinery
        script = (
            "import sys, masslin.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        src = str(Path(masslin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_classify_directory(self, capsys, bar_file, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        _, out, _ = run(capsys, "blowup", str(bar_file), "--face", "F2,F4,G1")
        (batch / "a.polytope.json").write_text(out)
        _, out, _ = run(capsys, "blowup", str(batch / "a.polytope.json"), "--face", "E1,G1")
        (batch / "b.polytope.json").write_text(out)
        code1, out1, _ = run(capsys, "classify", str(batch), "-H", "0,2,2,0")
        code2, out2, _ = run(capsys, "classify", str(batch), "-H", "0,2,2,0", "--jobs", "2")
        assert code1 == 0 and (code1, out1) == (code2, out2)
        doc = json.loads(out1)
        assert doc["command"] == "classify-batch"
        assert [r["file"] for r in doc["reports"]] == ["a.polytope.json", "b.polytope.json"]
        assert [r["type"] for r in doc["reports"]] == ["b", "b"]
        assert [len(r["trace"]) for r in doc["reports"]] == [1, 2]

    def test_batch_with_bad_file_exits_2(self, capsys, bar_file, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "a.polytope.json").write_text(bar_file.read_text())
        (batch / "z.polytope.json").write_text("{not json")
        code, out, _ = run(capsys, "check", str(batch), "-H", "0,2,2,0")
        assert code == 2
        doc = json.loads(out)
        assert "error" in doc["reports"][1]
        assert "error" not in doc["reports"][0]


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, _, _ = run(capsys, "construct", "simplex", "n=2")
        assert code == 0

    def test_usage_is_one(self, capsys, bar_file):
        assert run(capsys, "check", str(bar_file))[0] == 1
        assert run(capsys, "nosuchcommand")[0] == 1
        assert run(capsys, "check", "missing.json", "-H", "1,0")[0] == 1

    def test_domain_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.polytope.json"
        bad.write_text('{"dim": 2, "facets": [{"normal": [1, 0], "kappa": "1"}]}')
        code, out, _ = run(capsys, "check", str(bad), "-H", "1,0")
        assert code == 2 and "error" in json.loads(out)

    def test_help_is_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("construct", "simplex", "n=abc"), "n"),
            (("construct", "simplex", "n=2", "size=abc"), "size"),
            (("construct", "simplex", "n=2", "size=1/0"), "size"),
            (("construct", "bundle-yk", "k=1.5", "a=1,1", "kappa=0,0,0,1"), "k"),
            (("construct", "bundle-121", "a=1,2,3", "d=x", "kappa=0,1,0,0,4,0,40"), "d"),
            (("construct", "minimal-a3", "n=seven"), "n"),
            (("construct", "minimal-b", "n="), "n"),
            (("mlspace", "bundle-yk", "k=abc", "a=1,1"), "k"),
            (("mlspace", "bundle-121", "a=1,2,3", "d=abc"), "d"),
        ],
    )
    def test_malformed_number_is_usage(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {name} is not ")

    def test_malformed_fold_is_usage(self, capsys, tmp_path):
        core = tmp_path / "core.polytope.json"
        core.write_text(dumps(polytope_to_document(simplex(2))))
        code, _, err = run(capsys, "construct", "expansion", f"core={core}", "facet=F1", "fold=abc")
        assert code == 1 and err.startswith("error: fold is not an integer")

    def test_malformed_eps_is_usage(self, capsys, bar_file):
        code, out, err = run(capsys, "blowup", str(bar_file), "--face", "F1,F3", "--eps", "abc")
        assert code == 1 and out == "" and "--eps" in err
        # a well-formed depth outside its range is a domain error
        code, out, _ = run(capsys, "blowup", str(bar_file), "--face", "F1,F3", "--eps", "5")
        assert code == 2 and json.loads(out)["error"]["type"] == "PolytopeError"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_must_be_positive(self, capsys, bar_file, tmp_path, jobs):
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "bar.polytope.json").write_text(bar_file.read_text())
        for command in ("check", "classify"):
            code, out, err = run(capsys, command, str(batch), "-H", "0,2,2,0", "--jobs", jobs)
            assert code == 1 and out == "" and "--jobs" in err


class TestInputChecks:
    """Each input check of the CLI's parsers, through ``main``: a usage
    error exits 1 with its message on stderr, a domain error exits 2 with
    the JSON error document on stdout.  ``{dir}`` is a directory holding
    the worked example ``bar.polytope.json``, the 3 x 3 square
    ``square.polytope.json``, three malformed documents and the empty
    directory ``empty``."""

    DOCUMENTS = {
        "list.polytope.json": "[]",
        "nofacets.polytope.json": '{"dim": 2, "facets": []}',
        "nokappa.polytope.json": '{"dim": 1, "facets": [{"normal": [1]}, {"normal": [-1], "kappa": "0"}]}',
    }

    @pytest.fixture()
    def inputs(self, bar_file, tmp_path):
        square = HPolytope(2, ((-1, 0), (0, -1), (1, 0), (0, 1)), (0, 0, 3, 3))
        (tmp_path / "square.polytope.json").write_text(dumps(polytope_to_document(square)))
        for name, text in self.DOCUMENTS.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "empty").mkdir()
        return tmp_path

    @pytest.mark.parametrize(
        "argv, code, kind, message",
        [
            (("check", "{dir}/bar.polytope.json", "-H", "1,x"), 1, "UsageError",
             "not a comma-separated rational vector: '1,x'"),
            (("construct", "bundle-yk", "k=1", "a=x", "kappa=0,1,0,2"), 1, "UsageError",
             "not a comma-separated integer vector: 'x'"),
            (("check", "{dir}/list.polytope.json", "-H", "1,0"), 2, "PolytopeError",
             "polytope document must be a JSON object"),
            (("check", "{dir}/nofacets.polytope.json", "-H", "1,0"), 2, "PolytopeError",
             "facets must be a non-empty list"),
            (("check", "{dir}/nokappa.polytope.json", "-H", "1"), 2, "PolytopeError",
             "facet 0 needs normal and kappa fields"),
            (("construct", "product", "of={dir}/missing.json,{dir}/bar.polytope.json"), 2, "PolytopeError",
             "cannot read {dir}/missing.json: [Errno 2] No such file or directory: '{dir}/missing.json'"),
            (("construct", "simplex", "n"), 1, "UsageError", "parameters are key=value, got 'n'"),
            (("construct", "simplex", "n=2", "n=3"), 1, "UsageError", "duplicate parameter 'n'"),
            (("construct", "simplex"), 1, "UsageError", "missing required parameter n=..."),
            (("construct", "bundle-d2-polygon", "polygon={dir}/square.polytope.json", "twists=0,0,0",
              "kappa=0,0,1,0,0,3,3"), 1, "UsageError", "twists must pair up: b1,c1,b2,c2,..."),
            (("construct", "product", "of={dir}/bar.polytope.json"), 1, "UsageError",
             "product needs of=FILE1,FILE2"),
            (("check", "{dir}/empty", "-H", "1,0"), 2, "PolytopeError", "no *.polytope.json files in {dir}/empty"),
        ],
    )
    def test_rejected(self, capsys, inputs, argv, code, kind, message):
        message = message.format(dir=inputs)
        got, out, err = run(capsys, *(a.format(dir=inputs) for a in argv))
        assert got == code
        if kind == "UsageError":
            assert (out, err) == ("", f"error: {message}\n")
        else:
            assert out == dumps({"error": {"type": kind, "message": message}}) and err == ""

    def test_text_renders_a_list_of_objects(self, capsys, bar_file, tmp_path):
        _, out, _ = run(capsys, "blowup", str(bar_file), "--face", "F2,F4,G1")
        blown = tmp_path / "blown.polytope.json"
        blown.write_text(out)
        code, out, _ = run(capsys, "classify", str(blown), "-H", "0,2,2,0", "--format", "text")
        assert code == 0
        assert (
            "\ntrace:\n  -\n    removed: E1\n    position: 0\n    face: F2, F4, G1\n"
            "    epsilon: 1/2\n    tag: edge_type_Fij_G\nterminal:\n" in out
        )
