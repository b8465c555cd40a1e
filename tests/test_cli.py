"""End-to-end command-line checks: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rmtlaw
from rmtlaw import HSequence, h_szego, limiting_moment, parse_model
from rmtlaw.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_independent_entries_catalan_row(capsys):
    code, out, _ = run(
        capsys, "predict", "--model", "iid:dist=rademacher,var=1", "--y", "1",
        "--kmax", "4", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["moment"] for row in doc["rows"]] == [1, 2, 5, 14]
    assert doc["h_origin"] == "szego-quadrature"


def test_predict_explicit_traces(capsys):
    code, out, _ = run(capsys, "predict", "--h", "1,1.6667", "--y", "0.5", "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["k_max"] == 2  # defaults to the length of --h
    assert doc["rows"][1]["moment"] == pytest.approx(2.1667)
    assert doc["h_origin"] == "user"


def test_predict_first_moment_is_h1(capsys):
    code, out, _ = run(capsys, "predict", "--model", "ar1:p=0", "--y", "2", "--kmax", "1", "--quiet")
    assert code == 0
    assert json.loads(out)["rows"][0]["moment"] == pytest.approx(1.0)


def test_predict_csv_matches_library_digit_for_digit(capsys):
    h = (1.25, 2.5, 4.75, 11.0, 30.5)
    code, out, _ = run(
        capsys, "predict", "--h", ",".join(str(v) for v in h), "--y", "0.8",
        "--format", "csv", "--quiet",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,h,moment"
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert cells[0] == str(k)
        assert cells[2] == format(limiting_moment(k, 0.8, HSequence(h)), ".12g")


def test_predict_weighted_form(capsys):
    code, out, _ = run(
        capsys, "predict", "--h", "2,3", "--htilde", "3,5", "--y", "1", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["moment"] == pytest.approx(6.0)  # H_1 * Q_1
    assert doc["rows"][0]["htilde"] == 3.0
    # unit weights reduce to the plain moments
    code, out, _ = run(
        capsys, "predict", "--h", "2,3", "--htilde", "1,1", "--y", "1", "--quiet",
    )
    doc = json.loads(out)
    assert doc["rows"][1]["moment"] == pytest.approx(limiting_moment(2, 1.0, (2.0, 3.0)))


@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "--y", "1"),  # neither --model nor --h
        ("predict", "--model", "ar1:p=0.5", "--h", "1", "--y", "1"),  # both
        ("predict", "--model", "spike:a=1", "--y", "1"),
        ("predict", "--model", "ar1:p=0.5"),  # missing --y
        ("predict", "--model", "ar1:p=0.5", "--y", "1", "--unknown-flag"),
        ("predict", "--h", "1,abc", "--y", "1"),
        ("predict", "--h", "nan,1", "--y", "0.5", "--kmax", "2"),  # non-finite traces
        ("predict", "--h", "1,inf", "--y", "0.5"),
        ("predict", "--h", "1,-inf", "--y", "0.5"),
        ("predict", "--h", "1,2", "--htilde", "1,nan", "--y", "0.5"),
        ("predict", "--h", "1,2", "--y", "1", "--kmax", "0"),
        ("predict", "--model", "ar1:p=0.97", "--y", "1"),  # decay rate above 0.95
    ],
)
def test_predict_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "--h", "1,1e308,1", "--y", "1", "--format", "json"),  # M_3 sums to inf
        ("predict", "--h", "1e200,1e200,1e200", "--y", "1"),  # H_1^2 overflows
    ],
)
def test_predict_overflow_is_numeric_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "numeric error" in err


def test_window_trace_overflow_is_numeric_error(capsys):
    # H_2 of a variance-1e200 window overflows; no numpy warning may escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "simulate", "--model", "iid:var=1e200", "--m", "4", "--n", "4",
            "--reps", "1", "--kmax", "2",
        )
    assert code == 1
    assert out == ""
    assert err.startswith("rmtlaw: numeric error:")


def write_chain(path, states, transition, stationary):
    path.write_text(
        json.dumps({"states": states, "transition": transition, "stationary": stationary})
    )
    return f"chain:file={path}"


def test_predict_chain_model_prints_its_limit(capsys, tmp_path):
    model = write_chain(
        tmp_path / "chain.json",
        [-1.0, 0.0, 1.0],
        [[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]],
        [1 / 3, 1 / 3, 1 / 3],
    )
    code, out, _ = run(capsys, "predict", "--model", model, "--y", "1", "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["h_origin"] == "szego-quadrature"
    want = h_szego(parse_model(model), 4)
    for row in doc["rows"]:
        assert row["h"] == float(format(want.value(row["k"]), ".12g"))
        assert row["moment"] == float(format(limiting_moment(row["k"], 1.0, want), ".12g"))


def test_predict_periodic_chain_is_usage_error(capsys, tmp_path):
    model = write_chain(tmp_path / "flip.json", [1.0, -1.0], [[0, 1], [1, 0]], [0.5, 0.5])
    code, out, err = run(capsys, "predict", "--model", model, "--y", "1")
    assert code == 2
    assert out == "" and "decay rate" in err
    code, out, _ = run(
        capsys, "simulate", "--model", model, "--m", "6", "--n", "6", "--reps", "2", "--quiet"
    )
    assert code == 0
    assert all(row["predicted_limit"] is None for row in json.loads(out)["moments"])


@st.composite
def chain_files(draw):
    """A valid chain on 2-6 states with sparse integer-weighted rows; an
    empty row steps to the next state, so periodic and reducible chains
    come up often.  The stationary law is the limit of the lazy chain
    (I + P)/2, which is aperiodic and has the stationary laws of P, from a
    uniform start; the state values are centred under it."""
    n = draw(st.integers(2, 6))
    rows = []
    for i in range(n):
        weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=n, max_size=n))
        if not any(weights):
            weights = [int(j == (i + 1) % n) for j in range(n)]
        rows.append([w / sum(weights) for w in weights])
    lazy = (np.eye(n) + np.array(rows)) / 2
    for _ in range(60):
        lazy = lazy @ lazy
        lazy /= lazy.sum(axis=1, keepdims=True)
    pi = lazy.mean(axis=0)
    values = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    return {"states": (values - pi @ values).tolist(), "transition": rows,
            "stationary": pi.tolist()}


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=chain_files())
def test_random_chain_files_exit_cleanly(capsys, tmp_path, doc):
    model = write_chain(tmp_path / "random.json", **doc)
    for argv in (
        ("predict", "--model", model, "--y", "0.5", "--kmax", "6", "--quiet"),
        ("simulate", "--model", model, "--m", "8", "--n", "12", "--reps", "2", "--quiet"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code in (0, 2)
        if code == 2:
            assert out == ""
        else:
            assert json.loads(out)


def test_unknown_subcommand(capsys):
    assert run(capsys, "transmogrify")[0] == 2


SIM_ARGS = (
    "--model", "ar1:p=0.5", "--m", "24", "--n", "48", "--reps", "6",
    "--kmax", "3", "--seed", "5",
)


@pytest.mark.parametrize("model", ["ar1:p=0.97", "twostate:alpha=0.96"])
def test_simulate_peaked_model_has_null_limit(capsys, model):
    code, out, _ = run(
        capsys, "simulate", "--model", model, "--m", "10", "--n", "10", "--reps", "2", "--quiet"
    )
    assert code == 0
    rows = json.loads(out)["moments"]
    assert rows and all(row["predicted_limit"] is None for row in rows)


def test_simulate_reruns_byte_identical_up_to_runtime(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "simulate", *SIM_ARGS, "--out", str(a), "--quiet")[0] == 0
    assert run(capsys, "simulate", *SIM_ARGS, "--workers", "3", "--out", str(b), "--quiet")[0] == 0
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    doc_a.pop("runtime_seconds"), doc_b.pop("runtime_seconds")
    assert doc_a == doc_b


def test_simulate_logs_unless_quiet(capsys):
    code, out, err = run(capsys, "simulate", *SIM_ARGS)
    assert code == 0 and "simulated 6 replicates" in err
    code, out, err = run(capsys, "simulate", *SIM_ARGS, "--quiet")
    assert code == 0 and err == ""
    json.loads(out)


def test_simulate_budget_guard_and_force(capsys):
    code, _, err = run(
        capsys, "simulate", "--model", "ar1:p=0.5", "--m", "600", "--n", "4",
        "--reps", "2", "--quiet",
    )
    assert code == 2 and "exceeds the cap" in err
    code, out, _ = run(
        capsys, "simulate", "--model", "ar1:p=0.5", "--m", "600", "--n", "4",
        "--reps", "2", "--force", "--quiet",
    )
    assert code == 0
    assert json.loads(out)["config"]["m"] == 600


def test_simulate_rejects_bad_model(capsys):
    assert run(capsys, "simulate", "--model", "ar1:p=2", "--quiet")[0] == 2


@pytest.fixture(scope="module")
def self_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("reports") / "ar1.json"
    code = main(
        [
            "simulate", "--model", "ar1:p=0.5", "--m", "60", "--n", "240",
            "--reps", "40", "--kmax", "3", "--seed", "2", "--out", str(path), "--quiet",
        ]
    )
    assert code == 0
    return path


def test_compare_self_report_passes(capsys, self_report):
    code, out, _ = run(capsys, "compare", str(self_report), "--format", "csv", "--quiet")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,empirical,predicted,stderr,z,rel,verdict"
    assert len(lines) == 4
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_compare_loads_reports_with_and_without_provenance(capsys, self_report, tmp_path):
    doc = json.loads(self_report.read_text())
    assert doc["provenance"]["sampler_stream"] == 2
    doc.pop("provenance")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    outputs = []
    for path in (self_report, bare):
        code, out, _ = run(capsys, "compare", str(path), "--quiet")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    code, out, _ = run(capsys, "compare", str(self_report), str(bare), "--quiet")
    assert code == 0 and json.loads(out)["overall"] == "PASS"


def test_compare_detects_doctored_prediction(capsys, self_report, tmp_path):
    doc = json.loads(self_report.read_text())
    doc["moments"][1]["predicted_finite"] *= 1.2
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "compare", str(doctored), "--quiet")
    assert code == 1
    rows = json.loads(out)["rows"]
    assert rows[1]["verdict"] == "FAIL"
    assert rows[0]["verdict"] == "PASS"
    assert json.loads(out)["overall"] == "FAIL"


def test_compare_wrong_aspect_ratio_fails_beyond_first_moment(capsys, self_report):
    # recomputing predictions at a wrong y leaves M_1 alone but shifts M_2
    code, out, _ = run(capsys, "compare", str(self_report), "--y", "2.0", "--quiet")
    assert code == 1
    rows = json.loads(out)["rows"]
    assert rows[0]["verdict"] == "PASS"
    assert rows[1]["verdict"] == "FAIL"


def test_compare_inline_run(capsys):
    code, out, _ = run(
        capsys, "compare", "--model", "ar1:p=0.5", "--m", "40", "--n", "80",
        "--reps", "20", "--kmax", "2", "--seed", "3", "--quiet",
    )
    assert code == 0
    assert json.loads(out)["overall"] == "PASS"


def test_compare_cross_reports_same_law(capsys, tmp_path):
    paths = []
    for name, model in (("a", "ar1:p=0.5"), ("t", "twostate:alpha=0.5")):
        path = tmp_path / f"{name}.json"
        assert (
            main(
                [
                    "simulate", "--model", model, "--m", "40", "--n", "160",
                    "--reps", "30", "--kmax", "2", "--seed", "1",
                    "--out", str(path), "--quiet",
                ]
            )
            == 0
        )
        paths.append(str(path))
    code, out, _ = run(capsys, "compare", *paths, "--format", "csv", "--quiet")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,mean_a,mean_b,stderr,z,rel,verdict"
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_compare_mismatched_reports_usage_error(capsys, self_report, tmp_path):
    other = tmp_path / "other.json"
    assert (
        main(
            [
                "simulate", "--model", "ar1:p=0.5", "--m", "60", "--n", "240",
                "--reps", "6", "--kmax", "2", "--seed", "2", "--out", str(other), "--quiet",
            ]
        )
        == 0
    )
    assert run(capsys, "compare", str(self_report), str(other), "--quiet")[0] == 2


@pytest.mark.parametrize(
    "damage",
    ["row-missing-predicted-finite", "string-empirical-mean", "no-k-max", "k-rows-differ"],
)
def test_compare_rejects_malformed_reports(capsys, self_report, tmp_path, damage):
    text = self_report.read_text()
    a, b = json.loads(text), json.loads(text)
    if damage == "row-missing-predicted-finite":
        del a["moments"][1]["predicted_finite"]
        reports = [a]
    elif damage == "string-empirical-mean":
        a["moments"][0]["empirical_mean"] = "1.0"
        reports = [a]
    elif damage == "no-k-max":
        del a["config"]["k_max"], b["config"]["k_max"]
        reports = [a, b]
    else:
        b["moments"][2]["k"] = 4
        reports = [a, b]
    paths = []
    for i, report in enumerate(reports):
        path = tmp_path / f"report{i}.json"
        path.write_text(json.dumps(report))
        paths.append(str(path))
    code, out, err = run(capsys, "compare", *paths, "--quiet")
    assert code == 2
    assert out == "" and err.startswith("rmtlaw: report ")


@pytest.mark.parametrize("m,n", [(1_000_000, 240), (600, 240), (60, 2000)])
def test_compare_rejects_oversized_report_before_predicting(capsys, self_report, tmp_path, m, n):
    # a new prediction at --y needs the m-window traces of the report's model;
    # past the simulate caps they would not fit in memory or would take hours
    doc = json.loads(self_report.read_text())
    doc["config"]["m"], doc["config"]["n"] = m, n
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compare", str(path), "--y", "0.25", "--quiet")
    assert code == 2
    assert out == "" and "exceeds the cap" in err


def test_compare_force_lifts_the_report_caps(capsys, self_report, tmp_path):
    doc = json.loads(self_report.read_text())
    doc["config"]["m"] = 600
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "compare", str(path), "--y", "0.25", "--force", "--quiet")
    assert code in (0, 1)
    assert len(json.loads(out)["rows"]) == 3
    # without --y the report's own predictions are used and nothing is computed
    assert run(capsys, "compare", str(path), "--quiet")[0] == 0


def test_compare_usage_errors(capsys, self_report):
    assert run(capsys, "compare", "a", "b", "c", "--quiet")[0] == 2
    assert run(capsys, "compare", "--quiet")[0] == 2  # inline without --model
    assert run(capsys, "compare", "/does/not/exist.json", "--quiet")[0] == 2
    # --y only applies when predictions are recomputed from one report
    assert run(capsys, "compare", str(self_report), str(self_report), "--y", "1", "--quiet")[0] == 2


def test_spectrum_csv(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "iid:", "--m", "40", "--n", "40", "--reps", "3",
        "--bins", "8", "--range", "0:4", "--quiet",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count,density"
    assert len(lines) == 9
    inside = sum(int(line.split(",")[2]) for line in lines[1:])
    density_mass = sum(float(line.split(",")[3]) for line in lines[1:]) * 0.5
    assert inside <= 120
    assert density_mass == pytest.approx(1.0)


def test_spectrum_json(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--model", "ar1:p=0.5", "--m", "24", "--n", "48",
        "--reps", "2", "--bins", "5", "--format", "json", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["bin_edges"]) == 6
    assert sum(doc["counts"]) == doc["total"] == 48


def test_spectrum_bad_range(capsys):
    args = ("spectrum", "--model", "iid:", "--m", "24", "--n", "48", "--reps", "2", "--quiet")
    assert run(capsys, *args, "--range", "4:0")[0] == 2
    assert run(capsys, *args, "--range", "0-4")[0] == 2
    # bounds or a width past the float range, and a range too narrow for its bins
    for bad in ("0:inf", "-inf:0", "0:1e309", "-1e308:1e308", "1:1.0000000000000002"):
        code, out, err = run(capsys, *args, f"--range={bad}")
        assert (code, out) == (2, "") and err.startswith("rmtlaw: ")


def test_nc_enumerate(capsys):
    code, out, _ = run(capsys, "nc", "enumerate", "--k", "3", "--quiet")
    assert code == 0
    assert len(out.strip().split("\n")) == 5
    code, out, _ = run(capsys, "nc", "enumerate", "--k", "3", "--format", "json", "--quiet")
    assert json.loads(out)["count"] == 5


def test_nc_complement(capsys):
    code, out, _ = run(capsys, "nc", "complement", "--blocks", "1,2,4|3|5", "--quiet")
    assert code == 0
    assert out == "1|2,3|4,5\n"


def test_nc_count(capsys):
    code, out, _ = run(capsys, "nc", "count", "--k", "4", "--sizes", "4:1", "--quiet")
    assert code == 0
    assert out == "1\n"
    code, out, _ = run(capsys, "nc", "count", "--k", "5", "--sizes", "1:1,2:2", "--quiet")
    assert out == "10\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_nc_count_caps_k_so_the_count_always_prints(capsys, fmt):
    # the count is at most Catalan(k) < 4^k: at the cap k = 5000 it has at
    # most 3,011 digits, under Python's 4,300-digit int-to-str limit
    code, out, err = run(
        capsys, "nc", "count", "--k", "5000", "--sizes", "1:2500,2:1250", "--format", fmt
    )
    assert code == 0
    count = int(out) if fmt == "text" else json.loads(out)["count"]
    assert 2000 < len(str(count)) <= 3011
    for k, sizes in ((10000, "1:5000,2:2500"), (10**8, f"1:{10**8}")):
        code, out, err = run(capsys, "nc", "count", "--k", str(k), "--sizes", sizes, "--format", fmt)
        assert code == 2
        assert out == "" and "capped at k = 5000" in err


def test_nc_graphs(capsys):
    code, out, _ = run(capsys, "nc", "graphs", "--blocks", "1,3|2,4", "--quiet")
    assert code == 0
    assert out == "0\n"
    code, out, _ = run(capsys, "nc", "graphs", "--blocks", "1|2", "--quiet")
    assert out == "1\n1,2\n"
    code, out, _ = run(capsys, "nc", "graphs", "--blocks", "1|2", "--format", "json", "--quiet")
    doc = json.loads(out)
    assert doc["max_graphs"] == 1 and doc["component_partition"] == "1,2"


README_EXAMPLES = [
    (
        ("predict", "--model", "ar1:p=0.5", "--y", "0.5", "--kmax", "4", "--format", "csv"),
        "k,h,moment\n"
        "1,1,1\n"
        "2,1.66666666667,2.16666666667\n"
        "3,3.66666666667,6.41666666667\n"
        "4,9.07407407407,21.8101851852\n",
    ),
    (("nc", "complement", "--blocks", "1,2,4|3|5"), "1|2,3|4,5\n"),
    (("nc", "count", "--k", "5", "--sizes", "1:1,2:2"), "10\n"),
    (("nc", "graphs", "--blocks", "1,2|3"), "1\n1,3|2\n"),
    (
        ("spectrum", "--model", "iid:dist=standard-gaussian", "--m", "100", "--n", "100",
         "--reps", "3", "--seed", "9", "--bins", "5", "--range", "0:4.2"),
        "bin_lo,bin_hi,count,density\n"
        "0,0.84,169,0.670634920635\n"
        "0.84,1.68,61,0.242063492063\n"
        "1.68,2.52,36,0.142857142857\n"
        "2.52,3.36,25,0.0992063492063\n"
        "3.36,4.2,9,0.0357142857143\n",
    ),
]


@pytest.mark.parametrize(
    "argv,expected",
    README_EXAMPLES,
    ids=["predict-csv", "nc-complement", "nc-count", "nc-graphs", "spectrum-csv"],
)
def test_readme_examples_print_exactly(capsys, argv, expected):
    code, out, _ = run(capsys, *argv, "--quiet")
    assert code == 0
    assert out == expected


def test_nc_usage_errors(capsys):
    assert run(capsys, "nc", "enumerate", "--quiet")[0] == 2  # missing --k
    assert run(capsys, "nc", "complement", "--blocks", "1,2|2,3", "--quiet")[0] == 2
    assert run(capsys, "nc", "complement", "--blocks", "1,3|2,4", "--quiet")[0] == 2  # crossing
    assert run(capsys, "nc", "count", "--k", "4", "--sizes", "4-1", "--quiet")[0] == 2
    assert run(capsys, "nc", "count", "--k", "4", "--sizes", "3:1", "--quiet")[0] == 2
    assert run(capsys, "nc", "graphs", "--blocks", "1,2,3,4,5,6,7,8,9", "--quiet")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "--model", "ar1:p=0.5", "--y", "0.5"),
        ("simulate", *SIM_ARGS),
        ("spectrum", "--model", "iid:", "--m", "24", "--n", "48", "--reps", "2"),
    ],
    ids=["predict", "simulate", "spectrum"],
)
def test_out_into_missing_directory_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target), "--quiet")
    assert code == 2
    assert out == "" and "cannot write" in err
    assert not target.exists()


def test_out_flag_writes_file_and_keeps_stdout_clean(capsys, tmp_path):
    path = tmp_path / "pred.json"
    code, out, _ = run(
        capsys, "predict", "--model", "ar1:p=0.5", "--y", "0.5", "--out", str(path), "--quiet",
    )
    assert code == 0 and out == ""
    assert len(json.loads(path.read_text())["rows"]) == 4


SRC = str(Path(rmtlaw.__file__).resolve().parents[1])

# each pair of neighbours would leak state through a shared parser: a default
# overwritten by the call before, an output format, an argparse error exit,
# and the worker count
REPEATED_CALLS = [
    ("predict", "--model", "ar1:p=0.5", "--y", "0.5", "--kmax", "6"),
    ("predict", "--model", "ar1:p=0.5", "--y", "0.5"),
    ("predict", "--model", "ar1:p=0.5", "--y", "0.5", "--format", "csv"),
    ("predict", "--model", "ar1:p=0.5", "--y", "0.5"),
    ("predict", "--y", "x"),
    ("predict", "--model", "ar1:p=0.5", "--y", "0.5"),
    ("simulate", "--model", "ar1:p=0.5", "--m", "6", "--n", "8", "--reps", "2", "--workers", "1"),
    ("simulate", "--model", "ar1:p=0.5", "--m", "6", "--n", "8", "--reps", "2", "--workers", "0"),
]


def fresh_run(argv):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "rmtlaw", *argv], capture_output=True, text=True, env=env, check=False
    )
    return proc.returncode, proc.stdout, proc.stderr


def without_runtime(argv, out):
    # a simulate report carries its own wall time; everything else must match
    if argv[0] != "simulate" or not out:
        return out
    doc = json.loads(out)
    doc.pop("runtime_seconds")
    return doc


def test_repeated_main_calls_print_what_fresh_processes_print(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the same usage-text width on both sides
    assert build_parser() is build_parser()
    fresh, outs = {}, []
    for argv in REPEATED_CALLS:
        argv = (*argv, "--quiet")
        code, out, err = run(capsys, *argv)
        if argv not in fresh:
            fresh[argv] = fresh_run(argv)
        want_code, want_out, want_err = fresh[argv]
        assert (code, without_runtime(argv, out), err) == (
            want_code, without_runtime(argv, want_out), want_err
        ), argv
        outs.append((code, out))
    assert len(json.loads(outs[1][1])["rows"]) == 4
    assert outs[4][0] == 2


FUZZ_TRACES = ["1,2,5", "1", "1e200,1e200,1e200", "nan,1", "1,-1", ",", "1,x"]
FUZZ_VALUES = {
    "--model": st.sampled_from(["ar1:p=0.5", "ar1:p=-0.3", "twostate:alpha=0.4", "iid:",
                                "iid:dist=rademacher,var=2", "ar1:p=0.97", "ar1:", "bogus:x=1",
                                "chain:file=chain.json", "chain:file=missing.json"]),
    "--h": st.sampled_from(FUZZ_TRACES),
    "--htilde": st.sampled_from(FUZZ_TRACES),
    "--y": st.sampled_from(["0.5", "1", "2", "0", "-1", "nan", "inf", "1e-300"]),
    "--kmax": st.integers(-1, 8),
    "--m": st.integers(-1, 8),
    "--n": st.integers(-1, 8),
    "--reps": st.integers(-1, 3),
    "--seed": st.integers(-2, 5),
    "--mode": st.sampled_from(["direct", "remark1", "other"]),
    "--workers": st.integers(-1, 2),
    "--format": st.sampled_from(["json", "csv", "text", "xml"]),
    "--out": st.sampled_from(["out.txt", "missing/out.txt"]),
    "--bins": st.integers(-1, 64),
    "--range": st.sampled_from(["0:4", "4:0", "0:inf", "-inf:0", "0:1e309", "-1e308:1e308",
                                "1:1.0000000000000002", "0-4", "nan:1", "a:b"]),
    "--k": st.integers(-1, 8),
    "--blocks": st.sampled_from(["1,2,4|3|5", "1,3|2,4", "1,2|3", "", "1,,2", "x", "1|1"]),
    "--sizes": st.sampled_from(["1:1,2:2", "4:1", "3:1", "4-1", "1:-1", "x:y", "1:1,1:1"]),
    "--force": st.none(),
    "--quiet": st.none(),
}
SIM_FLAGS = ["--model", "--m", "--n", "--reps", "--kmax", "--seed", "--mode", "--workers", "--force",
             "--quiet"]
FUZZ_FLAGS = {
    "predict": ["--model", "--h", "--htilde", "--y", "--kmax", "--format", "--out", "--quiet"],
    "simulate": SIM_FLAGS + ["--out"],
    "compare": SIM_FLAGS + ["--y", "--format", "--out"],
    "spectrum": SIM_FLAGS + ["--bins", "--range", "--format", "--out"],
    "nc": ["--k", "--blocks", "--sizes", "--format", "--out", "--quiet"],
}
# drawn first, each three times in four, so that some calls get past argparse
FUZZ_REQUIRED = {"predict": ["--y", "--model"], "simulate": ["--model"], "compare": ["--model"],
                 "spectrum": ["--model", "--range"], "nc": ["--k", "--blocks", "--sizes"]}
FUZZ_JUNK = ["", "-", "--", "x", "-1", "nan", "--nope", "-h", "--help", "0:inf", "\u00fc", "predict",
             "--y", "report.json", "missing.json"]


@st.composite
def fuzz_argv(draw):
    """A subcommand (or junk) followed by real flags, with values drawn from
    valid and invalid ones, and junk tokens in between.  Simulating
    subcommands get a tiny shape first, so the defaults never run."""
    sub = draw(st.sampled_from([*FUZZ_FLAGS, "bogus"]))
    argv = [sub]
    if sub == "nc":
        argv.append(draw(st.sampled_from(["enumerate", "complement", "count", "graphs", "x"])))
    if sub in ("simulate", "compare", "spectrum"):
        argv += ["--m", "4", "--n", "6", "--reps", "2"]
    flags = [f for f in FUZZ_REQUIRED.get(sub, []) if draw(st.integers(0, 3))]
    everywhere = list(FUZZ_VALUES)
    pick = st.sampled_from(FUZZ_FLAGS.get(sub, everywhere)) | st.sampled_from(everywhere)
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 3)) == 0:
            flags.append(draw(st.sampled_from(FUZZ_JUNK)))
        else:
            flags.append(draw(pick))
    for flag in flags:
        value = draw(FUZZ_VALUES[flag]) if flag in FUZZ_VALUES else None
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):  # the only way to pass a value such as -inf:0
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argv())
def test_fuzzed_argv_exits_cleanly(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "report.json").exists():
        write_chain(tmp_path / "chain.json", [-1.0, 1.0], [[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
        assert run(capsys, "simulate", *SIM_ARGS[:2], "--m", "4", "--n", "6", "--reps", "2",
                   "--out", "report.json", "--quiet")[0] == 0
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
