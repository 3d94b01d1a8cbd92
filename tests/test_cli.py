"""Command line front end: config grammar, artifacts, determinism."""

import json
from pathlib import Path

import pytest

from conic_census.cli import _surface_doc, emit_config, main, parse_config
from conic_census.census import count_total
from conic_census.errors import InvalidInputError
from conic_census.heights import HeightModel
from conic_census.models import difference_of_squares_bundle, mixed_bundle, two_squares_bundle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def doc():
    return json.loads((CONFIGS / "two_squares.json").read_text())


def write_config(tmp_path, document):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_shipped_config_parses_and_validates():
    cfg = parse_config((CONFIGS / "two_squares.json").read_text())
    assert cfg.surface == two_squares_bundle()
    assert cfg.model.alpha == 1
    assert len(cfg.digest) == 64


def test_config_round_trip():
    cfg = parse_config((CONFIGS / "two_squares.json").read_text())
    again = parse_config(emit_config(cfg))
    assert again.document == cfg.document
    assert again.digest == cfg.digest
    assert again.surface == cfg.surface


def test_alpha_threshold_is_strict(doc, tmp_path):
    doc["model"]["alpha"] = "0"
    with pytest.raises(InvalidInputError, match="threshold"):
        parse_config(json.dumps(doc))


def test_gram_degree_error_names_entry(doc):
    doc["surface"]["gram"][0][0] = [[1, [1, 0]]]
    with pytest.raises(InvalidInputError, match=r"\(0, 0\)"):
        parse_config(json.dumps(doc))


def test_syntax_error_carries_position():
    with pytest.raises(InvalidInputError, match="line 1 column"):
        parse_config('{"surface": [,]}')


def test_unknown_section_rejected(doc):
    doc["bogus"] = {}
    with pytest.raises(InvalidInputError, match="bogus"):
        parse_config(json.dumps(doc))


# ---------------------------------------------------------------------------
# subcommands through main()


def test_density_emits_exact_fraction(doc, tmp_path, capsys):
    cfgpath = write_config(tmp_path, doc)
    assert main(["density", "--config", cfgpath, "--out", str(tmp_path)]) == 0
    assert "sigma_5 = 8/5" in capsys.readouterr().out
    csv_text = (tmp_path / "density.csv").read_text()
    assert "1:5,5,8/5" in csv_text
    report = json.loads((tmp_path / "density.json").read_text())
    assert ["5", str(8) + "/" + str(5)] not in report["payload"]["sigma_p"]  # keys stay ints
    assert [5, "8/5"] in report["payload"]["sigma_p"]


def test_count_report_matches_library(doc, tmp_path, capsys):
    cfgpath = write_config(tmp_path, doc)
    assert main(["count", "--config", cfgpath, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "count.json").read_text())
    cfg = parse_config(Path(cfgpath).read_text())
    surface = two_squares_bundle()
    model = HeightModel.for_surface(surface, 1)
    cs = count_total(surface, model, 1000)
    assert report["payload"]["total"] == cs.total
    assert report["config_sha256"] == cfg.digest
    assert report["version"]
    # per-fibre CSV adds back up to the total
    rows = (tmp_path / "count.csv").read_text().splitlines()[1:]
    assert sum(int(r.rsplit(",", 1)[1]) for r in rows) == cs.total


def test_artifacts_are_byte_identical(doc, tmp_path):
    cfgpath = write_config(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["count", "--config", cfgpath, "--out", str(a)]) == 0
    assert main(["count", "--config", cfgpath, "--out", str(b)]) == 0
    assert (a / "count.csv").read_bytes() == (b / "count.csv").read_bytes()
    assert (a / "count.json").read_bytes() == (b / "count.json").read_bytes()


def test_threads_flag_does_not_change_output(doc, tmp_path):
    cfgpath = write_config(tmp_path, doc)
    a, b = tmp_path / "serial", tmp_path / "pool"
    assert main(["count", "--config", cfgpath, "--out", str(a)]) == 0
    assert main(["count", "--config", cfgpath, "--out", str(b), "--threads", "3"]) == 0
    assert (a / "count.csv").read_bytes() == (b / "count.csv").read_bytes()


def test_zero_threads_exits_2(doc, tmp_path):
    cfgpath = write_config(tmp_path, doc)
    assert main(["count", "--config", cfgpath, "--out", str(tmp_path), "--threads", "0"]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["exit_code"] == 2
    assert record["error"] == "InvalidInputError"
    assert not (tmp_path / "count.json").exists()


def test_bt_probe_flags_lower_violations(doc, tmp_path, capsys):
    cfgpath = write_config(tmp_path, doc)
    assert main(["bt-probe", "--config", cfgpath, "--out", str(tmp_path)]) == 0
    assert "3,7,11,19,23,31,43,47" in capsys.readouterr().out
    report = json.loads((tmp_path / "bt-probe.json").read_text())
    assert report["payload"]["lower_violations"] == [3, 7, 11, 19, 23, 31, 43, 47]
    assert report["payload"]["growth_monotone"] is True


def test_northcott_probe_reports_unit_points(doc, tmp_path, capsys):
    cfgpath = write_config(tmp_path, doc)
    assert main(["northcott-probe", "--config", cfgpath, "--out", str(tmp_path)]) == 0
    assert "4 of 20 points at height 1" in capsys.readouterr().out
    rows = (tmp_path / "northcott-probe.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[1] == "1"


def test_import_cubic_emits_surface_config(tmp_path, capsys):
    assert main([
        "import-cubic", "--config", str(CONFIGS / "cubic_with_line.json"), "--out", str(tmp_path),
    ]) == 0
    report = json.loads((tmp_path / "import-cubic.json").read_text())
    gram = report["payload"]["surface"]["gram"]
    assert gram[0][0] == [[1, [1, 0]]]
    assert gram[1][1] == [[1, [0, 1]]]
    assert gram[2][2] == [[1, [0, 3]], [1, [3, 0]]]
    assert gram[0][1] == []
    # the emitted surface block is itself a valid config surface
    wrapped = {"surface": report["payload"]["surface"], "model": {"alpha": "2"}}
    cfg = parse_config(json.dumps(wrapped))
    assert cfg.surface.a == (0, 0, 1)
    assert cfg.surface.e == 1


# ---------------------------------------------------------------------------
# failure modes


def test_missing_section_key_exits_2(doc, tmp_path, capsys):
    del doc["count"]["bound"]
    cfgpath = write_config(tmp_path, doc)
    assert main(["count", "--config", cfgpath, "--out", str(tmp_path)]) == 2
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["exit_code"] == 2
    assert "bound" in record["message"]


def test_invalid_alpha_exits_2(doc, tmp_path):
    doc["model"]["alpha"] = "0"
    cfgpath = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfgpath, "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    args = ["validate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
    assert main(args) == 2


def test_bt_probe_rejects_other_surfaces(doc, tmp_path):
    # flip a sign in the (2,2) entry: still a valid bundle, not the probe's
    doc["surface"]["gram"][2][2] = [[1, [1, 1]]]
    cfgpath = write_config(tmp_path, doc)
    assert main(["bt-probe", "--config", cfgpath, "--out", str(tmp_path)]) == 2


def test_unknown_subcommand_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2


def test_exhausted_budget_exits_3(tmp_path):
    # the parameter region of this fibre spans about 1e17 rows, past the row cap
    document = {
        "surface": _surface_doc(difference_of_squares_bundle(12)),
        "model": {"alpha": "9"},
        "fibre": {"y": [1, 2], "bound": 10**5, "strategy": "parametrized"},
    }
    cfgpath = write_config(tmp_path, document)
    assert main(["fibre", "--config", cfgpath, "--out", str(tmp_path)]) == 3
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["exit_code"] == 3
    assert record["error"] == "BudgetExceeded"
