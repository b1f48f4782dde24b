"""End-to-end command-line behavior: output text, JSON payloads, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import moved, scaled
from linkagekit import model
from linkagekit.catalog import entry
from linkagekit.cli import main
from linkagekit.model import Bar, Driver, Joint, LinkageSpec, Tracer


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_locus_compass_exact_output(capsys):
    code, out, err = run(capsys, "locus", "compass")
    assert code == 0
    assert out == "x^2 + y^2 - 16\ndegree: 2\n0 linear factors found\n"
    assert err == ""


def test_locus_hart_lists_factor_and_cofactor(capsys):
    code, out, _ = run(capsys, "locus", "hart_inversor")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "degree: 7"
    assert lines[2] == "1 linear factor found"
    assert lines[3] == "  2*y + 3"
    assert lines[4].startswith("cofactor: x^6 + 3*x^4*y^2")
    assert lines[4].endswith("(degree 6)")


def test_locus_json(capsys):
    code, out, _ = run(capsys, "locus", "hart_aframe", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "hart_aframe"
    assert payload["degree"] == 7
    assert payload["factors"] == [{"line": "x", "multiplicity": 1}]
    assert payload["cofactor_degree"] == 6
    assert payload["locus"].startswith("9*x^5*y^2")


def test_certify_hart_exact(capsys):
    code, out, err = run(capsys, "certify", "hart_inversor")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "EXACT LINE: 2*y + 3 = 0"
    assert "all 100 windowed samples vanish on the linear factor" in lines[1]
    assert "workspace boundary at theta = 4.207028" in err


@pytest.mark.parametrize("budget", [[], ["--pair-budget", "30"]], ids=["primary", "fallback"])
def test_certify_aframe_exact_text(capsys, budget):
    code, out, _ = run(capsys, "certify", "hart_aframe", *budget)
    assert code == 0
    assert out.splitlines()[0] == "EXACT LINE: x = 0"


def test_certify_chebyshev_approximate(capsys):
    code, out, _ = run(capsys, "certify", "chebyshev")
    assert code == 0
    assert out.splitlines()[0] == (
        "APPROXIMATE: max deviation 1.2090e-02 units (9.6717e-02 mm) "
        "over window [0.8, 1.6]"
    )
    assert "Bezout" in out


def test_certify_json(capsys):
    code, out, _ = run(capsys, "certify", "hart_inversor", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "exact_line"
    assert payload["line"] == [0, 2, 3]
    assert payload["via_fallback"] is False
    assert payload["window"] == [3.1, 4.1]


def test_certify_fallback_still_exits_zero(capsys):
    code, out, _ = run(
        capsys, "certify", "hart_aframe", "--pair-budget", "30", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "exact_line"
    assert payload["via_fallback"] is True


def test_models_text(capsys):
    code, out, _ = run(capsys, "models")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 7
    assert lines[0].startswith("compass")
    assert " 1 bar " in lines[0]
    assert " 3 bars" in lines[1]
    assert lines[5].startswith("hart_inversor     11 bars")


def test_models_json(capsys):
    code, out, _ = run(capsys, "models", "--json")
    rows = json.loads(out)
    assert code == 0
    assert [r["name"] for r in rows] == [
        "compass", "chebyshev", "chebyshev_open", "chebyshev_lambda",
        "watt", "hart_inversor", "hart_aframe",
    ]
    assert all(set(r) == {"name", "bars", "joints", "description"} for r in rows)


def test_trace_summary_and_outputs(capsys, tmp_path):
    csv_path = tmp_path / "pen.csv"
    svg_path = tmp_path / "pen.svg"
    code, out, err = run(
        capsys, "trace", "compass", "--csv", str(csv_path), "--svg", str(svg_path)
    )
    assert code == 0
    assert out.startswith("630 samples, theta 0.000000 to 6.283185, pen box ")
    assert "64.0 x 64.0 mm" in out
    assert f"wrote {csv_path}" in err and f"wrote {svg_path}" in err
    header, first = csv_path.read_text().splitlines()[:2]
    assert header == "theta,x,y,residual"
    assert first == "0.0,4.0,0.0,0.0"
    assert svg_path.read_text().startswith('<?xml version="1.0"')


def test_trace_outputs_are_deterministic(capsys, tmp_path):
    paths = [tmp_path / f"{i}.svg" for i in (1, 2)]
    for p in paths:
        run(capsys, "trace", "watt", "--svg", str(p), "--csv", str(p.with_suffix(".csv")))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (
        paths[0].with_suffix(".csv").read_bytes()
        == paths[1].with_suffix(".csv").read_bytes()
    )


def test_stats_flag_only_adds_a_stderr_line(capsys, tmp_path):
    runs = []
    for stats in ((), ("--stats",)):
        csv, svg = tmp_path / f"{len(stats)}.csv", tmp_path / f"{len(stats)}.svg"
        _, text, err = run(capsys, "trace", "hart_inversor", "--csv", str(csv), "--svg", str(svg),
                           *stats)
        _, payload, _ = run(capsys, "trace", "hart_inversor", "--json", *stats)
        runs.append((text, payload, csv.read_bytes(), svg.read_bytes(), err.splitlines()))
    (*plain, err), (*flagged, err_stats) = runs
    assert flagged == plain
    assert err_stats[:2] == [
        "workspace boundary at theta = 4.207028",
        "newton: 163 calls, 428 iterations, 22 failed calls (58 iterations), 351 backtracks, "
        "max condition 2.521e+04",
    ]
    assert len(err_stats) == len(err) + 1


@pytest.mark.parametrize("flag", ["--svg", "--csv"])
def test_unwritable_output_path_exits_two_in_one_line(capsys, tmp_path, flag):
    path = tmp_path / "missing" / "pen.out"
    code, out, err = run(capsys, "trace", "watt", flag, str(path))
    assert (code, out) == (2, "")
    assert err == f"linkagekit: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_svg_escapes_markup_in_the_model_name(capsys, tmp_path):
    # &, < and > are escaped; quotes stay as they are in character data
    spec = replace(entry("compass").spec, name="a&b<c>\"d'")
    path, svg = tmp_path / "named.json", tmp_path / "named.svg"
    path.write_text(model.save(spec))
    code, _, _ = run(capsys, "trace", str(path), "--from", "0", "--to", "0.1", "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert "<desc>a&amp;b&lt;c&gt;\"d' Scale: 8 mm per model unit" in text
    assert '>a&amp;b&lt;c&gt;"d\'</text>' in text


def test_trace_csv_cells_are_floats(capsys, tmp_path, traces):
    path = tmp_path / "watt.csv"
    run(capsys, "trace", "watt", "--csv", str(path))
    rows = [tuple(map(float, line.split(","))) for line in path.read_text().splitlines()[1:]]
    assert rows == [(s.theta, s.x, s.y, s.residual) for s in traces["watt"].samples]


def test_trace_json(capsys):
    code, out, _ = run(capsys, "trace", "hart_inversor", "--json")
    payload = json.loads(out)
    assert code == 0
    assert set(payload) == {"model", "theta", "samples", "events"}
    assert set(payload["samples"][0]) == {"theta", "x", "y", "residual"}
    assert payload["events"] == [{"theta": pytest.approx(4.207028, abs=1e-5),
                                  "kind": "workspace_boundary"}]


def test_bom_watt_table(capsys):
    code, out, _ = run(capsys, "bom", "watt")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "  2780  Pin          black            x9   0.0050 (brickowl)  0.0008 (bricklink)"
    assert lines[-1] == "total  21 parts  1.0230 (brickowl)  0.3796 (bricklink)"


def test_bom_all_one_vendor(capsys):
    code, out, _ = run(capsys, "bom", "--all", "--vendor", "bricklink")
    assert code == 0
    assert out.splitlines()[-1] == "total  24 parts  0.4048 (bricklink)"
    assert "(brickowl)" not in out


def test_bom_simultaneous(capsys):
    code, out, _ = run(capsys, "bom", "--all", "--simultaneous")
    assert code == 0
    assert out.splitlines()[-1] == (
        "total  60 parts  2.7630 (brickowl)  1.0792 (bricklink)"
    )


def test_bom_json(capsys):
    code, out, _ = run(capsys, "bom", "--all", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["simultaneous"] is False
    assert payload["totals"]["parts"] == 24
    assert payload["totals"]["brickowl"] == "1.1230"
    assert payload["totals"]["bricklink"] == "0.4048"
    assert {p["code"] for p in payload["parts"]} == {
        2780, 6558, 32063, 32278, 32316, 32523, 32525, 40490,
    }


def test_bom_chebyshev_open_aliases_chebyshev(capsys):
    code_open, out_open, _ = run(capsys, "bom", "chebyshev_open")
    code_base, out_base, _ = run(capsys, "bom", "chebyshev")
    assert code_open == code_base == 0
    assert out_open == out_base


def test_bom_duplicate_models_collapse(capsys):
    _, once, _ = run(capsys, "bom", "watt")
    _, twice, _ = run(capsys, "bom", "watt", "watt")
    assert once == twice


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ex:
        main([])
    assert ex.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["locus", "compass", "--frobnicate"])
    assert ex.value.code == 1


def test_bom_without_models_is_usage_error(capsys):
    code, _, err = run(capsys, "bom")
    assert code == 1
    assert "name at least one model, or pass --all" in err


def test_unknown_model_exits_two(capsys):
    code, _, err = run(capsys, "locus", "no_such_model")
    assert code == 2
    assert "unknown model 'no_such_model'" in err
    assert "builtins:" in err


def test_bom_model_without_parts_column_exits_two(capsys):
    code, _, err = run(capsys, "bom", "hart_aframe")
    assert code == 2
    assert "hart_aframe" in err


def test_malformed_spec_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"x\"")
    code, _, err = run(capsys, "locus", str(bad))
    assert code == 2
    assert "linkagekit:" in err


def test_bad_catalog_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,name\n1,x\n")
    code, _, err = run(capsys, "bom", "--catalog", str(bad), "watt")
    assert code == 2
    assert "header must start with" in err


def test_unreachable_linkage_exits_three(capsys, tmp_path):
    spec = LinkageSpec(
        name="too_far",
        joints=(Joint("A", (F(0), F(0))), Joint("B", (F(40), F(0))),
                Joint("P", None), Joint("Q", None)),
        bars=(Bar("crank", "A", "P", F(4)), Bar("coupler", "P", "Q", F(4)),
              Bar("rocker", "B", "Q", F(4))),
        driver=Driver("crank"),
        tracer=Tracer(joint="Q"),
    )
    path = tmp_path / "too_far.json"
    path.write_text(model.save(spec))
    code, _, err = run(capsys, "trace", str(path), "--from", "0", "--to", "1")
    assert code == 3
    assert "no solvable configuration" in err


def test_linkage_far_from_the_origin_traces(capsys, tmp_path):
    # watt moved 10^6 along x, seeded from its default layout
    path = tmp_path / "far.json"
    path.write_text(model.save(moved(entry("watt").spec, 10**6)))
    code, out, _ = run(capsys, "trace", str(path), "--from", "-0.8", "--to", "0.8", "--json")
    assert code == 0
    assert len(json.loads(out)["samples"]) == 161


def test_file_trace_requires_sweep_bounds(capsys, tmp_path):
    path = tmp_path / "compass.json"
    path.write_text(model.save(entry("compass").spec))
    code, _, err = run(capsys, "trace", str(path))
    assert code == 1
    assert "--from" in err


def test_budget_exhaustion_exits_four(capsys):
    code, _, err = run(capsys, "locus", "hart_aframe", "--pair-budget", "30")
    assert code == 4
    assert err.count("\n") == 1 and err.startswith("linkagekit: ")
    assert "while dropping T2_x, T2_y (30 pairs used)" in err
    assert "raise --pair-budget" in err


def test_anchored_tracer_locus_exits_two(capsys, tmp_path):
    # an anchored tracer reaches one point: the basis (x, y) has gcd 1
    path = tmp_path / "pinned.json"
    path.write_text(model.save(replace(entry("compass").spec, tracer=Tracer(joint="O"))))
    code, out, err = run(capsys, "locus", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "linkagekit: locus of 'compass' is finite; the tracer reaches only "
        "finitely many points, not a curve\n"
    )


def test_certify_coincident_window_exits_one(capsys, tmp_path):
    # a pen on the anchor stays put: the window has samples but no line
    path = tmp_path / "pinned.json"
    path.write_text(model.save(replace(entry("compass").spec, tracer=Tracer(joint="O"))))
    code, out, err = run(capsys, "certify", str(path), "--from", "0", "--to", "1",
                         "--window", "0", "1")
    assert code == 1
    assert out == ""
    assert err == "linkagekit: all windowed points coincide\n"


def test_locus_from_file_matches_builtin(capsys, tmp_path):
    path = tmp_path / "compass.json"
    path.write_text(model.save(entry("compass").spec))
    code_file, out_file, _ = run(capsys, "locus", str(path))
    code_builtin, out_builtin, _ = run(capsys, "locus", "compass")
    assert code_file == code_builtin == 0
    assert out_file == out_builtin


@pytest.mark.parametrize(
    "argv, message",
    [
        (("trace", "watt", "--step", "0"), "solver settings must be positive and finite"),
        (("trace", "watt", "--step", "nan"), "solver settings must be positive and finite"),
        (("trace", "watt", "--tol", "inf"), "solver settings must be positive and finite"),
        (("trace", "watt", "--min-step", "1", "--step", "0.5"),
         "min_step must not exceed initial_step"),
        (("certify", "watt", "--window", "0", "0.01"), "holds 1 samples; need at least 10"),
        (("certify", "compass", "--window", "5", "5.001"),
         "holds 0 samples; need at least 10"),
        (("locus", "watt", "--pair-budget", "-5"), "--pair-budget must be non-negative, got -5"),
        (("certify", "watt", "--pair-budget", "-1"), "--pair-budget must be non-negative, got -1"),
    ],
)
def test_bad_numeric_arguments_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("linkagekit: ")
    assert message in err


def test_inner_bar_driver_file_exits_two(capsys, tmp_path):
    spec = replace(entry("hart_aframe").spec, driver=Driver("l1a"))
    path = tmp_path / "aframe_l1a.json"
    path.write_text(model.save(spec))
    code, _, err = run(capsys, "trace", str(path), "--from", "1.0", "--to", "1.1")
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("linkagekit: ")
    assert "driver bar is not an inner bar of a collinear triple" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("trace", "compass", "--to", "nan"), "theta_end must be finite, got nan"),
        (("trace", "compass", "--to", "inf"), "theta_end must be finite, got inf"),
        (("trace", "compass", "--from", "nan"), "theta_start must be finite, got nan"),
        (("certify", "compass", "--to", "nan"), "theta_end must be finite, got nan"),
    ],
)
def test_non_finite_sweep_bounds_exit_one(argv, message):
    # a subprocess with a timeout: a sweep toward a non-finite bound never ends
    _exits_one_in_subprocess(argv, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("trace", "compass", "--to", "1e6"),
         "sweep from theta=0 to 1e+06 needs more than 100000 steps of 0.01 (--from 0, --to 1e+06)"),
        (("trace", "compass", "--from", "1e6"),
         "sweep from theta=0 to 1e+06 needs more than 100000 steps of 0.01 (--from 1e+06, --to 6.28319)"),
        (("certify", "compass", "--to", "2e6", "--step", "1"),
         "sweep from theta=0 to 2e+06 needs more than 100000 steps of 1 (--from 0, --to 2e+06)"),
    ],
    # named apart from the message, which quotes the cap
    ids=["trace-to-1e6", "trace-from-1e6", "certify-to-2e6"],
)
def test_huge_sweeps_exit_one(argv, message):
    # at 1e-2 a step, a sweep to 1e6 would take 1e8 steps and never end in practice
    _exits_one_in_subprocess(argv, message)


# 10^155 overflows a squared bar length, 10^400 an anchor coordinate
@pytest.mark.parametrize("command", ["trace", "certify"])
@pytest.mark.parametrize("power", [155, 400])
def test_dimensions_beyond_the_float_range_exit_one(tmp_path, command, power):
    path = tmp_path / "big.json"
    path.write_text(model.save(scaled(entry("watt").spec, F(10) ** power)))
    window = ("--window", "0", "0.1") if command == "certify" else ()
    _exits_one_in_subprocess(
        (command, str(path), "--from", "0", "--to", "0.1", *window),
        "linkagekit: 'watt' has an anchor coordinate or a squared bar length beyond the "
        "float range\n",
    )


def _far_apart_file(path, gap, crank, link):
    """A four-bar file with its anchors gap apart along x."""
    spec = LinkageSpec(
        name="far_apart",
        joints=(Joint("A", (F(0), F(0))), Joint("B", (gap, F(0))),
                Joint("P", None), Joint("Q", None)),
        bars=(Bar("crank", "A", "P", crank), Bar("coupler", "P", "Q", link),
              Bar("rocker", "B", "Q", link)),
        driver=Driver("crank"),
        tracer=Tracer(joint="Q"),
    )
    path.write_text(model.save(spec))
    return path


def test_far_apart_linkage_traces_as_its_unscaled_copy(tmp_path, capsys):
    # the default layout is placed in the frame, where the 1.6e154 distance
    # from P to B that it squares while placing Q is 1.6 units
    thetas = []
    for e in (F(1), F(10) ** 153):
        path = _far_apart_file(tmp_path / f"far{len(thetas)}.json", 20 * e, 4 * e, 12 * e)
        code, out, err = run(capsys, "trace", str(path), "--from", "0", "--to", "0.1", "--json")
        assert (code, err) == (0, "")
        thetas.append([s["theta"] for s in json.loads(out)["samples"]])
    assert len(thetas[0]) == 12 and thetas[1] == thetas[0]


def test_layout_past_the_float_range_exits_three(tmp_path, capsys):
    # the default layout puts Q at NaN: its anchors are 10^200 frame units apart
    path = _far_apart_file(tmp_path / "far.json", F(10) ** 200, F(1), F(1))
    code, out, err = run(capsys, "trace", str(path), "--from", "0", "--to", "0.1")
    assert (code, out, err) == (3, "", "linkagekit: no solvable configuration at theta=0\n")


def test_anchors_beyond_the_float_range_in_the_frame_exit_one(tmp_path):
    # 10^305 fits a float, but not in frame units of 2^-20
    tiny = F(1, 2**20)
    path = _far_apart_file(tmp_path / "far.json", F(10) ** 305, tiny, tiny)
    _exits_one_in_subprocess(
        ("trace", str(path), "--from", "0", "--to", "0.1"),
        "linkagekit: 'far_apart' has an anchor coordinate or a squared bar length beyond "
        "the float range in its frame's unit, 2**-20\n",
    )


def _subprocess_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _exits_one_in_subprocess(argv, message):
    proc = subprocess.run([sys.executable, "-m", "linkagekit.cli", *argv],
                          capture_output=True, text=True, timeout=30, env=_subprocess_env())
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("linkagekit: ")
    assert message in proc.stderr


# runs one command in a fresh interpreter, its stdout swallowed, and reports
# whether numpy got imported; no command imports xml.sax, whose import pulls
# in urllib, http.client, ssl and email
_NUMPY_PROBE = """
import contextlib, io, sys
from linkagekit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
assert "xml.sax" not in sys.modules
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (("models",), False),
        (("bom", "watt"), False),
        (("locus", "compass"), False),
        (("trace", "compass"), True),  # the control: tracing runs Newton
        (("certify", "compass"), True),
    ],
)
def test_numpy_loads_only_for_tracing_commands(argv, loads_numpy):
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.stdout == f"0 {loads_numpy}\n"


@pytest.mark.parametrize(
    "argv, content",
    [
        (("locus", "{}"), b'{"name": "\xff"}'),
        (("locus", "{}"), b"[" * 100_000),
        (("locus", "{}"), b'{"bars": [{"length": [' + b"7" * 5001 + b", 1]}]}"),
        (("bom", "watt", "--catalog", "{}"), b"code,name\n1,\xff\n"),
    ],
    ids=["non-utf8-linkage", "deep-nesting", "5001-digit-length", "non-utf8-catalog"],
)
def test_bad_input_files_exit_two_in_one_line(tmp_path, argv, content):
    path = tmp_path / "bad"
    path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "linkagekit.cli", *(a.format(path) for a in argv)],
        capture_output=True, text=True, timeout=30, env=_subprocess_env(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("linkagekit: ")
    assert "Traceback" not in proc.stderr


_SHIPPED_PARTS = (Path(__file__).resolve().parents[1] / "src/linkagekit/data/parts.csv").read_text()
_BEAM_15 = "32278,Beam 15,red,0.19,"  # one per watt


@pytest.mark.parametrize("cell", ["1e400", "1e7000000", "1e999999999"])
def test_price_with_an_exponent_exits_two(capsys, tmp_path, cell):
    path = tmp_path / "parts.csv"
    path.write_text(_SHIPPED_PARTS.replace(_BEAM_15, f"32278,Beam 15,red,{cell},"))
    code, out, err = run(capsys, "bom", "watt", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err == f"linkagekit: part row '32278': bad price {cell!r}\n"


def test_400_digit_price_prints(capsys, tmp_path):
    big = "9" * 400
    path = tmp_path / "parts.csv"
    path.write_text(_SHIPPED_PARTS.replace(_BEAM_15, f"32278,Beam 15,red,{big},"))
    code, out, _ = run(capsys, "bom", "watt", "--catalog", str(path), "--vendor", "brickowl")
    assert code == 0
    assert f"{big}.0000 (brickowl)" in out
