"""CLI: command round trips, formats, exit codes, determinism."""

import json

from varcodes.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_field_command(capsys):
    rc, out, _ = run(capsys, "field", "2", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["q"] == 4
    assert payload["modulus"] == [1, 1, 1]
    assert payload["generator"] == 2


def test_points_command(capsys):
    rc, out, _ = run(capsys, "points", '{"family":"projective_space","m":2}', "--q", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 7
    assert payload["points"][0] == [1, 0, 0]


def test_build_analyze_round_trip(tmp_path, capsys):
    artifact = tmp_path / "herm.json"
    rc, out, _ = run(
        capsys,
        "build",
        '{"family":"hermitian","m":3,"r":2}',
        "--q",
        "4",
        "--out",
        str(artifact),
    )
    assert rc == 0
    assert json.loads(out) == {"n": 45, "k": 4, "kernel_dim": 0}
    rc, out, err = run(
        capsys, "analyze", str(artifact), "--tasks", "d,wdist,ghw:1", "--workers", "2"
    )
    assert rc == 0
    report = json.loads(out)
    assert report["d"] == 32
    assert report["weight_distribution"] == {"0": 1, "32": 135, "36": 120}
    assert report["ghw"]["1"] == 32
    assert "d:" in err  # timing goes to stderr only


def test_bound_command(capsys):
    rc, out, _ = run(capsys, "bound", "griesmer", '{"n":130,"k":6,"q":3}')
    assert rc == 0
    assert json.loads(out)["value"] == 84
    rc, out, _ = run(capsys, "bound", "counts", '{"family":"flag","m":3,"q":2}')
    assert json.loads(out)["value"] == 21


def test_predict_command(capsys):
    rc, out, _ = run(
        capsys, "predict", '{"family":"grassmann","l":2,"m":4}', "--q", "3"
    )
    assert rc == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d"]) == (130, 6, 81)


def test_compare_reproduces_survey_rows(capsys):
    specs = json.dumps(
        [
            {"descriptor": {"family": "quadric", "m": 3, "w": 2}, "q": 8},
            {"descriptor": {"family": "quadric", "m": 3, "w": 0}, "q": 8},
            {"descriptor": {"family": "grassmann", "l": 2, "m": 4}, "q": 2},
        ]
    )
    rc, out, _ = run(capsys, "compare", specs, "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    hyp, ell, grass = rows
    assert (hyp["n"], hyp["k"], hyp["d"]) == (81, 4, 64)
    assert hyp["griesmer_max_d"] == 69 and not hyp["attains_griesmer"]
    assert (ell["n"], ell["k"], ell["d"]) == (65, 4, 56)
    assert ell["attains_griesmer"]
    assert (grass["n"], grass["k"], grass["d"]) == (35, 6, 16)
    assert grass["attains_griesmer"]


def test_compare_row_failure_is_recorded_not_fatal(capsys):
    specs = json.dumps(
        [
            {"descriptor": {"family": "nonsense"}, "q": 2},
            {"descriptor": {"family": "projective_space", "m": 2}, "q": 2},
        ]
    )
    rc, out, _ = run(capsys, "compare", specs, "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert "error" in rows[0]
    assert rows[1]["d"] == 4


def test_compare_table_and_csv_formats(capsys):
    specs = json.dumps([{"descriptor": {"family": "projective_space", "m": 2}, "q": 2}])
    rc, out, _ = run(capsys, "compare", specs, "--format", "table")
    assert rc == 0 and "projective_space(m=2)" in out
    rc, out, _ = run(capsys, "compare", specs, "--format", "csv")
    assert rc == 0
    header, row = out.strip().split("\n")
    assert header.startswith("family,q,h,n,k,d")
    assert ",7,3,4," in row


def test_export_csv(tmp_path, capsys):
    artifact = tmp_path / "code.json"
    run(capsys, "build", '{"family":"projective_space","m":2}', "--q", "2", "--out", str(artifact))
    rc, out, _ = run(capsys, "export", str(artifact), "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3 and all(len(l.split(",")) == 7 for l in lines)


def test_exit_code_2_on_bad_input(capsys):
    rc, _, err = run(capsys, "build", '{"no_family": true}', "--q", "2")
    assert rc == 2 and "input error" in err
    rc, _, _ = run(capsys, "build", "{not json", "--q", "2")
    assert rc == 2
    rc, _, _ = run(capsys, "field", "4")
    assert rc == 2


def test_exit_code_3_on_budget(tmp_path, capsys):
    artifact = tmp_path / "code.json"
    run(capsys, "build", '{"family":"projective_space","m":2}', "--q", "2", "--out", str(artifact))
    rc, _, err = run(capsys, "analyze", str(artifact), "--budget", "3")
    assert rc == 3 and "budget exceeded" in err


def test_byte_identical_reruns(capsys):
    specs = json.dumps(
        [{"descriptor": {"family": "quadric", "m": 3, "w": 0}, "q": 3}]
    )
    _, out1, _ = run(capsys, "compare", specs, "--format", "json")
    _, out2, _ = run(capsys, "compare", specs, "--format", "json")
    assert out1 == out2


def test_descriptor_from_file(tmp_path, capsys):
    path = tmp_path / "desc.json"
    path.write_text('{"family":"projective_space","m":2}')
    rc, out, _ = run(capsys, "points", f"@{path}", "--q", "3")
    assert rc == 0
    assert json.loads(out)["n"] == 13


def test_console_entry_point_subprocess(tmp_path):
    import subprocess
    import sys as _sys

    art = tmp_path / "q.json"
    r1 = subprocess.run(
        [_sys.executable, "-m", "varcodes.cli", "build",
         '{"family":"quadric","m":3,"w":0}', "--q", "3", "--out", str(art)],
        capture_output=True, text=True,
    )
    assert r1.returncode == 0
    r2 = subprocess.run(
        [_sys.executable, "-m", "varcodes.cli", "analyze", str(art)],
        capture_output=True, text=True,
    )
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["d"] == 6
    r3 = subprocess.run(
        [_sys.executable, "-m", "varcodes.cli", "analyze", str(art)],
        capture_output=True, text=True,
    )
    assert r3.stdout == r2.stdout  # byte-identical across processes


def test_wdist_budget_counts_scalar_classes(tmp_path, capsys):
    # d and wdist enumerate the same (q^k - 1)/(q - 1) classes, so one
    # estimate, n * 40 = 640 on the [16,4]_3 quadric code, covers both.
    artifact = tmp_path / "quad.json"
    run(capsys, "build", '{"family":"quadric","m":3,"w":2}', "--q", "3", "--out", str(artifact))
    rc, full, _ = run(capsys, "analyze", str(artifact), "--tasks", "wdist")
    assert rc == 0
    rc, out, _ = run(capsys, "analyze", str(artifact), "--tasks", "wdist", "--budget", "700")
    assert rc == 0 and out == full
    rc, _, _ = run(capsys, "analyze", str(artifact), "--tasks", "d", "--budget", "640")
    assert rc == 0
    rc, _, err = run(capsys, "analyze", str(artifact), "--tasks", "wdist", "--budget", "639")
    assert rc == 3 and "640" in err


def test_workers_and_budget_must_be_positive(tmp_path, capsys):
    artifact = tmp_path / "code.json"
    run(capsys, "build", '{"family":"projective_space","m":2}', "--q", "2", "--out", str(artifact))
    specs = '[{"descriptor":{"family":"projective_space","m":2},"q":2}]'
    for command in (["analyze", str(artifact)], ["compare", specs]):
        for flag, value in (("--workers", "0"), ("--workers", "-3"), ("--budget", "0"),
                            ("--budget", "-1")):
            rc, out, err = run(capsys, *command, flag, value)
            assert (rc, out) == (2, "")
            assert f"{flag} must be >= 1, got {value}" in err
