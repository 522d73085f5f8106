"""CLI: command round trips, formats, exit codes, determinism."""

import hashlib
import json
import tracemalloc
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from varcodes.cli import _dumps, main
from varcodes.gf import GF
from varcodes.projgeom import Form


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(), max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers() | st.floats(allow_nan=False) | st.booleans(), inner, max_size=3),
    max_leaves=20,
)


_GF256_TEXT = GF(2, 8).array_ops().text.tolist()


@settings(max_examples=150, deadline=None)
@given(_json_values)
@example(list(range(300)) * 3)
@example([-1, 0, 1, -256, 255, 256, 65535, 2**70, -(2**70)])
@example([1, True])
@example([["é", "π", "\u2028", "\U0001f600"], ["tab\tquote\"", "\\"]])
def test_json_writer_matches_indented_json_dumps(value):
    # Every payload and artifact goes through _dumps; json.dumps is the oracle.
    # Ints below 256 are written from the GF(256) element text, others by str.
    expected = json.dumps(value, indent=2, sort_keys=True)
    assert _dumps(value) == expected
    assert _dumps(value, text=_GF256_TEXT) == expected


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


def test_compare_dichotomy_row(capsys):
    spec = [{"descriptor": {"family": "del_pezzo", "l": 6}, "q": 7}]
    rc, out, _ = run(capsys, "compare", json.dumps(spec), "--format", "json")
    assert rc == 0
    (row,) = json.loads(out)
    assert (row["n"], row["k"], row["d_status"]) == (99, 4, "dichotomy")
    assert row["d_predicted"] is None and row["d_options"] == [77, 78]  # q^2 + 4q (+ 1)
    assert row["d"] in row["d_options"]


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


def test_quadric_m_and_w_that_disagree_with_the_form_exit_2(capsys):
    form = {"ambient": 3, "degree": 2, "terms": [[[1, 1, 0, 0], 1], [[0, 0, 1, 1], 1]]}
    descs = [{"family": "quadric", "m": m, "w": 0, "form": form} for m in (5, 3)]
    for desc in descs:
        rc, out, err = run(capsys, "predict", json.dumps(desc), "--q", "3")
        assert (rc, out) == (2, "") and "input error" in err
    specs = json.dumps([{"descriptor": desc, "q": 3} for desc in descs])
    rc, out, _ = run(capsys, "compare", specs, "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert "ambient" in rows[0]["error"] and "w = 0" in rows[1]["error"]


def test_compare_table_and_csv_formats(capsys):
    good = {"descriptor": {"family": "projective_space", "m": 2}, "q": 2}
    bad = {"descriptor": {"family": "del_pezzo", "l": 6}, "q": 2}  # q > 4 needed
    specs = json.dumps([good, bad])
    rc, out, _ = run(capsys, "compare", specs, "--format", "table")
    assert rc == 0
    header, row, error = out.strip().split("\n")
    # The error row's 31-character repr does not widen the family column.
    assert header.startswith("family                 q  ")
    assert row.startswith("projective_space(m=2)  2  ")
    assert error.startswith("{'family': 'del_pezzo', 'l': 6}: ERROR ")
    rc, out, _ = run(capsys, "compare", specs, "--format", "csv")
    assert rc == 0
    header, row, error = out.strip().split("\n")
    assert header.startswith("family,q,h,n,k,d")
    assert ",7,3,4," in row
    assert error.startswith("{'family': 'del_pezzo'")


def test_export_csv(tmp_path, capsys):
    artifact = tmp_path / "code.json"
    run(capsys, "build", '{"family":"projective_space","m":2}', "--q", "2", "--out", str(artifact))
    rc, out, _ = run(capsys, "export", str(artifact), "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3 and all(len(l.split(",")) == 7 for l in lines)


@pytest.mark.parametrize(
    "desc,q,h",
    [
        ({"family": "grassmann", "l": 2, "m": 4}, 2, 1),
        ({"family": "hermitian", "m": 2, "r": 3}, 9, 1),
        ({"family": "projective_space", "m": 2}, 16, 2),
        ({"family": "projective_space", "m": 1}, 257, 3),
    ],
)
def test_export_csv_matches_artifact_rows(tmp_path, capsys, desc, q, h):
    artifact = tmp_path / "code.json"
    rc, _, _ = run(capsys, "build", json.dumps(desc), "--q", str(q), "--h", str(h),
                   "--out", str(artifact))
    assert rc == 0
    rows = json.loads(artifact.read_text())["generator"]
    assert max(map(max, rows)) == q - 1  # the largest element appears
    rc, out, _ = run(capsys, "export", str(artifact), "--format", "csv")
    assert rc == 0
    assert out == "".join(",".join(map(str, row)) + "\n" for row in rows)


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


def test_oversized_construction_exits_3(capsys):
    # P^40(F_2) has 2^41 - 1 points: refused before any array is made, with
    # no CLI flag involved, and an error row under compare.
    desc = '{"family":"projective_space","m":40}'
    for command in ("build", "points"):
        rc, out, err = run(capsys, command, desc, "--q", "2")
        assert (rc, out) == (3, "")
        assert err.startswith("budget exceeded: enumerating P^40(F_2) needs ~")
        assert " array entries, budget is " in err
    rc, out, _ = run(capsys, "compare", f'[{{"descriptor":{desc},"q":2}}]', "--format", "json")
    assert rc == 0 and "enumerating P^40(F_2)" in json.loads(out)[0]["error"]
    # G(4,10) over F_2 has 53743987 subspaces with 210 minors each, and the
    # Schubert variety of alpha = (1,2,3,4) starts from all of them: refused
    # before the stacked bases (2.1 GB) are made.
    what = "computing the Pluecker coordinates of G(4,10) over F_2 needs ~11286237270 array"
    grassmann = '{"family":"grassmann","l":4,"m":10}'
    schubert = '{"family":"schubert","l":4,"m":10,"alpha":[1,2,3,4]}'
    tracemalloc.start()
    try:
        for desc in (grassmann, schubert):
            for command in ("build", "points"):
                rc, out, err = run(capsys, command, desc, "--q", "2")
                assert (rc, out) == (3, "")
                assert err.startswith(f"budget exceeded: {what} entries")
            rc, out, _ = run(capsys, "compare", f'[{{"descriptor":{desc},"q":2}}]', "--format", "json")
            assert rc == 0 and what in json.loads(out)[0]["error"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # C(100002, 2) degree-100000 monomials on P^2: refused before the tuples are made.
    plane, what = '{"family":"projective_space","m":2}', "enumerating the degree-100000 monomials"
    rc, out, err = run(capsys, "build", plane, "--q", "2", "--h", "100000")
    assert (rc, out) == (3, "")
    assert err.startswith(f"budget exceeded: {what} in x0..x2 needs ~15000450003 array entries")
    specs = f'[{{"descriptor":{plane},"q":2,"h":100000}}]'
    rc, out, _ = run(capsys, "compare", specs, "--format", "json")
    assert rc == 0 and what in json.loads(out)[0]["error"]
    # 30001^2 bidegree monomials of P^1 x P^1: refused before any Form is made.
    product = '{"family":"p1xp1","alpha":30000,"beta":30000}'
    what = "enumerating the bidegree (30000,30000) monomials in x0,x1,y0,y1 needs ~3600240004"
    with mock.patch.object(Form, "monomial", side_effect=AssertionError("a Form was made")):
        rc, out, err = run(capsys, "build", product, "--q", "2")
        assert (rc, out) == (3, "")
        assert err.startswith(f"budget exceeded: {what} array entries, budget is ")
        rc, out, _ = run(capsys, "compare", f'[{{"descriptor":{product},"q":2}}]', "--format", "json")
    assert rc == 0 and what in json.loads(out)[0]["error"]


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
    bad = (("--workers", "0"), ("--workers", "-3"), ("--budget", "0"), ("--budget", "-1"))
    for command, flags in ((["analyze", str(artifact)], bad), (["compare", specs], bad[2:])):
        for flag, value in flags:
            rc, out, err = run(capsys, *command, flag, value)
            assert (rc, out) == (2, "")
            assert f"{flag} must be >= 1, got {value}" in err
    # compare has no --workers: argparse rejects it.
    with pytest.raises(SystemExit) as exc:
        main(["compare", specs, "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def _form(terms, degree):
    return {"ambient": 2, "degree": degree, "terms": terms}


# (descriptor, q, h, sha256 of `points` stdout, sha256 of the `build --out`
# artifact or None where build exits 2), recorded before point sets became
# index arrays; any change to point order, labels or values shows here.
GOLDEN = [
    ({"family": "projective_space", "m": 2, "affine": True}, 3, 2,
     "385b1716147b5b63351e4ee6ccdcc92f39ab1b3f2d75002d70c9c018f533f84a",
     "93d23fa2023092dd19869f6cc692daca6a634c4c4c43c8833017f431e6c71551"),
    ({"family": "quadric", "form": _form([[[1, 1, 0], 1], [[0, 0, 2], 2]], 2)}, 5, 1,
     "2a7f728b67f49f3071a0627851fcfe91ecfdbe8687c4b0386e750a33df6d606d",
     "64d9d5a8571bba31c6bb78d42b0571a4f9de1579dc7e6449b9f474805c665248"),
    ({"family": "hermitian", "m": 2, "r": 3}, 9, 1,
     "b35a9139b686d3fc14fc0bf4cd129849a14266539611c5c23f2b699ec3161bf7",
     "0188fe515abbe547e8c8f87d0120bca3e598e315c472be442ce3ad15994f7408"),
    ({"family": "grassmann", "l": 2, "m": 4}, 3, 1,
     "02eee66964b8ef2ddd7273cb8db3bffaff3836b1daff3a5199a4d73f2afb954d",
     "2eb011e6eab0d1a60444b2fd85c5fd4a13144b7f0d6d33cc25bcb2d133197cf9"),
    ({"family": "schubert", "l": 2, "m": 4, "alpha": [3, 3]}, 2, 1,
     "5a42ec3bccbddd3f975d4dcb4a17b59bb153aff947d95302e6bd1562dec64249",
     "4dfde2734020d9e75a5589a3ee823c8ac8cc683808709c4a653817a37e63a92c"),
    ({"family": "flag", "m": 4}, 2, 1,
     "d4c9eb84dcf97eea4cda97f8ea2c91f7acb8426c5f8bbf5f37865a8ec9f0691f",
     "86e66976bbf63df210b891026c8a993909b25212b6382a422b866864d6d7b6a7"),
    ({"family": "del_pezzo", "l": 6}, 7, 1,
     "35f30c0f3af1ce99c6a7bd81e5653a1d80b416c8debf619533638e69561aa167",
     "145c84a86c8058210958d9a4cf58f15eb17497a8a8715318a018bde62ea13415"),
    ({"family": "toric", "s": 1, "lattice_points": [[0], [1], [2]]}, 5, 1,
     "66540024197221352c49488a4a8e102fdb7adb6fb89884fdd15e372bfd957261",
     "b34e32e3d2bbd8826bac9eb2999b08cb616570a9152dc43e2f7dbf0ab367a51c"),
    ({"family": "toric", "s": 2, "lattice_points": [[0, 0], [1, 0], [0, 1], [1, 1]]}, 4, 1,
     "454391a0b3fd1060b27a51baf2da252c8df1a05182cec8c7887b719bd143ad9d",
     "fbbab8b34f4740e28820430e5ef8408409958f4f743f173ee86e21fb5398ec20"),
    # x0^2 + x0*x1 + x1^2 = x2 = 0 has no point over GF(2).
    ({"family": "complete_intersection", "forms": [
        _form([[[2, 0, 0], 1], [[1, 1, 0], 1], [[0, 2, 0], 1]], 2),
        _form([[[0, 0, 1], 1]], 1)]}, 2, 1,
     "3e90d4d841c1d863deb12ad81a4961b10915be7d411da0823a513deb9f2eeae7", None),
    ({"family": "complete_intersection", "forms": [
        _form([[[1, 1, 0], 1]], 2), _form([[[0, 0, 1], 1]], 1)]}, 3, 1,
     "a5eab405391d612064d1e908198cc2cd10fbc8de416123ec4e15f78bbec01c73",
     "f1e585a62f243c0cf9793f7cf732eeefa4660e2129fa5374544529fdfc78178d"),
    ({"family": "p1xp1", "alpha": 1, "beta": 1}, 3, 1,
     "9214cffc0756fbd8d12734a343f4f846566aa33a8700d01b64cf093462cff7d9",
     "432dc6fec1f7370c7e27445fa6bf63a2583995baa93a15a686f6fc10ea7e635f"),
]


@pytest.mark.parametrize(
    "desc,q,h,points_sha,artifact_sha", GOLDEN, ids=[f"{c[0]['family']}-q{c[1]}" for c in GOLDEN]
)
def test_golden_output(tmp_path, capsys, desc, q, h, points_sha, artifact_sha):
    artifact = tmp_path / "code.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the empty intersection warns on its degree product
        rc, out, _ = run(capsys, "points", json.dumps(desc), "--q", str(q))
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == points_sha
        rc, _, _ = run(capsys, "build", json.dumps(desc), "--q", str(q), "--h", str(h),
                       "--out", str(artifact))
    if artifact_sha is None:
        assert rc == 2 and not artifact.exists()
    else:
        assert rc == 0
        assert hashlib.sha256(artifact.read_bytes()).hexdigest() == artifact_sha
