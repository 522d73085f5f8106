"""Input validation at the boundary: descriptors, bound inputs, artifacts.

Every bad input must end in exit code 2 with a message; broken invariants
raise InternalError (exit code 4), also under python -O.
"""

import json
import subprocess
import sys
import time

import pytest

from varcodes import cli
from varcodes.codes import LinearCode, code_from_descriptor
from varcodes.errors import DimensionMismatch, InternalError, InvalidParams
from varcodes.gf import GF, field
from varcodes.varieties import VarietyDescriptor


BIG = "1" + "0" * 4400
LINE = '{"ambient":2,"degree":1,"terms":[[[1,0,0],1]]}'


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["predict", '{"family":"projective_space","m":2}', "--q", "6"], "6 is not a prime power"),
        (["predict", '{"family":"grassmann","l":2,"m":4}', "--q", "1"], "1 is not a prime power"),
        (["predict", '{"family":"projective_space","m":0}', "--q", "4"], "'m' must be >= 1"),
        (["build", '{"family":"projective_space","m":2,"junk":1}', "--q", "4"], "'junk'"),
        (["build", '{"family":"projective_space","m":"x"}', "--q", "4"], "'m' must be int"),
        (["build", '{"family":"grassmann","l":true,"m":4}', "--q", "2"], "'l' must be int"),
        (["build", '{"family":"flag","m":3.0}', "--q", "2"], "'m' must be int"),
        (["build", "[1,2]", "--q", "4"], "JSON object"),
        (["build", '{"family":"p1xp1","alpha":1,"beta":1}', "--q", "3", "--h", "2"], "h = 1"),
        (["build", '{"family":"toric","s":1,"lattice_points":[[0],[1]]}', "--q", "3", "--h", "2"],
         "h = 1"),
        (["build", '{"family":"projective_space","m":2}', "--q", "4", "--h", "-1"], "h >= 0"),
        (["compare", '[{"descriptor":{"family":"projective_space","m":2},"q":"x"}]'], "'q' must be int"),
        (["compare", '[{"descriptor":{"family":"projective_space","m":2}}]'], "missing 'q'"),
        (["compare", '[{"descriptor":{"family":"projective_space","m":2},"q":2,"H":2}]'], "'H'"),
        (["bound", "griesmer", '{"n":10,"k":3,"q":0}'], "0 is not a prime power"),
        (["bound", "griesmer", '{"n":10,"k":3,"q":1}'], "1 is not a prime power"),
        (["bound", "lachaud-sections", '{"q":-4,"m":3,"s":3,"n":45}'], "-4 is not a prime power"),
        (["bound", "griesmer", '{"n":10,"k":3}'], "missing a required argument: 'q'"),
        (["bound", "griesmer", '{"n":10,"k":3,"q":2,"x":1}'], "unexpected keyword argument 'x'"),
        (["bound", "singleton", '{"n":"x","k":3}'], "'n' must be int"),
        (["bound", "counts", '{"family":"flag","m":3,"q":1}'], "1 is not a prime power"),
        (["bound", "counts", '{"family":"flag","q":2}'], "missing a required argument: 'm'"),
        (["bound", "counts", '{"family":["flag"],"m":3,"q":2}'], "unknown count family"),
        # Integers past Python's 4300-digit int-string limit, inline and in files
        # ({big} holds one), and a file that is not UTF-8 ({latin1}).
        (["bound", "griesmer", '{"n":10,"k":3,"q":%s}' % BIG], "4300 digits"),
        (["predict", '{"family":"projective_space","m":%s}' % BIG, "--q", "2"], "4300 digits"),
        (["compare", '[{"descriptor":{"family":"projective_space","m":2},"q":%s}]' % BIG],
         "4300 digits"),
        (["build", "@{big}", "--q", "2"], "4300 digits"),
        (["analyze", "{big}"], "4300 digits"),
        (["export", "{big}"], "4300 digits"),
        (["analyze", "{latin1}"], "can't decode"),
        # Arrays nested past the JSON parser's recursion limit ({deep}).
        (["build", "@{deep}", "--q", "2"], "maximum recursion depth exceeded"),
        (["compare", "@{deep}"], "maximum recursion depth exceeded"),
        (["bound", "griesmer", "@{deep}"], "maximum recursion depth exceeded"),
        (["analyze", "{deep}"], "maximum recursion depth exceeded"),
        # Results past the int-string digit limit are refused, not printed.
        (["predict", '{"family":"projective_space","m":20000}', "--q", "2"], "4300 digits"),
        (["bound", "counts", '{"family":"projective_space","m":20000,"q":2}'], "4300 digits"),
        # Refusals of the shape of an argument, of a descriptor and of a calculator.
        (["bound", "griesmer", "[1]"], "must be a JSON object"),
        (["compare", '{"q":2}'], "expects a JSON list"),
        (["build", '{"family":"quadric","m":3}', "--q", "3"], "needs both m and w, or a form"),
        (["build", '{"family":"quadric","form":{"ambient":2,"degree":3,"terms":[[[3,0,0],1]]}}',
          "--q", "3"], "must have degree 2"),
        (["build", '{"family":"grassmann","l":3,"m":3}', "--q", "2"], "need 1 <= l < m"),
        (["build", '{"family":"complete_intersection","forms":[%s]}' % LINE, "--q", "3"],
         "needs exactly m forms"),
        (["bound", "weil-hypersurface", '{"q":3,"m":1,"s":2}'], "need ambient dimension m >= 2"),
        (["bound", "weil-hypersurface", '{"q":3,"m":3,"s":0}'], "degree must be >= 1"),
        (["bound", "griesmer", '{"n":10,"k":0,"q":2}'], "need k >= 1"),
        (["bound", "ruled-surface", '{"a":3,"q":2,"b1":-1,"b2":1,"e":0}'], "need b1, b2 >= 0"),
        (["bound", "ruled-surface", '{"a":3,"q":2,"b1":5,"b2":2,"e":0}'], "non-positive (-2)"),
        (["bound", "counts", '{"family":"quadric","m":3,"w":0,"q":3,"rho":9}'],
         "rank must be in 1..4, got 9"),
        (["bound", "counts", '{"family":"hermitian","m":0,"r":2}'], "need m >= 1 and r >= 2"),
        (["bound", "counts", '{"family":"flag","m":1,"q":2}'], "need m >= 2"),
        (["analyze", "{lowrank}"], "not full rank"),
        # A result past the digit limit, where [m choose l]_q takes the fewer of
        # l and m - l factors: one here, not 10^5 ever larger ones.
        (["predict", '{"family":"grassmann","l":100000,"m":100001}', "--q", "2"], "4300 digits"),
    ],
)
def test_bad_input_exits_2_with_a_message(tmp_path, capsys, argv, message):
    names = ("big", "latin1", "deep", "lowrank")
    big, latin1, deep, lowrank = (tmp_path / f"{name}.json" for name in names)
    big.write_text('{"n":%s}' % BIG)
    latin1.write_bytes('{"point_labels":["é"]}'.encode("latin-1"))
    deep.write_text("[" * 100000 + "]" * 100000)
    lowrank.write_text(json.dumps({
        "format_version": 1, "field": {"p": 2, "e": 1}, "n": 2, "k": 2,
        "generator": [[1, 0], [1, 0]], "point_labels": ["a", "b"], "basis_labels": ["x", "y"],
    }))
    for name, path in zip(names, (big, latin1, deep, lowrank)):
        argv = [a.replace("{%s}" % name, str(path)) for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", '{"family":"projective_space","m":100000}', "--q", "2"],
        ["bound", "elementary", '{"n":10,"delta":100000,"q":2,"s":1}'],
    ],
    ids=["predict", "elementary"],
)
def test_projective_space_size_of_a_large_m_is_refused_at_once(capsys, argv):
    # #P^m(F_2) has 30103 digits at m = 100000: sigma is a closed form, so
    # the digit limit refuses the result without a sum of 100001 powers.
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "") and "4300 digits" in err
    assert time.perf_counter() - start < 1


def test_predict_rejects_what_build_rejects(capsys):
    desc = '{"family":"projective_space","m":0}'
    assert run(capsys, "build", desc, "--q", "4")[0] == 2
    assert run(capsys, "predict", desc, "--q", "4")[0] == 2


@pytest.mark.parametrize("terms", [[], [[[1, 1, 0], 0]]], ids=["no-terms", "zero-term"])
def test_zero_quadric_form_is_refused_everywhere(capsys, terms):
    desc = json.dumps({"family": "quadric", "form": {"ambient": 2, "degree": 2, "terms": terms}})
    for command in ("build", "points", "predict"):
        rc, out, err = run(capsys, command, desc, "--q", "3")
        assert (rc, out) == (2, "") and "no nonzero term" in err
    rc, out, _ = run(capsys, "compare", '[{"descriptor":%s,"q":3}]' % desc, "--format", "json")
    assert rc == 0 and "no nonzero term" in json.loads(out)[0]["error"]


def test_quadric_count_rank_may_be_null(capsys):
    rc, out, _ = run(capsys, "bound", "counts", '{"family":"quadric","m":3,"w":0,"q":3,"rho":null}')
    assert rc == 0 and json.loads(out)["value"] == 10  # rho = m + 1: the elliptic quadric


def _artifact(tmp_path, capsys, edit):
    path = tmp_path / "code.json"
    run(capsys, "build", '{"family":"projective_space","m":2}', "--q", "4", "--out", str(path))
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return data, path


@pytest.mark.parametrize(
    "edit,error",
    [
        (lambda d: d["point_labels"].pop(), InvalidParams),
        (lambda d: d.update(n=999, k=1), InvalidParams),
        (lambda d: d.pop("generator"), InvalidParams),
        (lambda d: d["generator"].append(d["generator"][0]), InvalidParams),
        (lambda d: d.update(generator=[]), InvalidParams),
        (lambda d: d.update(field={"p": "2", "e": 2}), InvalidParams),
        (lambda d: d["field"].update(q=16), InvalidParams),
        (lambda d: d.update(point_labels=[0] * d["n"]), InvalidParams),
        (lambda d: d["generator"][-1].__setitem__(-1, 4), InvalidParams),  # GF(4): 0..3
        # Entries past the uint8 index dtype, or no array dtype at all.
        (lambda d: d["generator"][0].__setitem__(0, 256), InvalidParams),
        (lambda d: d["generator"][0].__setitem__(0, -1), InvalidParams),
        (lambda d: d["generator"][0].__setitem__(0, 2**70), InvalidParams),
        # Entries and rows of another JSON type.
        (lambda d: d["generator"][0].__setitem__(0, True), InvalidParams),
        (lambda d: d["generator"][0].__setitem__(0, 1.0), InvalidParams),
        (lambda d: d["generator"][0].__setitem__(0, "1"), InvalidParams),
        (lambda d: d["generator"].__setitem__(0, "1,0,0"), InvalidParams),
        (lambda d: d["generator"][0].pop(), DimensionMismatch),
        (lambda d: d["generator"].__setitem__(-1, []), DimensionMismatch),
    ],
    ids=[
        "labels", "n-k", "no-generator", "rank", "empty", "field", "field-q", "label-kind",
        "generator-entry", "entry-256", "entry-negative", "entry-2**70",
        "entry-bool", "entry-float", "entry-str", "row-str", "ragged", "empty-row",
    ],
)
def test_inconsistent_artifacts_rejected(tmp_path, capsys, edit, error):
    data, path = _artifact(tmp_path, capsys, edit)
    with pytest.raises(error):
        LinearCode.from_dict(data)
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 2 and "input error" in err


def test_ghw_task_needs_an_integer_rank(tmp_path, capsys):
    _, path = _artifact(tmp_path, capsys, lambda d: None)
    rc, _, err = run(capsys, "analyze", str(path), "--tasks", "ghw:x")
    assert rc == 2 and "ghw:x" in err


def test_fixed_basis_families_refuse_other_degrees():
    for desc in (
        VarietyDescriptor("p1xp1", {"alpha": 1, "beta": 1}),
        VarietyDescriptor("toric", {"s": 1, "lattice_points": [[0], [1]]}),
    ):
        with pytest.raises(InvalidParams):
            code_from_descriptor(desc, 2, GF(3))


def test_internal_errors_are_not_input_errors(monkeypatch, capsys):
    def broken(args):
        raise KeyError("a bug, not bad input")

    monkeypatch.setattr(cli, "cmd_points", broken)
    with pytest.raises(KeyError):
        cli.main(["points", '{"family":"projective_space","m":2}', "--q", "2"])


def test_broken_invariant_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(GF, "_find_generator", lambda self: 1)
    with pytest.raises(InternalError):
        GF(5)
    field.cache_clear()  # the CLI gets its fields from the cache
    rc, _, err = run(capsys, "field", "5")
    assert rc == 4 and "internal invariant failure" in err


def test_invariants_survive_optimize_flag():
    code = (
        "from varcodes.gf import GF\n"
        "from varcodes.errors import InternalError\n"
        "GF._find_generator = lambda self: 1\n"
        "try:\n"
        "    GF(5)\n"
        "except InternalError:\n"
        "    print('caught')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.stdout.strip() == "caught", result.stderr


def test_huge_orders_answer_at_once():
    # Trial division up to sqrt(q) does not end for q = 10^18 + 3 (a prime),
    # so a regression would hang: run the CLI in a subprocess with a timeout.
    q = 10**18 + 3
    line = '{"family":"projective_space","m":1}'
    cases = [
        (["field", str(q)], 2),  # past the field cap
        (["field", "2", "100000000000"], 2),  # p^e past the cap, never built
        (["points", line, "--q", str(q)], 2),
        (["predict", line, "--q", str(q)], 0),  # closed forms need no field
        (["bound", "griesmer", json.dumps({"n": 10, "k": 3, "q": q})], 0),
        (["predict", line, "--q", str(10**4000 + 1)], 2),  # past the primality test
    ]
    code = (
        "import sys\nfrom varcodes import cli\n"
        f"for argv in {[argv for argv, _ in cases]!r}:\n"
        "    print('rc', cli.main(argv), file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    rcs = [int(line[3:]) for line in result.stderr.splitlines() if line.startswith("rc ")]
    assert rcs == [rc for _, rc in cases], result.stderr
    assert "p^e = 2^100000000000 exceeds the cap 65536" in result.stderr
