"""CLI fuzzing: descriptor, bound and artifact JSON never end in a traceback.

Every run must exit 0 (success), 2 (bad input) or 3 (budget exceeded).
Parameters stay tiny so that every construction and enumeration is fast.
"""

import inspect
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from varcodes import bounds
from varcodes.cli import BOUND_COMMANDS, main
from varcodes.codes import code_from_descriptor
from varcodes.families import FAMILIES
from varcodes.gf import GF
from varcodes.varieties import VarietyDescriptor

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)

junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.sampled_from(["x", "", 1.5]),
    st.lists(st.integers(-1, 3), max_size=2),
)
CONICS = [
    {"ambient": 2, "degree": 2, "terms": [[[2, 0, 0], 3], [[0, 2, 0], 1], [[0, 0, 2], 1]]},
    {"ambient": 2, "degree": 2, "terms": [[[2, 0, 0], 2], [[0, 2, 0], 2], [[0, 0, 2], 1]]},
]
# One valid descriptor per family, with a field it builds over.
VALID = [
    ({"family": "projective_space", "m": 2, "affine": False}, 3),
    ({"family": "quadric", "m": 2, "w": 1, "form": CONICS[0]}, 5),
    ({"family": "hermitian", "m": 2, "r": 2}, 4),
    ({"family": "grassmann", "l": 2, "m": 4}, 2),
    ({"family": "schubert", "l": 2, "m": 4, "alpha": [2, 4]}, 2),
    ({"family": "flag", "m": 3}, 2),
    ({"family": "del_pezzo", "l": 2}, 5),
    ({"family": "toric", "s": 2, "lattice_points": [[0, 0], [1, 0], [0, 1]]}, 3),
    ({"family": "complete_intersection", "forms": CONICS}, 5),
    ({"family": "p1xp1", "alpha": 1, "beta": 1}, 3),
]


def run(*argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    assert rc in (0, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_fuzz_covers_every_family():
    assert sorted(d["family"] for d, _ in VALID) == sorted(FAMILIES)


def test_every_seed_builds():
    for desc, q in VALID:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(["build", json.dumps(desc), "--q", str(q)])
        assert rc == 0, (desc, q, err.getvalue())


@st.composite
def mutated(draw, obj: dict) -> dict:
    """A deep copy of obj with up to three keys dropped, replaced or added."""
    obj = json.loads(json.dumps(obj))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(obj) + ["extra"]))
        action = draw(st.integers(0, 3))
        if action == 0:
            obj.pop(key, None)
        elif action == 1:
            obj[key] = draw(junk)
        elif action == 2 and isinstance(obj.get(key), list) and obj[key]:
            obj[key].pop()
        elif action == 3 and isinstance(obj.get(key), int):
            obj[key] += draw(st.sampled_from([-1, 1, -3, 3]))
    return obj


@st.composite
def descriptors(draw):
    desc, q = draw(st.sampled_from(VALID))
    return draw(mutated(desc)), draw(st.sampled_from([q, q, 2, 4, 5, 1, 6, 0, -1]))


@FUZZ
@given(
    st.sampled_from(["build", "predict", "points", "compare"]),
    descriptors(),
    st.one_of(st.sampled_from([1, 2, 0, -1]), junk),
)
def test_descriptor_fuzz(command, desc_q, h):
    desc, q = desc_q
    if command == "compare":
        entry = {"descriptor": desc, "q": q, "h": h}
        run("compare", json.dumps([entry]), "--budget", 20000)
    elif command == "points":
        run("points", json.dumps(desc), "--q", q)
    elif isinstance(h, int) and not isinstance(h, bool):
        run(command, json.dumps(desc), "--q", q, "--h", h)
    else:
        run(command, json.dumps(desc), "--q", q)


def _bound_kinds(name: str, family) -> dict:
    fn = bounds.COUNT_FORMULAS.get(family, bounds.sigma) if name == "counts" else BOUND_COMMANDS[name]
    kinds = {}
    for p in inspect.signature(fn).parameters.values():
        if p.annotation == "list[int]":
            kinds[p.name] = st.lists(st.integers(-1, 4), max_size=3)
        elif p.annotation == "str":
            kinds[p.name] = st.sampled_from(["max_d", "min_n", "x"])
        else:
            kinds[p.name] = st.integers(-2, 6)
    return kinds


@FUZZ
@given(st.data(), st.sampled_from(sorted(BOUND_COMMANDS)))
def test_bound_fuzz(data, name):
    family = data.draw(st.sampled_from(sorted(bounds.COUNT_FORMULAS) + ["x"]))
    params = data.draw(st.fixed_dictionaries(_bound_kinds(name, family)))
    params = data.draw(mutated(params))
    if name == "counts" and data.draw(st.booleans()):
        params["family"] = family
    run("bound", name, json.dumps(params))


BASE_ARTIFACTS = [
    code_from_descriptor(VarietyDescriptor(fam, p), 1, GF.from_order(q)).to_dict()
    for fam, p, q in [("projective_space", {"m": 2}, 4), ("quadric", {"m": 2, "w": 1}, 3)]
]


@st.composite
def artifacts(draw):
    art = draw(mutated(draw(st.sampled_from(BASE_ARTIFACTS))))
    if draw(st.booleans()) and isinstance(art.get("field"), dict):
        art["field"] = draw(mutated(art["field"]))
    if draw(st.booleans()) and isinstance(art.get("generator"), list) and art["generator"]:
        art["generator"][0] = draw(st.one_of(junk, st.lists(st.integers(-1, 4), max_size=12)))
    return art


@FUZZ
@given(
    artifacts(),
    st.lists(st.sampled_from(["d", "wdist", "ghw:1", "ghw:2", "ghw:9", "ghw:x", "foo"]),
             min_size=1, max_size=3),
)
def test_artifact_fuzz(art, tasks):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.json"
        path.write_text(json.dumps(art))
        run("analyze", path, "--tasks", ",".join(tasks), "--budget", 5000)
        run("export", path, "--format", "json")
