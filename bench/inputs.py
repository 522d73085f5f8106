"""Seeded inputs for the benchmark workloads.

Runs in the orchestrating process, before the program process starts, and
shares no code with varcodes: the field arithmetic below is rebuilt from
the element encoding that artifacts document (an element index is the
base-p integer of its polynomial-basis coefficients, constant term first;
the field dict carries the monic modulus).

Every seeded input is equivalent to the seed-free one, so all expected
outputs are seed-independent:
- artifacts get an invertible k x k row transform (same code) and a column
  permutation (permutation-equivalent code);
- the cli_build quadric gets an explicit form f(Ax), a change of
  coordinates of the parabolic normal form (projectively equivalent
  hypersurface, so the same [n, k, d] and weight distribution).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ARTIFACTS = Path(__file__).resolve().parent / "artifacts"

# Stored artifacts; every code gets a d job and a wdist job.
CODEWORDS = ["prm_q4_m3_h2", "prm_q5_m2_h3", "grassmann_l2_m5_q3"]
# (artifact, r): small r, r = k/2 and r > k/2.
SUBSPACES = [("flag_m3_q3", 2), ("prm_q4_m2_h2", 3), ("prm_q4_m2_h3", 9)]

# Canonical GF(8) modulus x^3 + x + 1 (constant term first).
GF8_MODULUS = [1, 1, 0, 1]
# Parabolic normal form x0^2 + x1*x2 + x3*x4 in P^4: {(i, j): coefficient}.
QUADRIC_NORMAL_FORM = {(0, 0): 1, (1, 2): 1, (3, 4): 1}


class Field:
    """GF(p^e) on element indices, with full add and mul tables (q is small)."""

    def __init__(self, p: int, modulus: list[int]):
        e = len(modulus) - 1
        q = p**e
        self.q = q
        digits = [[(a // p**i) % p for i in range(e)] for a in range(q)]

        def index(ds):
            return sum(d * p**i for i, d in enumerate(ds))

        def mul_digits(a, b):
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for top in range(len(prod) - 1, e - 1, -1):
                c = prod[top]
                if c:
                    for j in range(e + 1):
                        prod[top - e + j] = (prod[top - e + j] - c * modulus[j]) % p
            return prod[:e]

        self.add = [
            [index([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
            for a in range(q)
        ]
        self.mul = [[index(mul_digits(digits[a], digits[b])) for b in range(q)] for a in range(q)]

    def matmul(self, A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
        add, mul = self.add, self.mul
        out = []
        for row in A:
            acc = [0] * len(B[0])
            for a, brow in zip(row, B):
                if a:
                    ma = mul[a]
                    acc = [add[x][ma[y]] for x, y in zip(acc, brow)]
            out.append(acc)
        return out

    def random_invertible(self, k: int, rng: random.Random) -> list[list[int]]:
        """L @ U with L unit lower and U upper triangular with nonzero diagonal."""
        q = self.q
        L = [
            [1 if i == j else (rng.randrange(q) if j < i else 0) for j in range(k)]
            for i in range(k)
        ]
        U = [
            [rng.randrange(1, q) if i == j else (rng.randrange(q) if j > i else 0)
             for j in range(k)]
            for i in range(k)
        ]
        return self.matmul(L, U)


def seeded_artifact(base: dict, rng: random.Random) -> dict:
    """T @ G with columns permuted, for a random invertible T."""
    F = Field(base["field"]["p"], base["field"]["modulus"])
    gen = F.matmul(F.random_invertible(base["k"], rng), base["generator"])
    perm = list(range(base["n"]))
    rng.shuffle(perm)
    out = dict(base)
    out["generator"] = [[row[j] for j in perm] for row in gen]
    out["point_labels"] = [base["point_labels"][j] for j in perm]
    return out


def seeded_quadric_form(rng: random.Random) -> dict:
    """The normal form composed with a random invertible change of coordinates."""
    F = Field(2, GF8_MODULUS)
    m = 4
    A = F.random_invertible(m + 1, rng)
    terms: dict[tuple[int, ...], int] = {}
    for (a, b), c in QUADRIC_NORMAL_FORM.items():
        for j in range(m + 1):
            for l in range(m + 1):
                coeff = F.mul[c][F.mul[A[a][j]][A[b][l]]]
                if coeff:
                    expo = [0] * (m + 1)
                    expo[j] += 1
                    expo[l] += 1
                    key = tuple(expo)
                    terms[key] = F.add[terms.get(key, 0)][coeff]
    return {
        "ambient": m,
        "degree": 2,
        "terms": [[list(e), c] for e, c in sorted(terms.items(), reverse=True) if c],
    }


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _load_base(name: str) -> dict:
    return json.loads((ARTIFACTS / f"{name}.json").read_text(encoding="utf-8"))


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's seeded inputs to out_dir; return its job list.

    Each job is {"id": ...} plus either "kind" in {d, wdist, ghw} with an
    "artifact" file name (and "r"), or kind "cli" with an argv in which
    "{in}" names out_dir and "{tmp}" a per-pass scratch directory.
    """
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "codewords":
        jobs = []
        for name in CODEWORDS:
            _write_json(out_dir / f"{name}.json", seeded_artifact(_load_base(name), rng))
            jobs.append({"id": f"d:{name}", "kind": "d", "artifact": f"{name}.json"})
            jobs.append({"id": f"wdist:{name}", "kind": "wdist", "artifact": f"{name}.json"})
        return {"jobs": jobs}
    if workload == "subspaces":
        jobs = []
        for name, r in SUBSPACES:
            art = seeded_artifact(_load_base(name), rng)
            _write_json(out_dir / f"{name}.json", art)
            # r = 1 and r = k are the cheap ends of the hierarchy that the
            # d_1 = d and d_k = n checks need.
            for rr in (r, 1, art["k"]):
                jobs.append(
                    {"id": f"ghw{rr}:{name}", "kind": "ghw", "r": rr, "artifact": f"{name}.json"}
                )
        return {"jobs": jobs}
    if workload == "cli_build":
        quadric = {"family": "quadric", "m": 4, "w": 1, "form": seeded_quadric_form(rng)}
        _write_json(out_dir / "quadric.json", quadric)
        _write_json(
            out_dir / "delpezzo_q5.json",
            [{"descriptor": {"family": "del_pezzo", "l": l}, "h": 1, "q": 5} for l in range(7)],
        )

        def build(name, desc, q):
            argv = ["build", desc, "--q", str(q), "--out", f"{{tmp}}/{name}.json"]
            return {"id": f"build:{name}", "argv": argv}

        def analyze(name, *tasks):
            argv = ["analyze", f"{{tmp}}/{name}.json"]
            if tasks:
                argv += ["--tasks", ",".join(tasks)]
            return {"id": f"analyze:{name}", "argv": argv, "workers": True, "parse": "json"}

        jobs = [
            build("quadric", "@{in}/quadric.json", 8),
            analyze("quadric", "d", "wdist"),
            build("grassmann", '{"family":"grassmann","l":3,"m":6}', 2),
            {
                "id": "export:grassmann",
                "argv": ["export", "{tmp}/grassmann.json", "--format", "csv"],
            },
            build("hermitian", '{"family":"hermitian","m":3,"r":3}', 9),
            analyze("hermitian", "d", "wdist", "ghw:2"),
            build("schubert", '{"family":"schubert","l":2,"m":5,"alpha":[2,4]}', 3),
            analyze("schubert"),
            build("delpezzo6", '{"family":"del_pezzo","l":6}', 7),
            analyze("delpezzo6"),
            # No --workers: the job is the same in every pass, so its
            # executions pool into one mean (run.pass_estimate).  Most of
            # it is the 6-arc search, which no workers setting reaches.
            {
                "id": "compare:delpezzo_q5",
                "argv": ["compare", "@{in}/delpezzo_q5.json", "--format", "csv"],
                "parse": "csv",
            },
        ]
        for job in jobs:
            job["kind"] = "cli"
        # The orders of the fields the jobs use, built during set-up.
        return {"jobs": jobs, "fields": [8, 2, 9, 3, 7, 5]}
    raise ValueError(f"unknown workload {workload!r}")
