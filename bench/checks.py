"""Correctness gate behind `failed`: expected values plus independent checks.

A job execution fails when its exit code, stdout digest or returned value
differs from the value recorded at the commit that defined the benchmark
(expected.json), when it raised, or when an invariant below does not
hold.  The invariants share no code with the engine: closed-form minimum
distances, sum A_w = q^k, (q-1) | A_w for w > 0, min support = d,
d_1 = d, d_k = n (nonzero columns), d_r <= n - k + r and strict
monotonicity of the GHW hierarchy.
"""

from __future__ import annotations

import json


def closed_form_d(provenance: dict) -> int | None:
    """Minimum distance from the family's theorem, where one is known."""
    desc, h, q = provenance["descriptor"], provenance["h"], provenance["q"]
    family = desc["family"]
    if family == "projective_space" and 1 <= h <= q:
        return (q + 1 - h) * q ** (desc["m"] - 1)
    if family == "grassmann" and h == 1:
        return q ** (desc["l"] * (desc["m"] - desc["l"]))
    if family == "flag" and h == 1:
        return q ** (2 * desc["m"] - 3) - q ** (desc["m"] - 2)
    return None


def weight_distribution_problems(wdist: dict, n: int, k: int, q: int, d: int | None) -> list[str]:
    counts = {int(w): int(c) for w, c in wdist.items()}
    support = sorted(w for w, c in counts.items() if w > 0 and c)
    out = []
    if sum(counts.values()) != q**k:
        out.append(f"sum A_w = {sum(counts.values())} != q^k = {q**k}")
    if counts.get(0) != 1:
        out.append(f"A_0 = {counts.get(0)} != 1")
    if any(counts[w] % (q - 1) for w in support):
        out.append("some A_w (w > 0) is not divisible by q - 1")
    if not support or support[-1] > n:
        out.append(f"support {support[:1]}..{support[-1:]} outside 1..n = {n}")
    elif d is not None and support[0] != d:
        out.append(f"min support {support[0]} != d = {d}")
    return out


def code_info(artifact: dict) -> dict:
    gen = artifact["generator"]
    field = artifact["field"]
    prov = artifact["provenance"]
    return {
        "n": len(gen[0]),
        "k": len(gen),
        "q": field["p"] ** field["e"],
        "nonzero_columns": sum(1 for col in zip(*gen) if any(col)),
        "d": closed_form_d(prov),
    }


def job_problems(job: dict, rec: dict, expected: dict, info: dict | None) -> list[str]:
    """Everything wrong with one job execution (empty when it passed)."""
    if "error" in rec:
        return [rec["error"]]
    out = []
    if rec["exit"] != expected.get("exit", 0):
        out.append(f"exit {rec['exit']} != {expected.get('exit', 0)}")
    if "sha256" in expected and rec["sha256"] != expected["sha256"]:
        out.append(f"stdout sha256 {rec['sha256']} != {expected['sha256']}")
    if "value" in expected and rec["value"] != expected["value"]:
        out.append(f"value {rec['value']!r} != {expected['value']!r}")
    kind = job["kind"]
    if kind == "d" and info["d"] is not None and rec["value"] != info["d"]:
        out.append(f"d = {rec['value']} != closed form {info['d']}")
    elif kind == "wdist":
        out += weight_distribution_problems(
            rec["value"], info["n"], info["k"], info["q"], info["d"]
        )
    elif kind == "ghw":
        r, v, n, k = job["r"], rec["value"], info["n"], info["k"]
        if not 1 <= v <= n - k + r:
            out.append(f"d_{r} = {v} outside 1..n-k+r = {n - k + r}")
        if r == 1 and info["d"] is not None and v != info["d"]:
            out.append(f"d_1 = {v} != d = {info['d']}")
        if r == k and v != info["nonzero_columns"]:
            out.append(f"d_k = {v} != {info['nonzero_columns']} nonzero columns")
    elif kind == "cli" and rec["exit"] == 0 and job.get("parse") == "json":
        try:
            report = json.loads(rec["stdout"])
            n, k, q, d = report["n"], report["k"], report["q"], report.get("d")
        except (ValueError, KeyError, TypeError) as exc:
            return out + [f"analyze stdout is not a report: {exc!r}"]
        if "weight_distribution" in report:
            out += weight_distribution_problems(report["weight_distribution"], n, k, q, d)
        d2 = report.get("ghw", {}).get("2")
        if d2 is not None and not (d is None or d < d2 <= n - k + 2):
            out.append(f"d_2 = {d2} not in (d, n-k+2] = ({d}, {n - k + 2}]")
    elif kind == "cli" and rec["exit"] == 0 and job.get("parse") == "csv":
        rows = rec["stdout"].splitlines()[1:]
        # The l = 6 descriptor has no six points in general position over
        # GF(5): its expected outcome is the error row, with every column
        # after the descriptor empty.
        if len(rows) != 7 or not rows[-1].endswith("," * 11) or "'l': 6" not in rows[-1]:
            out.append("compare: the l = 6 row is not the general-position error row")
        if any(row.endswith(",,,") for row in rows[:-1]):
            out.append("compare: an l < 6 row is an error row")
    return out


def hierarchy_problems(values: dict[int, int]) -> list[str]:
    """d_1 < d_2 < ... over the measured r of one code."""
    rs = sorted(values)
    return [
        f"d_{a} = {values[a]} >= d_{b} = {values[b]}"
        for a, b in zip(rs, rs[1:])
        if values[a] >= values[b]
    ]
