"""Reduce a job's output to the answer the benchmark checks.

The digest keeps what a user of the job reads off: the exit code, the JW
verdict, term count and a hash of the idempotent itself, quantum-number
rows, the rotatability status, the continuant term multiplicities, the
homology table, the classifier verdicts.  It ignores layout and any field a later version may add, so
only a changed answer makes a job fail.
"""

from __future__ import annotations

import hashlib
import json


def _compact(text: str) -> str:
    return "".join(text.split())


def _hash(text: str) -> str:
    """sha256 of the text without whitespace, for answers too long to store."""
    return hashlib.sha256(_compact(text).encode()).hexdigest()


def digest(argv, code, stdout: str) -> dict:
    """The checked answer of one job; raises ValueError on unreadable output."""
    if code != 0:
        return {"exit": code}
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise ValueError(f"output is not JSON: {exc}") from None
    command = argv[0]
    out = {"exit": 0}
    if command == "jw":
        out["exists"] = doc["exists"]
        if doc["exists"]:
            out["terms"] = doc["terms"]
            out["morphism_sha256"] = _hash(doc["morphism"])
    elif command == "qnum":
        out["rows"] = [[_compact(r["qnum"]), _compact(r["qqnum"])] for r in doc["rows"]]
    elif command == "rotatable":
        out["status"] = doc["status"]
    elif command == "continuant":
        out["summands"] = {d: len(e["summands"]) for d, e in doc["degrees"].items()}
        out["valid"] = doc["validation"]["ok"]
    elif command == "homology" and "degrees" in doc:
        out["degrees"] = {
            d: [e["dimension"], e["rank_out"], e["homology"]] for d, e in doc["degrees"].items()
        }
        out["euler"] = [doc["euler_terms"], doc["euler_homology"]]
    elif command == "homology":
        out["jw_exists"] = doc["jw_exists"]
        if doc["jw_exists"]:
            out["markov_trace"] = _compact(doc["markov_trace"])
            out["negligible"] = doc["negligible"]
    elif command == "bound":
        out["verdict"] = [doc["verdict"]["kind"], doc["verdict"]["n"]]
    elif command == "classify":
        out["verdicts"] = [[r["object"], r["verdict"]["kind"], r["verdict"]["n"]] for r in doc["reports"]]
    else:
        raise ValueError(f"no digest for command {command!r}")
    return out


def job_problem(argv, result: dict, expected: dict, limit_s: float):
    """Why a job failed, or None when its answer and exit are as expected."""
    if result.get("traceback"):
        return "traceback: " + result["traceback"].strip().splitlines()[-1]
    if "Traceback" in result.get("stderr", ""):
        return "traceback printed"
    if result["seconds"] > limit_s:
        return f"overran its {limit_s:g} s limit ({result['seconds']:.1f} s)"
    if expected is None:
        return "no expected answer stored"
    if result["code"] != 0 and not result["stderr"].strip():
        return f"exit {result['code']} without a message"
    try:
        got = digest(argv, result["code"], result["stdout"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if got != expected:
        return f"answer {got} != expected {expected}"
    return None
