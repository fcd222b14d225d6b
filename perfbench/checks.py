"""Independent judgement of every CLI answer, made outside the timed region.

Expected answers come from the per-atom oracle, never from the engine: a
passport must equal `oracle_passport`, an emitted map must pass
`oracle_verify_iso`, member coefficients must recombine to the vector, and a
basis must have the oracle's rank and pass `independence_test`.
"""

from __future__ import annotations

import json
from typing import Optional

from regmod.boolean_core import PartitionOfUnity
from regmod.classification import IsoMap, IsoPiece, Passport
from regmod.errors import RegmodError
from regmod.module_space import GeneratorSet, ModuleVector, combine, independence_test
from regmod.oracle import atom_rank_profile, oracle_passport, oracle_verify_iso
from regmod.regular_algebra import AlgebraElement

from workloads import Op


def _passport_rows(pp: Passport) -> list[dict]:
    return [{"rank": e.rank, "piece": list(e.piece.labels())} for e in pp.entries]


def _vector(gens: GeneratorSet, grid: list[list[str]]) -> ModuleVector:
    field = gens.field
    return ModuleVector.from_grid(
        field, gens.context, [[field.parse(s) for s in row] for row in grid]
    )


def _expected(op: Op) -> dict:
    """Oracle answers for one op, computed once and kept on the op."""
    if op.expected:
        return op.expected
    gens = op.module
    exp = op.expected
    if op.kind == "passport":
        pp = oracle_passport(gens)
        exp["code"] = 0
        exp["doc"] = {"passport": _passport_rows(pp), "faithful": pp.faithful}
    elif op.kind == "iso":
        pa, pb = oracle_passport(gens), oracle_passport(op.other)
        exp["code"] = 0 if pa == pb else 1
        exp["passports"] = (_passport_rows(pa), _passport_rows(pb))
        exp["map"] = pa == pb and pa.faithful
    elif op.kind == "basis":
        ranks = {atom_rank_profile(gens).ranks[label] for label in op.piece}
        exp["code"] = 0 if len(ranks) == 1 else 1
        exp["rank"] = min(ranks)
        exp["piece"] = list(gens.context.subset(op.piece).labels())
    else:  # member
        x = op.other.gens[0]
        before = atom_rank_profile(gens).ranks
        augmented = GeneratorSet(gens.field, gens.context, gens.ambient_dim, gens.gens + (x,))
        after = atom_rank_profile(augmented).ranks
        exp["witnesses"] = [q for q in gens.context.labels if after[q] > before[q]]
        exp["code"] = 1 if exp["witnesses"] else 0
    return exp


def _check_iso(op: Op, exp: dict, doc: dict) -> Optional[str]:
    pa, pb = exp["passports"]
    if exp["code"] == 1:
        if doc.get("isomorphic") is not False:
            return "claimed isomorphic, oracle passports differ"
        if doc["passport_a"] != pa or doc["passport_b"] != pb:
            return "passports differ from the oracle's"
        return None
    if doc.get("isomorphic") is not True or doc["passport"] != pa:
        return "isomorphic pair not recognised with the oracle's passport"
    if not exp["map"]:
        return "map emitted for a non-faithful pair" if "map" in doc else None
    if "map" not in doc:
        return "no map emitted"
    a, b = op.module, op.other
    pieces = tuple(
        IsoPiece(
            a.context.subset(pc["piece"]),
            pc["rank"],
            tuple(_vector(a, v) for v in pc["source_basis"]),
            tuple(_vector(b, v) for v in pc["target_basis"]),
            (),
        )
        for pc in doc["map"]["pieces"]
    )
    if [{"rank": pc.rank, "piece": list(pc.piece.labels())} for pc in pieces] != pa:
        return "map pieces differ from the oracle passport"
    images = tuple(_vector(b, v) for v in doc["map"]["generator_images"])
    iso = IsoMap(
        a.field,
        a.context,
        a.ambient_dim,
        b.ambient_dim,
        PartitionOfUnity(tuple(pc.piece for pc in pieces)),
        pieces,
        images,
    )
    return None if oracle_verify_iso(iso, a, b) else "emitted map fails oracle_verify_iso"


def _check_basis(op: Op, exp: dict, doc: dict) -> Optional[str]:
    if exp["code"] == 1:
        ok = doc == {"homogeneous": False, "piece": exp["piece"]}
        return None if ok else "non-homogeneous piece not reported as such"
    if doc.get("homogeneous") is not True or doc["piece"] != exp["piece"]:
        return "homogeneous piece not reported as such"
    basis = tuple(_vector(op.module, v) for v in doc["basis"])
    if doc["rank"] != exp["rank"] or len(basis) != exp["rank"]:
        return f"rank {doc['rank']} with {len(basis)} vectors, oracle rank {exp['rank']}"
    gens = op.module
    local = GeneratorSet(gens.field, gens.context, gens.ambient_dim, basis)
    if not independence_test(local, gens.context.subset(op.piece)).independent:
        return "basis fails independence_test"
    return None


def _check_member(op: Op, exp: dict, doc: dict) -> Optional[str]:
    if exp["code"] == 1:
        if doc.get("member") is not False or doc["witness_atom"] not in exp["witnesses"]:
            return "non-member not rejected at a true witness atom"
        return None
    if doc.get("member") is not True:
        return "member rejected"
    gens = op.module
    coeffs = [
        AlgebraElement.from_values(gens.field, gens.context, [gens.field.parse(s) for s in row])
        for row in doc["coefficients"]
    ]
    if combine(gens.gens, coeffs) != op.other.gens[0]:
        return "coefficients do not recombine to the vector"
    return None


def check(op: Op, code: Optional[int], stdout: str, stderr: str) -> Optional[str]:
    """None when the call answered correctly, else the reason it did not."""
    if code is None:
        return "timed out"
    if "Traceback" in stderr:
        return f"traceback (exit {code})"
    exp = _expected(op)
    if code != exp["code"]:
        return f"exit {code}, expected {exp['code']}"
    try:
        doc = json.loads(stdout)
        if op.kind == "passport":
            return None if doc == exp["doc"] else "passport differs from oracle_passport"
        if op.kind == "iso":
            return _check_iso(op, exp, doc)
        if op.kind == "basis":
            return _check_basis(op, exp, doc)
        return _check_member(op, exp, doc)
    except (AttributeError, KeyError, TypeError, ValueError, RegmodError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"

