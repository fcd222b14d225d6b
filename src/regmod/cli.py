"""Command-line surface.

Commands: passport, iso, basis, member, verify, gen.  Exit codes follow the
comparison-tool convention: 0 = yes/success, 1 = no (not isomorphic, not a
member, not homogeneous, property failure), 2 = error (unreadable, malformed
or inconsistent input).  Each command returns an `Answer`, and `main` alone
writes it: as JSON under `--json` (always, for gen), else as text.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .boolean_core import AtomSet, Idempotent
from .classification import (
    Passport,
    build_isomorphism,
    extract_basis,
    kappa,
    passport,
)
from .errors import ParseError, RegmodError, ValidationError
from .fields import _quote, parse_field_spec
from .module_file import _dump, module_document, parse_module_file
from .module_space import GeneratorSet, ModuleVector, membership
from .rng import SplitMix64


def _load(path: str) -> GeneratorSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{_quote(path)} is not UTF-8 text: {exc.reason}") from exc
    return parse_module_file(text)


def _passport_json(pp: Passport) -> list[dict]:
    return [
        {"rank": entry.rank, "piece": list(entry.piece.labels())}
        for entry in pp.entries
    ]


def _vector_json(v: ModuleVector) -> list[Iterator[str]]:
    """One lazy row per coordinate: the JSON writer renders each scalar as it writes it."""
    return [map(v.field.render, coord.values) for coord in v.coords]


def _print_json(obj: object) -> None:
    """dump_json(obj) and a newline, written to stdout a chunk at a time."""
    write = sys.stdout.write  # looked up per call, so a redirected stdout is honoured
    _dump(obj, "\n", write)
    write("\n")


class Answer(NamedTuple):
    """A command's answer: its exit code, its JSON value (a row may be a lazy iterator,
    as `_print_json` takes it) and its text lines.  Only the form asked for is built."""

    code: int
    json: Callable[[], object]
    text: Callable[[], Iterable[str]] = tuple  # gen answers in JSON alone


def cmd_passport(args: argparse.Namespace) -> Answer:
    gens = _load(args.file)
    pp = passport(gens)
    return Answer(
        0,
        lambda: {"passport": _passport_json(pp), "faithful": pp.faithful},
        lambda: (pp.render(), f"faithful={'true' if pp.faithful else 'false'}"),
    )


def _first_difference(pa: Passport, pb: Passport) -> tuple[str, str]:
    # Two passports over one atom set each cover it with disjoint pieces, so
    # neither entry list is a proper prefix of the other: zip reaches the difference.
    for ea, eb in zip(pa.entries, pb.entries):
        if ea != eb:
            return ea.render(), eb.render()
    return "(none)", "(none)"


def cmd_iso(args: argparse.Namespace) -> Answer:
    left = _load(args.file_a)
    right = _load(args.file_b)
    if not left.same_algebra(right):
        raise ValidationError("inputs use different fields or atom sets")
    pa, pb = passport(left), passport(right)
    if pa != pb:
        diff_a, diff_b = _first_difference(pa, pb)
        return Answer(
            1,
            lambda: {"isomorphic": False, "passport_a": _passport_json(pa),
                     "passport_b": _passport_json(pb),
                     "first_difference": {"a": diff_a, "b": diff_b}},
            lambda: ("NOT ISOMORPHIC", f"first difference: {diff_a} vs {diff_b}"),
        )
    iso_map = build_isomorphism(left, right) if args.emit_map and pa.faithful else None

    def json_value() -> dict:
        payload = {"isomorphic": True, "passport": _passport_json(pa)}
        if iso_map is not None:
            payload["map"] = {
                "pieces": [{"piece": list(pc.piece.labels()), "rank": pc.rank,
                            "source_basis": [_vector_json(v) for v in pc.source_basis],
                            "target_basis": [_vector_json(v) for v in pc.target_basis]}
                           for pc in iso_map.pieces],
                "generator_images": [_vector_json(v) for v in iso_map.generator_images],
            }
        return payload

    def text() -> Iterator[str]:
        yield "ISOMORPHIC"
        if iso_map is not None:
            yield iso_map.render()
        elif args.emit_map:  # a text-only note, written after the verdict line
            print("map omitted: a rank-0 piece is present", file=sys.stderr)

    return Answer(0, json_value, text)


def _parse_piece(context: AtomSet, text: str) -> Idempotent:
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise ValidationError("piece needs at least one atom label")
    try:
        return context.subset(labels)
    except ValueError as exc:  # names the first unknown label, in text order
        raise ValidationError(str(exc)) from None


def cmd_basis(args: argparse.Namespace) -> Answer:
    gens = _load(args.file)
    piece = _parse_piece(gens.context, args.piece)
    rank = kappa(gens, piece)
    if rank is None:
        return Answer(
            1,
            lambda: {"homogeneous": False, "piece": list(piece.labels())},
            lambda: (f"NOT HOMOGENEOUS on piece={piece.render()}",),
        )
    basis = extract_basis(gens, piece, rank, args.strategy)

    def text() -> Iterator[str]:
        yield f"rank={rank}"
        for i, v in enumerate(basis):
            yield f"basis[{i}]={v.render()}"

    return Answer(
        0,
        lambda: {"homogeneous": True, "piece": list(piece.labels()), "rank": rank,
                 "basis": [_vector_json(v) for v in basis]},
        text,
    )


def cmd_member(args: argparse.Namespace) -> Answer:
    gens = _load(args.file)
    wrapper = _load(args.vector)
    if len(wrapper.gens) != 1:
        raise ValidationError("the vector file must contain exactly one generator")
    if not wrapper.same_algebra(gens) or wrapper.ambient_dim != gens.ambient_dim:
        raise ValidationError("vector and module use different fields, atoms or dimension")
    x = wrapper.gens[0]
    result = membership(x, gens, gens.context.full())
    if not result.contained:
        return Answer(
            1,
            lambda: {"member": False, "witness_atom": result.witness_atom},
            lambda: (f"NOT A MEMBER (witness atom {result.witness_atom})",),
        )
    coefficients = result.coefficients
    assert coefficients is not None

    def text() -> Iterator[str]:
        yield "MEMBER"
        for k, c in enumerate(coefficients):
            yield f"coeff[{k}]={c.render()}"

    return Answer(
        0,
        lambda: {"member": True,
                 "coefficients": [map(gens.field.render, c.values) for c in coefficients]},
        text,
    )


def cmd_verify(args: argparse.Namespace) -> Answer:
    from .verify import run_suite
    if args.cases < 1:
        raise ValidationError("cases must be at least 1")
    results = run_suite(args.seed, args.cases)

    def text() -> Iterator[str]:
        for r in results:
            if r.ok:
                yield f"{r.name}: {r.passed}/{r.cases} passed"
            else:
                yield f"{r.name}: FAILED at case {r.passed + 1} of {r.cases}"
                yield f"  reason: {r.failure}"
                yield "  counterexample:"
                for line in (r.counterexample or "").splitlines():
                    yield f"    {line}"

    return Answer(
        0 if all(r.ok for r in results) else 1,
        lambda: [{"name": r.name, "cases": r.cases, "passed": r.passed, "ok": r.ok,
                  "failure": r.failure, "counterexample": r.counterexample} for r in results],
        text,
    )


# gen draws at most this many scalars (atoms × ambient × gens): 16 × F_5 d = 65,536, n = m = 8
_GEN_SCALAR_LIMIT = 2**26


def cmd_gen(args: argparse.Namespace) -> Answer:
    from .randgen import default_labels, random_vector
    if args.atoms < 1 or args.ambient < 1 or args.gens < 1:
        raise ValidationError("atoms, ambient and gens must all be at least 1")
    scalars = args.atoms * args.ambient * args.gens
    if scalars > _GEN_SCALAR_LIMIT:
        raise ValidationError(
            f"input too large: atoms × ambient × gens = {scalars} exceeds {_GEN_SCALAR_LIMIT}")
    field = parse_field_spec(args.field)
    rng = SplitMix64(args.seed)
    context = AtomSet(default_labels(args.atoms))
    vectors = tuple(random_vector(field, context, args.ambient, rng) for _ in range(args.gens))
    return Answer(0, lambda: module_document(GeneratorSet(field, context, args.ambient, vectors)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmod",
        description="Classify finitely presented modules over atomic regular algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("passport", help="print the rank decomposition of a module file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_passport)

    p = sub.add_parser("iso", help="decide isomorphism of two module files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--emit-map", action="store_true", dest="emit_map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_iso)

    p = sub.add_parser("basis", help="extract a local basis on a piece")
    p.add_argument("file")
    p.add_argument("--piece", required=True, help="comma-separated atom labels")
    p.add_argument(
        "--strategy", choices=["first_fit", "last_fit"], default="first_fit"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_basis)

    p = sub.add_parser("member", help="test membership of a vector in a module")
    p.add_argument("file")
    p.add_argument("--vector", required=True, help="single-generator module file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_member)

    p = sub.add_parser("verify", help="run the randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("gen", help="emit a reproducible random module file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--ambient", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--field", required=True, help="fp:<prime> or rational")
    p.set_defaults(handler=cmd_gen, json=True)

    return parser


def _os_error_text(exc: OSError) -> str:
    """str(exc), with each file name through _quote: a long path is cut to a prefix."""
    if exc.filename is None:
        return str(exc)
    names = [_quote(name) for name in (exc.filename, exc.filename2) if name is not None]
    return f"[Errno {exc.errno}] {exc.strerror}: {' -> '.join(names)}"


def _write(answer: Answer, as_json: bool) -> int:
    """The one render point: the answer in the form asked for, then its exit code."""
    if as_json:
        _print_json(answer.json())
    else:
        for line in answer.text():
            print(line)
    return answer.code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _write(args.handler(args), args.json)
    except RegmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {_os_error_text(exc)}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:  # a traceback would exit 1, which reads as "no"
        print(f"error: internal error: {type(exc).__name__}: {_quote(str(exc))}", file=sys.stderr)
        return 2


def run() -> None:
    """The one process entry (`regmod`, `python -m regmod.cli`): exit with main()'s code.

    The process ends at once, so `gc.freeze()` spares finalization's collections a walk
    over the whole heap; stdout and stderr are still flushed, atexit handlers still run
    and the exit status is kept. Tests and library callers use main(), which never freezes.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
