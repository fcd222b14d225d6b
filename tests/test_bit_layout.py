"""One owner of the idempotent bit layout, and linear time at scale.

`regmod.boolean_core` alone knows that bit i of a mask is atom i: other
modules build a mask with `AtomSet.mask_of` and read one with
`Idempotent.selector`.  A mask accumulated one `1 << q` at a time costs O(d)
per atom, so the guard below rejects it anywhere in `src/regmod`, checked on
the syntax tree alone, in the style of `tests/test_dead_code.py`.  A single
`1 << i` (one atom, `full_mask`, `AtomSet.atoms`) is no accumulation.

The timing test reads both primitives, and `restrict` and `support` built on
them, at d = 2^14 and 2^18: linear time gives a ratio near 16, and a loop
that shifts the whole mask once per atom gives well over 100.  Building an
`Idempotent` checks its mask's range in constant time, whatever d.
"""

from __future__ import annotations

import ast
import random
import time
from pathlib import Path

import pytest

import regmod
from regmod import AlgebraElement, AtomSet, Idempotent, PrimeField
from regmod.randgen import default_labels

MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(regmod.__file__).parent.glob("*.py"))}


def _is_one_shift(node: ast.AST) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
            and isinstance(node.left, ast.Constant) and node.left.value == 1)


def _accumulations(tree: ast.Module) -> list[int]:
    """Lines of `sum(1 << …)`, `… |= 1 << …` and `… | (1 << …)`."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
                and node.args and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
                and _is_one_shift(node.args[0].elt)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
              and _is_one_shift(node.value)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
              and (_is_one_shift(node.left) or _is_one_shift(node.right))):
            lines.append(node.lineno)
    return lines


def test_no_mask_is_accumulated_one_bit_at_a_time():
    found = [f"{name}:{line}" for name, tree in MODULES.items() for line in _accumulations(tree)]
    assert found == []


@pytest.mark.parametrize("source, hits", [
    ("m = sum(1 << q for q in atoms)", 1),
    ("m = sum([1 << q for q in atoms])", 1),
    ("m |= 1 << q", 1),
    ("m = m | (1 << q)", 1),
    ("m = (1 << q) | m", 1),
    ("full = (1 << d) - 1\none = 1 << i\natoms = tuple(1 << i for i in range(d))", 0),
])
def test_the_guard_sees_each_accumulating_form(source, hits):
    assert len(_accumulations(ast.parse(source))) == hits


def _best_of(repeats, fn, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best


def _timings(d: int, repeats: int) -> dict[str, float]:
    rng = random.Random(d)
    context = AtomSet(default_labels(d))
    e = Idempotent(context, rng.getrandbits(d))
    indices = e.atom_indices()
    a = AlgebraElement(PrimeField(5), context, tuple(rng.randrange(5) for _ in range(d)))
    return {
        "atom_indices": _best_of(repeats, e.atom_indices),
        "mask_of": _best_of(repeats, context.mask_of, indices),
        "restrict": _best_of(repeats, a.restrict, e),
        "support": _best_of(repeats, a.support),
    }


def test_mask_primitives_scale_linearly_in_d():
    small, large = _timings(2**14, 7), _timings(2**18, 3)
    ratios = {name: large[name] / small[name] for name in small}
    assert all(ratio < 64 for ratio in ratios.values()), ratios


def test_idempotent_range_check_is_constant_in_d():
    # the check once built the d-bit `full_mask` per construction: a ratio of 14 here
    def construct(context, mask):
        for _ in range(2000):
            Idempotent(context, mask)

    def best(d):
        context = AtomSet(default_labels(d))
        return _best_of(5, construct, context, random.Random(d).getrandbits(d))

    small, large = best(2**12), best(2**18)
    assert large / small < 4, (small, large)
