"""Named randomized property suite behind the `verify` CLI command.

Each property owns four closures: generate an instance from a seeded
stream, check it (None = pass, message = fail), enumerate shrink candidates,
and describe it for a counterexample dump.  Failures are minimized by
greedily taking any shrink candidate that still fails, so the dump shows a
small instance rather than the first random hit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from .boolean_core import AtomSet, Idempotent, PartitionOfUnity
from .classification import (
    build_isomorphism,
    iso_check,
    is_strictly_homogeneous,
    kappa,
    passport,
)
from .errors import Record
from .fields import Field
from .module_file import render_module_file
from .module_space import (
    GeneratorSet,
    ModuleVector,
    combine,
    independence_test,
    membership,
    mix_vectors,
    split_product,
)
from .oracle import oracle_passport, oracle_verify_iso
from .randgen import (
    random_element,
    random_field,
    random_generator_set,
    random_vector,
    recombined_copy,
)
from .regular_algebra import AlgebraElement, mix_scalars
from .rng import SplitMix64

CONTEXT_MAX_ATOMS = 6  # atoms in a context drawn by _random_context
SHRINK_BUDGET = 200  # shrink candidates tried per failing case


class Property(Record):
    name: str
    generate: Callable[[SplitMix64], Any]
    check: Callable[[Any], Optional[str]]
    shrink: Callable[[Any], Iterable[Any]]
    describe: Callable[[Any], str]


class PropertyResult(Record):
    name: str
    cases: int
    passed: int
    failure: Optional[str]
    counterexample: Optional[str]

    @property
    def ok(self) -> bool:
        return self.failure is None


# ---------------------------------------------------------------------------
# Projections used for shrinking: keep a subset of atoms (or generators) and
# retry; any candidate that still fails replaces the instance.


def _project(instance: Any, keep: tuple[int, ...], context: AtomSet) -> Any:
    """Cut every element or generator set in instance to the atoms in keep."""
    if isinstance(instance, tuple):
        return tuple(_project(part, keep, context) for part in instance)
    if isinstance(instance, AlgebraElement):
        return AlgebraElement(instance.field, context, [instance.values[q] for q in keep])
    if isinstance(instance, GeneratorSet):
        projected = tuple(ModuleVector(_project(g.coords, keep, context)) for g in instance.gens)
        return GeneratorSet(instance.field, context, instance.ambient_dim, projected)


def _drop_atom(instance: Any) -> Iterable[Any]:
    """Each candidate drops one atom, in atom order; an instance of one atom has none."""
    labels = (instance[0] if isinstance(instance, tuple) else instance).context.labels
    if len(labels) <= 1:
        return
    for q in range(len(labels)):
        keep = tuple(i for i in range(len(labels)) if i != q)
        yield _project(instance, keep, AtomSet(tuple(labels[i] for i in keep)))


def _shrink_gens(gens: GeneratorSet) -> Iterable[GeneratorSet]:
    for k in range(len(gens)):
        yield GeneratorSet(
            gens.field, gens.context, gens.ambient_dim,
            gens.gens[:k] + gens.gens[k + 1:],
        )
    yield from _drop_atom(gens)


def _no_shrink(_instance: Any) -> Iterable[Any]:
    return ()


def _random_context(rng: SplitMix64) -> tuple[Field, AtomSet]:
    field = random_field(rng)
    d = 1 + rng.below(CONTEXT_MAX_ATOMS)
    return field, AtomSet(tuple(f"q{i + 1}" for i in range(d)))


def _random_partition(context: AtomSet, rng: SplitMix64) -> PartitionOfUnity:
    blocks = 1 + rng.below(min(3, len(context)))
    assignment = [rng.below(blocks) for _ in range(len(context))]
    masks: dict[int, int] = {}
    for q, b in enumerate(assignment):
        masks[b] = masks.get(b, 0) | (1 << q)
    pieces = tuple(Idempotent(context, masks[b]) for b in sorted(masks))
    return PartitionOfUnity(pieces)


def _describe_element(a: AlgebraElement) -> str:
    return f"field={a.field.describe()} atoms={list(a.context.labels)} a={a.render()}"


# ---------------------------------------------------------------------------
# The properties.


def _gen_one_element(rng: SplitMix64) -> AlgebraElement:
    field, context = _random_context(rng)
    return random_element(field, context, rng)


def _check_regularity(a: AlgebraElement) -> Optional[str]:
    inv = a.inversion()
    if a * a * inv != a:
        return "a²·i(a) ≠ a"
    if a * inv * inv != inv:
        return "a·i(a)² ≠ i(a)"
    if inv.inversion() != a:
        return "i(i(a)) ≠ a"
    g = AlgebraElement.from_idempotent(a.field, a.support())
    if g.inversion() != g:
        return "i(g) ≠ g on an idempotent"
    return None


def _gen_pair(rng: SplitMix64) -> tuple[AlgebraElement, AlgebraElement]:
    field, context = _random_context(rng)
    return random_element(field, context, rng), random_element(field, context, rng)


def _check_support_product(pair: tuple[AlgebraElement, AlgebraElement]) -> Optional[str]:
    a, b = pair
    if (a * b).support() != a.support().meet(b.support()):
        return "s(ab) ≠ s(a)∧s(b)"
    return None


def _describe_pair(pair) -> str:
    a, b = pair
    return f"{_describe_element(a)}\nb={b.render()}"


def _gen_disjoint_pair(rng: SplitMix64) -> tuple[AlgebraElement, AlgebraElement]:
    a, b = _gen_pair(rng)
    return a, b.restrict(a.support().complement())


def _check_disjoint_additivity(pair) -> Optional[str]:
    a, b = pair
    if not (a * b).is_zero:
        return "instance invalid: ab ≠ 0"
    if (a + b).inversion() != a.inversion() + b.inversion():
        return "i(a+b) ≠ i(a)+i(b) for disjoint a,b"
    if (a + b).support() != a.support().join(b.support()):
        return "s(a+b) ≠ s(a)∨s(b) for disjoint a,b"
    return None


def _gen_mix(rng: SplitMix64):
    field, context = _random_context(rng)
    p = _random_partition(context, rng)
    elements = [random_element(field, context, rng) for _ in p.pieces]
    return p, elements


def _check_mix(instance) -> Optional[str]:
    p, elements = instance
    mixed = mix_scalars(p, elements)
    for piece, a in zip(p.pieces, elements):
        if mixed.restrict(piece) != a.restrict(piece):
            return f"mix disagrees with component on {piece.render()}"
    again = mix_scalars(p, [mixed] * len(p.pieces))
    if again != mixed:
        return "mixing copies of an element changed it"
    return None


def _describe_mix(instance) -> str:
    p, elements = instance
    parts = " | ".join(a.render() for a in elements)
    return f"partition={[pc.render() for pc in p.pieces]} elements={parts}"


def _gen_step(rng: SplitMix64) -> AlgebraElement:
    field, context = _random_context(rng)
    return random_element(field, context, rng, zero_bias=2)


def _check_step(a: AlgebraElement) -> Optional[str]:
    form = a.step_form()
    if form.to_element(a.field, a.context) != a:
        return "step form did not reconstruct the element"
    return None


def _gen_membership(rng: SplitMix64) -> tuple[GeneratorSet, list[AlgebraElement]]:
    gens = random_generator_set(rng, max_atoms=8, max_gens=4, max_ambient=4)
    coeffs = [random_element(gens.field, gens.context, rng) for _ in gens.gens]
    return gens, coeffs


def _check_membership(instance) -> Optional[str]:
    gens, coeffs = instance
    if not gens.gens:
        return None
    x = combine(gens.gens, coeffs)
    result = membership(x, gens, gens.context.full())
    if not result.contained:
        return f"combination rejected at atom {result.witness_atom}"
    assert result.coefficients is not None
    if combine(gens.gens, result.coefficients) != x:
        return "returned coefficients do not reproduce the vector"
    return None


def _describe_membership(instance) -> str:
    gens, coeffs = instance
    parts = ", ".join(a.render() for a in coeffs)
    return f"{render_module_file(gens)}coefficients: {parts}"


def _gen_gens(rng: SplitMix64) -> GeneratorSet:
    return random_generator_set(rng, max_atoms=10, max_gens=5, max_ambient=5)


def _check_passport_oracle(gens: GeneratorSet) -> Optional[str]:
    engine = passport(gens)
    truth = oracle_passport(gens)
    if engine != truth:
        return f"engine says\n{engine.render()}\noracle says\n{truth.render()}"
    return None


def _gen_invariance(rng: SplitMix64) -> tuple[GeneratorSet, GeneratorSet]:
    gens = random_generator_set(rng, max_atoms=8, max_gens=4, max_ambient=4)
    return gens, recombined_copy(gens, rng, ops=4)


def _check_invariance(instance) -> Optional[str]:
    gens, other = instance
    if passport(gens).render() != passport(other).render():
        return "invertible generator operations changed the passport"
    return None


def _describe_gens_pair(instance) -> str:
    gens, other = instance
    return render_module_file(gens) + render_module_file(other)


def _check_iso(instance) -> Optional[str]:
    gens, other = instance
    if not iso_check(gens, other):
        return "recombined presentation failed iso_check"
    iso = build_isomorphism(gens, other)
    if not oracle_verify_iso(iso, gens, other):
        return "constructed map failed the fiberwise audit"
    return None


def _gen_independence(rng: SplitMix64):
    gens = random_generator_set(rng, max_atoms=8, max_gens=4, max_ambient=4)
    size = 1 + rng.below(len(gens) + 2)
    sample = []
    for _ in range(size):
        coeffs = [random_element(gens.field, gens.context, rng) for _ in gens.gens]
        if gens.gens:
            sample.append(combine(gens.gens, coeffs))
    mask = 1 + rng.below(gens.context.full_mask)
    return gens, sample, Idempotent(gens.context, mask)


def _check_independence(instance) -> Optional[str]:
    gens, sample, e = instance
    if not sample:
        return None
    subset = GeneratorSet(gens.field, gens.context, gens.ambient_dim, tuple(sample))
    if independence_test(subset, e) and len(sample) > len(gens):
        return f"independent family of size {len(sample)} exceeds |G| = {len(gens)}"
    return None


def _describe_independence(instance) -> str:
    gens, sample, e = instance
    vecs = "\n".join(v.render() for v in sample)
    return f"{render_module_file(gens)}piece: {e.render()}\nsampled combinations:\n{vecs}"


def _check_gluing(gens: GeneratorSet) -> Optional[str]:
    pp = passport(gens)
    for entry in pp.entries:
        if not is_strictly_homogeneous(gens, entry.piece):
            return f"passport piece {entry.piece.render()} is not strictly homogeneous"
        if entry.piece.count >= 2:
            indices = entry.piece.atom_indices()
            half = len(indices) // 2
            e1 = Idempotent(gens.context, sum(1 << q for q in indices[:half]))
            e2 = Idempotent(gens.context, sum(1 << q for q in indices[half:]))
            if kappa(gens, e1) != entry.rank or kappa(gens, e2) != entry.rank:
                return "kappa differs from the piece rank on a sub-idempotent"
            if kappa(gens, e1.join(e2)) != entry.rank:
                return "kappa not preserved under join of equal-rank pieces"
    return None


def _gen_split(rng: SplitMix64):
    field, context = _random_context(rng)
    n = 1 + rng.below(4)
    x = random_vector(field, context, n, rng)
    return x, _random_partition(context, rng)


def _check_split(instance) -> Optional[str]:
    x, p = instance
    if mix_vectors(p, split_product(x, p)) != x:
        return "split_product then mix_vectors changed the vector"
    return None


def _describe_split(instance) -> str:
    x, p = instance
    return f"x={x.render()} partition={[pc.render() for pc in p.pieces]}"


PROPERTIES: tuple[Property, ...] = (
    Property("regularity_identities", _gen_one_element, _check_regularity,
             _drop_atom, _describe_element),
    Property("support_of_products", _gen_pair, _check_support_product,
             _drop_atom, _describe_pair),
    Property("disjoint_inversion_additivity", _gen_disjoint_pair,
             _check_disjoint_additivity, _drop_atom, _describe_pair),
    Property("mixing_uniqueness", _gen_mix, _check_mix, _no_shrink, _describe_mix),
    Property("step_form_roundtrip", _gen_step, _check_step,
             _drop_atom, _describe_element),
    Property("membership_of_combinations", _gen_membership, _check_membership,
             _no_shrink, _describe_membership),
    Property("passport_matches_oracle", _gen_gens, _check_passport_oracle,
             _shrink_gens, render_module_file),
    Property("presentation_invariance", _gen_invariance, _check_invariance,
             _drop_atom, _describe_gens_pair),
    Property("isomorphism_construction", _gen_invariance, _check_iso,
             _drop_atom, _describe_gens_pair),
    Property("independence_bound", _gen_independence, _check_independence,
             _no_shrink, _describe_independence),
    Property("homogeneous_pieces_glue", _gen_gens, _check_gluing,
             _shrink_gens, render_module_file),
    Property("split_reassemble_roundtrip", _gen_split, _check_split,
             _no_shrink, _describe_split),
)


def _checked(prop: Property, instance: Any) -> Optional[str]:
    try:
        return prop.check(instance)
    except Exception as exc:  # a crash is a failing case, not a suite abort
        return f"exception: {exc!r}"


def _minimize(prop: Property, instance: Any, message: str) -> tuple[Any, str]:
    budget, improved = SHRINK_BUDGET, True
    while improved and budget > 0:
        improved = False
        for candidate in prop.shrink(instance):
            budget -= 1
            if budget <= 0:
                break
            result = _checked(prop, candidate)
            if result is not None:
                instance, message = candidate, result
                improved = True
                break
    return instance, message


def run_property(prop: Property, seed: int, cases: int) -> PropertyResult:
    stream = SplitMix64(seed)
    for i in range(cases):
        case_rng = stream.spawn()
        instance = prop.generate(case_rng)
        message = _checked(prop, instance)
        if message is not None:
            instance, message = _minimize(prop, instance, message)
            return PropertyResult(prop.name, cases, i, message, prop.describe(instance))
    return PropertyResult(prop.name, cases, cases, None, None)


def run_suite(seed: int, cases: int) -> list[PropertyResult]:
    base = SplitMix64(seed)
    seeds = [base.next64() for _ in PROPERTIES]
    return [run_property(p, s, cases) for p, s in zip(PROPERTIES, seeds)]
