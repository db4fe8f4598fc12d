"""Finitely presented C*-algebras at desk scale.

A presentation lists generators with dyadic norm bounds and *-polynomial
relations; a representation assigns matrices to the generators with the unit
mapped to the identity exactly.  Registered presentation families carry a
stability witness (a rounding procedure turning near-representations into
exact ones) together with a modulus table saying how small the relation
defect must be for a requested output distance.  On top of that sits a
certified lower-bound enumerator for universal norms of *-polynomials,
scanning a seeded representation catalog.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .dyadic import ceil_log2, is_dyadic
from .errors import HypothesisError, PreconditionError, UnsupportedPresentationError, integral
# op_norm is unused; perfbench's test_rebinding_is_undone checks it stays bound
from .operators import (DEFAULT_TOL, Tolerance, as_operator, dagger, op_norm,  # noqa: F401
                        op_norms)
from .polynomials import (CompiledPolynomials, NCPolynomial, compile_polynomials, generator,
                          lipschitz_bound)
from .rounding import (_check_exact, _check_moved, _isometry_cut, _refuse, isometry_defect,
                       round_to_projection, round_to_pvm, round_to_unitary,
                       stability_modulus)
from .sampling import _draw_ginibre, _haar_unitaries, _rank_projections, rng_from_seed


class _DefectTable(NamedTuple):
    """A presentation's relations compiled once, with its float norm bounds."""

    relations: CompiledPolynomials
    bounds: np.ndarray


@dataclass(frozen=True)
class Presentation:
    """Generators with nonnegative dyadic norm bounds plus *-polynomial relations."""

    generators: tuple
    relations: tuple
    unit_generator: str = "e"
    _table: _DefectTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gens = []
        seen = set()
        for name, bound in self.generators:
            if not isinstance(name, str) or not name.isidentifier():
                raise PreconditionError(f"invalid generator name {name!r}")
            if name in seen:
                raise PreconditionError(f"duplicate generator name {name!r}")
            seen.add(name)
            bound = Fraction(bound)
            if bound < 0 or not is_dyadic(bound):
                raise PreconditionError(
                    f"norm bound for {name!r} must be a nonnegative dyadic rational, got {bound}")
            if bound > sys.float_info.max:
                raise PreconditionError(f"norm bound for {name!r} is beyond float range")
            gens.append((name, bound))
        object.__setattr__(self, "generators", tuple(gens))
        if self.unit_generator not in seen:
            raise PreconditionError(
                f"unit generator {self.unit_generator!r} is not among the generators")
        rels = tuple(self.relations)
        for p in rels:
            if not isinstance(p, NCPolynomial):
                raise PreconditionError("relations must be NCPolynomial instances")
            stray = p.symbols() - seen
            if stray:
                raise PreconditionError(
                    f"relation mentions undeclared generators: {sorted(stray)}")
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "_table", _DefectTable(
            compile_polynomials(rels), np.array([float(bound) for _, bound in gens])))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    @property
    def bounds(self) -> dict[str, Fraction]:
        return dict(self.generators)


@dataclass(frozen=True, eq=False)
class Representation:
    """Matrix images for generators; the unit image is the identity exactly.

    Images and their mapping are read-only, so representations can be shared.
    """

    dim: int
    images: Mapping[str, np.ndarray]
    unit: str = "e"

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", integral(self.dim, "dim", 1))
        eye = np.eye(self.dim, dtype=np.complex128)
        fixed: dict[str, np.ndarray] = {}
        for name, img in dict(self.images).items():
            img = as_operator(img)
            if img.shape != (self.dim, self.dim):
                raise PreconditionError(
                    f"image of {name!r} has shape {img.shape}, expected {(self.dim, self.dim)}")
            img = img.copy()
            img.flags.writeable = False
            fixed[name] = img
        if self.unit in fixed:
            if not np.array_equal(fixed[self.unit], eye):
                raise PreconditionError(
                    f"unit generator {self.unit!r} must map to the identity exactly")
        else:
            eye.flags.writeable = False
            fixed[self.unit] = eye
        object.__setattr__(self, "images", MappingProxyType(fixed))


def eval_poly(p: NCPolynomial, rep: Representation) -> np.ndarray:
    """Substitute the representation's images into p (star = adjoint)."""
    return p.evaluate(rep.images, rep.dim)


# entries (footprint x items x dim^2) a stacked evaluation holds at most, the
# footprint being the matrices per item its table's evaluate allocates
_STACK_ENTRIES = 2 ** 14


def _below(values: np.ndarray, gate: Fraction | float) -> np.ndarray:
    """values < gate, exactly as Python compares each float with the gate.

    float(gate) is the float nearest the gate, so no float lies strictly
    between the two.
    """
    near = float(gate)
    return values <= near if near < gate else values < near


def _image_errors(pres: Presentation, dim: int, images: Mapping[str, np.ndarray],
                  count: int) -> list:
    """Per item of a stack, None or _screen's refusal on its images alone.

    That is a non-identity unit image, else a missing image, which refuses
    every item.
    """
    errors = [None] * count
    unit = images.get(pres.unit_generator)
    if unit is not None:
        _refuse(errors, ~(unit == np.eye(dim)).all(axis=(-2, -1)), lambda i: PreconditionError(
            f"unit generator {pres.unit_generator!r} must map to the identity exactly"))
    missing = [name for name in (pres.unit_generator, *pres.names) if name not in images]
    if missing:
        _refuse(errors, np.ones(count, bool), lambda i: PreconditionError(
            f"missing image for generator {missing[0]!r}"))
    return errors


def _relation_values(pres: Presentation, dim: int, images: Mapping[str, np.ndarray],
                     errors: list) -> np.ndarray:
    """A stack's relation values; refuses each item where one overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        relations = pres._table.relations.evaluate(images, dim, (len(errors),))
    _refuse(errors, ~np.isfinite(relations).all(axis=(0, 2, 3)), lambda i: PreconditionError(
        f"a relation overflows float range at dimension {dim}"))
    return relations


def _defects(pres: Presentation, dim: int, images: Mapping[str, np.ndarray],
             gate: Fraction | float = 0.0, relations: np.ndarray | None = None) -> np.ndarray:
    """Per item of a stack _screen admitted, its largest norm-bound excess or relation norm.

    The relation norms come from op_norms gated at gate, so <, <=, > and >=
    with gate decide as on the exact defect, and each value at or above
    gate/2 is exact; gate 0 gives every value exactly.  relations, when
    given, are the stack's relation values, which are then not evaluated.
    """
    generators = np.stack([images[name] for name in pres.names], axis=1)
    excess = (op_norms(generators) - pres._table.bounds).max(axis=1)
    if relations is None:
        relations = pres._table.relations.evaluate(images, dim, generators.shape[:1])
    return np.maximum(excess, op_norms(relations, gate).max(axis=0, initial=0.0))


def _screened_defect(pres: Presentation, rep: Representation, gate: Fraction | float) -> float:
    """rep's relation defect as _defects gives it at gate, after _screen raises its refusal.

    _defects takes the relation values _screen evaluated, if any.
    """
    images = {name: img[None] for name, img in rep.images.items()}
    held = []
    error, = _screen(pres, rep.dim, images, 1, held)
    if error is not None:
        raise error
    relations = held[0] if held else None
    return max(0.0, float(_defects(pres, rep.dim, images, gate, relations)[0]))


def relation_defect(pres: Presentation, rep: Representation) -> float:
    """max over relation norms and norm-bound excesses at rep.

    Zero exactly on representations; the unit must be imaged by the identity.
    _screen makes every refusal, and one _defects pass at no gate measures.
    """
    return _screened_defect(pres, rep, 0.0)


@dataclass(frozen=True)
class StabilityModulusTable:
    """Total monotone map n -> m: defect 2^-m guarantees distance below 2^-n."""

    presentation_id: str
    modulus: Callable[[int], int]

    def of(self, n: int) -> int:
        n = integral(n, "modulus argument", 0)
        m = self.modulus(n)
        if not isinstance(m, int) or m < 0:
            raise ArithmeticError(f"modulus table returned a non-natural value {m!r} at {n}")
        return m


# --- registered presentation families ------------------------------------

def _unital(names, relations) -> Presentation:
    """The unit "e" and the named generators, every norm bound 1, with the relations."""
    return Presentation(tuple((name, Fraction(1)) for name in ("e", *names)), tuple(relations))


def trivial_presentation() -> Presentation:
    """The scalar algebra: just the unit, no relations."""
    return _unital((), ())


def free_unitaries(n: int) -> Presentation:
    """n universal unitaries u1..un: uk* uk = uk uk* = 1, bounds 1."""
    names = [f"u{k}" for k in range(1, integral(n, "unitary count", 1) + 1)]
    e = generator("e")
    return _unital(names, [rel for u in map(generator, names)
                           for rel in (u.adjoint() * u - e, u * u.adjoint() - e)])


def projections_presentation(n: int) -> Presentation:
    """n universal projections p1..pn: pk = pk* = pk^2, bounds 1."""
    names = [f"p{k}" for k in range(1, integral(n, "projection count", 1) + 1)]
    return _unital(names, [rel for p in map(generator, names)
                           for rel in (p * p - p, p.adjoint() - p)])


def matrix_units(k: int) -> Presentation:
    """The k x k matrix-unit presentation of M_k.

    Generators e{i}{j} with e{i}{j}* = e{j}{i}, e{i}{j} e{l}{m} = [j = l] e{i}{m}
    and sum of diagonal units equal to the unit.  Single-digit indices keep
    names unambiguous, so k is capped at 9 (far beyond desk scale already).
    """
    k = integral(k, "matrix-unit size", 1, 9)
    index = range(1, k + 1)
    units = {(i, j): generator(f"e{i}{j}") for i in index for j in index}
    rels = [sum((units[i, i] for i in range(2, k + 1)), units[1, 1]) - generator("e")]
    for i in index:
        for j in index:
            rels.append(units[i, j].adjoint() - units[j, i])
            for l in index:
                for m in index:
                    prod = units[i, j] * units[l, m]
                    rels.append(prod - units[i, m] if j == l else prod)
    return _unital([f"e{i}{j}" for i, j in units], rels)


def cuntz(n: int) -> Presentation:
    """Cuntz relations: sk* sk = 1 and the range projections sum to 1.

    Constructible for defect evaluation only; deliberately not registered
    for stability witnesses (no finite-dimensional representations exist).
    """
    names = [f"s{k}" for k in range(1, integral(n, "isometry count", 2) + 1)]
    s = [generator(name) for name in names]
    e = generator("e")
    ranges = sum((t * t.adjoint() for t in s[1:]), s[0] * s[0].adjoint())
    return _unital(names, [t.adjoint() * t - e for t in s] + [ranges - e])


def toeplitz() -> Presentation:
    """A single proper isometry: s* s = 1 (and nothing about s s*)."""
    s = generator("s")
    return _unital(["s"], [s.adjoint() * s - generator("e")])


class RegisteredFamily(NamedTuple):
    """Everything a registered id means, down to its catalog supply.

    A catalog round yields `canonical`, then seeded draws.  draw(rng, dim)
    takes one item's random numbers from the generator and returns the
    item's dimension and those numbers as a tuple of arrays, raw, as the
    samplers' draws are (each Ginibre matrix by sampling._draw_ginibre).
    finish(*stacks) turns the draws of one dimension, each array stacked on
    a new first axis, into one (L, d, d) image stack per non-unit generator;
    _haar_unitaries forms the Ginibre matrices of the whole stack at once.
    """

    presentation: Presentation
    table: StabilityModulusTable
    witness: Callable[[Presentation, Representation, float, Tolerance], Representation]
    canonical: tuple[Representation, ...]
    draw: Callable[[np.random.Generator, int], tuple[int, tuple]]
    finish: Callable[..., dict[str, np.ndarray]]


# generator count of matrix_units:9, the largest registered family
_MAX_GENERATORS = 81


@cache
def registered_presentation(pres_id: str) -> RegisteredFamily:
    """Look up a registered family by id, built once per id and process.

    Ids: "trivial", "free_unitaries:N", "projections:N" (N <= 81),
    "matrix_units:K" (K <= 9).  Cuntz and Toeplitz presentations are
    constructible but unregistered: they have no finite-dimensional
    representations to round to.
    """
    head, _, tail = pres_id.partition(":")
    # a tail too long for int() to parse is past every cap anyway
    size = int(tail) if tail.isdecimal() and len(tail) < 100 else None
    if head in ("free_unitaries", "projections") and size is not None and size > _MAX_GENERATORS:
        raise UnsupportedPresentationError(
            f"presentation id {pres_id!r} asks for {size} generators, "
            f"above the supported {_MAX_GENERATORS}")
    if head == "trivial" and not tail:
        return RegisteredFamily(
            trivial_presentation(), StabilityModulusTable(pres_id, lambda n: 0),
            lambda pres, rep, eps, tol: Representation(rep.dim, {}, unit=pres.unit_generator),
            (Representation(1, {}),), lambda rng, dim: (dim, ()), lambda: {})
    # the lambdas look the rounding and sampling functions up at call time,
    # so a rebinding of those module attributes reaches the cached rows too
    if head == "free_unitaries" and size is not None:
        return _one_by_one(free_unitaries(size), pres_id, "unitary",
                           lambda a, eps, tol: round_to_unitary(a, eps, tol),
                           lambda rng, dim: (_draw_ginibre(rng, dim),),
                           lambda g: _haar_unitaries(g), (1.0, -1.0))
    if head == "projections" and size is not None:
        return _one_by_one(projections_presentation(size), pres_id, "projection",
                           lambda a, eps, tol: round_to_projection(a, eps, tol),
                           lambda rng, dim: (int(rng.integers(0, dim + 1)),
                                             _draw_ginibre(rng, dim)),
                           lambda ranks, g: _rank_projections(_haar_unitaries(g), ranks),
                           (0.0, 1.0))
    if head == "matrix_units" and size is not None:
        return RegisteredFamily(
            matrix_units(size), StabilityModulusTable(pres_id, _matrix_units_modulus),
            partial(_witness_matrix_units, size),
            (Representation(size, _exact_matrix_unit_images(size, size)),),
            partial(_draw_matrix_units, size),
            lambda g: _exact_matrix_unit_images(size, g.shape[-1], _haar_unitaries(g)))
    raise UnsupportedPresentationError(
        f"presentation id {pres_id!r} has no registered stability witness")


def _one_by_one(pres: Presentation, pres_id: str, kind: str, round_one, draw_one, finish_one,
                values: tuple[float, float]) -> RegisteredFamily:
    """Row of a family whose non-unit generators are rounded and drawn one at a time.

    round_one is the `kind` rounder, so the modulus table maps n to m with
    2^-m = stability_modulus(kind, 2^-n): the relation defect bounds each
    generator's rounding defect.  draw_one(rng, dim) draws one generator's
    random numbers as a tuple, and finish_one maps those numbers, stacked on
    leading axes, to the generator's images.  The canonical representations
    image every generator by the same scalar.
    """
    names = tuple(name for name in pres.names if name != pres.unit_generator)
    table = StabilityModulusTable(
        pres_id, lambda n: -ceil_log2(stability_modulus(kind, Fraction(1, 2 ** n))))

    def witness(pres, rep, eps, tol):
        images = {name: round_one(rep.images[name], eps, tol)[0] for name in names}
        return Representation(rep.dim, images, unit=pres.unit_generator)

    def draw(rng, dim):
        return dim, tuple(map(np.array, zip(*(draw_one(rng, dim) for _ in names))))

    def finish(*stacks):
        images = finish_one(*stacks)
        return {name: images[:, g] for g, name in enumerate(names)}

    canonical = tuple(Representation(1, {name: np.array([[value]]) for name in names})
                      for value in values)
    return RegisteredFamily(pres, table, witness, canonical, draw, finish)


def _matrix_units_modulus(n: int) -> int:
    # floor 10 keeps the diagonal family inside the PVM rounding entry gate;
    # the n + 4 branch leaves a 2^4 budget for product-relation amplification
    return max(10, n + 4)


_ISOMETRY_ENTRY_GATE = 1.0 / 16.0


def _matrix_unit_isometry(a, p1, p2, tol: Tolerance) -> np.ndarray:
    """Round a to a partial isometry with support p1 and range p2, exactly.

    For inputs this close to matrix units, b = p2 a p1 has b^H b spectrum
    {0} on the complement of ran(p1) and clustered at 1 on it, so the cut
    at 1/2 yields w with w^H w = p1 and w w^H = p2 at float accuracy.
    """
    defect = isometry_defect(a, p1, p2)
    if defect > _ISOMETRY_ENTRY_GATE:
        raise HypothesisError("input too far from a partial isometry between the corners",
                              defect=defect, bound=_ISOMETRY_ENTRY_GATE)
    w = _isometry_cut(a, p1, p2, 0.5, tol)
    _check_exact(isometry_defect(w, p1, p2), tol)
    return w


def _witness_matrix_units(k, pres, rep, eps, tol):
    diag, _ = round_to_pvm([rep.images[f"e{i}{i}"] for i in range(1, k + 1)], tol)
    v = {1: diag[0]}
    for i in range(2, k + 1):
        v[i] = _matrix_unit_isometry(rep.images[f"e{i}1"], diag[0], diag[i - 1], tol)
    images = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            images[f"e{i}{j}"] = v[i] @ dagger(v[j])
    return Representation(rep.dim, images, unit=pres.unit_generator)


def _exact_matrix_unit_images(k: int, dim: int, u: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """e{i}{j} as E_ij (x) 1 on dim = k * (dim // k), conjugated by u when given.

    A (..., dim, dim) stack of unitaries gives a (..., dim, dim) stack per unit.
    With v = u, or the identity when u is None, v (E_ij (x) 1) is v's column
    block i moved to column block j, zeros elsewhere.  So the units are
    placed, not multiplied, and conjugation is one (k^2 dim x dim) product
    with u^H per item; its bytes are those of u @ (E_ij (x) 1) @ u^H.
    """
    reps = dim // k
    full = k * reps
    v = np.eye(full, dtype=np.complex128) if u is None else u
    lead = v.shape[:-2]
    # axes (..., i, j, row, column block, column in block)
    placed = np.zeros((*lead, k, k, full, k, reps), dtype=np.complex128)
    blocks = np.moveaxis(v.reshape(*lead, full, k, reps), -2, -3)
    for j in range(k):
        placed[..., j, :, j, :] = blocks
    imgs = placed.reshape(*lead, k * k * full, full)
    if u is not None:
        imgs = imgs @ dagger(u)
    names = [f"e{i}{j}" for i, j in itertools.product(range(1, k + 1), repeat=2)]
    return dict(zip(names, np.moveaxis(imgs.reshape(*lead, k * k, full, full), -3, 0)))


def _draw_matrix_units(k: int, rng, dim: int) -> tuple[int, tuple]:
    """The largest multiple of k up to dim (at least k), and a draw to rotate matrix units by."""
    full = max(1, dim // k) * k
    return full, (_draw_ginibre(rng, full),)


def stability_witness(pres_id: str, rep: Representation, eps: float,
                      tol: Tolerance = DEFAULT_TOL) -> Representation:
    """Round a near-representation of a registered family to an exact one.

    The relation defect must not exceed 2^-m for m = table(n), where 2^-n is
    the largest dyadic target at or below eps; the output is an exact
    representation (defect at float scale) within eps of the input.  _screen
    makes every refusal, and one _defects pass decides each gate: at 2^-m for
    the input, whose HypothesisError carries that pass's value (exact above
    the gate), and at tol.algebraic for the output.
    """
    family = registered_presentation(pres_id)
    if not 0 < eps < math.inf:
        raise PreconditionError(f"eps must be positive and finite, got {eps}")
    n = max(1, ceil_log2(1 / Fraction(eps)))
    m = family.table.of(n)
    gate = Fraction(1, 2 ** m)
    pres = family.presentation
    defect = _screened_defect(pres, rep, gate)
    if defect > gate:
        raise HypothesisError(
            f"relation defect too large for target 2^-{n} under {pres_id}",
            defect=defect, bound=float(gate))
    out = family.witness(pres, rep, 2.0 ** -n, tol)
    _check_exact(_screened_defect(pres, out, tol.algebraic), tol)
    moves = np.array([out.images[name] - rep.images[name]
                      for name in pres.names if name in rep.images],
                     dtype=np.complex128).reshape(-1, rep.dim, rep.dim)
    _check_moved(float(op_norms(moves).max(initial=0.0)), eps)
    return out


def combine_moduli(kind: str, base: StabilityModulusTable, size: int) -> StabilityModulusTable:
    """Modulus table for a direct sum of `size` copies or an M_size amplification.

    Conservative by design: the summand/inner algebra is rounded at a
    shifted index and the block bookkeeping (unit projections of summands,
    matrix units of the amplification) adds its own rounding budget.
    """
    size = integral(size, "size", 1)
    pad = (size - 1).bit_length()
    label = f"{kind}({base.presentation_id},{size})"
    if kind == "direct_sum":
        return StabilityModulusTable(
            label, lambda n: max(base.of(n + 2), n + 4 + pad))
    if kind == "matrix_amplification":
        shift = 2 * pad + 4
        if size == 1:
            return StabilityModulusTable(label, lambda n: base.of(n + shift))
        return StabilityModulusTable(
            label, lambda n: max(base.of(n + shift), _matrix_units_modulus(n)))
    raise PreconditionError(f"unknown combinator kind {kind!r}")


# --- representation catalog and norm enumeration -------------------------

def _subseed(seed, pres_id: str, round_index: int) -> tuple[int, int, int]:
    digest = hashlib.sha256(pres_id.encode()).digest()
    return (int(seed), int(round_index), int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class RepresentationCatalog:
    """Seeded, reproducible supply of representations for registered families.

    Every round yields the family's canonical representations (so sharp
    finite-dimensional witnesses are never missed) followed by `per_round`
    random ones cycling through `dims`.
    """

    dims: tuple = tuple(range(1, 17))
    per_round: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        dims = tuple(integral(d, "dims entries", 1) for d in self.dims)
        if not dims:
            raise PreconditionError("dims must be nonempty")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "per_round", integral(self.per_round, "per_round", 0))
        object.__setattr__(self, "seed", integral(self.seed, "seed", 0))

    def batch(self, pres_id: str, round_index: int) -> list[Representation]:
        """Deterministic list of candidate representations for one round."""
        canonical = registered_presentation(pres_id).canonical
        reps = list(canonical) + [None] * self.per_round
        for block in self._round(pres_id, round_index, len(reps)):
            for row, at in enumerate(block.at):
                if at >= len(canonical):
                    reps[at] = Representation(
                        block.dim, {name: img[row] for name, img in block.images.items()})
        return reps

    def _round(self, pres_id: str, round_index: int, count: int) -> list[_Block]:
        """The round's first `count` items, one block per dimension.

        Every item is drawn, in catalog order, before any is finished; the
        draws of one dimension are then finished as one stack.  Blocks come
        in the order their dimensions first appear.
        """
        family = registered_presentation(pres_id)
        head = family.canonical[:count]
        rng = rng_from_seed(_subseed(self.seed, pres_id, round_index))
        drawn = [family.draw(rng, self.dims[i % len(self.dims)])
                 for i in range(count - len(head))]
        dims = [rep.dim for rep in head] + [dim for dim, _ in drawn]
        unit = family.presentation.unit_generator
        names = [name for name in family.presentation.names if name != unit]
        blocks = []
        for dim in dict.fromkeys(dims):
            at = [i for i, d in enumerate(dims) if d == dim]
            stacks = {name: [head[i].images[name][None] for i in at if i < len(head)]
                      for name in names}
            parts = [drawn[i - len(head)][1] for i in at if i >= len(head)]
            if parts:
                for name, stack in family.finish(*map(np.array, zip(*parts))).items():
                    stacks[name].append(stack)
            images = {name: np.concatenate(stack) for name, stack in stacks.items()}
            images[unit] = np.broadcast_to(np.eye(dim, dtype=np.complex128), (len(at), dim, dim))
            blocks.append(_Block(dim, at, images))
        return blocks


class _Block(NamedTuple):
    """The items of one catalog round that share a dimension.

    at lists their positions in the round, increasing; images holds one
    (len(at), dim, dim) stack per generator, the unit's last.
    """

    dim: int
    at: list[int]
    images: dict[str, np.ndarray]


def _stacks(block: _Block, table: CompiledPolynomials,
            rows: list | None = None) -> Iterator[tuple[list, dict]]:
    """(catalog positions, images) of block's items at rows, in stacks whose
    evaluation of table holds at most _STACK_ENTRIES entries, or one item.

    rows None takes every item, and its stacks are views.
    """
    step = max(1, _STACK_ENTRIES // (table.footprint * block.dim ** 2))
    for start in range(0, len(block.at) if rows is None else len(rows), step):
        cut = slice(start, start + step) if rows is None else rows[start:start + step]
        yield (np.asarray(block.at)[cut].tolist(),
               {name: img[cut] for name, img in block.images.items()})


def _screen(pres: Presentation, dim: int, images: Mapping[str, np.ndarray],
            count: int, values: list | None = None) -> list:
    """Per item of a stack, None or the error relation_defect raises on it.

    Every refusal is made here: _image_errors, then, at the items whose
    relations in_range cannot clear only, _relation_values in _stacks of
    the relation table.  values, when given, receives each such stack's
    relation values in turn; a stack of one item gets one or none.
    """
    errors = _image_errors(pres, dim, images, count)
    if None not in errors:
        return errors
    rows = np.flatnonzero(~pres._table.relations.in_range(images, (count,)))
    for at, stack in _stacks(_Block(dim, list(range(count)), images), pres._table.relations, rows):
        held = [errors[i] for i in at]
        relations = _relation_values(pres, dim, stack, held)
        if values is not None:
            values.append(relations)
        for i, error in zip(at, held):
            errors[i] = error
    return errors


def _q_norms(q: CompiledPolynomials, dim: int, images: Mapping[str, np.ndarray],
             rows: np.ndarray) -> np.ndarray:
    """|q| at the items of a stack that rows flags: inf where q's value overflows, NaN elsewhere."""
    norms = np.full(len(rows), np.nan)
    if rows.any():
        with np.errstate(over="ignore", invalid="ignore"):
            image = q.evaluate({name: images[name][rows] for name in q.names},
                               dim, (int(rows.sum()),))[0]
        finite = np.isfinite(image).all(axis=(-2, -1))
        values = np.full(len(image), np.inf)
        values[finite] = op_norms(image[finite])
        norms[rows] = values
    return norms


def norm_lower_enumerate(pres: Presentation, q: NCPolynomial,
                         catalog: RepresentationCatalog, pres_id: str,
                         budget: int) -> Iterator[Fraction]:
    """Yield an increasing stream of certified dyadic lower bounds for |q|.

    Round j targets accuracy 2^-j: the continuity radius n(j) makes any
    generator perturbation below 2^-n move |q| by less than 2^-j, so a
    catalog representation with relation defect below 2^-m(n), m the modulus
    table of the registered family `pres_id`, can be repaired into an exact
    one while moving |q(rep)| by less than 2^-j.
    The emitted value is the largest multiple of 2^-(j+4) at or below
    |q(rep)| - 2^-j that beats all previous outputs.  The budget counts
    catalog representations examined; exhausting it ends the stream.

    A round is drawn only as far as the budget reaches.  Per dimension, in
    _stacks of q's table, every item gets the checks of _screen and |q|.
    A walk in catalog order then gates only record candidates, the items
    whose value would beat the last emission, since no other item can emit
    whatever its gate says.  It gates them in windows of 1, 2, 4, ...
    candidates, and the width restarts at one after each emission.
    Emissions and the first error come out as from one representation at
    a time.
    """
    family = registered_presentation(pres_id)
    budget = integral(budget, "budget", 0)
    stray = q.symbols() - set(pres.names)
    if stray:
        raise PreconditionError(f"q mentions undeclared generators: {sorted(stray)}")
    lip = lipschitz_bound(q, pres.bounds)
    pad = max(0, ceil_log2(lip)) if lip > 0 else 0
    q_table = compile_polynomials((q,))
    size = len(family.canonical) + catalog.per_round
    best: Fraction | None = None
    examined = 0
    width = 1
    for j in itertools.count():
        if examined >= budget:
            return
        gate = Fraction(1, 2 ** family.table.of(j + pad + 1))
        grid = 2 ** (j + 4)
        count = min(size, budget - examined)
        blocks = catalog._round(pres_id, j, count)
        norms = np.empty(count)
        errors = [None] * count
        for block in blocks:
            for at, images in _stacks(block, q_table):
                refused = _screen(pres, block.dim, images, len(at))
                norms[at] = _q_norms(q_table, block.dim, images, np.equal(refused, None))
                for i, error in zip(at, refused):
                    errors[i] = error
        stop = next((i for i, error in enumerate(errors) if error is not None), count)
        values = norms.tolist()
        start = 0
        while True:
            # d > best exactly when value reaches best + 1/grid + 2^-j
            bar = Fraction(1 if best is None else best * grid + 1, grid)
            beat = start + np.flatnonzero(~_below(norms[start:stop], bar + Fraction(1, 2 ** j)))
            if not len(beat):
                break
            window = beat[:width].tolist()
            passed = _gated(pres, blocks, set(window), gate)
            width *= 2
            for i in window:
                if i not in passed:
                    continue
                if math.isinf(values[i]):
                    dim = next(block.dim for block in blocks if i in block.at)
                    raise PreconditionError(f"|q| overflows float range at dimension {dim}")
                # exact: a float value - 2^-j drops 2^-j below an ulp, and * grid may overflow
                d = Fraction(math.floor((Fraction(values[i]) - Fraction(1, 2 ** j)) * grid), grid)
                if d > 0 and (best is None or d > best):
                    best, width = d, 1
                    yield d
            start = window[-1] + 1
        if stop < count:
            raise errors[stop]
        examined += count


def _gated(pres: Presentation, blocks: list[_Block], window: set, gate: Fraction) -> set:
    """The catalog positions in window whose relation_defect lies below gate.

    Each block's items in window are gated together, in _stacks of the relation table.
    """
    passed = set()
    for block in blocks:
        rows = [row for row, i in enumerate(block.at) if i in window]
        for at, images in _stacks(block, pres._table.relations, rows):
            flags = _below(_defects(pres, block.dim, images, gate), gate)
            passed.update(np.asarray(at)[flags].tolist())
    return passed
