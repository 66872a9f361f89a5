"""A finite window model of the bounded derived category of mod H.

Indecomposables are pairs (module vertex, shift).  The translation quiver
structure on the window glues shifted copies of the module AR-quiver with
connecting arrows I(j)[t] -> P(i)[t+1] for every quiver arrow j -> i (over a
hereditary algebra rad P(j) is the sum of those P(i), which is exactly what
the connecting meshes need).

Hom dimensions never require the window: for equal shifts they come from
the module-level hammock, for a shift gap of one from the AR formula
Ext^1(X,Y) = D Hom(Y, tau X), and they vanish otherwise.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .arquiver import ARQuiver, ARVertex, knit_module_category
from .errors import InternalCheckError, WindowOverflow
from .quiver import Quiver, make_quiver


class DVertex:
    """An indecomposable object of the derived category: module[shift].

    Interned: `DVertex(module, shift)` returns the one instance for that pair,
    kept in `module.shifts`, so equality is identity and the hash is the
    identity hash.  Instances are immutable.
    """

    __slots__ = ("module", "shift")

    module: ARVertex
    shift: int

    def __new__(cls, module: ARVertex, shift: int) -> "DVertex":
        v = module.shifts.get(shift)
        if v is None:
            v = object.__new__(cls)
            object.__setattr__(v, "module", module)
            object.__setattr__(v, "shift", shift)
            module.shifts[shift] = v
        return v

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned DVertex")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an interned DVertex")
    def name(self) -> str:
        return f"{self.module.name}[{self.shift}]"

    def __repr__(self):
        return self.name()


@dataclass(frozen=True)
class DObject:
    """A finite multiset of DVertex summands."""

    summands: tuple[tuple[DVertex, int], ...]

    @staticmethod
    def of(vertices) -> "DObject":
        counts: dict[DVertex, int] = {}
        for v in vertices:
            counts[v] = counts.get(v, 0) + 1
        items = sorted(counts.items(), key=lambda it: _vkey(it[0]))
        return DObject(tuple(items))

    def total(self) -> int:
        return sum(m for _, m in self.summands)

    def name(self) -> str:
        if not self.summands:
            return "0"
        parts = []
        for v, m in self.summands:
            parts.extend([v.name()] * m)
        return " + ".join(parts)


def default_window(m: int) -> tuple[int, int]:
    """The shift window of every model over m: degrees -3 to 2m + 2.

    Normalised summands sit in degrees <= m - 1 and their G-images in
    degrees <= 2m; localised images sit in degrees <= m and their G-images
    in degrees <= 2m + 1; project_to_D0 needs one degree above its input.
    The search for a normalising slice starts at the lower end, so -3 fixes
    which normalised world is chosen.
    """
    return (-3, 2 * m + 2)


def _vkey(v: DVertex):
    return (v.shift, v.module.slice_index, v.module.name)


@dataclass(frozen=True)
class ProjectiveAlgebra:
    """A hereditary algebra given by window objects as its projectives, with
    its own window model; `projectives[i]` is P(quiver.labels[i]).  It holds
    no reference to the model whose objects those are, which caches it."""

    quiver: Quiver
    model: "DerivedModel"
    projectives: tuple[DVertex, ...]


class DerivedModel:
    """The window model: AR-quiver of mod H, a value of m, and the shift
    window that m fixes."""

    def __init__(self, ar: ARQuiver, m: int):
        if m < 1:
            raise ValueError("m must be at least 1")
        self.ar = ar
        self.quiver = ar.quiver
        self.m = m
        self.window = default_window(m)
        lo, hi = self.window
        self.vertices: list[DVertex] = sorted(
            (DVertex(v, t) for t in range(lo, hi + 1) for v in ar.vertices),
            key=_vkey,
        )
        self._vset = set(self.vertices)
        self.out: dict[DVertex, list[DVertex]] = {v: [] for v in self.vertices}
        self.inn: dict[DVertex, list[DVertex]] = {v: [] for v in self.vertices}
        for t in range(lo, hi + 1):
            for src, dst in ar.arrows:
                self._add_arrow(DVertex(src, t), DVertex(dst, t))
            if t + 1 <= hi:
                for j, iv in ar.injectives.items():
                    for w in ar.inn[ar.projectives[j]]:
                        self._add_arrow(DVertex(iv, t), DVertex(w, t + 1))
        for v in self.vertices:
            self.out[v].sort(key=_vkey)
            self.inn[v].sort(key=_vkey)
        for z in self.vertices:
            tz = self.tau_raw(z)
            if tz in self._vset and set(self.inn[z]) != set(self.out[tz]):
                raise InternalCheckError(f"mesh mismatch at {z}")
        self._mesh_cat = None
        self._algebras: dict[tuple[DVertex, ...], ProjectiveAlgebra] = {}
        # one window model per quiver for this model and all models built from
        # it, which share this dict; weak values, because a model's cached
        # perpendicular data reaches the family and must not keep it alive
        self._family: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def mesh_category(self):
        if self._mesh_cat is None:
            from .meshcat import MeshCategory

            self._mesh_cat = MeshCategory(self)
        return self._mesh_cat

    def algebra_of_projectives(self, reps) -> ProjectiveAlgebra:
        """The hereditary algebra H0 whose projectives are the Hom-directed
        bricks reps (a slice, or the projectives of a perpendicular category).

        In _vkey order reps[a] becomes P(a+1).  The Cartan matrix
        C[a][b] = dim Hom(P(b), P(a)) counts paths a -> b, and is
        unitriangular by directedness; H0 is hereditary, so its arrow matrix
        is I - C^-1, found row by row by forward substitution.  Algebras with
        equal quivers share one window model across the family of this model.
        """
        reps = tuple(sorted(reps, key=_vkey))
        hit = self._algebras.get(reps)
        if hit is not None:
            return hit
        k = len(reps)
        # zero-padded so that the lexicographic Quiver.labels order is reps order
        labels = [str(a + 1).zfill(len(str(k))) for a in range(k)]
        inv: list[list[int]] = []  # rows of C^-1
        arrows = []
        for a, pa in enumerate(reps):
            row = [self.hom(pb, pa) for pb in reps]
            if row[a] != 1 or any(row[a + 1:]):
                raise InternalCheckError(f"Cartan matrix of {reps} is not unitriangular")
            inv.append(
                [(a == b) - sum(row[c] * inv[c][b] for c in range(a)) for b in range(k)]
            )
            counts = [(a == b) - x for b, x in enumerate(inv[a])]
            if min(counts) < 0:
                raise InternalCheckError(f"I - C^-1 has a negative entry for {reps}")
            for b, count in enumerate(counts):
                arrows += [(labels[a], labels[b])] * count
        q = make_quiver(labels, arrows, connected=False)
        model = self._family.get(q)
        if model is None:
            model = DerivedModel(knit_module_category(q), self.m)
            model._family = self._family
            self._family[q] = model
        alg = ProjectiveAlgebra(q, model, reps)
        self._algebras[reps] = alg
        return alg

    def module_over(self, alg: ProjectiveAlgebra, u: DVertex) -> ARVertex:
        """The module over alg, an algebra of projectives of this model, with
        dimension vector Hom(P, u)."""
        dim = tuple(self.hom(p, u) for p in alg.projectives)
        if dim not in alg.model.ar.by_dim:
            raise InternalCheckError(f"no module has dimension vector Hom(P, {u}) = {dim}")
        return alg.model.ar.by_dim[dim]

    def _add_arrow(self, a: DVertex, b: DVertex):
        self.out[a].append(b)
        self.inn[b].append(a)

    def contains(self, x: DVertex) -> bool:
        return x in self._vset

    # --- functors ---------------------------------------------------------

    def tau_raw(self, x: DVertex) -> DVertex:
        """tau of the derived category, window-unchecked."""
        if x.module.projective_of is not None:
            return DVertex(self.ar.injectives[x.module.projective_of], x.shift - 1)
        return DVertex(self.ar.tau[x.module], x.shift)

    def tau_inv_raw(self, x: DVertex) -> DVertex:
        if x.module.injective_of is not None:
            return DVertex(self.ar.projectives[x.module.injective_of], x.shift + 1)
        return DVertex(self.ar.tau_inv[x.module], x.shift)

    def g_raw(self, x: DVertex, t: int = 1) -> DVertex:
        """G^t where G = tau^{-1} [m], window-unchecked."""
        y = x
        for _ in range(t):
            y = self.tau_inv_raw(y)
            y = DVertex(y.module, y.shift + self.m)
        for _ in range(-t):
            y = DVertex(y.module, y.shift - self.m)
            y = self.tau_raw(y)
        return y

    def g(self, x: DVertex) -> DVertex:
        y = self.g_raw(x)
        if y not in self._vset:
            raise WindowOverflow(f"{y} is outside the shift window {self.window}")
        return y

    # --- Hom dimensions ----------------------------------------------------

    def hom(self, x: DVertex, y: DVertex) -> int:
        """dim Hom_D(x, y); nonzero only when deg y is deg x or deg x + 1."""
        gap = y.shift - x.shift
        if gap == 0:
            return self.ar.hom(x.module, y.module)
        if gap == 1:
            return self.ar.ext(x.module, y.module)
        return 0

    def hom_orbit(self, x: DVertex, y: DVertex, k: int) -> int:
        """dim of the orbit-category Hom: sum over t of Hom_D(x, G^t(y)[k]).

        Only t in {-1, 0, 1} can contribute; the t = +-2 ends of the scan are
        recomputed and asserted to vanish so that a modeling error is loud.
        """
        if not 0 <= k <= self.m:
            raise ValueError(f"k must be in [0, {self.m}]")
        total = 0
        for t in range(-2, 3):
            z = self.g_raw(y, t)
            z = DVertex(z.module, z.shift + k)
            term = self.hom(x, z)
            if term and abs(t) == 2:
                raise InternalCheckError(
                    f"orbit term t={t} is nonzero for ({x}, {y}, k={k})"
                )
            total += term
        return total
