"""A finite window model of the bounded derived category of mod H.

Indecomposables are pairs (module vertex, shift).  The window bounds the
shifts that the mesh category and the D0 projection may reach; its arrows
live in `meshcat`, the only layer that reads them.

Hom dimensions never require the window: for equal shifts they come from
the module-level hammock, for a shift gap of one from the AR formula
Ext^1(X,Y) = D Hom(Y, tau X), and they vanish otherwise.
"""

from __future__ import annotations

from .arquiver import ARQuiver, ARVertex
from .errors import InternalCheckError


class DVertex:
    """An indecomposable object of the derived category: module[shift].

    Interned: `DVertex(module, shift)` returns the one instance for that pair,
    kept in `module.shifts`, so equality is identity and the hash is the
    identity hash.  The name is formatted once, when the instance is made, and
    every `name()` call returns that one string.  Instances are immutable.
    """

    __slots__ = ("module", "shift", "_name")

    module: ARVertex
    shift: int

    def __new__(cls, module: ARVertex, shift: int) -> "DVertex":
        v = module.shifts.get(shift)
        if v is None:
            v = object.__new__(cls)
            object.__setattr__(v, "module", module)
            object.__setattr__(v, "shift", shift)
            object.__setattr__(v, "_name", f"{module.name}[{shift}]")
            module.shifts[shift] = v
        return v

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned DVertex")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an interned DVertex")

    def name(self) -> str:
        return self._name

    def __repr__(self):
        return self._name


def default_window(m: int) -> tuple[int, int]:
    """The shift window of every model over m: degrees -3 to 2m + 2.

    It bounds shifts and holds no arrows.  Its readers: `vertices` and
    `contains` of DerivedModel (the mesh-basis-agreement pairs, and the
    refusal of `MeshCategory.space` outside it), and project_to_D0, which
    needs one degree above its input.  Summands and their localised images
    sit in degrees <= m, their G-images in degrees <= 2m + 1.  The lower end
    -3 keeps the mesh-basis-agreement pair count, the goldens and the op set
    of the mesh-basis benchmark workload.
    """
    return (-3, 2 * m + 2)


def _vkey(v: DVertex):
    return (v.shift, v.module.slice_index, v.module.name)


class DerivedModel:
    """The window model: AR-quiver of mod H, a value of m, and the shift
    window that m fixes."""

    def __init__(self, ar: ARQuiver, m: int):
        if m < 1:
            raise ValueError("m must be at least 1")
        self.ar = ar
        self.quiver = ar.quiver
        self.m = m
        lo, hi = self.window = default_window(m)
        self.vertices: list[DVertex] = sorted(
            (DVertex(v, t) for t in range(lo, hi + 1) for v in ar.vertices),
            key=_vkey,
        )
        self._vset = set(self.vertices)
        self._mesh_cat = None

    def mesh_category(self):
        if self._mesh_cat is None:
            from .meshcat import MeshCategory

            self._mesh_cat = MeshCategory(self)
        return self._mesh_cat

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
        This is the reference sum, read term by term by the
        orbit-window-vanishing check of `verify` and by the test oracles;
        `CompatibilityGraph` reads the same terms from per-node bitmasks.
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
