"""Command line interface.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error,
3 resource limit hit (the clique cap, or an object outside the shift
window that m fixes).  Machine output sits behind --json; the default
output is a short human-readable rendering of the same data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .arquiver import knit_module_category
from .cluster import (
    compatibility_graph,
    complements,
    enumerate_maximal_m_rigid,
    fundamental_domain,
)
from .derived import DerivedModel, DVertex
from .endo import endo_dims, verify_factor_theorem
from .errors import CliqueCapExceeded, MClusterError, QuiverError, WindowOverflow
from .localise import localise_object
from .quiver import (
    PRESET_NAMES,
    dim_str,
    parse_dim_str,
    parse_quiver,
    positive_roots,
    preset,
)
from .verify import run_verify

USAGE_ERROR = 2
CHECK_FAILURE = 1
RESOURCE_CAP = 3


class UsageError(Exception):
    pass


def load_quiver(spec: str):
    """A preset name (A1..A8, D4..D6, E6) or a path to a quiver JSON file."""
    if spec.upper() in PRESET_NAMES:
        return preset(spec), spec.upper()
    path = Path(spec)
    if not path.exists():
        raise UsageError(
            f"{spec!r} is neither a preset ({', '.join(PRESET_NAMES)}) nor a file"
        )
    return parse_quiver(path.read_text()), path.name


def parse_object_name(model: DerivedModel, name: str) -> DVertex:
    name = name.strip()
    shift = 0
    if name.endswith("]"):
        base, _, rest = name.partition("[")
        try:
            shift = int(rest[:-1])
        except ValueError:
            raise UsageError(f"cannot parse the shift of {name!r}") from None
        name = base
    dim = parse_dim_str(model.quiver, name)
    try:
        mod = model.ar.by_dim[dim]
    except KeyError:
        raise UsageError(f"{dim_str(dim)} is not an indecomposable module") from None
    return DVertex(mod, shift)


def parse_object_list(model, text):
    return [parse_object_name(model, part) for part in text.split(",") if part.strip()]


def parse_domain_object(model, g, text) -> frozenset:
    """The summands of --object, each checked to lie in the fundamental domain."""
    summands = parse_object_list(model, text)
    try:
        g.mask(summands)
    except ValueError as exc:
        raise UsageError(f"--object {text}: {exc}") from None
    return frozenset(summands)


def at_least(k: int):
    """An argparse type: an integer of at least k (--m 1, --max-cliques 0)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be at least {k}, got {value}")
        return value

    return integer


def build_model(args) -> tuple[DerivedModel, str]:
    q, name = load_quiver(args.quiver)
    return DerivedModel(knit_module_category(q), args.m), name


def emit(args, data, text_lines):
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# --- subcommands -----------------------------------------------------------


def cmd_roots(args):
    q, name = load_quiver(args.quiver)
    roots = positive_roots(q)
    emit(
        args,
        {"quiver": name, "count": len(roots), "roots": [dim_str(r) for r in roots]},
        [f"{name}: {len(roots)} positive roots"] + [dim_str(r) for r in roots],
    )
    return 0


def cmd_ar_quiver(args):
    q, name = load_quiver(args.quiver)
    ar = knit_module_category(q)
    data = {
        "quiver": name,
        "vertices": [
            {
                "name": v.name,
                "dim": list(v.dim),
                "projective_of": v.projective_of,
                "injective_of": v.injective_of,
                "slice_index": v.slice_index,
            }
            for v in ar.vertices
        ],
        "arrows": [[a.name, b.name] for a, b in ar.arrows],
        "tau": [[z.name, tz.name] for z, tz in sorted(
            ar.tau.items(), key=lambda it: it[0].name
        )],
    }
    lines = [f"{name}: {len(ar.vertices)} indecomposables"]
    for v in ar.vertices:
        flags = []
        if v.projective_of:
            flags.append(f"P({v.projective_of})")
        if v.injective_of:
            flags.append(f"I({v.injective_of})")
        lines.append(f"  {v.name} {' '.join(flags)}")
    lines.append("arrows: " + ", ".join(f"{a.name}->{b.name}" for a, b in ar.arrows))
    emit(args, data, lines)
    return 0


def cmd_fd(args):
    model, name = build_model(args)
    names = [v.name() for v in fundamental_domain(model)]
    emit(
        args,
        {"quiver": name, "m": model.m, "count": len(names), "vertices": names},
        [f"{name}, m={model.m}: {len(names)} domain objects"] + names,
    )
    return 0


def cmd_hom(args):
    model, name = build_model(args)
    x = parse_object_name(model, args.src)
    y = parse_object_name(model, args.dst)
    d = model.hom(x, y)
    emit(
        args,
        {"quiver": name, "from": x.name(), "to": y.name(), "dim": d},
        [f"dim Hom({x.name()}, {y.name()}) = {d}"],
    )
    return 0


def cmd_factor_dim(args):
    model, name = build_model(args)
    mesh = model.mesh_category()
    x = parse_object_name(model, args.src)
    z = parse_object_name(model, args.dst)
    through = parse_object_list(model, args.through)
    d = mesh.factoring_dim(x, z, through)
    emit(
        args,
        {
            "quiver": name,
            "from": x.name(),
            "to": z.name(),
            "through": [w.name() for w in through],
            "dim": d,
        },
        [f"dim of maps {x.name()} -> {z.name()} through the given class: {d}"],
    )
    return 0


def cmd_enumerate(args):
    model, name = build_model(args)
    g = compatibility_graph(model)
    objs = enumerate_maximal_m_rigid(g, max_cliques=args.max_cliques)
    listing = [[v.name() for v in o.sorted_summands()] for o in objs]
    emit(
        args,
        {"quiver": name, "m": model.m, "count": len(objs), "objects": listing},
        [f"{name}, m={model.m}: {len(objs)} maximal m-rigid objects"]
        + [" + ".join(row) for row in listing],
    )
    return 0


def cmd_complements(args):
    model, name = build_model(args)
    g = compatibility_graph(model)
    obj = parse_domain_object(model, g, args.object)
    drop = parse_object_name(model, args.drop)
    if drop not in obj:
        raise UsageError(f"--drop {args.drop} is not a summand of --object")
    partial = obj - {drop}
    try:
        cs = complements(g, partial)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    emit(
        args,
        {
            "quiver": name,
            "m": model.m,
            "partial": sorted(v.name() for v in partial),
            "complements": [c.name() for c in cs],
        },
        [f"{len(cs)} complements:"] + [c.name() for c in cs],
    )
    return 0


def cmd_localise(args):
    model, name = build_model(args)
    g = compatibility_graph(model)
    obj = parse_domain_object(model, g, args.object)
    at = parse_object_name(model, args.at)
    if at not in obj:
        raise UsageError(f"--at {args.at} is not a summand of --object")
    clique, maximal = g.clique_and_maximal(obj)
    if not clique:
        raise UsageError("--object is not m-rigid")
    if not maximal:
        raise UsageError("--object is not maximal m-rigid, so it cannot be localised")
    loc = localise_object(model, obj, at)
    pd = loc.pd
    # localise_object has checked that the image is maximal m-rigid over H'
    prime_g = compatibility_graph(pd.prime_model)
    comp_counts = {
        v.name(): len(complements(prime_g, loc.prime_summands - {v}))
        for v in sorted(loc.prime_summands, key=lambda u: u.name())
    }
    data = {
        "quiver": name,
        "m": model.m,
        "at": at.name(),
        "h_prime": {
            "vertices": list(pd.H_prime.vertices),
            "arrows": [list(a) for a in pd.H_prime.arrows],
        },
        "image": sorted(v.name() for v in loc.prime_summands),
        "maximal": True,
        "complement_counts": comp_counts,
    }
    lines = [
        f"localised {name} at {at.name()} (m={model.m})",
        f"H' vertices: {len(pd.H_prime.vertices)}",
        "image: " + (", ".join(data["image"]) or "0"),
        "maximal m-rigid over H': yes",
    ]
    emit(args, data, lines)
    return 0


def cmd_endo(args):
    model, name = build_model(args)
    g = compatibility_graph(model)
    obj = parse_domain_object(model, g, args.object)
    clique, maximal = g.clique_and_maximal(obj)
    if not clique:
        raise UsageError("--object is not m-rigid")
    if not maximal:
        raise UsageError("--object is not maximal m-rigid; endo needs a maximal one")
    data = {"quiver": name, "m": model.m}
    ed = endo_dims(model, obj)
    order = [v.name() for v in ed.summands]
    data["summands"] = order
    data["hom_dims"] = [list(r) for r in ed.hom_dims]
    data["arrows"] = [list(r) for r in ed.arrows]
    data["total_dim"] = ed.total_dim
    lines = [
        f"End of {' + '.join(order)} over {name} (m={model.m})",
        f"total dimension {ed.total_dim}",
        "hom_dims: " + "; ".join(" ".join(map(str, r)) for r in ed.hom_dims),
        "arrows:   " + "; ".join(" ".join(map(str, r)) for r in ed.arrows),
    ]
    if args.factor_at:
        at = parse_object_name(model, args.factor_at)
        if at not in obj:
            raise UsageError(f"--factor-at {args.factor_at} is not a summand")
        rep = verify_factor_theorem(model, obj, at)
        data["factor_at"] = at.name()
        data["factor_dims"] = [list(r) for r in rep.factor_matrix]
        data["localised_dims"] = [list(r) for r in rep.localised_matrix]
        data["factor_theorem"] = rep.ok
        lines.append(f"factor at {at.name()}: theorem {'holds' if rep.ok else 'FAILS'}")
        if not rep.ok:
            emit(args, data, lines)
            return CHECK_FAILURE
    emit(args, data, lines)
    return 0


def cmd_verify(args):
    q, name = load_quiver(args.quiver)
    source = name
    if args.quiver.upper() not in PRESET_NAMES:
        # an absolute path, so that the reproducer lines of a failing sweep
        # run from any directory
        source = str(Path(args.quiver).resolve())
    report = run_verify(
        q, name, args.m, target=args.target, max_cliques=args.max_cliques, source=source
    )
    if args.json:
        print(json.dumps(report.to_dict(with_timing=args.timing), indent=2, sort_keys=True))
    else:
        print(f"verify {args.target} {name} m={args.m}")
        for cname, passed, details in report.checks:
            mark = "pass" if passed else "FAIL"
            print(f"  [{mark}] {cname}: {details}")
        for k, v in sorted(report.counts.items()):
            print(f"  {k}: {v}")
        if args.timing:
            for stage, seconds in report.stages.items():
                print(f"  stage {stage}: {seconds:.2f}s")
        print(f"  elapsed: {report.elapsed:.2f}s")
        print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else CHECK_FAILURE


def make_parser():
    p = argparse.ArgumentParser(
        prog="mcluster",
        description=(
            "m-cluster categories of Dynkin quivers: enumeration of maximal "
            "m-rigid objects, localisation, endomorphism algebras, and "
            "verification suites."
        ),
        epilog=(
            "Presets: A1..A8 (linear orientation 1->2->...->n), D4..D6 (all "
            "arrows out of the branch vertex n-2, tail oriented toward 1), "
            "E6 (1->2->3->4->5 with 3->6). A quiver argument may also be a "
            "path to a JSON file {\"vertices\": [...], \"arrows\": [[s,t]...]}."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_model=True, with_cap=False):
        sp.add_argument("quiver", help="preset name or quiver JSON file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if with_model:
            sp.add_argument(
                "--m", type=at_least(1), default=1, help="number of shifts (default 1)"
            )
        if with_cap:
            sp.add_argument(
                "--max-cliques", type=at_least(0), default=None,
                help="cap on enumerated cliques",
            )

    sp = sub.add_parser("roots", help="positive roots of the underlying diagram")
    common(sp, with_model=False)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("ar-quiver", help="knitted AR-quiver of mod H as JSON")
    common(sp, with_model=False)
    sp.set_defaults(func=cmd_ar_quiver)

    sp = sub.add_parser("fd", help="fundamental domain objects")
    common(sp)
    sp.set_defaults(func=cmd_fd)

    sp = sub.add_parser("hom", help="Hom dimension between window objects")
    common(sp)
    sp.add_argument("--from", dest="src", required=True, metavar="NAME")
    sp.add_argument("--to", dest="dst", required=True, metavar="NAME")
    sp.set_defaults(func=cmd_hom)

    sp = sub.add_parser("factor-dim", help="dimension of maps factoring through a class")
    common(sp)
    sp.add_argument("--from", dest="src", required=True, metavar="NAME")
    sp.add_argument("--to", dest="dst", required=True, metavar="NAME")
    sp.add_argument("--through", required=True, help="comma-separated object names")
    sp.set_defaults(func=cmd_factor_dim)

    sp = sub.add_parser("enumerate", help="maximal m-rigid objects")
    common(sp, with_cap=True)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("complements", help="complements of an almost complete object")
    common(sp)
    sp.add_argument("--object", required=True, help="comma-separated summand names")
    sp.add_argument("--drop", required=True, help="summand to remove")
    sp.set_defaults(func=cmd_complements)

    sp = sub.add_parser("localise", help="localise an object at a summand")
    common(sp)
    sp.add_argument("--object", required=True, help="comma-separated summand names")
    sp.add_argument("--at", required=True, help="summand to localise at")
    sp.set_defaults(func=cmd_localise)

    sp = sub.add_parser("endo", help="endomorphism algebra data")
    common(sp)
    sp.add_argument("--object", required=True, help="comma-separated summand names")
    sp.add_argument("--factor-at", default=None, help="also verify the factor theorem")
    sp.set_defaults(func=cmd_endo)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("target", choices=["all", "cluster"])
    common(sp, with_cap=True)
    sp.add_argument(
        "--timing", action="store_true",
        help="include the elapsed time, in total and per stage, in the output",
    )
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, QuiverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CliqueCapExceeded as exc:
        print(f"capped: {exc}", file=sys.stderr)
        return RESOURCE_CAP
    except WindowOverflow as exc:
        print(f"out of range: {exc}", file=sys.stderr)
        return RESOURCE_CAP
    except MClusterError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
