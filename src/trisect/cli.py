"""Command line interface.

Exit codes: 0 success, 1 validation or check failure, 2 parse/usage error,
3 refused (enumeration cap exceeded).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .diagrams import (
    FAMILY_NAMES,
    InvalidCutSystemError,
    STANDARD_NAMES,
    TrisectionDiagram,
    connected_sum,
    slide_family,
    stabilize,
    standard_diagram,
)
from .groups import (
    DEFAULT_HOM_CAP,
    DEFAULT_TIETZE_BUDGET,
    EnumerationRefused,
    abelianize_presentation,
    build_cube,
    count_homs,
    pi1_presentation,
    reduced_pi1,
    verify_cube,
)
from .invariants import (
    NotHomologicallyStandard,
    PAIR_NAMES,
    diagram_form_invariants,
    euler_characteristic,
    homology,
    intersection_form,
    k_triple,
    poincare_candidate_check,
)
from .textio import (
    ParseError,
    emit_cube_dot,
    format_abelian,
    format_presentation,
    parse,
    serialize,
)
from .words import parse_word


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _read_trisection(path: str) -> TrisectionDiagram:
    d = parse(_read_text(path))
    if not isinstance(d, TrisectionDiagram):
        raise ValueError(f"{path}: this command needs a trisection diagram")
    return d


def _cmd_validate(args) -> int:
    d = parse(_read_text(args.file))
    kind = "trisection" if isinstance(d, TrisectionDiagram) else "heegaard"
    print("status: valid")
    print(f"kind: {kind}")
    print(f"genus: {d.genus}")
    return 0


def _cmd_invariants(args) -> int:
    d = _read_trisection(args.file)
    print(f"genus: {d.genus}")
    for name, k in zip(PAIR_NAMES, k_triple(d)):
        print(f"k_{name}: {k}")
    print(f"euler: {euler_characteristic(d)}")
    for i, (rank, torsion) in enumerate(homology(d)):
        print(f"H{i}: {format_abelian(rank, torsion)}")
    form = diagram_form_invariants(d)
    print(f"form_rank: {form.rank}")
    print(f"form_signature: {form.signature}")
    print(f"form_parity: {form.parity}")
    return 0


def _cmd_pi1(args) -> int:
    d = _read_trisection(args.file)
    p = pi1_presentation(d) if args.simplify is None else reduced_pi1(d, args.simplify)
    for line in format_presentation(p):
        print(line)
    rank, torsion = abelianize_presentation(p)
    print(f"abelianization: {format_abelian(rank, torsion)}")
    return 0


def _cmd_form(args) -> int:
    d = _read_trisection(args.file)
    q = intersection_form(d)
    print(f"size: {q.nrows}")
    for row in q.rows:
        print("row: " + " ".join(str(x) for x in row))
    return 0


def _cmd_stabilize(args) -> int:
    d = _read_trisection(args.file)
    print(serialize(stabilize(d, args.family)), end="")
    return 0


def _cmd_slide(args) -> int:
    d = _read_trisection(args.file)
    g = d.genus
    if not (1 <= args.curve <= g and 1 <= args.over <= g):
        raise ValueError(f"curve indices must lie in 1..{g}")
    conj = parse_word(args.conj) if args.conj is not None else ()
    out = slide_family(d, args.family, args.curve - 1, args.over - 1, conj, args.sign)
    print(serialize(out), end="")
    return 0


def _cmd_connect_sum(args) -> int:
    d1 = _read_trisection(args.file1)
    d2 = _read_trisection(args.file2)
    print(serialize(connected_sum(d1, d2)), end="")
    return 0


def _cmd_standard(args) -> int:
    print(serialize(standard_diagram(args.name)), end="")
    return 0


def _cmd_homcount(args) -> int:
    d = _read_trisection(args.file)
    degree = int(args.target[1:])
    if args.cap < 0:  # a usage error, reported before the simplification
        raise ValueError("cap must be nonnegative")
    p = reduced_pi1(d, args.simplify)
    count = count_homs(p, degree, cap=args.cap)
    print(f"target: S{degree}")
    print(f"generators: {p.num_generators}")
    print(f"count: {count}")
    return 0


def _cmd_cube(args) -> int:
    d = _read_trisection(args.file)
    cube = build_cube(d)
    if args.dot:
        print(emit_cube_dot(cube), end="")
        return 0
    if args.verify is not None:
        report = verify_cube(cube, args.verify)
        for e in report.edges:
            print(f"map {e.source} -> {e.target}: {e.surjectivity}")
        for f in report.faces:
            print(f"face {','.join(f.vertices)}: {f.status}")
        print(f"verdict: {'ok' if report.ok else 'failed'}")
        return 0 if report.ok else 1
    for name in cube.vertices:
        p = cube.vertices[name]
        rank, torsion = abelianize_presentation(p)
        print(f"vertex {name}: {format_abelian(rank, torsion)}, relators {len(p.relators)}")
    for e in cube.edges:
        print(f"edge: {e.source} -> {e.target}")
    return 0


def _cmd_poincare(args) -> int:
    d = _read_trisection(args.file)
    report = poincare_candidate_check(d, tietze_budget=args.budget)
    print(f"homology_matches_s4: {'true' if report.homology_matches_s4 else 'false'}")
    print(f"pi1_trivialized: {'true' if report.pi1_trivialized else 'false'}")
    print(f"verdict: {report.verdict}")
    return 0


@functools.cache  # built once per process; parsing leaves no state on it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisect",
        description="Trisection diagrams of closed oriented 4-manifolds: "
        "validation, moves, invariants and group trisection cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, help="check a diagram file")
    p.add_argument("file", help="diagram file, or - for stdin")

    p = add("invariants", _cmd_invariants, help="genus, pair ranks, Euler characteristic, homology, form")
    p.add_argument("file")

    p = add("pi1", _cmd_pi1, help="fundamental group presentation")
    p.add_argument("file")
    p.add_argument("--simplify", type=int, metavar="BUDGET", help="Tietze budget")

    p = add("form", _cmd_form, help="Gram matrix of the intersection form")
    p.add_argument("file")

    p = add("stabilize", _cmd_stabilize, help="one-handle stabilization")
    p.add_argument("file")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)

    p = add("slide", _cmd_slide, help="handle slide (1-based curve indices)")
    p.add_argument("file")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--curve", required=True, type=int, metavar="I")
    p.add_argument("--over", required=True, type=int, metavar="J")
    p.add_argument("--conj", metavar="WORD", help="conjugating word, e.g. 'a1 B2'")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)

    p = add("connect-sum", _cmd_connect_sum, help="diagrammatic connected sum")
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("standard", _cmd_standard, help="print a library diagram")
    p.add_argument("name", choices=STANDARD_NAMES)

    p = add("homcount", _cmd_homcount, help="count homomorphisms from pi1 to a symmetric group")
    p.add_argument("file")
    p.add_argument("--target", required=True, choices=("s3", "s4", "s5"))
    p.add_argument("--cap", type=int, default=DEFAULT_HOM_CAP)
    p.add_argument("--simplify", type=int, default=DEFAULT_TIETZE_BUDGET, metavar="BUDGET")

    p = add("cube", _cmd_cube, help="group trisection cube")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a summary")
    p.add_argument("--verify", type=int, metavar="BUDGET", help="verify surjectivity and pushout faces")

    p = add("poincare-check", _cmd_poincare, help="homotopy 4-sphere screening")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_TIETZE_BUDGET)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidCutSystemError, NotHomologicallyStandard, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EnumerationRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
