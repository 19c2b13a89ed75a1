"""Command-line interface.

Verbs: enumerate, count, map, unmap, parent, children, tree, verify, render.
Exit codes: 0 success, 1 domain error, 2 usage error.  All output is
deterministic; the map --trace log goes to stderr so stdout stays a clean
two-line pair.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Iterable, Iterator

from .bijection import color_diagram, from_paths, to_paths
from .errors import DomainError, GuardExceeded, StructuralError, _decimal, _guard_value
from .formats import (
    _diagonal_text,
    _path_lines,
    diagonal_line,
    format_pair,
    format_triangulation,
    parse_triangulation,
)
from .gentree2 import _by_split, _label
from .gentree_k import _children, _root, _tree_masks, _triangulation
from .gentree_k import children_k, count_tree, parent_k
from .paths import catalan_determinant
from .polygon import PolygonContext, _brute_masks, _cell_bits, _read_leaves
from .render import render_diagram, render_paths
from .verify import run_verify


def _read_input(path: str | None) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"input is not {exc.encoding} text: {exc.reason} at byte {exc.start}") from exc


# The most leaves `tree` prints.
TREE_DUMP_GUARD = 10**5


def _cmd_count(args) -> int:
    if args.method == "det":
        value = catalan_determinant(args.n, args.k)
    elif args.method == "brute":
        value = len(_brute_masks(PolygonContext(args.n, args.k)))
    else:
        value = count_tree(args.n, args.k)
    print(_decimal(value))
    return 0


def _lines(ctx: PolygonContext, masks: Iterable[int]) -> Iterator[str]:
    """The line of each of a level's masks, joined from a per-bit table of texts, in their order.

    Each is the :func:`ktri.formats.diagonal_line` of the object
    :func:`ktri.polygon._finish` builds, the table read off the polygon.
    """
    texts = [*map(_diagonal_text, _cell_bits(ctx))]
    return (",".join(leaf) or "-" for leaf in _read_leaves(texts, masks))


def _cmd_enumerate(args) -> int:
    if args.method == "brute":
        masks = _brute_masks(PolygonContext(args.n, args.k))
    else:
        masks = _tree_masks(args.n, args.k)
    sys.stdout.write(f"k={args.k} n={args.n}\n")  # once the lister has refused a repeat
    sys.stdout.writelines(f"{line}\n" for line in _lines(PolygonContext(args.n, args.k), masks))
    return 0


def _cmd_map(args) -> int:
    tri = parse_triangulation(_read_input(args.input))
    if args.trace:
        colored = color_diagram(tri)
        for step in colored.steps:
            print(
                f"iter={step.index} r={step.r} "
                f"blue={step.blue[0]}-{step.blue[1]} red={step.red[0]}-{step.red[1]} "
                f"merged={step.merged[0]}+{step.merged[1]}",
                file=sys.stderr,
            )
    p, q = to_paths(tri)
    sys.stdout.write(format_pair(p, q))
    return 0


def _cmd_unmap(args) -> int:
    tri = from_paths(*_path_lines(_read_input(args.input)))  # the one check of the pair
    sys.stdout.write(format_triangulation(tri))
    return 0


def _cmd_parent(args) -> int:
    tri = parse_triangulation(_read_input(args.input))
    sys.stdout.write(format_triangulation(parent_k(tri)))
    return 0


def _cmd_children(args) -> int:
    tri = parse_triangulation(_read_input(args.input))
    kids = children_k(tri)
    if tri.ctx.k == 2:
        for u, i, child in _by_split((choice.u, child) for choice, child in kids):
            print(f"u={u} i={i}\t{diagonal_line(child)}")
    else:
        for choice, child in kids:
            rows = ",".join(str(b) for b in choice.rows)
            print(f"u={choice.u} b={rows}\t{diagonal_line(child)}")
    return 0


def _cmd_tree(args) -> int:
    k = args.k

    def walk(cols, r: int) -> None:
        n = len(cols) - 1
        label = "(" + ",".join(str(d) for d in _label(cols, r)) + ")" if k == 2 else "-"
        print(f"{n - 2 * k - 1}\t{label}\t{diagonal_line(_triangulation(PolygonContext(n, k), cols))}")
        if n < args.n:
            kids = [(u, child) for u, _, child in _children(cols, k, r)]
            for u, *_, child in _by_split(kids) if k == 2 else kids:  # k = 2: in (u, i) order
                walk(child, u)

    if args.n < 2 * k + 1:
        raise DomainError(f"need n >= 2k+1, got n={args.n}, k={k}")
    if k < 2:
        raise DomainError(f"generating tree defined for k >= 2, got k={k}")
    limit = _guard_value(TREE_DUMP_GUARD)
    if catalan_determinant(args.n, k) > limit:
        raise GuardExceeded(f"tree dump of more than {limit} leaves refused; lower n")
    walk(*_root(k))
    return 0


def _cmd_verify(args) -> int:
    checks = run_verify(args.k, args.n_max)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        if not ok:
            failed += 1
    return 1 if failed else 0


def _cmd_render(args) -> int:
    text = _read_input(args.input)
    first = text.strip().splitlines()[0].strip() if text.strip() else ""
    if first.startswith("k="):
        sys.stdout.write(render_diagram(parse_triangulation(text)))
    else:
        sys.stdout.write(render_paths(*_path_lines(text), shifted=args.shifted))
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="ktri",
        description="k-triangulations of a convex polygon: exact counting, "
        "generating trees, and the Dyck-path-pair bijection",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_nk(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("count", help="count k-triangulations")
    add_nk(p)
    p.add_argument("--method", choices=["det", "tree", "brute"], default="det")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list all k-triangulations")
    add_nk(p)
    p.add_argument("--method", choices=["tree", "brute"], default="brute")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("map", help="triangulation file -> path pair")
    p.add_argument("--input", default=None, help="file path or - for stdin")
    p.add_argument("--trace", action="store_true", help="log coloring steps to stderr")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("unmap", help="path pair file -> triangulation")
    p.add_argument("--input", default=None)
    p.set_defaults(func=_cmd_unmap)

    p = sub.add_parser("parent", help="one step up the generating tree")
    p.add_argument("--input", default=None)
    p.set_defaults(func=_cmd_parent)

    p = sub.add_parser("children", help="all children in the generating tree")
    p.add_argument("--input", default=None)
    p.set_defaults(func=_cmd_children)

    p = sub.add_parser("tree", help="dump the generating tree level by level")
    add_nk(p)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="ASCII art for a triangulation or a pair")
    p.add_argument("--input", default=None)
    p.add_argument("--shifted", action="store_true")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
