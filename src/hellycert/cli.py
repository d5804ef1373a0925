"""Command-line surface.

Subcommands: gen, select-sym, select-gen, reduce, certify, report,
canonical.
Exit codes: 0 success with all verdicts green, 2 completed but some
certificate verdict failed, 3 invalid or degenerate input or a usage error,
4 oracle caps exceeded. A failure exits with its error class's
``exit_code`` (``errors``), a ValueError or OSError with 3, and prints one
line to standard error, ``<Class>: [<stage>: ]<message>``. ``reduce``
reads its input certificate through ``io.certificate_from_json``, so it
refuses the claims ``certify`` rejects, with the same exit code, before it
prices a drop; a selection of at most 2n bodies is written back as read,
with that read its one ``check``. ``report`` repeats stored fields
unchecked: ``certify`` is the check. Diagnostics go to standard error,
results to files.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import HellycertError, InvalidInstance
from .io import (canonical_certificate_bytes, certificate_from_json,
                 certificate_to_json, load_certificate, load_instance,
                 save_certificate, save_instance, verify_certificate,
                 write_report)
from .oracle import (check_caps, gen_halfspace_family,
                     gen_sharpness_instance, gen_slab_family)
from .pipeline import (diameter_report, reduce_to_2n, select_general,
                       select_symmetric)

EXIT_OK = 0
EXIT_VERDICT = HellycertError.exit_code
EXIT_INPUT = InvalidInstance.exit_code


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "sharpness":
        family = gen_sharpness_instance(args.n, args.N, args.seed)
    elif kind == "slab":
        family = gen_slab_family(args.n, args.count, args.seed)
    else:
        family = gen_halfspace_family(args.n, args.count, args.seed,
                                      margin=args.margin)
    save_instance(family, args.out)
    print(f"wrote {kind} instance ({family.dim}D, {len(family)} bodies) "
          f"to {args.out}")
    return EXIT_OK


def _cmd_select(args, mode: str) -> int:
    family = load_instance(args.infile)
    m = family.constraint_matrix()[0].shape[0]
    if args.exact_oracle:
        # the selected subfamily has a subset of these rows, so this is the
        # cap diameter_report would hit after the selection
        check_caps(m, family.dim)
    cert = (select_symmetric(family, d=args.d) if mode == "symmetric"
            else select_general(family, eps=args.eps))
    diameter = None
    if args.exact_oracle:
        diam_sel, diam_full, ratio = diameter_report(family, cert)
        diameter = {"selected": diam_sel, "full": diam_full, "ratio": ratio}
    doc = certificate_to_json(cert, __version__, constraint_count=m,
                              seed=args.seed, diameter=diameter)
    save_certificate(doc, args.out)
    failed = [k for k, ok in cert.verdicts.items() if not ok]
    print(f"s={cert.s} alpha={cert.alpha_measured:.6g} "
          f"bound={cert.bound_claimed:.6g} verdicts="
          f"{'all-pass' if not failed else 'FAILED:' + ','.join(failed)}")
    if failed:
        print(f"failed verdicts: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def _cmd_reduce(args) -> int:
    family = load_instance(args.infile)
    doc = load_certificate(args.cert, version=__version__)
    cert = reduce_to_2n(family, certificate_from_json(family, doc))
    m = family.constraint_matrix()[0].shape[0]
    out_doc = certificate_to_json(cert, __version__, constraint_count=m,
                                  seed=doc.get("seed"))
    save_certificate(out_doc, args.out)
    print(f"reduced to s={cert.s} alpha={cert.alpha_measured:.6g}")
    return EXIT_OK if cert.all_pass else EXIT_VERDICT


def _cmd_certify(args) -> int:
    family = load_instance(args.infile)
    doc = load_certificate(args.cert, version=__version__)
    ok, problems = verify_certificate(family, doc)
    for p in problems:
        print(p, file=sys.stderr)
    print("certificate verified" if ok else "certificate REJECTED")
    return EXIT_OK if ok else EXIT_VERDICT


def _cmd_report(args) -> int:
    docs = [load_certificate(p) for p in args.certs]
    write_report(docs, args.out)
    print(f"wrote {len(docs)} rows to {args.out}")
    return EXIT_OK


def _cmd_canonical(args) -> int:
    doc = load_certificate(args.cert)
    sys.stdout.write(canonical_certificate_bytes(doc).decode("utf-8"))
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hellycert",
        description="Certified small-subfamily selection for intersections "
                    "of convex bodies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("--kind", choices=("slab", "halfspace", "sharpness"),
                     default="slab")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--count", type=int, default=10,
                     help="number of bodies (slab/halfspace kinds)")
    gen.add_argument("--N", type=int, default=64,
                     help="number of slabs (sharpness kind)")
    gen.add_argument("--margin", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    for name, mode, option, default in (
            ("select-sym", "symmetric", "--d", 4.0),
            ("select-gen", "general", "--eps", 0.5)):
        sel = sub.add_parser(name, help=f"run the {mode} selection pipeline")
        sel.add_argument("--in", dest="infile", required=True)
        sel.add_argument("--out", required=True)
        sel.add_argument(option, type=float, default=default)
        sel.add_argument("--seed", type=int, default=None)
        sel.add_argument("--exact-oracle", action="store_true",
                         help="also price diameters with the vertex oracle")
        sel.set_defaults(func=lambda a, m=mode: _cmd_select(a, m))

    red = sub.add_parser("reduce", help="greedy reduction to 2n bodies")
    red.add_argument("--in", dest="infile", required=True)
    red.add_argument("--cert", required=True)
    red.add_argument("--out", required=True)
    red.set_defaults(func=_cmd_reduce)

    cer = sub.add_parser("certify", help="re-verify a stored certificate")
    cer.add_argument("--in", dest="infile", required=True)
    cer.add_argument("--cert", required=True)
    cer.set_defaults(func=_cmd_certify)

    rep = sub.add_parser("report", help="stored fields as CSV, unchecked")
    rep.add_argument("certs", nargs="+")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=_cmd_report)

    can = sub.add_parser("canonical",
                         help="print a certificate's canonical bytes")
    can.add_argument("--cert", required=True)
    can.set_defaults(func=_cmd_canonical)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means a failed
        # verdict; --help and --version exit 0 as they are
        if exc.code:
            return EXIT_INPUT
        raise
    try:
        return args.func(args)
    except (HellycertError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return (exc.exit_code if isinstance(exc, HellycertError)
                else EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
