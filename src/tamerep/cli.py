"""Command-line front end.

Subcommands: pairs, cert, verify, classify, selftest.  Exit codes follow the
scripting contract: 0 success, 1 internal error, 2 usage or parse error,
3 failed precondition, 4 verification mismatch.  The subcommands raise, and
EXIT_CODES, read by main alone, maps each exception to its code: the usage
classes to 2, every other ToolkitError to 3, and anything else, the
InvariantViolation of a bug included, to 1.  A subcommand returns 0, 4 for
a verify mismatch, or 1 for a failed selftest case.  So verify of a
certificate whose params cannot be built exits as cert does on them.  All
output is deterministic for fixed flags.  --seed and --jobs are accepted
for interface stability but unused: every algorithm is deterministic and
runs in this one process.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from math import isqrt

from . import certs
from .arith import is_prime, search_pairs
from .chars import TameCharacter
from .errors import (
    BadBounds,
    BadInput,
    BadParams,
    CertificateFormatError,
    DegenerateForm,
    DegreeZero,
    NotOrthogonal,
    OddCharacteristicRequired,
    SingularGenerator,
    SingularMatrix,
    ToolkitError,
    ZeroElement,
)
from .ff import make_field
from .linalg import Matrix
from .ortho import QuadraticSpace, classify_subgroup

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4

# (exception classes, exit code), checked in order by isinstance; any other
# exception, InvariantViolation included, is internal
EXIT_CODES = (
    (
        (BadBounds, BadInput, CertificateFormatError, BadParams, DegenerateForm, DegreeZero,
         OddCharacteristicRequired, SingularGenerator, SingularMatrix, ZeroElement, NotOrthogonal),
        EXIT_USAGE,
    ),
    ((ToolkitError,), EXIT_PRECONDITION),
)

_MESSAGES = {
    EXIT_INTERNAL: "internal error: {}",
    EXIT_USAGE: "error: {}",
    EXIT_PRECONDITION: "error: precondition failed: {}",
}


def exit_code(exc: Exception) -> int:
    """The exit code of an exception that ends a subcommand."""
    return next((code for classes, code in EXIT_CODES if isinstance(exc, classes)), EXIT_INTERNAL)


def _write_output(path: str | None, chunks: Iterable[str]) -> None:
    """Write the pieces of text in chunks to stdout, or to the file at path;
    a file that cannot be written raises BadInput."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        certs.atomic_write(path, chunks)
    except OSError as exc:
        raise BadInput(f"cannot write output: {exc}") from exc


def _load_json(path: str, what: str):
    """The JSON document in the file at path.  Raises BadInput, naming what
    the file holds, when it cannot be read or is not UTF-8 JSON."""
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; nesting deeper
    # than the decoder's recursion limit raises RecursionError
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInput(f"cannot read {what}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise BadInput(f"{what} is not valid JSON: {exc}") from exc


def cmd_pairs(args) -> int:
    found = search_pairs(args.n, args.ell, args.p_max, args.t_max)
    # one pair's text at a time, so no list of dicts or whole text is held
    _write_output(args.output, certs.canonical_chunks(cand.to_json() for cand in found))
    return EXIT_OK


def cmd_cert(args) -> int:
    doc = certs.build_certificate(args.n, args.p, args.t, args.sign, args.ell)
    _write_output(args.output, certs.canonical_chunks(doc))
    return EXIT_OK


def cmd_verify(args) -> int:
    diffs = certs.verify_certificate(_load_json(args.certificate, "certificate"))
    if diffs:
        print(f"MISMATCH: {len(diffs)} field(s) differ", file=sys.stderr)
        for d in diffs:
            print(f"  {d}", file=sys.stderr)
        return EXIT_MISMATCH
    _write_output(args.output, ["certificate verified: all derivable fields match\n"])
    return EXIT_OK


def cmd_classify(args) -> int:
    # a --p below 2 must not reach is_prime, whose BadInput names no flag
    if args.p < 2 or not is_prime(args.p):
        raise BadInput(f"--p must be prime, got {args.p}")
    gens_doc = _load_json(args.generators, "input")
    gram_doc = _load_json(args.gram, "input")
    field = make_field(args.p, args.k)
    if not isinstance(gens_doc, list):
        raise BadInput("generators must be a JSON array of matrices")
    gens = [certs.json_to_matrix(field, m) for m in gens_doc]
    space = QuadraticSpace(field, certs.json_to_matrix(field, gram_doc))
    placement = classify_subgroup(gens, space, args.promise_contains_omega)
    lines = [
        placement.label,
        f"spinor_norm(-I) trivial: {placement.spinor_minus_trivial}",
        f"contains-Omega verified: {placement.omega_verified}",
        "generator char images (similitude, det_part, spinor):",
    ]
    for i, t in enumerate(placement.char_images):
        lines.append(f"  gen[{i}]: {t['similitude']}, {t['det_part']}, {t['spinor']}")
    _write_output(args.output, (line + "\n" for line in lines))
    return EXIT_OK


def _selftest_cases():
    from .ff import make_field as mf
    from .groups import gamma_d, normal_subgroups
    from .induce import (
        FormKind, build_residual_rep, commutant_dim, form_kind, image_group, invariant_forms,
    )
    from .ortho import (
        GroupFlavor,
        SquareClass,
        group_order,
        orthogonal_group,
        spinor_norm,
        standard_space,
    )

    def pairs_case():
        # trial division of its own, so the check shares no primality test
        # with search_pairs
        def prime(m):
            return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))

        got = [(c.p, c.t) for c in search_pairs(8, 3, 60, 20)]
        brute = []
        for t in range(2, 21):
            if not prime(t) or t % 8 != 1 or t <= 3:
                continue
            for p in range(9, 61):
                if not prime(p) or p <= 3 or p == t:
                    continue
                e = 1
                x = p % t
                while x != 1:
                    x = x * p % t
                    e += 1
                if e == 8:
                    brute.append((p, t))
        return sorted(got) == sorted(brute)

    def cert_case():
        doc = certs.build_certificate(8, 19, 17, 1, 13)
        if certs.verify_certificate(doc):
            return False
        doc_bad = json.loads(certs.canonical_dump(doc))
        doc_bad["image_order"] = 137
        return bool(certs.verify_certificate(doc_bad))

    def order_case():
        f3 = mf(3, 1)
        for eps in ("+", "-"):
            v = standard_space(4, eps, f3)
            if orthogonal_group(v, 2000).order != group_order(4, eps, 3, GroupFlavor.O):
                return False
        return True

    def spinor_case():
        f3 = mf(3, 1)
        h = standard_space(2, "+", f3)
        minus = Matrix.scalar(f3, -f3.one, 2)
        return spinor_norm(minus, h) is SquareClass.NONSQUARE

    def gamma_case():
        rep = build_residual_rep(TameCharacter(8, 19, 17, 1), 13)
        img = image_group(rep, 300)
        normals = normal_subgroups(img)
        orders = sorted(h.order for h in normals)
        return orders == [1, 17, 34, 68, 136] and gamma_d(img, 8, normals).order == 17

    def dichotomy_case():
        rep_o = build_residual_rep(TameCharacter(8, 19, 17, 1), 13)
        rep_s = build_residual_rep(TameCharacter(8, 19, 17, -1), 13)
        return (
            form_kind(invariant_forms(rep_o)[0]) is FormKind.SYMMETRIC
            and form_kind(invariant_forms(rep_s)[0]) is FormKind.ALTERNATING
            and commutant_dim(rep_o) == 1
        )

    return [
        ("pair search vs brute force", pairs_case),
        ("certificate round-trip and tamper detection", cert_case),
        ("orthogonal group orders vs closure", order_case),
        ("spinor norm of -I on the F_3 hyperbolic plane", spinor_case),
        ("normal subgroup lattice and gamma_d of the order-136 image", gamma_case),
        ("orthogonal/symplectic dichotomy at (8,19,17)", dichotomy_case),
    ]


def cmd_selftest(args) -> int:
    lines = []
    for name, fn in _selftest_cases():
        try:
            lines.append(f"{'PASS' if fn() else 'FAIL'} {name}")
        except Exception as exc:  # a crash is a failure, not an abort
            lines.append(f"FAIL {name}: {exc}")
    _write_output(args.output, (line + "\n" for line in lines))
    return EXIT_OK if all(line.startswith("PASS") for line in lines) else EXIT_INTERNAL


def _add_common(sp):
    sp.add_argument("--output", default=None, help="output path (default: stdout)")
    sp.add_argument("--seed", type=int, default=None, help="accepted, unused (deterministic)")
    sp.add_argument("--jobs", type=int, default=1, help="accepted, unused (single process)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tamerep",
        description="Tame self-dual local Galois representations: search, build, classify, certify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pairs", help="search admissible prime pairs (p, t)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--t-max", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_pairs)

    sp = sub.add_parser("cert", help="build a certificate for one (n, p, t, sign, ell)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--sign", type=int, choices=(1, -1), required=True)
    sp.add_argument("--ell", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_cert)

    sp = sub.add_parser("verify", help="recompute and compare a certificate")
    sp.add_argument("certificate")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("classify", help="place generated similitude group in the four quotients")
    sp.add_argument("generators", help="JSON array of matrices")
    sp.add_argument("gram", help="JSON matrix")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument(
        "--promise-contains-omega",
        action="store_true",
        help="caller asserts the generated group contains Omega(V)",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("selftest", help="run the built-in sanity battery")
    _add_common(sp)
    sp.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> None:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
    except Exception as exc:
        code = exit_code(exc)
        print(_MESSAGES[code].format(exc), file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
