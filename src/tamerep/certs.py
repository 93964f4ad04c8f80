"""Certificate construction and verification.

A certificate records the full analysis of one (n, p, t, sign, ell) tuple:
the representation matrices in coefficient-vector form, the invariant Gram,
its kind and type data, the image-group analysis, the hypothesis audit, and a
list of named boolean checks.  Every derivable field is recomputed by the
verifier from params alone, so a certificate is tamper-evident.  The analysis
chain is induce's, shared with the sweep; the build raises unless the three
relation checks hold, so verify recomputes them by rebuilding.

Every rep the build returns keeps its monomial shapes (ResidualRep.shape), so
its one invariant Gram pairs each isotropic e_i with e_partner(i); a symmetric
one makes the space n/2 hyperbolic planes: Witt index n/2 and epsilon "+".
The invariant_form_unique check records that invariant_forms found exactly
one Gram.  The discriminant criterion, on Matrix.det, cross-checks the Witt
reading and raises InvariantViolation on a mismatch.  Alternating Grams carry
no orthogonal type; S-type certificates fill witt_index/epsilon with the
symplectic convention (n/2, "+").

The image order, the metacyclic flag and the gamma_d_table come from
induce.image_analysis, which reads them off the checked shapes: no group is
enumerated, so the certificate has no cap on the image order.

canonical_dump writes the bytes of json.dumps(doc, sort_keys=True, indent=2)
plus a newline with an emitter of its own, since that call runs the
pure-Python encoder; the tests hold json.dumps as its oracle.  The verifier
compares the whole certificate with its rebuild as one compact JSON text and
builds the per-field diffs only when the two differ.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii as _encode_str

from .arith import audit_adz, example21_check
from .chars import TameCharacter
from .errors import BadInput, CertificateFormatError, InvariantViolation
from .induce import (
    FormKind,
    ResidualRep,
    build_residual_rep,
    commutant_dim,
    expected_image_order,
    form_kind,
    image_analysis,
    invariant_forms,
)
from .linalg import Matrix
from .ortho import SquareClass, discriminant_class

SCHEMA_VERSION = "1"

_TOP_LEVEL_KEYS = {
    "schema_version",
    "params",
    "modulus",
    "matrices",
    "gram",
    "form_kind",
    "witt_index",
    "epsilon",
    "image_order",
    "metacyclic",
    "gamma_d_table",
    "adz_audit",
    "checks",
}


def json_to_matrix(field, data) -> Matrix:
    """The matrix of a JSON array of rows over field, whose entries are digit
    vectors (low degree first) or bare ints for constants; raises BadInput
    on anything else."""
    try:
        return Matrix(field, data)
    except (ValueError, TypeError) as exc:
        raise BadInput(f"not a matrix over {field}: {exc}") from exc


def _witt_data(rep: ResidualRep, gram: Matrix, kind: FormKind) -> tuple[int, str]:
    """(witt_index, epsilon) of the certificate for the unique Gram of rep."""
    if kind is not FormKind.SYMMETRIC:
        return rep.n // 2, "+"
    # e_i and e_partner(i) are isotropic and span a hyperbolic plane
    if discriminant_class(gram) is not SquareClass.SQUARE:
        raise InvariantViolation("n/2 hyperbolic planes disagree with the discriminant")
    return rep.n // 2, "+"


def build_certificate(n: int, p: int, t: int, sign: int, ell: int) -> dict:
    chi = TameCharacter(n, p, t, sign)
    rep = build_residual_rep(chi, ell)
    forms = invariant_forms(rep)
    kind = form_kind(forms[0])
    cdim = commutant_dim(rep)
    image = image_analysis(rep)
    gamma_table = [
        {"d": d, "subgroup_order": image.gamma_order(d)} for d in sorted({1, 2, 4, 8, n * t})
    ]
    witt, eps = _witt_data(rep, forms[0], kind)
    gram_ok = all(
        M.transpose() * forms[0] * M == forms[0] for M in (rep.Phi, rep.Sigma)
    )
    # build_residual_rep raises unless the tame relation, Sigma^t = I and
    # Phi^n = sign * I hold
    checks = [
        {"name": "example21_arithmetic", "pass": example21_check(n, p, t)},
        {"name": "tame_relation", "pass": True},
        {"name": "sigma_order_is_t", "pass": not rep.sigma_is_identity},
        {"name": "phi_power_is_sign", "pass": True},
        {"name": "invariant_form_unique", "pass": len(forms) == 1},
        {
            "name": "form_kind_matches_type",
            "pass": kind is (FormKind.SYMMETRIC if sign == 1 else FormKind.ALTERNATING),
        },
        {"name": "generators_preserve_gram", "pass": gram_ok},
        {"name": "commutant_is_scalars", "pass": cdim == 1},
        {"name": "image_order_expected", "pass": image.order == expected_image_order(rep)},
        {"name": "image_metacyclic", "pass": image.metacyclic},
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {"n": n, "p": p, "t": t, "ell": ell, "k": rep.k, "sign": sign},
        "modulus": list(rep.field.modulus),
        "matrices": {
            "phi": rep.Phi.to_coeff_lists(),
            "sigma": rep.Sigma.to_coeff_lists(),
        },
        "gram": forms[0].to_coeff_lists(),
        "form_kind": kind.value,
        "witt_index": witt,
        "epsilon": eps,
        "image_order": image.order,
        "metacyclic": image.metacyclic,
        "gamma_d_table": gamma_table,
        "adz_audit": audit_adz(n, ell, p, t),
        "checks": checks,
    }


def canonical_dump(doc) -> str:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) + "\\n", written
    directly: that call runs the pure-Python encoder, since the C encoder
    ignores indent.  Dicts with str keys, lists, str, int, bool and None are
    emitted; any other type, a tuple or a float included, raises TypeError."""
    parts: list[str] = []
    _emit(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def canonical_chunks(doc) -> Iterator[str]:
    """canonical_dump(doc) in pieces, whose join is its text.  A top-level
    list comes one item's text at a time, and so does an iterator, read as
    the list of its items, so a long list is written without holding its
    items or its whole text."""
    if isinstance(doc, (list, Iterator)):
        yield from _list_pieces(doc, "\n")
        yield "\n"
    else:
        yield canonical_dump(doc)


def _list_pieces(items: Iterable, nl: str) -> Iterator[str]:
    """The canonical JSON of the list of items, on a line that starts at nl
    (a newline plus its indent): one piece per item, its separator and its
    text, then the closer."""
    inner = nl + "  "
    sep = "[" + inner
    for x in items:
        parts = [sep]
        _emit(x, inner, parts.append)
        yield "".join(parts)
        sep = "," + inner
    yield "[]" if sep[0] == "[" else nl + "]"


def _emit(o, nl: str, out) -> None:
    """Append o's canonical JSON to out; nl is a newline plus the indent of
    the line o starts on."""
    if isinstance(o, str):
        out(_encode_str(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(int.__repr__(o))
    elif isinstance(o, list):
        if o and all(type(x) is int for x in o):
            # a coefficient vector: the whole list in one join
            inner = nl + "  "
            out("[" + inner + ("," + inner).join(map(str, o)) + nl + "]")
            return
        for piece in _list_pieces(o, nl):
            out(piece)
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(sep + _encode_str(key) + ": ")
            _emit(o[key], inner, out)
            sep = "," + inner
        out(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the pieces of text in chunks, in order, to a temporary file next
    to path, then move it onto path; on any failure the file is removed."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-cert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_schema(doc) -> dict:
    """Structural validation; raises CertificateFormatError on any problem."""
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CertificateFormatError(
            f"unknown schema_version {doc.get('schema_version')!r}"
        )
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise CertificateFormatError(f"unknown fields: {sorted(unknown)}")
    missing = _TOP_LEVEL_KEYS - set(doc)
    if missing:
        raise CertificateFormatError(f"missing fields: {sorted(missing)}")
    params = doc["params"]
    if not isinstance(params, dict) or set(params) != {"n", "p", "t", "ell", "k", "sign"}:
        raise CertificateFormatError("params must contain exactly n, p, t, ell, k, sign")
    for key, val in params.items():
        # bool is a subclass of int, but true/false are not parameters
        if not isinstance(val, int) or isinstance(val, bool):
            raise CertificateFormatError(f"params.{key} must be an integer")
    return params


def verify_certificate(doc: dict) -> list[str]:
    """Recompute every derivable field; return a list of mismatch descriptions.
    The rebuild raises as build_certificate does, so params that cannot be
    built fail here exactly as they fail cert."""
    params = check_schema(doc)
    fresh = build_certificate(params["n"], params["p"], params["t"], params["sign"], params["ell"])
    # compared as JSON text: == would take false for 0 and 1.0 for 1.  The key
    # sets are equal by check_schema, so equal texts mean no field differs
    if json.dumps(doc, sort_keys=True) == json.dumps(fresh, sort_keys=True):
        return []
    diffs = []
    for key in sorted(_TOP_LEVEL_KEYS):
        have, want = (json.dumps(d[key], sort_keys=True) for d in (doc, fresh))
        if have != want:
            diffs.append(f"{key}: certificate has {have[:120]}, recomputed {want[:120]}")
    return diffs
