"""Command-line front end.

Subcommands: gen, check, kernel, ep, trace, fermi, sweep-phi. Results go
to stdout as JSON unless --format selects csv, mm, or pretty; errors go
to stderr as ``<code>: <message>``. Exit status is 0 on success, 1 on
validation errors, 2 on numerical failures. The environment variable
SPINPOINT_TOL (a decimal string) overrides the value of the default
tolerance, 1e-12.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import matio
from .analysis import nilpotency_report, normality_report, sweep_phi
from .cmatrix import CMatrix, DEFAULT_TOLERANCE, Tolerance, rank
from .errors import SpinpointError
from .exceptional import PathSpec, PencilFamily, find_exceptional_points, \
    trace_sheets
from .fermi import quadratic_fermi_rep, rep_eigen_analysis
from .kernel import kernel_vector
from .spins import Spin, nonnormal_hamiltonian, parse_spin, spin_matrices


class CLIError(SpinpointError):
    """A refused command line or input file; ``code`` names the refusal."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError("usage", message)


def _tolerance() -> Tolerance:
    raw = os.environ.get("SPINPOINT_TOL")
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        return Tolerance(value=float(raw))
    except ValueError as exc:
        raise CLIError("invalid-tolerance", f"SPINPOINT_TOL: {exc}")


def _parse_spin_arg(args) -> Spin:
    if args.twice_spin is not None:
        if args.spin is not None:
            raise CLIError("invalid-spin", "give --spin or --twice-spin, not both")
        try:
            return Spin(args.twice_spin)
        except ValueError as exc:
            raise CLIError("invalid-spin", str(exc))
    if args.spin is None:
        raise CLIError("invalid-spin", "missing --spin or --twice-spin")
    try:
        return parse_spin(args.spin)
    except ValueError as exc:
        raise CLIError("invalid-spin", str(exc))


def _parse_complex(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise CLIError(f"invalid-{flag}", f"--{flag} expects RE,IM, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise CLIError(f"invalid-{flag}", f"--{flag} expects RE,IM, got {text!r}")


def _read_matrix(path: str, flag: str) -> CMatrix:
    try:
        return matio.read_file(path)
    except OSError as exc:
        raise CLIError("bad-matrix-file", f"--{flag}: {exc}")
    except ValueError as exc:
        raise CLIError("bad-matrix-file", f"--{flag} {path}: {exc}")


def _plain(value):
    """JSON form of what ``json`` cannot encode itself: a complex number
    as [re, im], an array as a list, a matrix in the ``matio`` schema and
    a report dataclass as its fields."""
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, CMatrix):
        return matio.matrix_to_dict(value)
    if dataclasses.is_dataclass(value):
        return vars(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json(payload) -> str:
    return json.dumps(payload, default=_plain, sort_keys=True)


def _csv_cell(value) -> str:
    if isinstance(value, complex):
        return f"{float(value.real)!r},{float(value.imag)!r}"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _csv(rows, names=None) -> str:
    """One line per row, under a header of ``names`` when given. A complex
    value fills two cells, the ``repr`` of its real and imaginary parts
    as floats, headed name_re,name_im."""
    lines = [",".join(map(_csv_cell, row)) for row in rows]
    if names is not None:
        lines.insert(0, ",".join(
            f"{name}_re,{name}_im" if isinstance(value, complex) else name
            for name, value in zip(names, rows[0])))
    return "\n".join(lines)


def _format_entry(v: complex) -> str:
    re, im = v.real, v.imag
    if im == 0.0:
        return f"{re:.6g}"
    if re == 0.0:
        return f"{im:.6g}i"
    return f"{re:.6g}{im:+.6g}i"


def _emit_matrix(m: CMatrix, fmt: str) -> str:
    if fmt == "json":
        return _json(m)
    if fmt == "mm":
        return matio.to_matrix_market(m).rstrip("\n")
    if fmt == "csv":
        return _csv(m.data)
    cells = [[_format_entry(v) for v in row] for row in m.data]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


_GEN_OPS = ("s1", "s2", "s3", "s+", "s-", "h1", "h2", "hz")


def _cmd_gen(args) -> str:
    spin = _parse_spin_arg(args)
    if args.op not in _GEN_OPS:
        raise CLIError("invalid-op", f"--op must be one of {', '.join(_GEN_OPS)}")
    if args.op == "hz":
        if args.z is None:
            raise CLIError("invalid-z", "--op hz requires --z RE,IM")
        matrix = nonnormal_hamiltonian(spin, 1, _parse_complex(args.z, "z"))
    elif args.op in ("h1", "h2"):
        matrix = nonnormal_hamiltonian(spin, int(args.op[1]), 1j)
    else:
        mats = spin_matrices(spin)
        matrix = {"s1": mats.s1, "s2": mats.s2, "s3": mats.s3,
                  "s+": mats.s_plus, "s-": mats.s_minus}[args.op]
    return _emit_matrix(matrix, args.format)


def _cmd_check(args) -> str:
    tol = _tolerance()
    matrix = _read_matrix(args.input, "input")
    payload = {"matrix": matrix}
    if matrix.is_square:
        payload["normality"] = normality_report(matrix, tol)
        payload["nilpotency"] = nilpotency_report(matrix, tol)
    return _json(payload)


def _cmd_kernel(args) -> str:
    tol = _tolerance()
    spin = _parse_spin_arg(args)
    if args.axis not in (1, 2):
        raise CLIError("invalid-axis", f"--axis must be 1 or 2, got {args.axis}")
    solution = kernel_vector(spin, args.axis)
    matrix = nonnormal_hamiltonian(spin, args.axis, 1j)
    return _json({"vector": solution.vector, "residual": solution.residual,
                  "consistency": solution.consistency,
                  "rank": rank(matrix, tol)})


def _cmd_ep(args) -> str:
    tol = _tolerance()
    return _json(find_exceptional_points(_make_pencil(args), tol=tol))


def _make_pencil(args) -> PencilFamily:
    a = _read_matrix(args.a, "a")
    b = _read_matrix(args.b, "b")
    try:
        return PencilFamily(a=a, b=b)
    except (ValueError, SpinpointError) as exc:
        raise CLIError("invalid-pencil", str(exc))


def _cmd_trace(args) -> str:
    pencil = _make_pencil(args)
    try:
        path = PathSpec(center=_parse_complex(args.center, "center"),
                        radius=args.radius, steps=args.steps, turns=args.turns)
    except ValueError as exc:
        raise CLIError("invalid-path", str(exc))
    result = trace_sheets(pencil, path)
    if args.format == "csv":
        names = ["step", "t", "z"] + [f"eig{k}" for k in range(pencil.size)]
        return _csv([[j, j / path.steps, path.point(j / path.steps), *values]
                     for j, values in enumerate(result.trajectories)], names)
    return _json({"permutation": result.permutation,
                  "closure_error": result.closure_error})


def _cmd_fermi(args) -> str:
    tol = _tolerance()
    m = _read_matrix(args.m, "m")
    try:
        rep = quadratic_fermi_rep(m)
    except SpinpointError as exc:
        raise CLIError("invalid-coefficients", str(exc))
    analysis = rep_eigen_analysis(rep, tol)
    return _json({"rep": rep.rep, "eigenvalues": analysis.eigenvalues,
                  "zero_multiplicity": analysis.geometric_multiplicity_of_zero})


def _cmd_sweep_phi(args) -> str:
    try:
        rows = sweep_phi(args.steps)
    except ValueError as exc:
        raise CLIError("invalid-steps", str(exc))
    if args.format == "csv":
        return _csv([list(row.values()) for row in rows], list(rows[0]))
    return _json(rows)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spinpoint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spin_flags(p):
        p.add_argument("--spin", help="spin as '3/2', '1.5', or '2'")
        p.add_argument("--twice-spin", type=int, dest="twice_spin",
                       help="spin given as the integer 2s")

    gen = sub.add_parser("gen", help="generate a spin-family matrix")
    add_spin_flags(gen)
    gen.add_argument("--op", required=True,
                     help="one of " + ", ".join(_GEN_OPS))
    gen.add_argument("--z", help="RE,IM for --op hz")
    gen.add_argument("--format", default="json",
                     choices=("json", "csv", "mm", "pretty"))

    check = sub.add_parser("check", help="normality/nilpotency report for a matrix file")
    check.add_argument("--input", required=True)

    kern = sub.add_parser("kernel", help="null vector of s3 + i s_axis")
    add_spin_flags(kern)
    kern.add_argument("--axis", type=int, required=True)

    ep = sub.add_parser("ep", help="exceptional points of the pencil A + z B")
    ep.add_argument("--a", required=True)
    ep.add_argument("--b", required=True)

    tr = sub.add_parser("trace", help="eigenvalue monodromy around a loop")
    tr.add_argument("--a", required=True)
    tr.add_argument("--b", required=True)
    tr.add_argument("--center", required=True, help="RE,IM")
    tr.add_argument("--radius", type=float, required=True)
    tr.add_argument("--steps", type=int, required=True)
    tr.add_argument("--turns", type=int, default=1)
    tr.add_argument("--format", default="json", choices=("json", "csv"))

    fermi = sub.add_parser("fermi", help="Fock representation of a quadratic Fermi operator")
    fermi.add_argument("--m", required=True, help="2x2 coefficient matrix file")

    sweep = sub.add_parser("sweep-phi", help="hermitian-to-nonnormal transition table")
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--format", default="json", choices=("json", "csv"))

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "kernel": _cmd_kernel,
    "ep": _cmd_ep,
    "trace": _cmd_trace,
    "fermi": _cmd_fermi,
    "sweep-phi": _cmd_sweep_phi,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        output = _HANDLERS[args.command](args)
    except SpinpointError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_status
    except ValueError as exc:
        print(f"invalid-input: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
