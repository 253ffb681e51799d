"""Seeded inputs, item runners and output oracles for the four workloads.

Each workload builds a fixed pool of items from the seed; one pass runs
every item of the pool once, in an order drawn from the seed. The
oracles use numpy's LAPACK routines and closed forms only, never the
spinpoint kernel they check. ``check`` returns None for a correct
output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# Independent references


def spin_ops(two_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s1, s2, s3) in the m-descending basis from the ladder formula."""
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    plus = np.diag(np.sqrt((s - m[1:]) * (s + m[1:] + 1.0)), 1).astype(complex)
    minus = plus.conj().T
    return (plus + minus) / 2.0, -0.5j * (plus - minus), np.diag(m).astype(complex)


def hamiltonian_ref(two_s: int, axis: int, z: complex) -> np.ndarray:
    s1, s2, s3 = spin_ops(two_s)
    return s3 + z * (s1 if axis == 1 else s2)


def null_vector_ref(h: np.ndarray) -> np.ndarray:
    return np.linalg.svd(h)[2][-1].conj()


def complex_gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def min_gap(values) -> float:
    v = np.asarray(values, dtype=complex)
    d = np.abs(v[:, None] - v[None, :])
    d[np.diag_indices(len(v))] = np.inf
    return float(d.min())


def parallel(u, v, tol: float) -> bool:
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    cos = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return cos >= 1.0 - tol


def rank_chain_ref(n: int) -> tuple[int, ...]:
    """rank(A^k), k = 1..n, of a single n x n nilpotent Jordan block."""
    return tuple(range(n - 1, -1, -1))


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.items: list = []
        self._order_rng = np.random.default_rng([seed, 1])

    def setup(self, sp) -> None:
        """Build the item pool; ``sp`` is the spinpoint package or None."""
        raise NotImplementedError

    def warm_up_item(self):
        return self.items[0]

    def pass_order(self) -> list:
        return [self.items[i] for i in self._order_rng.permutation(len(self.items))]

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Hierarchy(Workload):
    """2s = 1..25 on axes 1 and 2: build, certify and solve s3 + i s_axis."""

    name = "hierarchy"

    def setup(self, sp):
        self.sp = sp
        top = 3 if self.tiny else 25
        self.items = [(two_s, axis) for two_s in range(1, top + 1)
                      for axis in (1, 2)]

    def warm_up_item(self):
        return (4, 1)

    def run(self, item):
        sp = self.sp
        two_s, axis = item
        spin = sp.Spin(two_s)
        h = sp.nonnormal_hamiltonian(spin, axis, 1j)
        report = sp.nilpotency_report(h)
        solution = sp.kernel_vector(spin, axis)
        unique = sp.verify_uniqueness(spin, axis)
        null = sp.nullspace(h)
        return h.data, report, solution.vector, unique, null

    def check(self, item, out):
        two_s, axis = item
        h, report, vector, unique, null = out
        n = two_s + 1
        ref = hamiltonian_ref(two_s, axis, 1j)
        if not np.allclose(h, ref, rtol=0.0, atol=1e-13 * (1 + np.linalg.norm(ref))):
            return "matrix differs from the ladder formula"
        if not report.is_nilpotent or report.index != n:
            return f"nilpotency {report.is_nilpotent}, index {report.index} != {n}"
        if tuple(report.rank_chain) != rank_chain_ref(n):
            return f"rank chain {tuple(report.rank_chain)}"
        residual = float(np.linalg.norm(ref @ vector))
        if residual > 1e-10 * n or abs(np.linalg.norm(vector) - 1.0) > 1e-12:
            return f"kernel residual {residual:.3e}"
        if not unique:
            return "verify_uniqueness is False"
        if len(null) != 1:
            return f"nullspace dimension {len(null)}"
        if not parallel(null[0], vector, 1e-8):
            return "nullspace not parallel to kernel_vector"
        return None


class EPLocate(Workload):
    """find_exceptional_points on seeded random pencils and spin pencils."""

    name = "ep_locate"
    # Random pencils per pass by size. n = 3 outnumbers n = 2 so that the
    # median item falls inside one size class rather than on its edge.
    RANDOM_COUNTS = {2: 24, 3: 96}
    SPIN_TWICE = (2, 3)
    # The sizes the locator is known to fail on; run by envelope_probe.
    ENVELOPE_SIZES = (4, 5, 6)
    ENVELOPE_PER_SIZE = 8
    ENVELOPE_SPIN_TWICE = (4, 5, 6)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self._rng = np.random.default_rng([seed, 0])

    def _random_item(self, n):
        a, b = complex_gaussian(self._rng, n), complex_gaussian(self._rng, n)
        pencil = self.sp.PencilFamily(a=self.sp.CMatrix(a), b=self.sp.CMatrix(b))
        return ("random", n, pencil, a, b)

    def _spin_item(self, two_s):
        s1, _, s3 = spin_ops(two_s)
        pencil = self.sp.PencilFamily(a=self.sp.CMatrix(s3), b=self.sp.CMatrix(s1))
        return ("spin", two_s + 1, pencil, s3, s1)

    def setup(self, sp):
        self.sp = sp
        self.items = [self._random_item(n)
                      for n, count in self.RANDOM_COUNTS.items()
                      for _ in range(1 if self.tiny else count)]
        spins = self.SPIN_TWICE[:1] if self.tiny else self.SPIN_TWICE
        self.items += [self._spin_item(two_s) for two_s in spins]

    def warm_up_item(self):
        return self._random_item(3)

    def run(self, item):
        return self.sp.find_exceptional_points(item[2])

    def check(self, item, out):
        kind, n, _, a, b = item
        zs = [complex(c.z) for c in out]
        if kind == "spin":
            got = sorted(zs, key=lambda z: z.imag)
            if len(got) != 2 or abs(got[0] + 1j) > 1e-6 or abs(got[1] - 1j) > 1e-6:
                return f"spin pencil n={n}: {len(zs)} candidates, expected +/- i"
            return None
        if len(zs) != n * (n - 1):
            return f"random pencil n={n}: {len(zs)} candidates, expected {n * (n - 1)}"
        if len(zs) > 1:
            d = np.abs(np.subtract.outer(zs, zs))
            scale = 1.0 + np.add.outer(np.abs(zs), np.abs(zs))
            d[np.diag_indices(len(zs))] = np.inf
            if (d <= 1e-7 * scale).any():
                return f"random pencil n={n}: repeated candidates"
        norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
        for z in zs:
            gap = min_gap(np.linalg.eigvals(a + z * b))
            bound = 1e-3 * (1.0 + norm_a + abs(z) * norm_b)
            if gap > bound:
                return (f"random pencil n={n}: eigenvalue gap {gap:.3e} at "
                        f"z={z:.6g} exceeds {bound:.3e}")
        return None

    def envelope_probe(self) -> list[tuple[str, str | None]]:
        """Run the known-defect envelope once: random pencils at n = 4..6
        and spin pencils 2s = 4..6. Returns (label, failure or None)."""
        per_size = 1 if self.tiny else self.ENVELOPE_PER_SIZE
        probe = [self._random_item(n) for n in self.ENVELOPE_SIZES
                 for _ in range(per_size)]
        probe += [self._spin_item(two_s) for two_s in self.ENVELOPE_SPIN_TWICE]
        results = []
        for item in probe:
            label = f"{item[0]} n={item[1]}"
            try:
                reason = self.check(item, self.run(item))
            except Exception as exc:  # recorded as a failure of this item
                reason = f"{type(exc).__name__}: {exc}"
            results.append((label, reason))
        return results


class SheetTrace(Workload):
    """trace_sheets, 256 steps, radius 0.1, on the 2x2 and spin pencils."""

    name = "sheet_trace"
    STEPS = 256
    RADIUS = 0.1
    # Seeded unitary similarities of the 2x2 pencil; each runs all three
    # 2x2 loops, so the median item has many samples per run.
    TWO_BY_TWO_VARIANTS = 3

    def setup(self, sp):
        self.sp = sp
        rng = np.random.default_rng([self.seed, 0])
        steps = 32 if self.tiny else self.STEPS
        loops = []
        for _ in range(1 if self.tiny else self.TWO_BY_TWO_VARIANTS):
            q = random_unitary(rng, 2)
            two = sp.PencilFamily(
                a=sp.CMatrix(q @ np.diag([0.0, 1.0]) @ q.conj().T),
                b=sp.CMatrix(q @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ q.conj().T))
            loops += [(two, 2, None, 0.5j, 1), (two, 2, None, 0.0, 1),
                      (two, 2, None, 0.5j, 2)]
        for two_s in (() if self.tiny else (2, 3, 6)):
            s1, _, s3 = spin_ops(two_s)
            pencil = sp.PencilFamily(a=sp.CMatrix(s3), b=sp.CMatrix(s1))
            loops += [(pencil, two_s + 1, two_s, 1j, 1),
                      (pencil, two_s + 1, two_s, 1.0, 1)]
        self.items = [(pencil, n, two_s, sp.PathSpec(center=center, radius=self.RADIUS,
                                                     steps=steps, turns=turns))
                      for pencil, n, two_s, center, turns in loops]

    def run(self, item):
        return self.sp.trace_sheets(item[0], item[3])

    def check(self, item, out):
        _, n, two_s, path = item
        perm = tuple(out.permutation)
        if two_s is None:
            # diag(0, 1) + z sigma1 has its EPs at +/- i/2: one turn around
            # i/2 swaps the sheets, other loops return them.
            swaps = abs(path.center - 0.5j) < 1e-12 and path.turns % 2 == 1
            expected = (1, 0) if swaps else (0, 1)
        else:
            # Eigenvalues of s3 + z s1 are m sqrt(1 + z^2); a loop around
            # the branch point z = i sends sheet m to sheet -m.
            z0 = path.point(0.0)
            w = np.sqrt(1.0 + z0 * z0)
            start = np.asarray(out.trajectories[0], dtype=complex)
            m = start / w
            half = np.round(2.0 * m.real) / 2.0
            ref = two_s / 2.0 - np.arange(n)
            if (np.abs(m - half).max() > 1e-8
                    or sorted(half) != sorted(ref)):
                return f"spin 2s={two_s}: start values are not m sqrt(1+z^2)"
            if abs(path.center - 1j) < 1e-12:
                expected = tuple(int(np.flatnonzero(half == -h)[0]) for h in half)
            else:
                expected = tuple(range(n))
        if perm != expected:
            return f"n={n} loop at {path.center}: permutation {perm} != {expected}"
        return None


# ---------------------------------------------------------------------------
# Cold CLI processes


def child_env() -> dict:
    """The parent's environment (BLAS pin included) with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _matrix_json(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=complex)
    return json.dumps({"rows": m.shape[0], "cols": m.shape[1],
                       "data": [[float(v.real), float(v.imag)] for v in m.ravel()]})


def _matrix_from_json(obj) -> np.ndarray:
    data = np.array([complex(re, im) for re, im in obj["data"]])
    return data.reshape(obj["rows"], obj["cols"])


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def scipy_import_us(stderr: str) -> int:
    """Cumulative microseconds of the outermost scipy imports in a
    ``-X importtime`` report (post-order, two spaces per nesting level)."""
    entries = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            entries.append((len(match.group(3)), match.group(4), int(match.group(2))))
    total = 0
    ancestors: list[tuple[int, str]] = []
    # Reversed post-order is pre-order: a line's ancestors precede it.
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] for a in ancestors):
            total += cumulative
        ancestors.append((depth, is_scipy))
    return total


class CliCold(Workload):
    """One cold ``python -m spinpoint.cli`` process per subcommand."""

    name = "cli_cold"

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.traced = False
        self.records: list[dict] = []
        self.dir = WORK / f"cli-{os.getpid()}"

    def setup(self, sp):
        rng = np.random.default_rng([self.seed, 0])
        self.dir.mkdir(parents=True, exist_ok=True)
        self.two_s = int(rng.integers(2, 9))
        self.axis = int(rng.integers(1, 3))
        q = random_unitary(rng, 2)
        self.pencil_a = q @ np.diag([0.0, 1.0]) @ q.conj().T
        self.pencil_b = q @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ q.conj().T
        self.fermi_m = complex_gaussian(rng, 2)
        self.sweep_steps = int(rng.integers(9, 66))
        files = {"h.json": hamiltonian_ref(self.two_s, self.axis, 1j),
                 "a.json": self.pencil_a, "b.json": self.pencil_b,
                 "m.json": self.fermi_m}
        for fname, matrix in files.items():
            (self.dir / fname).write_text(_matrix_json(matrix))
        d = str(self.dir)
        self.items = [
            ("gen", "--twice-spin", str(self.two_s), "--op", f"h{self.axis}"),
            ("check", "--input", f"{d}/h.json"),
            ("kernel", "--twice-spin", str(self.two_s), "--axis", str(self.axis)),
            ("ep", "--a", f"{d}/a.json", "--b", f"{d}/b.json"),
            ("trace", "--a", f"{d}/a.json", "--b", f"{d}/b.json",
             "--center", "0,0.5", "--radius", "0.1", "--steps", "256"),
            ("fermi", "--m", f"{d}/m.json"),
            ("sweep-phi", "--steps", str(self.sweep_steps)),
        ]
        if self.tiny:
            self.items = self.items[:1] + self.items[3:4]

    def run(self, item):
        if not self.traced:
            argv = [sys.executable, "-m", "spinpoint.cli", *item]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=child_env(), cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout
        record_path = self.dir / "record.json"
        argv = [sys.executable, "-X", "importtime",
                str(Path(__file__).with_name("cli_child.py")),
                "--record", str(record_path), "--", *item]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        record = json.loads(record_path.read_text())
        record["wall_s"] = wall
        record["scipy_import_s"] = scipy_import_us(proc.stderr) * 1e-6
        self.records.append(record)
        return proc.returncode, proc.stdout

    def check(self, item, out):
        code, stdout = out
        if code != 0:
            return f"{item[0]}: exit status {code}"
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{item[0]}: stdout is not JSON"
        checker = getattr(self, "_check_" + item[0].replace("-", "_"))
        return checker(payload)

    def _check_gen(self, payload):
        ref = hamiltonian_ref(self.two_s, self.axis, 1j)
        if not np.allclose(_matrix_from_json(payload), ref, rtol=0.0, atol=1e-13):
            return "gen: matrix differs from the ladder formula"
        return None

    def _check_check(self, payload):
        n = self.two_s + 1
        nil = payload["nilpotency"]
        if (not nil["is_nilpotent"] or nil["index"] != n
                or tuple(nil["rank_chain"]) != rank_chain_ref(n)):
            return f"check: nilpotency report {nil}"
        if payload["normality"]["is_normal"]:
            return "check: nilpotent Jordan block reported normal"
        return None

    def _check_kernel(self, payload):
        n = self.two_s + 1
        ref = hamiltonian_ref(self.two_s, self.axis, 1j)
        vector = np.array([complex(re, im) for re, im in payload["vector"]])
        if not parallel(vector, null_vector_ref(ref), 1e-8):
            return "kernel: vector not parallel to the SVD null vector"
        if np.linalg.norm(ref @ vector) > 1e-10 * n or payload["rank"] != n - 1:
            return f"kernel: residual or rank {payload['rank']} wrong"
        return None

    def _check_ep(self, payload):
        zs = sorted((complex(*c["z"]) for c in payload), key=lambda z: z.imag)
        if len(zs) != 2 or abs(zs[0] + 0.5j) > 1e-8 or abs(zs[1] - 0.5j) > 1e-8:
            return f"ep: candidates {zs}, expected +/- i/2"
        return None

    def _check_trace(self, payload):
        if payload["permutation"] != [1, 0]:
            return f"trace: permutation {payload['permutation']} != [1, 0]"
        return None

    def _check_fermi(self, payload):
        m = self.fermi_m
        rep_ref = np.zeros((4, 4), dtype=complex)
        rep_ref[1:3, 1:3] = m
        rep_ref[3, 3] = np.trace(m)
        if not np.array_equal(_matrix_from_json(payload["rep"]), rep_ref):
            return "fermi: representation differs from the block rule"
        got = np.array([complex(re, im) for re, im in payload["eigenvalues"]])
        ref = np.concatenate([[0.0, np.trace(m)], np.linalg.eigvals(m)])
        tol = 1e-9 * (1.0 + np.linalg.norm(m))
        if len(got) != 4 or any(np.abs(got - r).min() > tol for r in ref):
            return "fermi: eigenvalues differ from {0, eig(M), tr M}"
        if payload["zero_multiplicity"] != 1:
            return f"fermi: zero multiplicity {payload['zero_multiplicity']}"
        return None

    def _check_sweep_phi(self, payload):
        steps = self.sweep_steps
        if len(payload) != steps:
            return f"sweep-phi: {len(payload)} rows, expected {steps}"
        for k, row in enumerate(payload):
            phi = k * (np.pi / 2.0) / (steps - 1)
            lam = np.sqrt(1.0 + np.exp(2j * phi))
            got = {complex(*row["lam_plus"]), complex(*row["lam_minus"])}
            if (abs(row["phi"] - phi) > 1e-15
                    or any(min(abs(g - r) for g in got) > 1e-12 for r in (lam, -lam))):
                return f"sweep-phi: row {k} differs from +/- sqrt(1 + e^(2i phi))"
        return None

    def close(self):
        for path in self.dir.glob("*"):
            path.unlink()
        self.dir.rmdir()


WORKLOADS = {cls.name: cls for cls in (Hierarchy, EPLocate, SheetTrace, CliCold)}
