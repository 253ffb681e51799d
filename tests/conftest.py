"""Shared fixtures and reference constructions."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import spinpoint._schur as schur
from spinpoint import CMatrix

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def pauli():
    return CMatrix(SIGMA1), CMatrix(SIGMA2), CMatrix(SIGMA3)


def paired_spectra(a, b):
    """Return ``a`` and ``b`` as arrays, with ``b`` reordered to pair with ``a``.

    The pairing is the optimal assignment on |a_i - b_j|, so comparing the
    result elementwise compares the two eigenvalue multisets whatever
    order they come in. Sorting both with ``np.sort_complex`` instead
    mispairs them when a real part of 0.9999999999999999 meets 1.0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    return a[rows], b[cols]


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_cmatrix(rng, rows, cols=None):
    return CMatrix(random_complex(rng, rows, cols))


def random_hermitian(rng, n):
    m = random_complex(rng, n)
    return CMatrix((m + m.conj().T) / 2.0)


def random_unitary(rng, n):
    m = random_complex(rng, n)
    q, r = np.linalg.qr(m)
    return CMatrix(q * (np.diag(r) / np.abs(np.diag(r))))


def bit_pattern(x):
    """Entries as uint64 words, so that signed zeros and NaN payloads
    count."""
    return np.ascontiguousarray(x).view(np.uint64)


def det_lu_reference(mat):
    """Reference: the determinant of one matrix by LU elimination with
    partial pivoting, the loop the lockstep LU must reproduce bit for
    bit."""
    m = np.array(mat, dtype=complex)
    n = m.shape[0]
    out = 1.0 + 0.0j
    for k in range(n):
        p = int(np.abs(m[k:, k]).argmax()) + k
        if m[p, k] == 0.0:
            return 0.0 + 0.0j
        if p != k:
            m[[k, p]] = m[[p, k]]
            out = -out
        out *= m[k, k]
        m[k + 1:, k:] -= np.outer(m[k + 1:, k] / m[k, k], m[k, k:])
    return complex(out)


def char_poly_reference(mat):
    """Reference: the Faddeev-LeVerrier recursion on one matrix, the loop
    the lockstep recursion must reproduce bit for bit."""
    n = mat.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    aux = np.zeros_like(mat, dtype=complex)
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = mat @ aux + coeffs[n - k + 1] * eye
        coeffs[n - k] = -np.trace(mat @ aux) / k
    return coeffs * (-1.0) ** n


def eigenvalues_stack_reference(a):
    """Reference: the lockstep QR loop of ``_schur._eigenvalues_stack``
    with masks at every index, the deflation test on every entry, every
    shift entry gathered and the step budget checked each sweep:
    the loop whose rows the lockstep solver must reproduce bit for
    bit."""
    count, n = a.shape[0], a.shape[-1]
    e, scaled = schur._unit_scale(a)
    h, _ = schur.hessenberg(scaled, want_q=False)
    floor = schur._EPS * schur._norms(h.reshape(count, n * n))[:, 0]
    # Matrix index last: h[i, j] is entry (i, j) of every matrix.
    h = np.ascontiguousarray(h.transpose(1, 2, 0))
    budget = schur.SWEEP_BUDGET_PER_DIM * n
    every = np.arange(count)
    steps = np.zeros(count, dtype=int)
    stall = np.zeros(count, dtype=int)
    hi = np.full(count, n - 1)
    index = np.arange(n)[:, None]
    # Strided views of the diagonal and the subdiagonal, shape (n, N) and
    # (n - 1, N).
    diag = h.reshape(n * n, count)[::n + 1]
    sub = h.reshape(n * n, count)[n::n + 1]
    while True:
        # Zero every negligible subdiagonal entry. Entry l stops the upward
        # walk from hi at lo = l, and l = 0 always stops it.
        thresh = schur._EPS * (abs(diag[:-1]) + abs(diag[1:]))
        size = abs(sub)
        neg = (size <= thresh) | ((size <= floor) & (thresh == 0.0))
        sub[neg] = 0.0
        stops = np.concatenate([np.ones((1, count), dtype=bool), neg])
        # Deflate in one step: the block now ends at the last index at or
        # below hi that does not stop the walk (0 if none), and starts at
        # the last index at or below that which does.
        new_hi = np.where(~stops & (index <= hi), index, 0).max(axis=0)
        stall[new_hi != hi] = 0
        hi = new_hi
        lo = np.where(stops & (index <= hi), index, 0).max(axis=0)
        active = hi > 0
        if not active.any():
            return schur._ldexp(diag.T, e[:, None])
        late = active & (steps >= budget)
        if late.any():
            raise schur._budget_error(budget, int(hi[late.argmax()]))
        steps += active
        stall += active

        last = np.maximum(hi, 1)
        mu = np.where(
            stall % schur._STALL_LIMIT == 0,
            h[last, last, every] + 0.75 * abs(h[last, last - 1, every]),
            schur._wilkinson_shift(h[last - 1, last - 1, every],
                                   h[last - 1, last, every],
                                   h[last, last - 1, every],
                                   h[last, last, every]))

        first, stop = int(lo[active].min()), int(hi[active].max())
        # Row k - first: the matrices that rotate at k, and those whose
        # block starts at k (their rotation is that of the shifted QR
        # factorisation; the others chase their bulge).
        ks = np.arange(first, stop)[:, None]
        rotating = active & (lo <= ks) & (ks < hi)
        starting = lo == ks
        for k in range(first, stop):
            starts = starting[k - first]
            # At k = 0 every rotating matrix starts; column -1 is unread.
            x, y = h[k:k + 2, k - 1]
            x = np.where(starts, h[k, k] - mu, x)
            y = np.where(starts, h[k + 1, k], y)
            r = np.hypot(abs(x), abs(y))
            turn = rotating[k - first] & (r > 0.0)
            r = np.where(turn, r, 1.0)
            c = np.where(turn, x / r, 1.0)
            s = np.where(turn, y / r, 0.0)
            cc, sc = c.conj(), s.conj()
            # Rows k, k + 1 times G = [[c*, s*], [-s, c]], then columns
            # k, k + 1 times G*.
            cols = slice(max(k - 1, first), stop + 1)
            top, bottom = h[k, cols], h[k + 1, cols]
            upper = cc * top + sc * bottom
            np.multiply(c, bottom, out=bottom)
            bottom -= s * top
            top[...] = upper
            if k > first:
                # The chased bulge; the entry is already 0 in every matrix
                # that does not chase one through k.
                h[k + 1, k - 1] = 0.0
            rows = slice(first, min(k + 3, stop + 1))
            left, right = h[rows, k], h[rows, k + 1]
            column = left * c + right * s
            np.multiply(right, cc, out=right)
            right -= left * sc
            left[...] = column


def hessenberg_reference(a, want_q=True):
    """Reference: the Householder reduction of ``_schur.hessenberg``
    without its early return for input already upper Hessenberg, the
    loop that reduces every stack with a member that is not Hessenberg,
    bit for bit."""
    n = a.shape[-1]
    h = np.array(a, dtype=complex)
    q = None
    if want_q:
        q = np.empty_like(h)
        q[...] = np.eye(n, dtype=complex)
    for k in range(n - 2):
        x = h[..., k + 1:, k]
        pivot = x[..., :1]
        size = np.hypot(pivot.real, pivot.imag)
        flat = size == 0.0
        v = x.copy()
        v[..., :1] += (pivot + flat) / (size + flat) * schur._norms(x)
        norm_v = schur._norms(v)
        v /= norm_v + (norm_v == 0.0)
        col, row = v[..., :, None], v.conj()[..., None, :]
        h[..., k + 1:, k:] -= 2.0 * (col * (row @ h[..., k + 1:, k:]))
        h[..., :, k + 1:] -= 2.0 * ((h[..., :, k + 1:] @ col) * row)
        if q is not None:
            q[..., :, k + 1:] -= 2.0 * ((q[..., :, k + 1:] @ col) * row)
        h[..., k + 2:, k] = 0.0
    return h, q


def locate_reference(pencil, coeffs, roots):
    """Reference for ``exceptional._locate``: the spectrum at each root
    and each Newton step from ``eigenvalues``, one at a time, and each
    split from reachability closed by repeated boolean matrix products at
    every halved radius, where ``_locate`` reads one bottleneck table."""
    from spinpoint import eigenvalues
    from spinpoint import exceptional as ex

    pairs = np.triu_indices(pencil.size, 1)

    def polish(slope, z, eigs):
        previous = np.inf
        while True:
            step = (ex._spectral_disc(eigs, pairs)
                    / complex(np.polyval(slope, z)))
            if abs(step) <= ex._NEWTON_STEP_TOL * (1.0 + abs(z)):
                return z, eigs, True
            if not abs(step) <= 0.5 * previous:
                return z, eigs, False
            z -= step
            eigs = np.asarray(eigenvalues(pencil.at(z)))
            previous = abs(step)

    def linked(points, radius):
        count = len(points)
        reach = (ex._pair_distances(points) < radius) \
            | np.eye(count, dtype=bool)
        while True:
            grown = (reach.astype(int) @ reach) > 0
            if np.array_equal(grown, reach):
                break
            reach = grown
        first = reach.argmax(axis=1)
        return [np.flatnonzero(reach[i]) for i in range(count)
                if first[i] == i]

    spectra = np.array([eigenvalues(pencil.at(z)) for z in roots])
    gaps = ex._min_gap(spectra)
    slope = np.polyder(coeffs[::-1])
    found = []
    pending = [(np.arange(len(roots)),
                float(np.ptp(roots.real) + np.ptp(roots.imag)))]
    while pending:
        members, radius = pending.pop()
        if len(members) == 1:
            i = members[0]
            found.append(polish(slope, complex(roots[i]), spectra[i]))
            continue
        centroid = complex(roots[members].mean())
        offsets = np.abs(roots[members] - centroid)
        if offsets.max() <= 2.0 * offsets.min():
            eigs = np.asarray(eigenvalues(pencil.at(centroid)))
            if ex._min_gap(eigs) <= gaps[members].min():
                found.append((centroid, eigs, False))
                continue
        parts = [members]
        while len(parts) == 1:
            radius /= 2.0
            parts = linked(roots[members], radius)
        pending += [(members[part], radius) for part in parts]
    return found


def find_exceptional_points_reference(pencil):
    """Reference: ``find_exceptional_points`` solving one root at a time,
    the stage the stacked locator must reproduce field for field. The
    spectrum at each root, each Newton step's and each candidate's
    certificate come one at a time from ``eigenvalues`` and scalar
    arithmetic, and the groups from ``locate_reference``."""
    from spinpoint import DEFAULT_TOLERANCE, EPCandidate, frobenius_norm
    from spinpoint import exceptional as ex
    from spinpoint.cmatrix import _full_pivot_eliminate

    n = pencil.size
    if n < 2:
        return []
    coeffs, disc_scale = ex._discriminant(pencil)
    if len(coeffs) < 2:
        return []
    roots = ex._companion_roots(coeffs)
    found = locate_reference(pencil, coeffs, roots)

    norm_a = frobenius_norm(pencil.a)
    norm_b = frobenius_norm(pencil.b)
    fields, shifted, floors = [], [], []
    for z, eigs, converged in found:
        i, j = divmod(int(ex._pair_distances(eigs).argmin()), len(eigs))
        e = complex((eigs[i] + eigs[j]) / 2.0)
        gap = float(ex._min_gap(eigs))
        disc_residual = abs(complex(np.polyval(coeffs[::-1], z))) / disc_scale
        scale = 1.0 + norm_a + abs(z) * norm_b
        accepted = gap <= ex._GAP_CERTIFICATION * scale and \
            disc_residual <= ex._GAP_CERTIFICATION
        fields.append(dict(
            z=z, degenerate_eigenvalue=e, gap=gap,
            discriminant_residual=disc_residual, newton_converged=converged,
            accepted=accepted))
        shifted.append(pencil.at(z).data - e * np.eye(n))
        floors.append(10.0 * gap)
    ranks = _full_pivot_eliminate(np.array(shifted), DEFAULT_TOLERANCE,
                                  floors)[1]
    candidates = [EPCandidate(geometric_multiplicity=n - r, **f)
                  for f, r in zip(fields, ranks)]
    candidates.sort(key=lambda c: (abs(c.z), np.angle(c.z)))
    return candidates
