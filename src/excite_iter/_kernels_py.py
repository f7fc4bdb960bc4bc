"""Pure-Python kernels, the fallback for the compiled ones in _kernels.c.
kernels.py imports this module only when it is the backend, or when
get_backend('python') asks for it.

riccati_sweep integrates S'' = S'^2 - 2(V - E) for the quartic double well
with classic RK4 at fixed step; shoot runs a shooting solve's two sweeps
by it, one after the other where the C loop interleaves them, and joins
them.  soluble_profile is the box's closed-form S and S'.  scaled_weights,
sample_nodes, excite_step and weighted_simpson are the grid passes of an
iteration: a ground state's weights, the trial samples, a step's profile
and split in one call, and the residual's two integrals from
simpson_integral.  write_csv_rows writes CSV rows with
Python's '%.17g' % v.  There is no allocator here: the blocks of a run
come from kernels.empty on both backends.  Each kernel is its C loop
written in Python: the same floating-point operations in the same order,
with the same libm exp, log, sin and tan, writing the same characters;
the backend tests compare the two bit for bit.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice

from .kernels import (BLOWUP_LIMIT, CSV_CHUNK_ROWS, as_doubles, check_out,
                      in_place, odd_columns, step_inputs, zeros)


def simpson_integral(values, h: float) -> float:
    """Composite Simpson integral of uniformly sampled values over all of
    them, h/3 (y0 + y_last + 4 odd + 2 even), the odd and even interior
    samples each summed in order from 0.0; the panel count must be even
    (an odd node count)."""
    y = values
    if len(y) < 3 or len(y) % 2 == 0:
        raise ValueError("composite Simpson needs an even panel count, "
                         "at least 2")
    odd = even = 0.0
    for i in range(1, len(y) - 1, 2):
        odd += y[i]
    for i in range(2, len(y) - 1, 2):
        even += y[i]
    return h / 3.0 * (y[0] + y[-1] + 4.0 * odd + 2.0 * even)


def riccati_sweep(x_start: float, h: float, n_steps: int, g: float,
                  e: float, s_init: float, sp_init: float):
    """Integrate (S, S') over n_steps of signed step h from x_start.

    Returns (s, sp, node_index): array('d')s of length n_steps + 1 and the
    step index at which |S'| exceeded the blow-up limit (the integrated
    log-derivative diverges where the wave function has a node), or -1 if
    the sweep stayed regular.  Raises ValueError for n_steps < 0.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    s, sp = zeros(n_steps + 1), zeros(n_steps + 1)
    s[0] = s_init
    sp[0] = sp_init
    gg = g * g
    a = s_init
    b = sp_init
    for i in range(n_steps):
        t = x_start + i * h

        t2 = t * t - 1.0
        k1a = b
        k1b = b * b - gg * t2 * t2 + 2.0 * e

        tm = t + 0.5 * h
        t2 = tm * tm - 1.0
        vm = gg * t2 * t2 - 2.0 * e
        b2 = b + 0.5 * h * k1b
        k2a = b2
        k2b = b2 * b2 - vm

        b3 = b + 0.5 * h * k2b
        k3a = b3
        k3b = b3 * b3 - vm

        tp = t + h
        t2 = tp * tp - 1.0
        b4 = b + h * k3b
        k4a = b4
        k4b = b4 * b4 - gg * t2 * t2 + 2.0 * e

        a += h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b += h / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        s[i + 1] = a
        sp[i + 1] = b
        if abs(b) > BLOWUP_LIMIT:
            # leave a deterministic tail; entries past a node are meaningless
            tail = array("d", [math.nan]) * (n_steps - i - 1)
            s[i + 2:] = tail
            sp[i + 2:] = tail
            return s, sp, i + 1
    return s, sp, -1


def shoot(x_max: float, h: float, n: int, m: int, g: float, e: float,
          sp_end: float, s=None, sp=None) -> tuple[bool, float, float]:
    """The two sweeps of a shooting solve on the n nodes x_i = i h, the
    last at x_max, 0 <= m < n: outward from (S, S') = (0, 0) at node 0
    over m steps, and inward from (0, sp_end) at x_max over n - 1 - m
    steps of -h.  Returns (False, the outward S' at node m, the inward
    one), or (True, nan, nan) when a sweep blew up.

    With s and sp (see check_out) it also writes the joined profile into
    them: S from the outward sweep below node m, and from node m on the
    inward one shifted to meet it there; S' from the outward sweep up to
    node m and from the inward one after it.  A blow-up fills both with
    NaN.  Raises ValueError unless 0 <= m < n.
    """
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    if s is not None or sp is not None:
        check_out(sp, n, (s, check_out(s, n)))
    s_out, sp_out, node_out = riccati_sweep(0.0, h, m, g, e, 0.0, 0.0)
    s_in, sp_in, node_in = riccati_sweep(x_max, -h, n - 1 - m, g, e,
                                         0.0, sp_end)
    if node_out >= 0 or node_in >= 0:
        if s is not None:
            s[:] = sp[:] = array("d", [math.nan]) * n
        return True, math.nan, math.nan
    if s is not None:
        # the inward sweep runs x_max .. x_m: reversed, and S shifted to
        # meet the outward one, it takes over from x_m (S) and after it (S')
        offset = s_out[m] - s_in[-1]
        s[:m] = s_out[:m]
        s[m:] = array("d", [v + offset for v in reversed(s_in)])
        sp[:m + 1] = sp_out
        sp[m + 1:] = array("d", reversed(sp_in[:-1]))
    return False, sp_out[m], sp_in[-1]


def soluble_profile(h: float, p: float, s, sp) -> None:
    """The box ground state e^{-S} = sin p(1 - x) on the len(s) nodes
    x_i = i h, into s and sp (see check_out): S = -log(sin(p(1 - x))) and
    S' = p / tan(p(1 - x)) below the last node, and +inf on it, the
    wall."""
    check_out(sp, len(s), (s, check_out(s, len(s))))
    args = [p * (1.0 - i * h) for i in range(len(s) - 1)]
    s[:-1] = array("d", [-math.log(math.sin(arg)) for arg in args])
    sp[:-1] = array("d", [p / math.tan(arg) for arg in args])
    if len(s):
        s[-1] = sp[-1] = math.inf


def scaled_weights(s, limit: float, w: array, winv: array) -> float:
    """w = e^{u - u_ref} with u = -2 s where u is finite, else 0, and
    winv = e^{2 s + u_ref} where that exponent is <= limit, else 0, into
    w and winv; returns u_ref, the largest finite u, or -inf, having
    written nothing, when no u is finite."""
    s, s_at = in_place(s)
    w_at = check_out(w, len(s), (s, s_at))
    check_out(winv, len(s), (s, s_at), (w, w_at))
    u_ref = -math.inf
    for v in s:
        u = -2.0 * v
        if math.isfinite(u) and u > u_ref:
            u_ref = u
    if u_ref == -math.inf:
        return u_ref
    for i, v in enumerate(s):
        u = -2.0 * v
        e = 2.0 * v + u_ref
        w[i] = math.exp(u - u_ref) if math.isfinite(u) else 0.0
        winv[i] = math.exp(e) if e <= limit else 0.0
    return u_ref


def sample_nodes(n: int, h: float, x_max: float, saturating: bool,
                 out: array) -> array:
    """The nodes x_i = i h of a grid, the last set to x_max, or with
    saturating the trial y (2 - y) at them, y = min(x_i, 1), into out;
    returns out."""
    check_out(out, n)
    for i in range(n):
        x = x_max if i == n - 1 else i * h
        y = x if x < 1.0 else 1.0
        out[i] = (2.0 - y) * y if saturating else x
    return out


def weighted_simpson(h: float, w, chi) -> tuple[float, float]:
    """(Simpson integral of y = w chi, that of |y|) over an odd number of
    nodes, at least 3, by simpson_integral."""
    (w, _), (chi, _) = odd_columns(len(chi), w, chi)
    y = array("d", (a * b for a, b in zip(w, chi)))
    return (simpson_integral(y, h),
            simpson_integral(array("d", map(abs, y)), h))


def _inner_pass(h: float, w, chi, tail: float, out) -> None:
    """The reverse pass of _kernels.c's inner_pass: I + tail into out, I
    being the running integral of w chi from each node to the last."""
    n = len(chi)
    h3, h12 = h / 3.0, h / 12.0
    even = 0.0
    y0 = w[n - 1] * chi[n - 1]
    out[n - 1] = 0.0 + tail
    for i in range(n - 1, 0, -2):
        y1 = w[i - 1] * chi[i - 1]
        y2 = w[i - 2] * chi[i - 2]
        odd = ((5.0 * y0 + 8.0 * y1) - y2) * h12 + even
        pair = (4.0 * y1 + y0 + y2) * h3
        even = pair if i == n - 1 else even + pair
        out[i - 1] = odd + tail
        out[i - 2] = even + tail
        y0 = y2


def _outer_pairs(first: int, last: int, h: float, winv, factor: float,
                 y0: float, even: float, out) -> tuple[float, float]:
    """The pairs of nodes i + 1, i + 2 for i = first, first + 2, ...
    below last of the forward pass (_kernels.c's outer_pairs): each
    I + tail in out is read, then overwritten with twice the running
    integral of winv (I + tail) from node 0, times factor.  Returns the
    (y0, even) that the next pair starts from."""
    h3, h12 = h / 3.0, h / 12.0
    for i in range(first, last, 2):
        y1 = winv[i + 1] * out[i + 1]
        y2 = winv[i + 2] * out[i + 2]
        odd = ((5.0 * y0 + 8.0 * y1) - y2) * h12 + even
        pair = (4.0 * y1 + y0 + y2) * h3
        even = pair if i == 0 else even + pair
        out[i + 1] = odd * 2.0 * factor
        out[i + 2] = even * 2.0 * factor
        y0 = y2
    return y0, even


def excite_step(h: float, weights, chi_prev, tail: float, i0: int,
                out) -> float:
    """One iteration step: the profile
    chihat = 2 int_0^x winv(y) (I(y) + tail) dy with
    I(y) = int_y^{x_end} w chi_prev, into out (see check_out), split by
    the rule out[i0] = chi_prev[i0], with weights the (w, address),
    (winv, address) pairs that in_place gives.  Returns the unscaled
    chihat[i0]; every other node is chihat times
    eps = chi_prev[i0] / chihat[i0], one rounding each.  When chihat[i0]
    is 0, no eps exists and out holds the unscaled chihat: at i0 = 0,
    where chihat is 0, the step is the profile alone.  Raises ValueError
    as step_inputs and check_out do.

    The loops of _kernels.c: a reverse pass writes I + tail into out, and
    a forward pass reads each I + tail from out and overwrites it with
    chihat, unscaled up to node i0 rounded up to even and on from there
    times eps; then the nodes up to that one are scaled and node i0 is
    pinned.  Both running integrals sum Simpson panel pairs
    (4 y1 + y0 + y2) * (h/3) in order from the first pair (not from 0.0)
    for even offsets, and add the half-panel rule ((5 y0 + 8 y1) - y2) *
    (h/12) to the even offset before an odd one (SciPy's
    cumulative_simpson on equal intervals): O(h^4) at every node.  The
    caller's tail w * chi/(2S') at the last node is 0 at a hard wall,
    since w is 0 there; winv is 0 there too, so the outer integrand
    vanishes.
    """
    n = len(chi_prev)
    inputs = step_inputs(weights, chi_prev, i0)
    check_out(out, n, *inputs)
    (chi, _), (w, _), (winv, _) = inputs
    pinned = chi[i0]
    split = i0 + i0 % 2
    _inner_pass(h, w, chi, tail, out)
    y0 = winv[0] * out[0]
    out[0] = 0.0
    y0, even = _outer_pairs(0, split, h, winv, 1.0, y0, 0.0, out)
    at = out[i0]
    eps = 1.0 if at == 0.0 else pinned / at
    _outer_pairs(split, n - 1, h, winv, eps, y0, even, out)
    if at == 0.0:
        return at
    for i in range(split + 1):
        out[i] *= eps
    out[i0] = pinned
    return at


def write_csv_rows(f, columns) -> None:
    """Write the rows of columns, 1-D sequences of reals of one length, to
    the binary file f: each cell '%.17g' % v, which reads back to the same
    float64, cells joined by ',' and rows ended by a newline.  Formats
    CSV_CHUNK_ROWS rows at a time; raises ValueError, having written
    nothing, when the lengths differ."""
    columns = [as_doubles(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("CSV columns must be 1-D and of one length")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(c.tolist() for c in columns))
    while chunk := [row % values for values in islice(rows, CSV_CHUNK_ROWS)]:
        f.write("".join(chunk).encode())
