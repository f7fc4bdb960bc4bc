/* Compiled kernels, the CPython extension module excite_iter._kernels
 * that excite_iter.kernels builds and loads: the Riccati sweeps of the
 * quartic double well and the box's closed-form profile, the grid passes
 * of an iteration (a ground state's weights, the trial samples, one whole
 * step and the residual's two integrals, which know nothing of the
 * potential or of a wall) and the CSV rows of the artifacts.  Each
 * module function has the signature and the contract of its counterpart
 * in excite_iter._kernels_py.  The numeric kernels perform the same
 * floating-point operations in the same order, with the same libm exp,
 * log, sin and tan; build with -ffp-contract=off so no a*b+c is fused
 * and the output stays bit-identical.  The CSV rows hold the same
 * characters as Python's. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* One classic RK4 step of the Riccati equation S'' = S'^2 - 2(V - E),
 * V = g^2 (t^2 - 1)^2 / 2 and gg = g^2, over the signed step h from t:
 * advances (*a, *b) = (S, S') in place. */
static inline void rk4_step(double t, double h, double gg, double e,
                            double *a, double *b)
{
    double b1 = *b;
    double t2 = t * t - 1.0;
    double k1a = b1;
    double k1b = b1 * b1 - gg * t2 * t2 + 2.0 * e;

    double tm = t + 0.5 * h;
    t2 = tm * tm - 1.0;
    double vm = gg * t2 * t2 - 2.0 * e;
    double b2 = b1 + 0.5 * h * k1b;
    double k2a = b2, k2b = b2 * b2 - vm;

    double b3 = b1 + 0.5 * h * k2b;
    double k3a = b3, k3b = b3 * b3 - vm;

    double tp = t + h;
    t2 = tp * tp - 1.0;
    double b4 = b1 + h * k3b;
    double k4a = b4, k4b = b4 * b4 - gg * t2 * t2 + 2.0 * e;

    *a += h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a);
    *b = b1 + h / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b);
}

/* s and sp hold n + 1 doubles each.  Returns the index at which |S'|
 * exceeded limit (entries after it are NaN), or -1. */
long riccati_sweep(double x0, double h, long n, double g, double e,
                   double s0, double sp0, double limit, double *s,
                   double *sp)
{
    double gg = g * g, a = s0, b = sp0;
    s[0] = s0;
    sp[0] = sp0;
    for (long i = 0; i < n; i++) {
        rk4_step(x0 + i * h, h, gg, e, &a, &b);
        s[i + 1] = a;
        sp[i + 1] = b;
        if (b > limit || b < -limit) {
            for (long j = i + 2; j <= n; j++)
                s[j] = sp[j] = NAN;
            return i + 1;
        }
    }
    return -1;
}

/* The two sweeps of a shooting solve on the n nodes x_i = i h, the last
 * at x_max, 0 <= m < n: outward from (S, S') = (0, 0) at node 0 over m
 * steps, and inward from (0, sp_end) at x_max over n - 1 - m steps of
 * -h, in one loop, each step by riccati_sweep's rk4_step.  Writes the
 * S' of each sweep at node m into ends and returns 0; returns 1, with
 * ends NaN, as soon as a sweep's |S'| exceeds limit.  With s and sp,
 * which then hold n doubles each, it also writes the joined profile:
 * S from the outward sweep below node m and from the inward one, plus
 * the offset that meets the outward S there, from node m on; S' from
 * the outward sweep up to node m and from the inward one after it.  A
 * blow-up fills both with NaN. */
long shoot(double x_max, double h, long n, long m, double g, double e,
           double sp_end, double limit, double *s, double *sp,
           double *ends)
{
    double gg = g * g, a_out = 0.0, b_out = 0.0, a_in = 0.0, b_in = sp_end;
    long n_in = n - 1 - m;
    if (s) {
        s[0] = sp[0] = 0.0;
        s[n - 1] = 0.0;
        sp[n - 1] = sp_end;
    }
    for (long i = 0; i < m || i < n_in; i++) {
        if (i < m) {
            rk4_step(0.0 + i * h, h, gg, e, &a_out, &b_out);
            if (s) {
                s[i + 1] = a_out;
                sp[i + 1] = b_out;
            }
            if (b_out > limit || b_out < -limit)
                goto blown;
        }
        if (i < n_in) {
            rk4_step(x_max + i * -h, -h, gg, e, &a_in, &b_in);
            if (s) {
                s[n - 2 - i] = a_in;
                sp[n - 2 - i] = b_in;
            }
            if (b_in > limit || b_in < -limit)
                goto blown;
        }
    }
    ends[0] = b_out;
    ends[1] = b_in;
    if (s) {
        /* node m: both sweeps wrote it; S' is the outward one's */
        double offset = a_out - a_in;
        s[m] = a_in;
        sp[m] = b_out;
        for (long i = m; i < n; i++)
            s[i] = s[i] + offset;
    }
    return 0;
blown:
    ends[0] = ends[1] = NAN;
    for (long i = 0; s && i < n; i++)
        s[i] = sp[i] = NAN;
    return 1;
}

/* The analytic box ground state on the n nodes x_i = i h:
 * s = -log(sin(p (1 - x_i))) and sp = p / tan(p (1 - x_i)) below the
 * last node, and +inf on it, the wall. */
void soluble_profile(long n, double h, double p, double *s, double *sp)
{
    for (long i = 0; i < n - 1; i++) {
        double arg = p * (1.0 - i * h);
        s[i] = -log(sin(arg));
        sp[i] = p / tan(arg);
    }
    if (n > 0)
        s[n - 1] = sp[n - 1] = INFINITY;
}

/* The reverse pass of a step over n doubles, n odd and >= 3: writes
 * I + tail into out, I being the running integral of w * chi from each
 * node to the last, by cumulative_simpson's rule: panel pairs
 * (4 y1 + y0 + y2) * h/3 summed in order from the first pair (not from
 * 0.0), and odd offsets ((5 y0 + 8 y1) - y2) * h/12 plus the even offset
 * before them. */
static inline void inner_pass(long n, double h, const double *w,
                              const double *chi, double tail, double *out)
{
    const double h3 = h / 3.0, h12 = h / 12.0;
    double y0, y1, y2, even = 0.0;

    y0 = w[n - 1] * chi[n - 1];
    out[n - 1] = 0.0 + tail;
    for (long i = n - 1; i > 0; i -= 2) {
        y1 = w[i - 1] * chi[i - 1];
        y2 = w[i - 2] * chi[i - 2];
        double odd = ((5.0 * y0 + 8.0 * y1) - y2) * h12 + even;
        double pair = (4.0 * y1 + y0 + y2) * h3;
        even = i == n - 1 ? pair : even + pair;
        out[i - 1] = odd + tail;
        out[i - 2] = even + tail;
        y0 = y2;
    }
}

/* The node pairs i + 1, i + 2 for i = first, first + 2, ... below last
 * of the forward pass, which overwrites the I + tail in out with twice
 * the running integral of winv * (I + tail) from node 0, by inner_pass's
 * rule, times factor.  *y0 holds winv * (I + tail) at node i and *even
 * the even offset there, from one call to the next; it reads out[i + 1]
 * and out[i + 2] before it writes them, so each I is read before it is
 * overwritten. */
static inline void outer_pairs(long first, long last, double h,
                               const double *winv, double factor,
                               double *y0, double *even, double *out)
{
    const double h3 = h / 3.0, h12 = h / 12.0;
    for (long i = first; i < last; i += 2) {
        double y1 = winv[i + 1] * out[i + 1];
        double y2 = winv[i + 2] * out[i + 2];
        double odd = ((5.0 * *y0 + 8.0 * y1) - y2) * h12 + *even;
        double pair = (4.0 * y1 + *y0 + y2) * h3;
        *even = i == 0 ? pair : *even + pair;
        out[i + 1] = odd * 2.0 * factor;
        out[i + 2] = *even * 2.0 * factor;
        *y0 = y2;
    }
}

/* One iteration step over arrays of n doubles, n odd and >= 3, split by
 * the rule out[i0] = chi[i0], 0 <= i0 < n.  The reverse pass writes
 * I + tail into out, and the forward pass overwrites it with the profile
 * chihat, twice the running integral of winv * (I + tail) from node 0:
 * unscaled up to node i0 rounded up to even, where
 * eps = chi[i0] / chihat[i0] is known, and on from there times eps; a
 * last pass scales the nodes up to that one, and out[i0] = chi[i0].
 * Each node but i0 is the profile's value times eps, one rounding each.
 * Returns the unscaled chihat[i0]: when it is 0 (of either sign), no eps
 * exists and out holds the unscaled profile, as it does at i0 = 0, where
 * chihat is 0 (a factor of 1.0 changes no bit). */
double excite_step(long n, double h, const double *w, const double *winv,
                   const double *chi, double tail, long i0, double *out)
{
    double y0, even = 0.0, pinned = chi[i0], at, eps;
    long split = i0 + i0 % 2;
    inner_pass(n, h, w, chi, tail, out);
    y0 = winv[0] * out[0];
    out[0] = 0.0;
    outer_pairs(0, split, h, winv, 1.0, &y0, &even, out);
    at = out[i0];
    eps = at == 0.0 ? 1.0 : pinned / at;
    outer_pairs(split, n - 1, h, winv, eps, &y0, &even, out);
    if (at == 0.0)
        return at;
    for (long i = 0; i <= split; i++)
        out[i] *= eps;
    out[i0] = pinned;
    return at;
}

/* w[i] = e^{u - u_ref} with u = -2 s[i] where u is finite, else 0, and
 * winv[i] = e^{2 s[i] + u_ref} where that exponent is <= limit, else 0;
 * u_ref is the largest finite u.  Returns u_ref, or -INFINITY, having
 * written nothing, when no u is finite. */
double scaled_weights(long n, const double *s, double limit, double *w,
                      double *winv)
{
    double u_ref = -INFINITY;
    for (long i = 0; i < n; i++) {
        double u = -2.0 * s[i];
        if (isfinite(u) && u > u_ref)
            u_ref = u;
    }
    if (u_ref == -INFINITY)
        return u_ref;
    for (long i = 0; i < n; i++) {
        double u = -2.0 * s[i], e = 2.0 * s[i] + u_ref;
        w[i] = isfinite(u) ? exp(u - u_ref) : 0.0;
        winv[i] = e <= limit ? exp(e) : 0.0;
    }
    return u_ref;
}

/* The nodes x_i = i h of a grid, the last set to x_max, or with
 * saturating the trial y (2 - y) at them, y = min(x_i, 1). */
void sample_nodes(long n, double h, double x_max, int saturating,
                  double *out)
{
    for (long i = 0; i < n; i++) {
        double x = i == n - 1 ? x_max : i * h;
        double y = x < 1.0 ? x : 1.0;
        out[i] = saturating ? (2.0 - y) * y : x;
    }
}

/* The composite Simpson integrals of y = w chi and of |y| over n nodes,
 * n odd and >= 3, into sums[0] and sums[1]: h/3 (y0 + y_last + 4 odd +
 * 2 even), the odd and even interior nodes each summed in order from
 * 0.0. */
void weighted_simpson(long n, double h, const double *w, const double *chi,
                      double *sums)
{
    double odd = 0.0, odd_abs = 0.0, even = 0.0, even_abs = 0.0;
    for (long i = 1; i < n - 1; i += 2) {
        double y = w[i] * chi[i];
        odd += y;
        odd_abs += fabs(y);
        if (i + 1 < n - 1) {
            y = w[i + 1] * chi[i + 1];
            even += y;
            even_abs += fabs(y);
        }
    }
    double first = w[0] * chi[0], last = w[n - 1] * chi[n - 1];
    sums[0] = h / 3.0 * (first + last + 4.0 * odd + 2.0 * even);
    sums[1] = h / 3.0 * (fabs(first) + fabs(last) + 4.0 * odd_abs
                         + 2.0 * even_abs);
}

/* The longest %.17g of a double, as -4.9406564584124654e-324 */
#define CSV_CELL_BYTES 24

/* Python's '%.17g' % v through glibc's "%.17g", which is exact for every
 * double; only inf, -inf and nan are spelled as Python spells them (glibc
 * writes a NaN with its sign bit set as -nan).  Writes at most
 * CSV_CELL_BYTES characters and a NUL; returns the count of characters. */
static int format_printf(double v, char *p)
{
    const char *word = v != v ? "nan"
                       : v == INFINITY ? "inf"
                       : v == -INFINITY ? "-inf" : NULL;
    if (word)
        return snprintf(p, CSV_CELL_BYTES + 1, "%s", word);
    return snprintf(p, CSV_CELL_BYTES + 1, "%.17g", v);
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/* The same characters as format_printf, from integer arithmetic when v is
 * normal and its decimal exponent E (that of v rounded to 17 digits) lies
 * in [-16, 16].  With v = m 2^q and k = 16 - E, m 5^k is exact in 128
 * bits and v 10^k = m 5^k 2^(q + k) lies in [10^16, 10^17).  The shift
 * gives its integer part, and the bits shifted out the exact remainder,
 * on which the 17 digits are rounded half to even, as printf rounds.  The
 * digits are then laid out by %g's rules: the exponent form when E < -4
 * or E >= 17, trailing zeros and a bare point dropped. */
static int format_cell(double v, char *p)
{
    const uint64_t P16 = 10000000000000000u, P17 = 10 * P16;
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    if (biased == 0 || biased == 0x7ff)   /* zero, subnormal, inf, nan */
        return format_printf(v, p);
    uint64_t m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    int q = biased - 1075;
    /* floor(log10 2^(q + 52)): E or one below it */
    int e = (q + 52) * 78913 >> 18;
    uint64_t digits;
    for (;;) {
        int k = 16 - e, shift;
        if (k < 0 || k > 32)
            return format_printf(v, p);
        u128 scaled = m, whole, rem = 0, half = 0;
        for (int j = 0; j < k; j++)
            scaled *= 5;
        shift = q + k;
        if (shift >= 0) {
            whole = scaled << shift;
        } else {
            whole = scaled >> -shift;
            rem = scaled & (((u128)1 << -shift) - 1);
            half = (u128)1 << (-shift - 1);
        }
        /* 10^16 and 10^17 are integers, so the unrounded value lies
         * between them exactly when its integer part does */
        if (whole < P16) {
            e--;
            continue;
        }
        if (whole >= P17) {
            e++;
            continue;
        }
        digits = (uint64_t)whole;
        if (rem > half || (rem == half && half && digits & 1))
            digits++;
        if (digits == P17) {               /* rounded up to 10^17 */
            digits = P16;
            e++;
        }
        break;
    }

    char d[17];
    d[0] = (char)('0' + digits / P16);
    uint64_t low = digits % P16;
    for (int j = 15; j > 0; j -= 2, low /= 100)
        memcpy(d + j, DIGIT_PAIRS + 2 * (low % 100), 2);
    int nd = 17;                  /* digits left when trailing zeros go */
    while (nd > 1 && d[nd - 1] == '0')
        nd--;

    char *start = p;
    if (bits >> 63)
        *p++ = '-';
    if (e < -4 || e >= 17) {
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, d + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        memcpy(p, DIGIT_PAIRS + 2 * (e < 0 ? -e : e), 2);
        p += 2;
    } else if (e >= 0) {                 /* the integer part keeps its zeros */
        memcpy(p, d, e + 1);
        p += e + 1;
        if (nd > e + 1) {
            *p++ = '.';
            memcpy(p, d + e + 1, nd - e - 1);
            p += nd - e - 1;
        }
    } else {
        memcpy(p, "0.000", 1 - e);
        p += 1 - e;
        memcpy(p, d, nd);
        p += nd;
    }
    *p = '\0';
    return (int)(p - start);
}
#else
#define format_cell format_printf
#endif

/* Rows first to last - 1 of n_cols columns of doubles, each cell as
 * Python's '%.17g' % v, cells joined by ',' and each row ended by '\n',
 * into buf of cap bytes; no NUL ends them.  Returns the count of bytes
 * written, or -1, having written nothing, when n_cols < 1 or cap is below
 * CSV_CELL_BYTES + 1 bytes a cell. */
long format_csv_rows(long n_cols, const double *const *cols, long first,
                     long last, char *buf, long cap)
{
    if (n_cols < 1
            || (last > first
                && cap / (CSV_CELL_BYTES + 1) / (last - first) < n_cols))
        return -1;
    char *p = buf;
    for (long i = first; i < last; i++) {
        for (long j = 0; j < n_cols; j++) {
            p += format_cell(cols[j][i], p);
            *p++ = ',';
        }
        p[-1] = '\n';
    }
    return p - buf;
}

/* ------------------------------------------------------------------ */
/* The module functions: each parses its arguments, checks its arrays
 * under the contract of kernels.in_place and kernels.check_out, with
 * their messages, and calls its kernel above. */

static PyTypeObject *array_type;    /* array.array */
static PyObject *as_doubles;        /* kernels.as_doubles */
static PyObject *zeros;             /* kernels.zeros */
static double blowup_limit;         /* kernels.BLOWUP_LIMIT */
static Py_ssize_t csv_chunk_rows;   /* kernels.CSV_CHUNK_ROWS */

#define COUNT(view) ((view)->len / (Py_ssize_t)sizeof(double))
#define DOUBLES(view) ((double *)(view)->buf)

/* Stores args, nargs of them, through the pointers that follow kinds,
 * one a character of kinds: 'd' a double, 'l' a long, 'p' a truth value
 * as an int, 'O' the object itself; the first required are required and
 * the pointers of absent ones are left alone.  Returns 0, or -1 with an
 * exception set. */
static int parse(const char *name, PyObject *const *args, Py_ssize_t nargs,
                 Py_ssize_t required, const char *kinds, ...)
{
    Py_ssize_t most = (Py_ssize_t)strlen(kinds);
    int failed = 0;
    va_list ap;
    if (nargs < required || nargs > most) {
        if (required == most)
            PyErr_Format(PyExc_TypeError, "%s() takes %zd positional "
                         "arguments (%zd given)", name, most, nargs);
        else
            PyErr_Format(PyExc_TypeError, "%s() takes from %zd to %zd "
                         "positional arguments (%zd given)", name,
                         required, most, nargs);
        return -1;
    }
    va_start(ap, kinds);
    for (Py_ssize_t i = 0; i < nargs && !failed; i++) {
        switch (kinds[i]) {
        case 'd': {
            double *d = va_arg(ap, double *);
            *d = PyFloat_AsDouble(args[i]);
            failed = *d == -1.0 && PyErr_Occurred();
            break;
        }
        case 'l': {
            long *l = va_arg(ap, long *);
            *l = PyLong_AsLong(args[i]);
            failed = *l == -1 && PyErr_Occurred();
            break;
        }
        case 'p': {
            int *p = va_arg(ap, int *);
            *p = PyObject_IsTrue(args[i]);
            failed = *p < 0;
            break;
        }
        default:
            *va_arg(ap, PyObject **) = args[i];
        }
    }
    va_end(ap);
    return failed ? -1 : 0;
}

/* 1 with obj's doubles in view when a kernel reads obj in place, as
 * kernels._address decides: an array('d'), a writable C-contiguous 1-D
 * view of one or more doubles, or such a view, read-only, of a whole
 * array('d'); 0 when it does not, -1 with an exception set. */
static int in_place(PyObject *obj, Py_buffer *view)
{
    int is_array = PyObject_TypeCheck(obj, array_type), found;
    if (!is_array && !PyMemoryView_Check(obj))
        return 0;
    if (PyObject_GetBuffer(obj, view, PyBUF_FULL_RO) < 0)
        return -1;
    found = strcmp(view->format, "d") == 0
            && (is_array || (view->ndim == 1 && view->len > 0
                             && PyBuffer_IsContiguous(view, 'C')));
    if (found && !is_array && view->readonly) {
        PyObject *base = PyMemoryView_GET_BUFFER(obj)->obj;
        Py_buffer whole;
        found = base != NULL && PyObject_TypeCheck(base, array_type);
        if (found) {
            if (PyObject_GetBuffer(base, &whole, PyBUF_FORMAT) < 0) {
                PyBuffer_Release(view);
                return -1;
            }
            found = strcmp(whole.format, "d") == 0
                    && whole.len == view->len;
            PyBuffer_Release(&whole);
        }
    }
    if (!found)
        PyBuffer_Release(view);
    return found;
}

/* obj's doubles in view as kernels.in_place gives them: in place, else
 * converted by kernels.as_doubles, which raises for what it cannot
 * convert.  Returns 0, or -1 with an exception set. */
static int input(PyObject *obj, Py_buffer *view)
{
    PyObject *values;
    int found = in_place(obj, view);
    if (found)
        return found < 0 ? -1 : 0;
    values = PyObject_CallOneArg(as_doubles, obj);
    if (values == NULL)
        return -1;
    found = PyObject_GetBuffer(values, view, PyBUF_FULL_RO);
    Py_DECREF(values);          /* the view holds it until released */
    return found;
}

/* out's doubles in view under kernels.check_out's contract: an
 * array('d') or a writable C-contiguous view of n doubles that shares no
 * memory with the first k views of views.  Returns 0, or -1 with an
 * exception set. */
static int output(PyObject *out, Py_ssize_t n, Py_buffer *view,
                  const Py_buffer *views, int k)
{
    int found = in_place(out, view);
    if (found < 0)
        return -1;
    if (!found || view->readonly || COUNT(view) != n) {
        if (found)
            PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, "out must be an array('d') or a "
                     "writable view of %zd doubles", n);
        return -1;
    }
    uintptr_t at = (uintptr_t)view->buf;
    for (int j = 0; j < k; j++) {
        uintptr_t from = (uintptr_t)views[j].buf;
        if (from < at + (uintptr_t)view->len
                && at < from + (uintptr_t)views[j].len) {
            PyBuffer_Release(view);
            PyErr_SetString(PyExc_ValueError, "out must not share memory "
                            "with the kernel's other arrays");
            return -1;
        }
    }
    return 0;
}

/* Releases the first k views of views. */
static void release(Py_buffer *views, int k)
{
    while (k > 0)
        PyBuffer_Release(&views[--k]);
}

static PyObject *odd_nodes_error(void)
{
    PyErr_SetString(PyExc_ValueError,
                    "need an odd number of nodes, at least 3");
    return NULL;
}

static PyObject *lengths_error(Py_ssize_t n)
{
    PyErr_Format(PyExc_ValueError, "arrays must hold %zd doubles each", n);
    return NULL;
}

/* The first of the two items of obj, as (first, _) = obj takes it, in
 * *first; *pair holds it until released.  Returns 0, or -1 with an
 * exception set. */
static int first_of_two(PyObject *obj, PyObject **pair, PyObject **first)
{
    Py_ssize_t size;
    *pair = PySequence_Fast(obj, "cannot unpack a non-iterable object");
    if (*pair == NULL)
        return -1;
    size = PySequence_Fast_GET_SIZE(*pair);
    if (size != 2) {
        if (size > 2)
            PyErr_SetString(PyExc_ValueError,
                            "too many values to unpack (expected 2)");
        else
            PyErr_Format(PyExc_ValueError, "not enough values to unpack "
                         "(expected 2, got %zd)", size);
        Py_CLEAR(*pair);
        return -1;
    }
    *first = PySequence_Fast_GET_ITEM(*pair, 0);
    return 0;
}

static PyObject *py_riccati_sweep(PyObject *module, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    double x0, h, g, e, s0, sp0;
    long n, node;
    PyObject *s = NULL, *sp = NULL, *result = NULL;
    Py_buffer v[2];
    int k = 0;
    if (parse("riccati_sweep", args, nargs, 7, "ddldddd", &x0, &h, &n, &g,
              &e, &s0, &sp0) < 0)
        return NULL;
    if (n < 0)
        return PyErr_Format(PyExc_ValueError,
                            "n_steps must be >= 0, got %ld", n);
    s = PyObject_CallFunction(zeros, "l", n + 1);
    sp = s ? PyObject_CallFunction(zeros, "l", n + 1) : NULL;
    if (sp == NULL || PyObject_GetBuffer(s, &v[0], PyBUF_WRITABLE) < 0)
        goto done;
    k = 1;
    if (PyObject_GetBuffer(sp, &v[1], PyBUF_WRITABLE) < 0)
        goto done;
    k = 2;
    node = riccati_sweep(x0, h, n, g, e, s0, sp0, blowup_limit,
                         DOUBLES(&v[0]), DOUBLES(&v[1]));
    result = Py_BuildValue("(OOl)", s, sp, node);
done:
    release(v, k);
    Py_XDECREF(s);
    Py_XDECREF(sp);
    return result;
}

static PyObject *py_shoot(PyObject *module, PyObject *const *args,
                          Py_ssize_t nargs)
{
    double x_max, h, g, e, sp_end, ends[2];
    long n, m, blown;
    PyObject *s = Py_None, *sp = Py_None;
    Py_buffer v[2];
    int k = 0;
    if (parse("shoot", args, nargs, 7, "ddlldddOO", &x_max, &h, &n, &m,
              &g, &e, &sp_end, &s, &sp) < 0)
        return NULL;
    if (m < 0 || m >= n)
        return PyErr_Format(PyExc_ValueError,
                            "need 0 <= m < n, got m=%ld, n=%ld", m, n);
    if (s != Py_None || sp != Py_None) {
        if (output(s, n, &v[0], v, 0) < 0)
            return NULL;
        k = 1;
        if (output(sp, n, &v[1], v, 1) < 0) {
            release(v, k);
            return NULL;
        }
        k = 2;
    }
    blown = shoot(x_max, h, n, m, g, e, sp_end, blowup_limit,
                  k ? DOUBLES(&v[0]) : NULL, k ? DOUBLES(&v[1]) : NULL,
                  ends);
    release(v, k);
    return Py_BuildValue("(Ndd)", PyBool_FromLong(blown == 1), ends[0],
                         ends[1]);
}

static PyObject *py_soluble_profile(PyObject *module, PyObject *const *args,
                                    Py_ssize_t nargs)
{
    double h, p;
    PyObject *s, *sp;
    Py_ssize_t n;
    Py_buffer v[2];
    if (parse("soluble_profile", args, nargs, 4, "ddOO", &h, &p, &s, &sp) < 0
            || (n = PyObject_Length(s)) < 0 || output(s, n, &v[0], v, 0) < 0)
        return NULL;
    if (output(sp, n, &v[1], v, 1) < 0) {
        release(v, 1);
        return NULL;
    }
    soluble_profile(n, h, p, DOUBLES(&v[0]), DOUBLES(&v[1]));
    release(v, 2);
    Py_RETURN_NONE;
}

static PyObject *py_scaled_weights(PyObject *module, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    double limit, u_ref;
    PyObject *s, *w, *winv;
    Py_buffer v[3];
    int k = 0;
    if (parse("scaled_weights", args, nargs, 4, "OdOO", &s, &limit, &w,
              &winv) < 0 || input(s, &v[0]) < 0)
        return NULL;
    k = 1;
    if (output(w, COUNT(&v[0]), &v[1], v, 1) < 0)
        goto fail;
    k = 2;
    if (output(winv, COUNT(&v[0]), &v[2], v, 2) < 0)
        goto fail;
    u_ref = scaled_weights(COUNT(&v[0]), DOUBLES(&v[0]), limit,
                           DOUBLES(&v[1]), DOUBLES(&v[2]));
    release(v, 3);
    return PyFloat_FromDouble(u_ref);
fail:
    release(v, k);
    return NULL;
}

static PyObject *py_sample_nodes(PyObject *module, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    double h, x_max;
    long n;
    int saturating;
    PyObject *out;
    Py_buffer v;
    if (parse("sample_nodes", args, nargs, 5, "lddpO", &n, &h, &x_max,
              &saturating, &out) < 0 || output(out, n, &v, NULL, 0) < 0)
        return NULL;
    sample_nodes(n, h, x_max, saturating, DOUBLES(&v));
    PyBuffer_Release(&v);
    return Py_NewRef(out);
}

static PyObject *py_weighted_simpson(PyObject *module, PyObject *const *args,
                                     Py_ssize_t nargs)
{
    double h, sums[2];
    PyObject *w, *chi;
    Py_ssize_t n;
    Py_buffer v[2];
    if (parse("weighted_simpson", args, nargs, 3, "dOO", &h, &w, &chi) < 0
            || (n = PyObject_Length(chi)) < 0)
        return NULL;
    if (n < 3 || n % 2 == 0)
        return odd_nodes_error();
    if (input(w, &v[0]) < 0)
        return NULL;
    if (input(chi, &v[1]) < 0) {
        release(v, 1);
        return NULL;
    }
    if (COUNT(&v[0]) != n || COUNT(&v[1]) != n) {
        release(v, 2);
        return lengths_error(n);
    }
    weighted_simpson(n, h, DOUBLES(&v[0]), DOUBLES(&v[1]), sums);
    release(v, 2);
    return Py_BuildValue("(dd)", sums[0], sums[1]);
}

/* The weights are the (w, address), (winv, address) pairs that
 * kernels.in_place gives; the addresses are not read. */
static PyObject *py_excite_step(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    double h, tail, at = 0.0;
    long i0;
    PyObject *weights, *chi, *out, *pairs = NULL, *w_pair = NULL,
             *winv_pair = NULL, *pair, *w, *winv;
    Py_ssize_t n, n_w, n_winv;
    Py_buffer v[4];     /* chi_prev, w, winv, out */
    int k = 0;
    if (parse("excite_step", args, nargs, 6, "dOOdlO", &h, &weights, &chi,
              &tail, &i0, &out) < 0 || (n = PyObject_Length(chi)) < 0)
        return NULL;
    if (n < 3 || n % 2 == 0)
        return odd_nodes_error();
    if (first_of_two(weights, &pairs, &pair) < 0
            || first_of_two(pair, &w_pair, &w) < 0
            || first_of_two(PySequence_Fast_GET_ITEM(pairs, 1), &winv_pair,
                            &winv) < 0
            || (n_w = PyObject_Length(w)) < 0
            || (n_winv = PyObject_Length(winv)) < 0)
        goto done;
    if (n_w != n || n_winv != n) {
        lengths_error(n);
        goto done;
    }
    if (i0 < 0 || i0 >= n) {
        PyErr_Format(PyExc_ValueError, "need 0 <= i0 < n, got i0=%ld, "
                     "n=%zd", i0, n);
        goto done;
    }
    if (input(chi, &v[0]) < 0)
        goto done;
    k = 1;
    if (input(w, &v[1]) < 0)
        goto done;
    k = 2;
    if (input(winv, &v[2]) < 0)
        goto done;
    k = 3;
    if (output(out, n, &v[3], v, 3) < 0)
        goto done;
    k = 4;
    at = excite_step(n, h, DOUBLES(&v[1]), DOUBLES(&v[2]), DOUBLES(&v[0]),
                     tail, i0, DOUBLES(&v[3]));
done:
    release(v, k);
    Py_XDECREF(pairs);
    Py_XDECREF(w_pair);
    Py_XDECREF(winv_pair);
    return k == 4 ? PyFloat_FromDouble(at) : NULL;
}

/* The rows go through one buffer of CSV_CHUNK_ROWS rows, formatted and
 * written a chunk at a time. */
static PyObject *py_write_csv_rows(PyObject *module, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    PyObject *f, *columns, *buf = NULL, *view = NULL, *chunk, *result = NULL;
    Py_buffer *v = NULL;
    const double **cols = NULL;
    Py_ssize_t n_cols, n, rows, cap, k = 0;
    if (parse("write_csv_rows", args, nargs, 2, "OO", &f, &columns) < 0
            || (columns = PySequence_List(columns)) == NULL)
        return NULL;
    n_cols = PyList_GET_SIZE(columns);
    v = PyMem_New(Py_buffer, n_cols);
    cols = PyMem_New(const double *, n_cols);
    if (v == NULL || cols == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (; k < n_cols; k++) {
        if (input(PyList_GET_ITEM(columns, k), &v[k]) < 0)
            goto done;
        cols[k] = DOUBLES(&v[k]);
    }
    n = n_cols ? COUNT(&v[0]) : 0;
    for (Py_ssize_t j = 1; j < n_cols; j++)
        if (COUNT(&v[j]) != n) {
            PyErr_SetString(PyExc_ValueError,
                            "CSV columns must be 1-D and of one length");
            goto done;
        }
    rows = n < csv_chunk_rows ? n : csv_chunk_rows;
    cap = rows * n_cols * (CSV_CELL_BYTES + 1);
    buf = PyByteArray_FromStringAndSize(NULL, cap);
    view = buf ? PyMemoryView_FromObject(buf) : NULL;
    if (view == NULL)
        goto done;
    for (Py_ssize_t first = 0; first < n; first += csv_chunk_rows) {
        Py_ssize_t last = n - first < csv_chunk_rows ? n
                          : first + csv_chunk_rows;
        long used = format_csv_rows(n_cols, cols, first, last,
                                    PyByteArray_AS_STRING(buf), cap);
        if (used < 0) {
            PyErr_SetString(PyExc_RuntimeError,
                            "CSV buffer too small for a chunk");
            goto done;
        }
        chunk = PySequence_GetSlice(view, 0, used);
        if (chunk == NULL)
            goto done;
        result = PyObject_CallMethod(f, "write", "O", chunk);
        Py_DECREF(chunk);
        if (result == NULL)
            goto done;
        Py_CLEAR(result);
    }
    result = Py_NewRef(Py_None);
done:
    while (k > 0)
        PyBuffer_Release(&v[--k]);
    PyMem_Free(v);
    PyMem_Free(cols);
    Py_XDECREF(view);
    Py_XDECREF(buf);
    Py_DECREF(columns);
    return result;
}

#define KERNEL(name, signature, doc)                                    \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL,     \
     #name signature "\n--\n\n" doc}

static PyMethodDef kernel_functions[] = {
    KERNEL(riccati_sweep, "(x_start, h, n_steps, g, e, s_init, sp_init)",
           "(s, sp, node): the sweep of S and S' over n_steps of h."),
    KERNEL(shoot, "(x_max, h, n, m, g, e, sp_end, s=None, sp=None)",
           "(blown, S' of the outward sweep at node m, of the inward one)."),
    KERNEL(soluble_profile, "(h, p, s, sp)",
           "The box's S and S' into s and sp."),
    KERNEL(scaled_weights, "(s, limit, w, winv)",
           "u_ref, with the weights of S into w and winv."),
    KERNEL(sample_nodes, "(n, h, x_max, saturating, out)",
           "out, holding the nodes or the saturating trial at them."),
    KERNEL(weighted_simpson, "(h, w, chi)",
           "(Simpson integral of w chi, that of |w chi|)."),
    KERNEL(excite_step, "(h, weights, chi_prev, tail, i0, out)",
           "The unscaled chihat[i0], with one step's iterate into out."),
    KERNEL(write_csv_rows, "(f, columns)",
           "Writes the rows of columns to the binary file f as CSV."),
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "The compiled kernels of excite_iter.kernels; see excite_iter._kernels_py"
    " for each one's contract.", -1, kernel_functions,
    NULL, NULL, NULL, NULL
};

/* The module, with the helpers and constants that it takes from the
 * kernels module beside it, as _kernels_py imports them, and array.array:
 * excite_iter._kernels takes them from excite_iter.kernels. */
PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *module = PyModule_Create(&kernel_module), *kernels = NULL,
             *arrays = NULL, *limit = NULL, *chunk = NULL;
    const char *name, *dot;
    char kernels_name[256];
    if (module == NULL || (name = PyModule_GetName(module)) == NULL)
        goto fail;
    dot = strrchr(name, '.');
    snprintf(kernels_name, sizeof kernels_name, "%.*skernels",
             dot ? (int)(dot - name + 1) : 0, name);
    kernels = PyImport_ImportModule(kernels_name);
    arrays = kernels ? PyImport_ImportModule("array") : NULL;
    if (arrays == NULL)
        goto fail;
    array_type = (PyTypeObject *)PyObject_GetAttrString(arrays, "array");
    as_doubles = PyObject_GetAttrString(kernels, "as_doubles");
    zeros = PyObject_GetAttrString(kernels, "zeros");
    limit = PyObject_GetAttrString(kernels, "BLOWUP_LIMIT");
    chunk = PyObject_GetAttrString(kernels, "CSV_CHUNK_ROWS");
    if (!array_type || !as_doubles || !zeros || !limit || !chunk)
        goto fail;
    blowup_limit = PyFloat_AsDouble(limit);
    csv_chunk_rows = PyLong_AsSsize_t(chunk);
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(kernels);
    Py_DECREF(arrays);
    Py_DECREF(limit);
    Py_DECREF(chunk);
    return module;
fail:
    Py_CLEAR(array_type);
    Py_CLEAR(as_doubles);
    Py_CLEAR(zeros);
    Py_XDECREF(kernels);
    Py_XDECREF(arrays);
    Py_XDECREF(limit);
    Py_XDECREF(chunk);
    Py_XDECREF(module);
    return NULL;
}
