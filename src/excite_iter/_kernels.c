/* Compiled kernels, loaded by excite_iter.kernels through ctypes: the
 * Riccati sweeps of the quartic double well and the box's closed-form
 * profile, the grid passes of an iteration (a ground state's weights, the
 * trial samples, one whole step and the residual's two integrals, which
 * know nothing of the potential or of a wall) and the CSV rows of the
 * artifacts.  Each has the same contract as its counterpart in
 * excite_iter._kernels_py.  The numeric kernels perform the same
 * floating-point operations in the same order, with the same libm exp,
 * log, sin and tan; build with -ffp-contract=off so no a*b+c is fused
 * and the output stays bit-identical.  The CSV rows hold the same
 * characters as Python's. */
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
