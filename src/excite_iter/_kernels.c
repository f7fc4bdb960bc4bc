/* Compiled kernels, loaded by excite_iter.kernels through ctypes: the
 * Riccati sweep of the quartic double well, the profile of one iteration
 * step, which knows nothing of the potential or of a wall, and the CSV
 * rows of the artifacts.  Each has the same contract as its counterpart in
 * excite_iter._kernels_py.  The sweep and the profile perform the same
 * floating-point operations in the same order; build with
 * -ffp-contract=off so no a*b+c is fused and the output stays
 * bit-identical.  The CSV rows hold the same characters as Python's. */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

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
        double t = x0 + i * h;
        double t2 = t * t - 1.0;
        double k1a = b;
        double k1b = b * b - gg * t2 * t2 + 2.0 * e;

        double tm = t + 0.5 * h;
        t2 = tm * tm - 1.0;
        double vm = gg * t2 * t2 - 2.0 * e;
        double b2 = b + 0.5 * h * k1b;
        double k2a = b2, k2b = b2 * b2 - vm;

        double b3 = b + 0.5 * h * k2b;
        double k3a = b3, k3b = b3 * b3 - vm;

        double tp = t + h;
        t2 = tp * tp - 1.0;
        double b4 = b + h * k3b;
        double k4a = b4, k4b = b4 * b4 - gg * t2 * t2 + 2.0 * e;

        a += h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a);
        b += h / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b);
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

/* Every array holds n doubles, n odd and >= 3.  A reverse pass writes
 * I + tail into chihat, I being the running integral of w * chi from each
 * node to the last; a forward pass overwrites it with twice the running
 * integral of winv * (I + tail) from node 0.  The forward pass keeps y0 in
 * a register and reads chihat[i + 1] and chihat[i + 2] before it writes
 * them, so each I is read before it is overwritten.  Both running
 * integrals are cumulative_simpson's: panel pairs (4 y1 + y0 + y2) * h/3
 * summed in order from the first pair, as np.cumsum sums, and odd offsets
 * ((5 y0 + 8 y1) - y2) * h/12 plus the even offset before them. */
void excite_profile(long n, double h, const double *w, const double *winv,
                    const double *chi, double tail, double *chihat)
{
    const double h3 = h / 3.0, h12 = h / 12.0;
    double y0, y1, y2, even = 0.0;

    y0 = w[n - 1] * chi[n - 1];
    chihat[n - 1] = 0.0 + tail;
    for (long i = n - 1; i > 0; i -= 2) {
        y1 = w[i - 1] * chi[i - 1];
        y2 = w[i - 2] * chi[i - 2];
        double odd = ((5.0 * y0 + 8.0 * y1) - y2) * h12 + even;
        double pair = (4.0 * y1 + y0 + y2) * h3;
        even = i == n - 1 ? pair : even + pair;
        chihat[i - 1] = odd + tail;
        chihat[i - 2] = even + tail;
        y0 = y2;
    }

    even = 0.0;
    y0 = winv[0] * chihat[0];
    chihat[0] = 0.0;
    for (long i = 0; i < n - 1; i += 2) {
        y1 = winv[i + 1] * chihat[i + 1];
        y2 = winv[i + 2] * chihat[i + 2];
        double odd = ((5.0 * y0 + 8.0 * y1) - y2) * h12 + even;
        double pair = (4.0 * y1 + y0 + y2) * h3;
        even = i == 0 ? pair : even + pair;
        chihat[i + 1] = odd * 2.0;
        chihat[i + 2] = even * 2.0;
        y0 = y2;
    }
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
