/* Compiled Riccati sweep for the quartic double well, loaded by
 * excite_iter.kernels through ctypes.  Same contract and the same floating-
 * point operations, in the same order, as excite_iter._kernels_py; build
 * with -ffp-contract=off so no a*b+c is fused and the output stays
 * bit-identical.  s and sp hold n + 1 doubles each.  Returns the index at
 * which |S'| exceeded the blow-up limit (entries after it are NaN), or -1. */
#include <math.h>

#define BLOWUP_LIMIT 1e12

long riccati_sweep(double x0, double h, long n, double g, double e,
                   double s0, double sp0, double *s, double *sp)
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
        if (b > BLOWUP_LIMIT || b < -BLOWUP_LIMIT) {
            for (long j = i + 2; j <= n; j++)
                s[j] = sp[j] = NAN;
            return i + 1;
        }
    }
    return -1;
}
