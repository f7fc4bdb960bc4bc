/* Compiled kernels, loaded by excite_iter.kernels through ctypes: the
 * Riccati sweep of the quartic double well and the profile of one
 * iteration step, which knows nothing of the potential or of a wall.
 * Each has the same contract and performs the same floating-point
 * operations, in the same order, as its counterpart in
 * excite_iter._kernels_py; build with -ffp-contract=off so no a*b+c is
 * fused and the output stays bit-identical. */
#include <math.h>

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
