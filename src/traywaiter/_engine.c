/* The compiled pieces of traywaiter, in three parts under one set of flags:
 * the stick/slip engine's step loop (steps), consecutive steps of
 * dynamics._TraySim.run in one call, sticking or sliding with one sign, for
 * the steps that run() finishes with no event and no error; the smoother's
 * oscillator recurrence, which also shapes the filter's noise (osc_steps);
 * and the CSV row writer of fileio._table_chunks (csv_rows).
 *
 * A step is dynamics._input_terms of each row it reads, by index as run()
 * reads them, the RK4 sub-step (_TraySim._advance) over the plant's contact
 * model (dynamics._contact) in its mode and run()'s record, each
 * transcribed in the operand order of the Python it stands for, so that
 * every committed value has the Python bits.
 * That needs IEEE double arithmetic with no fused multiply-add, and libm's
 * sin, cos and pow as Python calls them: _native.py pins the flags
 * (-ffp-contract=off -fno-builtin) that give both.
 *
 * The hand-back rule: a step is committed only where Python would commit it
 * with no event and no error (see steps for its checks). Otherwise the
 * loop returns that step's index with the state and k1 as they were, and
 * run() redoes the step in Python, which raises the error or handles the
 * event. The sine and cosine of an infinite angle are NaN here and in the
 * Python contact model alike; every such NaN reaches an N or the new state,
 * which then fails its check. */

#include <math.h>
#include <string.h>

/* the engine's modes, dynamics.STICK and dynamics.SLIP */
enum { STICK, SLIP };

/* The plant: the fields of PlantParams and the products the contact model
 * hoists, each formed as the Python forms it. */
struct plant {
    double m, M, l, h, d_z, b_ct, mu, g, damp, v_eps;
    double mass, ml, dz_m, l_mass, tol;
    int pendulum;
};

static void plant_of(const double *p, struct plant *q)
{
    q->m = p[0];
    q->M = p[1];
    q->l = p[2];
    q->h = p[3];
    q->d_z = p[4];
    q->b_ct = p[5];
    q->mu = p[6];
    q->g = p[7];
    q->damp = p[8];
    q->v_eps = p[9];
    q->mass = q->M + q->m;
    q->ml = q->m * q->l;
    q->dz_m = q->d_z * q->M;
    q->l_mass = q->l * (q->m + q->M);
    q->tol = 1e-12 * q->l * (q->m + q->M);
    q->pendulum = q->m > 0.0;
}

/* The input-only terms of one row (x_ddot, z_ddot, beta, beta_dot,
 * beta_ddot), as dynamics._input_terms returns them. */
struct row {
    double xtt, gz, b, bd, bdd, n_u, d_u, hbb, dzbb, bb;
};

static void input_terms(const double *r, const struct plant *p, struct row *u)
{
    double sb, cb;

    u->xtt = r[0];
    u->gz = p->g + r[1];
    u->b = r[2];
    u->bd = r[3];
    u->bdd = r[4];
    sb = sin(u->b);
    cb = cos(u->b);
    u->n_u = cb * u->gz - sb * u->xtt;
    u->d_u = p->mass * (sb * u->gz + cb * u->xtt);
    u->hbb = p->h * u->bd * u->bd;
    u->dzbb = p->d_z * u->bd * u->bd;
    u->bb = u->bd * u->bd;
}

/* w ** 2 as Python's float power computes it, which is pow of |w|; pow gives
 * inf where Python raises OverflowError and dynamics._square returns inf. */
static double square(double w)
{
    if (isnan(w))
        return w;
    return pow(fabs(w), 2.0);
}

/* The three lines of the contact model (dynamics._contact) at theta `th`
 * (st, ct its sine and cosine), theta_dot `thd`, d_x `x` and d_x_dot `w`,
 * with theta_ddot `a` in N and D: the bracket of the pendulum equation,
 * whose negative over l is theta_ddot, the normal force N and the demand D. */
static double bracket(const struct plant *p, double th, double st, double ct,
                      double thd, double x, double w, const struct row *u)
{
    return p->damp * thd + (p->l - p->h * ct + x * st) * u->bdd
        + ct * (-x * u->bd * u->bd) + st * (2.0 * u->bd * w - u->hbb)
        + sin(u->b + th) * u->gz + cos(u->b + th) * u->xtt;
}

static double normal(const struct plant *p, double st, double ct, double thd,
                     double x, double w, double a, const struct row *u)
{
    return p->mass * (u->n_u + x * u->bdd + 2.0 * u->bd * w - u->dzbb)
        + p->m * (p->l * st * (u->bdd + a) + p->l * ct * thd * (2.0 * u->bd + thd)
                  + u->bb * (p->l * ct - p->h));
}

static double demand(const struct plant *p, double st, double ct, double thd,
                     double x, double w, double a, const struct row *u)
{
    return u->d_u + ((p->l * ct - p->h) * p->m - p->dz_m) * u->bdd + p->ml * ct * a
        - p->ml * st * square(u->bd + thd) - p->mass * x * u->bd * u->bd
        + p->b_ct * w;
}

/* The stick test at (th, thd, x, w) and row u: theta_ddot, N and D into
 * t[0..2] and F_s = mu N into t[3]. */
static void stick_test(const struct plant *p, double th, double thd, double x,
                       double w, const struct row *u, double *t)
{
    double st = sin(th), ct = cos(th);

    t[0] = p->pendulum ? -bracket(p, th, st, ct, thd, x, w, u) / p->l : 0.0;
    t[1] = normal(p, st, ct, thd, x, w, t[0], u);
    t[2] = demand(p, st, ct, thd, x, w, t[0], u);
    t[3] = p->mu * t[1];
}

/* A stage of the sub-step (the stage closure of _TraySim._advance) in mode
 * `mode` (STICK or SLIP) at (th, thd, x, w) and row u: theta_ddot into *a
 * and d_x_ddot into *xdd. Sticking, it is the stick test's theta_ddot, with
 * d_x_ddot = 0.0. Sliding, it is the contact model's slide, with s mu `smu`
 * and ((s mu) m) l `smml`. Returns 0 where the sub-step raises: on N <= 0,
 * on a singular coupling matrix, and where N or the matrix is NaN. */
static int stage(const struct plant *p, int mode, double smu, double smml,
                 double th, double thd, double x, double w,
                 const struct row *u, double *a, double *xdd)
{
    double st = sin(th), ct = cos(th);
    double nf, b2, r1, a21, det;

    if (mode == STICK) {
        *a = p->pendulum ? -bracket(p, th, st, ct, thd, x, w, u) / p->l : 0.0;
        *xdd = 0.0;
        return normal(p, st, ct, thd, x, w, *a, u) > 0.0;
    }
    nf = normal(p, st, ct, thd, x, w, 0.0, u);
    b2 = -demand(p, st, ct, thd, x, w, 0.0, u) - smu * nf;
    if (!p->pendulum) {
        *a = 0.0;
        *xdd = b2 / p->M;
    } else {
        r1 = -bracket(p, th, st, ct, thd, x, w, u);
        a21 = p->ml * ct + smml * st;
        det = p->l_mass - ct * a21;
        if (!(fabs(det) >= p->tol))
            return 0;
        *a = (r1 * p->mass - ct * b2) / det;
        *xdd = (p->l * b2 - a21 * r1) / det;
        nf = nf + p->ml * st * *a;
    }
    return nf > 0.0;
}

/* Steps k, k + 1, ... of a run of n steps of width `dt` in mode `mode`
 * (STICK or SLIP; sliding with sign s), with the arguments:
 *
 * plant: m, M, l, h, d_z, b_ct, mu, g, the pendulum damping b_lc / (m l) and
 *        the stick capture velocity dynamics._V_EPS
 * grid:  the n + 1 grid rows, mid: the n midpoint rows, 5 doubles a row
 * state: theta, theta_dot, d_x, d_x_dot, then k1 = (theta_ddot, N, D, F_s),
 *        the stick test at that state and row k; updated to the state and
 *        stick test at the returned row
 * the trace arrays get rows k + 1 up to the returned row.
 *
 * A step is committed where N > 0 in every stage and no coupling matrix is
 * singular; at the end, sticking, where |D| <= F_s, and sliding, where the
 * slide neither stops nor reverses (d_x_dot s > 0) and ends outside the
 * capture band (|d_x_dot| >= v_eps); and in both modes where the state is
 * finite and N > 0 in the record. The first stage is k1's while sticking,
 * and the solid's while sliding. Returns the index of the first step not
 * committed, or n. */
long steps(int mode, const double *plant, double dt, const double *grid,
           const double *mid, long k, long n, double s, double *state,
           double *theta, double *theta_dot, double *d_x, double *d_x_dot,
           unsigned char *modes, double *dem, double *f_s)
{
    struct plant p;
    struct row u0, um, u1;
    const double hh = 0.5 * dt;
    double y[4], k1[4], t[4];
    double smu, smml;

    plant_of(plant, &p);
    smu = s * p.mu;
    smml = smu * p.m * p.l;
    for (int i = 0; i < 4; i++) {
        y[i] = state[i];
        k1[i] = state[4 + i];
    }
    if (k < n)
        input_terms(grid + 5 * k, &p, &u0);
    for (; k < n; k++) {
        double a1, x1, v2, w2, a2, x2, v3, w3, a3, x3, v4, w4, a4, x4, e[4];

        /* stage 1: the row k */
        if (mode == SLIP && p.pendulum) {
            if (!stage(&p, mode, smu, smml, y[0], y[1], y[2], y[3], &u0, &a1, &x1))
                break;
        } else {
            if (!(k1[1] > 0.0))
                break;
            a1 = k1[0];
            x1 = mode == STICK ? 0.0 : (-k1[2] - smu * k1[1]) / p.M;
        }
        /* stages 2 and 3: the midpoint row */
        input_terms(mid + 5 * k, &p, &um);
        v2 = y[1] + hh * a1;
        w2 = y[3] + hh * x1;
        if (!stage(&p, mode, smu, smml, y[0] + hh * y[1], v2, y[2] + hh * y[3], w2,
                   &um, &a2, &x2))
            break;
        v3 = y[1] + hh * a2;
        w3 = y[3] + hh * x2;
        if (!stage(&p, mode, smu, smml, y[0] + hh * v2, v3, y[2] + hh * w2, w3,
                   &um, &a3, &x3))
            break;
        /* stage 4 and the end test: the end row */
        input_terms(grid + 5 * (k + 1), &p, &u1);
        v4 = y[1] + dt * a3;
        w4 = y[3] + dt * x3;
        if (!stage(&p, mode, smu, smml, y[0] + dt * v3, v4, y[2] + dt * w3, w4,
                   &u1, &a4, &x4))
            break;
        e[0] = y[0] + dt * (y[1] + 2.0 * v2 + 2.0 * v3 + v4) / 6.0;
        e[1] = y[1] + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0;
        e[2] = y[2] + dt * (y[3] + 2.0 * w2 + 2.0 * w3 + w4) / 6.0;
        e[3] = y[3] + dt * (x1 + 2.0 * x2 + 2.0 * x3 + x4) / 6.0;
        stick_test(&p, e[0], e[1], e[2], e[3], &u1, t);
        /* run(): the end test while sticking; no stop or reversal and no
         * capture test while sliding; the finite state, the record's N */
        if (mode == STICK ? !(fabs(t[2]) <= t[3])
                : (!(e[3] * s > 0.0) || !(fabs(e[3]) >= p.v_eps)))
            break;
        if (!isfinite(e[0]) || !isfinite(e[1]) || !isfinite(e[2]) || !isfinite(e[3])
                || !(t[1] > 0.0))
            break;
        for (int i = 0; i < 4; i++) {
            y[i] = e[i];
            k1[i] = t[i];
        }
        /* run()'s record of row k + 1 */
        theta[k + 1] = y[0];
        theta_dot[k + 1] = y[1];
        d_x[k + 1] = y[2];
        d_x_dot[k + 1] = y[3];
        modes[k + 1] = (unsigned char)mode;
        dem[k + 1] = t[2];
        f_s[k + 1] = t[3];
        u0 = u1;
    }
    for (int i = 0; i < 4; i++) {
        state[i] = y[i];
        state[4 + i] = k1[i];
    }
    return k;
}

/* The 2x2 recurrence of smoothers._recurrence, which the damped-harmonic
 * smoother (smoothers._OscStage.run) and the filter's low-pass noise
 * (fileio.band_limited_noise) both run, over the n forcing samples f:
 * x1, x2 = f11 x1 + f12 x2 + g1 f[k], f21 x1 + f22 x2 + g2 f[k], in the
 * Python operand order, with c holding f11, f12, f21, f22, g1, g2 and x the
 * state (x1, x2). Every state goes to x1s and x2s, and the last one back
 * into x.
 *
 * No step is handed back: the recurrence has no events and no error checks,
 * Python's float * and + never raise, and inf and NaN propagate through them
 * as through the IEEE doubles here. */
void osc_steps(const double *c, const double *f, long n, double *x,
               double *x1s, double *x2s)
{
    const double f11 = c[0], f12 = c[1], f21 = c[2], f22 = c[3];
    const double g1 = c[4], g2 = c[5];
    double x1 = x[0], x2 = x[1];

    for (long k = 0; k < n; k++) {
        const double next = f11 * x1 + f12 * x2 + g1 * f[k];

        x2 = f21 * x1 + f22 * x2 + g2 * f[k];
        x1 = next;
        x1s[k] = x1;
        x2s[k] = x2;
    }
    x[0] = x1;
    x[1] = x2;
}

/* Appends the k bytes at s to *o. */
static void put(char **o, const char *s, size_t k)
{
    memcpy(*o, s, k);
    *o += k;
}

/* The table writer of fileio._table_chunks: orjson's dump of n float64
 * values v ("[a,b,...]", len bytes of text), laid out in out (cap bytes) as
 * CSV rows of ncols values, each value written as its repr(), as the
 * Python fallback writes it. Ryu's digits (orjson's) are repr()'s, and so
 * is its notation outside the ranges below, where the token is fixed from
 * its value:
 *
 *   NaN and inf, which orjson writes as null: nan, inf and -inf;
 *   1e-9 <= |x| < 1e-5:  1e-6 to 1e-06;
 *   1e-5 <= |x| < 1e-4:  0.000012 to 1.2e-05, 0.00001 to 1e-05;
 *   |x| >= 1e16:         1e16 to 1e+16.
 *
 * A token of k bytes and its separator take at most k + 4 bytes in out, so
 * a cap of len + 4 n always fits. Returns the bytes written, or -1 where the
 * dump does not hold exactly n tokens in the notation above, or the cap is
 * less than len + 4 n. */
long csv_rows(const double *v, long n, long ncols, const char *text, long len,
              char *out, long cap)
{
    const char *t = text + 1, *end = text + len - 1;    /* the closing ] */
    char *o = out;
    long col = 0;

    if (ncols < 1 || len < 2 || text[0] != '[' || *end != ']' || cap < len + 4 * n)
        return -1;
    for (long i = 0; i < n; i++) {
        const double x = v[i], a = x < 0.0 ? -x : x;
        const char *stop, *e;
        long k;

        if (t > end)
            return -1;      /* no token left */
        stop = memchr(t, ',', end - t);
        if (stop == NULL)
            stop = end;
        k = stop - t;
        if (k == 0)
            return -1;
        if (a < 1e-9 || (a >= 1e-4 && a < 1e16)) {
            put(&o, t, k);
        } else if (a < 1e-5 || (a >= 1e16 && a <= 1.7976931348623157e308)) {
            /* a 0 after the e- of 1e-6, a + after the e of 1e16 */
            e = memchr(t, 'e', k);
            if (e == NULL || (a < 1e-5 && e[1] != '-'))
                return -1;
            e += a < 1e-5 ? 2 : 1;
            put(&o, t, e - t);
            *o++ = a < 1e-5 ? '0' : '+';
            put(&o, e, stop - e);
        } else if (a < 1e-4) {
            /* the sign, the digit after 0.0000, a point before the others,
             * e-05 */
            if (*t == '-')
                *o++ = *t++;
            if (stop - t < 7 || memcmp(t, "0.0000", 6) != 0)
                return -1;
            *o++ = t[6];
            if (stop - t > 7) {
                *o++ = '.';
                put(&o, t + 7, stop - t - 7);
            }
            put(&o, "e-05", 4);
        } else {
            /* NaN and inf, where orjson writes null */
            const char *s = x != x ? "nan" : x > 0.0 ? "inf" : "-inf";

            put(&o, s, strlen(s));
        }
        if (++col == ncols) {
            *o++ = '\n';
            col = 0;
        } else {
            *o++ = ',';
        }
        t = stop + 1;
    }
    return (n ? t == end + 1 : len == 2) ? o - out : -1;
}
