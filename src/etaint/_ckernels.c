/* etaint._ckernels: the compiled twin of the quadrature hot kernels.
 *
 * Keep in step with _pykernels.py: the same dispatch table, summation
 * order and guards, operation for operation, so that the two backends
 * agree bit for bit (both sit on the same libm).  The form ids mirror
 * etaint._forms.  Building needs only a C compiler and the Python headers.
 *
 * The panel has three rules: cos/sin kernels on a panel with
 * c = p1 (b - a)/2 > 3 use a Filon-Clenshaw-Curtis rule (eta^n at 15
 * Chebyshev-Lobatto nodes, integrated against cos/sin exactly through
 * Chebyshev moments: by forward recurrence for c > 14, and for c <= 14 by
 * forward recurrence below degree c and a boundary-value solve above);
 * the cos_recip kernel on a panel 0 < a < b takes the same cos rule in
 * t = 1/x (RULE_RECIP), where cos(p1/x) x^{-1/2} eta^n(ix) dx becomes
 * cos(p1 t) x^{3/2} eta^n(ix) dt over [1/b, 1/a], when
 * c = p1 (1/a - 1/b)/2 > 3; every other panel is Gauss-Kronrod 7/15.
 *
 * Panels recur: the adaptive quadrature of every record starts from
 * dyadic breakpoints (with an eta factor, powers of two graded from a
 * lower limit 2^-j up to 1/4, 1/2, 1, 2, ...; without one, 0, 0.25, 0.5,
 * ...) and bisects at midpoints, so the records of one process keep
 * forming the same panels [a, b], and eta^n at a panel's 15 nodes does
 * not depend on the weight.
 * `panel` keeps what each rule consumes of those node values in a static
 * direct-mapped table of MEMO_SIZE = 1024 panels (a payload of 24 doubles
 * each, about 220 KB in all), keyed by n, the rule (the three rules
 * sample different nodes or factors) and the exact doubles a and b; a
 * colliding panel replaces the slot's entry.  A GK15 entry holds the 15
 * node values, so a hit evaluates only the weight; a Filon or RULE_RECIP
 * entry holds their 15 + 8 DCT sums and |g| sum (cheb_sums), so a hit
 * does 15 multiply-adds with the moments plus cos/sin(p1 centr).  Panels
 * with n = 0 (the auxiliary integrands, right-hand sides among them)
 * bypass the table, so no right-hand side reads a value computed for a
 * left-hand side.  The moments depend only on c, which recurs with the
 * dyadic panel widths (less so in t = 1/x, where widths are not), so
 * `moments` keeps a second direct-mapped table of MU_MEMO_SIZE = 256
 * moment sets (32 KB) keyed by the exact c.  Sums run in the same order
 * either way, so a hit and a miss give the same result to the bit.  The
 * tables are touched only with the GIL held.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <float.h>
#include <limits.h>
#include <math.h>
#include <stdarg.h>
#include <stdint.h>
#include <string.h>

enum form_id {
    FORM_POWER = 0, FORM_EXP = 1, FORM_COS = 2, FORM_SIN = 3, FORM_EXP_RECIP = 4,
    FORM_COS_RECIP = 5, FORM_ERF_WEIGHT = 6, FORM_SCALED_ERFC_RECIP = 7,
    FORM_SHIFTED_RECIP = 8, FORM_SQRT_SHIFT = 9, FORM_EXP_OVER_X = 10, FORM_IM_RSQRT = 11,
    FORM_GLAISHER11 = 12, FORM_GLAISHER17 = 13, FORM_SECH_AUX = 14, FORM_TP_RHS3_U = 15,
    FORM_TP_RHS1_U = 16,
};

/* F selectors of the transform-pair forms, carried in slot p2. */
enum fsel_id { FSEL_EXP = 0, FSEL_EXP_SQRT = 1, FSEL_SIN_SQRT = 2 };

static const double PI = 3.141592653589793;
static const double UFLOW_GUARD = DBL_MIN / (50.0 * DBL_EPSILON);

/* Set once at module init. */
static double SQRT_PI, TP1_C1, TP1_C2;

/* Gauss-Kronrod 7/15 nodes and weights (positive half; index 7 = center). */
static const double XGK[8] = {
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
};
static const double WGK[8] = {
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
};
static const double WG[4] = {
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
};

/* Filon panels from c = p1 (b - a)/2 > FILON_C_MIN; their moments come by
 * forward recurrence above FORWARD_C_MIN and by a boundary-value solve up
 * to degree MU_TOP below it (see moments).  Then cos(i pi/14), i = 0..14,
 * the Chebyshev-Lobatto nodes, and the Clenshaw-Curtis weights of nodes j
 * and 14 - j on [-1, 1] (j = 0..7). */
static const double FILON_C_MIN = 3.0;
static const double FORWARD_C_MIN = 14.0;
#define MU_TOP 40
static const double CHEB[15] = {
    1.0, 0.974927912181823607018131682993931217,
    0.900968867902419126236102319507445051, 0.781831482468029808708444526674057750,
    0.623489801858733530525004884004239811, 0.433883739117558120475768332848358755,
    0.222520933956314404288902564496794759, 0.0,
    -0.222520933956314404288902564496794759, -0.433883739117558120475768332848358755,
    -0.623489801858733530525004884004239811, -0.781831482468029808708444526674057750,
    -0.900968867902419126236102319507445051, -0.974927912181823607018131682993931217,
    -1.0,
};
static const double WCC[8] = {
    0.00512820512820512820512820512820512821, 0.0486993872950882385506451084909096498,
    0.0978203916760521591285373486189925945, 0.139665078495604318031574925427921362,
    0.175605789001066746765375946953466347, 0.202051467482383573636767327925673689,
    0.218881511630573401798394396735233366, 0.224296338582052867767153481439195725,
};

/* The panel rules, as memo keys, and their node tables t: every rule
 * samples its eta factor at centr + hl t_j and centr - hl t_j (j = 0..6)
 * and at centr.  RULE_RECIP is the Filon rule of a cos_recip panel in
 * t = 1/x (see panel), whose centr and hl are the panel's in t. */
enum rule_id { RULE_GK15 = 0, RULE_FILON = 1, RULE_RECIP = 2 };
static const double *const NODES[3] = {XGK, CHEB, CHEB};

#define MEMO_SIZE 1024   /* a power of two */
#define MU_MEMO_SIZE 256 /* a power of two */

/* What a Filon panel consumes of eta^n: the DCT-I sums s14_k (k = 0..14)
 * and s7_k (k = 0..7) of its node values and their Clenshaw-Curtis |g|
 * sum, resabs before the factor |hl|; see _cheb_sums in the Python twin. */
struct cheb_sums {
    double s14[15], s7[8], resabs;
};

/* kind = 4 n + rule keys n and the rule at once; an empty slot has
 * kind == 0, which no lookup asks for (n != 0).  A GK15 entry holds eta^n
 * at its 15 nodes, a Filon or RULE_RECIP entry their cheb_sums. */
struct memo_entry {
    double a, b;
    long long kind;
    union {
        double g[15];
        struct cheb_sums cheb;
    } u;
};
static struct memo_entry memo[MEMO_SIZE];

/* The moments by the exact c; an empty slot has c == 0, which no lookup
 * asks for (c > FILON_C_MIN). */
struct mu_entry {
    double c;
    double mu[15];
};
static struct mu_entry mu_memo[MU_MEMO_SIZE];

/* Stands in for the node values of an n = 0 panel: w * 1.0 == w. */
static const double ONES[15] = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                                1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};

/* exp(x^2) erfc(x) for x >= 0: direct product below 26, asymptotic beyond
 * (specfun.erfc_scaled). */
static double erfc_scaled(double x)
{
    if (x < 26.0)
        return exp(x * x) * erfc(x);
    double r2 = 0.5 / (x * x);
    double term = 1.0, acc = 1.0;
    for (int k = 1; k < 12; k++) {
        term *= -(2 * k - 1) * r2;
        acc += term;
        if (fabs(term) < 1e-17 * acc)
            break;
    }
    return acc / (x * SQRT_PI);
}

/* sinh(x) - sin(x); the series below |x| = 0.5 removes the ~x cancellation
 * (specfun.sinh_minus_sin). */
static double sinh_minus_sin(double x)
{
    if (fabs(x) >= 0.5)
        return sinh(x) - sin(x);
    double x2 = x * x;
    double x4 = x2 * x2;
    double term = x * x2 / 3.0;
    double acc = term;
    for (int m = 7; m < 16; m += 4) {
        term *= x4 / ((m - 3) * (m - 2) * (m - 1) * m);
        acc += term;
    }
    return acc;
}

static double eta_series(double xe)
{
    double c = PI * xe / 12.0;
    double acc = 0.0;
    for (int n = 0; n < 64; n++) {
        int m = n % 6;
        double coef;
        if (m == 0 || m == 5)
            coef = 1.0;
        else if (m == 2 || m == 3)
            coef = -1.0;
        else
            coef = 0.0;
        if (coef != 0.0) {
            double e = c * (2 * n + 1) * (2 * n + 1);
            if (e > 745.0)
                break;
            double t = exp(-e);
            acc += coef * t;
            if (t <= 1e-17 * acc)
                break;
        }
    }
    return acc;
}

static double eta3_series(double xe)
{
    double c = PI * xe / 4.0;
    double acc = 0.0;
    for (int n = 0; n < 64; n++) {
        double e = c * (2 * n + 1) * (2 * n + 1);
        if (e > 745.0)
            break;
        double t = (2 * n + 1) * exp(-e);
        if (n % 2 == 0)
            acc += t;
        else
            acc -= t;
        if (t <= 1e-17 * acc)
            break;
    }
    return acc;
}

static double eta_point(double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x < 1.0)
        return eta_series(1.0 / x) / sqrt(x);
    return eta_series(x);
}

static double eta3_point(double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x < 1.0) {
        /* The series is 0 below x = 1e-3, before x sqrt(x) can underflow to 0. */
        double s = eta3_series(1.0 / x);
        return s == 0.0 ? s : s / (x * sqrt(x));
    }
    return eta3_series(x);
}

/* Spreads the bits of a key over a table index. */
static uint64_t mix(uint64_t h)
{
    h ^= h >> 31;
    h *= 0xBF58476D1CE4E5B9u;
    h ^= h >> 29;
    return h;
}

/* The eta factor of a cos_recip panel in t = 1/x: x^{3/2} eta^n(ix) at
 * x = 1/t, and 0 where t <= 0 or eta^n(ix) is 0; see _in_recip in the
 * Python twin. */
static double in_recip(double (*eta)(double), double t)
{
    double x = t > 0.0 ? 1.0 / t : 0.0;
    double e = eta(x);
    return e == 0.0 ? e : e * (x * sqrt(x));
}

static double eta_recip(double t)
{
    return in_recip(eta_point, t);
}

static double eta3_recip(double t)
{
    return in_recip(eta3_point, t);
}

/* The rule's eta factor at the panel's 15 nodes: [j] at centr + hl t_j,
 * [14 - j] at centr - hl t_j (j < 7) and [7] at centr; eta^n, or for
 * RULE_RECIP its value in t = 1/x; n != 0. */
static void eta_nodes(int n, int rule, double centr, double hl, double g[15])
{
    double (*eta)(double);
    if (rule == RULE_RECIP)
        eta = n == 1 ? eta_recip : eta3_recip;
    else
        eta = n == 1 ? eta_point : eta3_point;
    const double *t = NODES[rule];
    g[7] = eta(centr);
    for (int j = 0; j < 7; j++) {
        double dx = hl * t[j];
        g[j] = eta(centr + dx);
        g[14 - j] = eta(centr - dx);
    }
}

/* The DCT-I sums of the node values g and their Clenshaw-Curtis |g| sum;
 * see _cheb_sums in the Python twin. */
static void cheb_sums(const double g[15], struct cheb_sums *out)
{
    double ev[8], od[8];
    double fm = g[7];
    ev[7] = fm;
    od[7] = 0.0;
    double resabs = WCC[7] * fabs(fm);
    for (int j = 0; j < 7; j++) {
        double f1 = g[j];
        double f2 = g[14 - j];
        ev[j] = f1 + f2;
        od[j] = f1 - f2;
        resabs += WCC[j] * (fabs(f1) + fabs(f2));
    }
    ev[0] *= 0.5;
    od[0] *= 0.5;
    for (int k = 0; k < 15; k++) {
        const double *v = k % 2 ? od : ev;
        double s14 = v[0] * CHEB[0];
        double s7 = s14;
        for (int j = 1; j < 8; j++) {
            int r = j * k % 28; /* cos(jk pi/14) = CHEB[r], folded into 0..14 */
            double t = v[j] * CHEB[r <= 14 ? r : 28 - r];
            s14 += t;
            if (j % 2 == 0)
                s7 += t;
        }
        out->s14[k] = s14;
        if (k <= 7)
            out->s7[k] = s7;
    }
    out->s14[0] *= 0.5;
    out->s14[14] *= 0.5;
    out->s7[0] *= 0.5;
    out->s7[7] *= 0.5;
    out->resabs = resabs;
}

/* The memo entry of [a, b] for the rule, filled on a miss: eta_nodes for
 * GK15, their cheb_sums for Filon and RULE_RECIP; n != 0. */
static const struct memo_entry *memoised(int n, int rule, double a, double b, double centr,
                                         double hl)
{
    long long kind = 4LL * n + rule;
    uint64_t ua, ub;
    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    uint64_t h = mix((ua ^ (ub * 0x9E3779B97F4A7C15u)) + (uint64_t)kind);
    struct memo_entry *e = &memo[h & (MEMO_SIZE - 1)];
    if (e->kind == kind && e->a == a && e->b == b)
        return e;
    if (rule == RULE_GK15) {
        eta_nodes(n, rule, centr, hl, e->u.g);
    } else {
        double g[15];
        eta_nodes(n, rule, centr, hl, g);
        cheb_sums(g, &e->u.cheb);
    }
    e->a = a;
    e->b = b;
    e->kind = kind;
    return e;
}

static double sech(double x)
{
    if (x > 350.0)
        return 2.0 * exp(-x);
    return 1.0 / cosh(x);
}

/* The weight f(x) multiplying the eta power; `form` is a valid form_id. */
static double kernel_weight(int form, double p1, double p2, double x)
{
    double e, r2, s, r, base, sech_v, b, ratio;
    switch ((enum form_id)form) {
    case FORM_POWER:
        return pow(x, -p1);
    case FORM_EXP:
        e = p1 * x;
        return e <= 745.0 ? exp(-e) : 0.0;
    case FORM_COS:
        return cos(p1 * x);
    case FORM_SIN:
        return sin(p1 * x);
    case FORM_EXP_RECIP:
        e = p1 / x;
        return e <= 745.0 ? exp(-e) / sqrt(x) : 0.0;
    case FORM_COS_RECIP:
        return cos(p1 / x) / sqrt(x);
    case FORM_ERF_WEIGHT:
        return erf(sqrt(p1 * x)) / sqrt(x);
    case FORM_SCALED_ERFC_RECIP:
        return erfc_scaled(sqrt(p1 / x)) / sqrt(x);
    case FORM_SHIFTED_RECIP:
        return pow(x + p1, -p2);
    case FORM_SQRT_SHIFT:
        r2 = x * x + 1.0;
        s = sqrt(r2);
        return sqrt(x * x / (s + 1.0) / r2);
    case FORM_EXP_OVER_X:
        e = p1 * x;
        return e <= 745.0 ? exp(-e) / x : 0.0;
    case FORM_IM_RSQRT:
        r = hypot(x, p1);
        return sqrt(p1 * p1 / (r + x) / (2.0 * r * r));
    case FORM_GLAISHER11:
        if (x == 0.0)
            return 0.0;
        if (x > 350.0)
            return 1.0 / (x * x);
        return sinh_minus_sin(x) / (x * x * (cosh(x) + cos(x)));
    case FORM_GLAISHER17:
        if (x == 0.0)
            return 0.0;
        if (x > 350.0)
            return sin(0.5 * x) * exp(-0.5 * x) / x;
        return sinh(0.5 * x) * sin(0.5 * x) / (x * (cosh(x) + cos(x)));
    case FORM_SECH_AUX:
        e = p1 * x * x / PI;
        if (e > 745.0)
            return 0.0;
        base = exp(-e) * sech(x);
        return p2 == 1.0 ? x * base : base;
    case FORM_TP_RHS3_U:
        sech_v = sech(SQRT_PI * x);
        if (p2 == FSEL_EXP) {
            e = p1 * x * x;
            return e <= 745.0 ? 2.0 * x * exp(-e) * sech_v : 0.0;
        }
        if (p2 == FSEL_EXP_SQRT) {
            e = p1 * x * x;
            return e <= 745.0 ? (2.0 / SQRT_PI) * exp(-e) * sech_v : 0.0;
        }
        return (2.0 / SQRT_PI) * sin(p1 * x * x) * sech_v; /* FSEL_SIN_SQRT */
    case FORM_TP_RHS1_U:
        b = TP1_C2 * x;
        if (b > 350.0)
            ratio = exp((TP1_C1 - TP1_C2) * x) * (1.0 - exp(-2.0 * TP1_C1 * x));
        else
            ratio = sinh(TP1_C1 * x) / cosh(b);
        if (p2 == FSEL_EXP) {
            e = p1 * x * x;
            return e <= 745.0 ? 2.0 * SQRT_PI * exp(-e) * ratio : 0.0;
        }
        if (p2 == FSEL_EXP_SQRT) {
            e = p1 * x * x;
            return e <= 745.0 ? (2.0 / x) * exp(-e) * ratio : 0.0;
        }
        return (2.0 / x) * sin(p1 * x * x) * ratio; /* FSEL_SIN_SQRT */
    }
    return NAN; /* unreachable: the callers reject unknown form ids */
}

static double integrand(int form, int n, double p1, double p2, double x)
{
    double w = kernel_weight(form, p1, p2, x);
    if (n == 0 || w == 0.0)
        return w;
    if (n == 1)
        return w * eta_point(x);
    return w * eta3_point(x);
}

/* mu_{b+1}..mu_14 from the recurrence at k = b + 1..MU_TOP as a tridiagonal
 * system between mu_b and mu_41's leading term, eliminated from the top
 * row down (mu_k = f_k + g_k mu_{k-1}) and substituted from mu_b up; see
 * _moments_bvp in the Python twin. */
static void moments_bvp(double c, double sc, double cc, int b, double mu[15])
{
    double fk[MU_TOP + 1], gk[MU_TOP + 1];
    double ro = -4.0 * sc, re = 4.0 * cc;
    double f = -2.0 * sc / 1680.0, g = 0.0; /* mu_41 (41 is odd) */
    for (int k = MU_TOP; k > b; k--) {
        double d = k % 2 ? 2.0 * (k * k - 1) : -2.0 * (k * k - 1);
        double cu = c * (k - 1.0);
        double den = d + cu * g;
        f = ((k % 2 ? ro : re) - cu * f) / den;
        g = c * (k + 1.0) / den;
        fk[k] = f;
        gk[k] = g;
    }
    for (int k = b + 1; k < 15; k++)
        mu[k] = fk[k] + gk[k] * mu[k - 1];
}

/* int_{-1}^{1} T_k(t) cos(ct) dt (k even), sin(ct) (k odd), k = 0..14, c > 3:
 * closed forms to mu_2, the forward recurrence while k stays below c (to
 * mu_14 for c > 14, else to mu_b, b = (int)c - 1), then moments_bvp.
 * Memoised by the exact c in mu_memo. */
static const double *moments(double c)
{
    uint64_t uc;
    memcpy(&uc, &c, sizeof uc);
    struct mu_entry *e = &mu_memo[mix(uc) & (MU_MEMO_SIZE - 1)];
    if (e->c == c)
        return e->mu;
    double *mu = e->mu;
    double sc = sin(c), cc = cos(c);
    mu[0] = 2.0 * sc / c;
    mu[1] = 2.0 * (sc - c * cc) / (c * c);
    mu[2] = 4.0 * (sc / c + 2.0 * cc / (c * c) - 2.0 * sc / (c * c * c)) - mu[0];
    int b = c > FORWARD_C_MIN ? 14 : (int)c - 1;
    for (int k = 2; k < b; k++) {
        double ratio = (double)(k + 1) / (double)(k - 1);
        if (k % 2 == 1)
            mu[k + 1] = -4.0 * sc / (c * (k - 1)) - 2.0 * (k + 1) * mu[k] / c + ratio * mu[k - 1];
        else
            mu[k + 1] = 4.0 * cc / (c * (k - 1)) + 2.0 * (k + 1) * mu[k] / c + ratio * mu[k - 1];
    }
    if (b < 14)
        moments_bvp(c, sc, cc, b, mu);
    e->c = c;
    return mu;
}

/* Filon-Clenshaw-Curtis panel of cos/sin(p1 x) eta^n(ix), c = p1 hl; see
 * _filon in the Python twin for the rule and its error estimate. */
static void filon(int form, double p1, double centr, double hl, double c,
                  const struct cheb_sums *sums, double out[3])
{
    const double *s14 = sums->s14, *s7 = sums->s7, *mu = moments(c);
    double q14e = 0.0, q14o = 0.0, q7e = 0.0, q7o = 0.0;
    for (int k = 0; k < 15; k += 2)
        q14e += s14[k] * mu[k];
    for (int k = 1; k < 15; k += 2)
        q14o += s14[k] * mu[k];
    for (int k = 0; k < 8; k += 2)
        q7e += s7[k] * mu[k];
    for (int k = 1; k < 8; k += 2)
        q7o += s7[k] * mu[k];
    /* cos(p1 x) = wc cos(ct) - ws sin(ct), sin(p1 x) = ws cos(ct) + wc sin(ct). */
    double wc = cos(p1 * centr), ws = sin(p1 * centr), fe, fo;
    if (form == FORM_COS) {
        fe = wc;
        fo = -ws;
    } else {
        fe = ws;
        fo = wc;
    }
    double scale = hl / 7.0; /* a_k = (2/14) s14 and b_k = (2/7) s7 */
    double value = (fe * q14e + fo * q14o) * scale;
    double err = (fabs(fe) * fabs(q14e - 2.0 * q7e) + fabs(fo) * fabs(q14o - 2.0 * q7o)) * fabs(scale);
    double resabs = sums->resabs * fabs(hl);
    if (resabs > UFLOW_GUARD) {
        double err_floor = 50.0 * DBL_EPSILON * resabs;
        if (err_floor > err)
            err = err_floor;
    }
    out[0] = value;
    out[1] = err;
    out[2] = resabs;
}

/* One quadrature panel over [a, b]: Filon for oscillating cos/sin and
 * cos_recip (the latter in t = 1/x), else Gauss-Kronrod 7/15; see the
 * Python twin. */
static void panel(int form, int n, double p1, double p2, double a, double b,
                  double out[3])
{
    double centr = 0.5 * (a + b);
    double hl = 0.5 * (b - a);
    if ((form == FORM_COS || form == FORM_SIN) && n != 0) {
        double c = p1 * hl;
        if (c > FILON_C_MIN) {
            const struct memo_entry *e = memoised(n, RULE_FILON, a, b, centr, hl);
            filon(form, p1, centr, hl, c, &e->u.cheb, out);
            return;
        }
    } else if (form == FORM_COS_RECIP && n != 0 && a > 0.0 && b > a) {
        double ta = 1.0 / a, tb = 1.0 / b;
        double hl_t = 0.5 * (ta - tb);
        double c = p1 * hl_t;
        if (c > FILON_C_MIN) {
            double centr_t = 0.5 * (ta + tb);
            const struct memo_entry *e = memoised(n, RULE_RECIP, a, b, centr_t, hl_t);
            filon(FORM_COS, p1, centr_t, hl_t, c, &e->u.cheb, out);
            return;
        }
    }
    const double *g = n == 0 ? ONES : memoised(n, RULE_GK15, a, b, centr, hl)->u.g;
    /* The weight times the memoized eta^n, short-circuited at w = 0 as in
     * integrand. */
    double w = kernel_weight(form, p1, p2, centr);
    double fc = w == 0.0 ? w : w * g[7];
    double resk = WGK[7] * fc;
    double resg = WG[3] * fc;
    double resabs = fabs(resk);
    double fv1[7], fv2[7];
    for (int j = 0; j < 7; j++) {
        double dx = hl * XGK[j];
        double w1 = kernel_weight(form, p1, p2, centr - dx);
        double w2 = kernel_weight(form, p1, p2, centr + dx);
        double f1 = w1 == 0.0 ? w1 : w1 * g[14 - j];
        double f2 = w2 == 0.0 ? w2 : w2 * g[j];
        fv1[j] = f1;
        fv2[j] = f2;
        double s = f1 + f2;
        resk += WGK[j] * s;
        if (j % 2 == 1)
            resg += WG[(j - 1) / 2] * s;
        resabs += WGK[j] * (fabs(f1) + fabs(f2));
    }
    double reskh = 0.5 * resk;
    double resasc = WGK[7] * fabs(fc - reskh);
    for (int j = 0; j < 7; j++)
        resasc += WGK[j] * (fabs(fv1[j] - reskh) + fabs(fv2[j] - reskh));
    double value = resk * hl;
    resabs *= fabs(hl);
    resasc *= fabs(hl);
    double err = fabs((resk - resg) * hl);
    if (resasc != 0.0 && err != 0.0) {
        double scaled = pow(200.0 * err / resasc, 1.5);
        err = resasc * (scaled < 1.0 ? scaled : 1.0);
    }
    if (resabs > UFLOW_GUARD) {
        double err_floor = 50.0 * DBL_EPSILON * resabs;
        if (err_floor > err)
            err = err_floor;
    }
    out[0] = value;
    out[1] = err;
    out[2] = resabs;
}

/* ------------------------------------------------------------ Python API */

/* Unpack exactly strlen(fmt) positional arguments of `name`, one pointer
 * per character: 'd' -> double *, 'i' -> int *, and 'f' -> int * that must
 * also be a known form id.  Returns -1 with an exception set. */
static int unpack(const char *name, const char *fmt, PyObject *const *args,
                  Py_ssize_t nargs, ...)
{
    Py_ssize_t want = (Py_ssize_t)strlen(fmt), i;
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd positional arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    va_list ap;
    va_start(ap, nargs);
    for (i = 0; i < want; i++) {
        if (fmt[i] == 'd') {
            double v = PyFloat_AsDouble(args[i]);
            if (v == -1.0 && PyErr_Occurred())
                break;
            *va_arg(ap, double *) = v;
            continue;
        }
        long v = PyLong_AsLong(args[i]);
        if (v == -1 && PyErr_Occurred())
            break;
        if (v < INT_MIN || v > INT_MAX) {
            PyErr_SetString(PyExc_OverflowError, "value too large to convert to int");
            break;
        }
        if (fmt[i] == 'f' && (v < FORM_POWER || v > FORM_TP_RHS1_U)) {
            PyErr_Format(PyExc_ValueError, "unknown form id %ld", v);
            break;
        }
        *va_arg(ap, int *) = (int)v;
    }
    va_end(ap);
    return i < want ? -1 : 0;
}

static PyObject *point(double (*f)(double), PyObject *arg)
{
    double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(f(x));
}

static PyObject *py_eta_point(PyObject *Py_UNUSED(module), PyObject *arg)
{
    return point(eta_point, arg);
}

static PyObject *py_eta3_point(PyObject *Py_UNUSED(module), PyObject *arg)
{
    return point(eta3_point, arg);
}

static PyObject *py_kernel_weight(PyObject *Py_UNUSED(module), PyObject *const *args,
                                  Py_ssize_t nargs)
{
    int form;
    double p1, p2, x;
    if (unpack("kernel_weight", "fddd", args, nargs, &form, &p1, &p2, &x) < 0)
        return NULL;
    return PyFloat_FromDouble(kernel_weight(form, p1, p2, x));
}

static PyObject *py_integrand(PyObject *Py_UNUSED(module), PyObject *const *args,
                              Py_ssize_t nargs)
{
    int form, n;
    double p1, p2, x;
    if (unpack("integrand", "fiddd", args, nargs, &form, &n, &p1, &p2, &x) < 0)
        return NULL;
    return PyFloat_FromDouble(integrand(form, n, p1, p2, x));
}

static PyObject *py_panel(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    int form, n;
    double p1, p2, a, b, out[3];
    if (unpack("panel", "fidddd", args, nargs, &form, &n, &p1, &p2, &a, &b) < 0)
        return NULL;
    panel(form, n, p1, p2, a, b, out);
    PyObject *res = PyTuple_New(3);
    for (Py_ssize_t i = 0; res != NULL && i < 3; i++) {
        PyObject *v = PyFloat_FromDouble(out[i]);
        if (v == NULL)
            Py_CLEAR(res);
        else
            PyTuple_SET_ITEM(res, i, v);
    }
    return res;
}

#define FASTCALL(fn) (PyCFunction)(void (*)(void))(fn), METH_FASTCALL

static PyMethodDef methods[] = {
    {"eta_point", py_eta_point, METH_O,
     "eta(ix) to machine precision (modular acceleration below x = 1)."},
    {"eta3_point", py_eta3_point, METH_O,
     "eta^3(ix) to machine precision (modular acceleration below x = 1)."},
    {"kernel_weight", FASTCALL(py_kernel_weight),
     "kernel_weight(form, p1, p2, x)\n\n"
     "The weight f(x) multiplying the eta power; see _forms for the table."},
    {"integrand", FASTCALL(py_integrand),
     "integrand(form, n, p1, p2, x)\n\nf(x) * eta^n(ix) at a single abscissa."},
    {"panel", FASTCALL(py_panel),
     "panel(form, n, p1, p2, a, b)\n\n"
     "One quadrature panel over [a, b] (Filon for oscillating cos/sin, else\n"
     "Gauss-Kronrod 7/15): (integral, error estimate, integral of |f|); see\n"
     "the Python twin."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "etaint._ckernels",
    .m_doc = "Compiled twin of the quadrature hot kernels (see _pykernels).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    SQRT_PI = sqrt(PI);
    TP1_C1 = 2.0 * sqrt(PI / 3.0);
    TP1_C2 = sqrt(3.0 * PI);
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND_NAME", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
