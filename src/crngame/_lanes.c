/* Direct-method stochastic simulation of many independent lanes.
 *
 * Per event a lane does what crngame.ssa.simulate does, in the same order
 * and with the same float64 operations, so it reproduces the scalar engine
 * bit for bit:
 *
 *   - reaction r's propensity is kv[r] * f0 * f1 * ..., multiplied left to
 *     right over its falling factors (count - m);
 *   - the exit rate is their left-to-right running sum; a non-finite exit
 *     rate stops the lane as an overflow, checked before "exit rate 0"
 *     (terminal);
 *   - two xoshiro256** draws u = ((x >> 11) + 1) * 2^-53, u1 then u2;
 *   - the lane runs out of time if t - log(u1) / total > max_time;
 *   - the fired reaction is the first r whose running sum reaches u2 * total
 *     (the last reaction if none before it does);
 *   - after the event, a watched count at zero stops the lane (early stop),
 *     then the event ceiling does.
 *
 * WIDTH lanes run abreast in slots. One step walks the reaction tables once
 * for all slots, with the slot index innermost, so each factor's (species,
 * shift) is loaded once per step for WIDTH independent products, which the
 * processor overlaps (and a compiler may vectorise). Each slot keeps its
 * counts mirrored as doubles, and only the species an event changes are
 * converted again. Lanes are loaded into slots in lane order: at the start,
 * and into each slot freed by a stop, in slot order. Once no lane is left
 * to load, the survivors are drained one after another by the same step
 * code at width 1, so a call of few lanes, or its tail, never pays for
 * empty slots.
 *
 * Each lane draws as the scalar engine does: u1 only if its exit rate is
 * finite and positive, u2 only if it has not then run out of time, so a
 * lane stopped as terminal or overflow keeps its stream and one that runs
 * out of time takes u1 alone. Stops are found with masks over the slots:
 * while no slot stops, a step's draws and checks are loops over the slots
 * without a branch per slot, and only a step in which some slot stops
 * takes the per-slot path.
 *
 * Two shortcuts keep that trajectory and cut the cost of an event:
 *
 *   - the fired reaction is counted, not searched for: it is the number of
 *     r < nreactions - 1 whose running sum is below u2 * total, the same r
 *     because the running sums never decrease (see step), found without a
 *     data-dependent branch;
 *   - the sojourn t - log(u1) / total is taken only when `timed` is set or
 *     max_time is finite. Otherwise nothing reads the time: u1 is still
 *     drawn, so the stream advances as before, and elapsed stays 0.
 *
 * The wide loop is compiled once per x86-64 level (see CLONES). On the lane
 * calls of the benchmark's sweep_n1000 (four calls of 500 lanes, 28,260,295
 * events; a 2-vCPU Xeon guest with AVX-512, gcc 12, -O3; medians of 16
 * interleaved rounds, BENCH_isa.json) an event costs about 19 ns in the
 * default copy, 15 ns in the x86-64-v3 copy and 13 ns in the x86-64-v4
 * copy.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or reassociation would change the last bits. The v3 and v4
 * targets have fused multiply-adds, so this holds for every copy; packed
 * IEEE operations round as scalar ones do, so every copy gives the same
 * bits.
 */

#include <math.h>
#include <stdint.h>

/* Lanes in flight. On the sweep_n1000 calls above (medians of three
 * interleaved runs, BENCH_lanes.json) an event cost 28.2 ns one lane after
 * another, 19.1 ns at 4 lanes abreast, 16.9 at 8 and 18.8 at 16. In the v4
 * copy 16 lanes did not beat 8: 11.3 ns, against 11.8 and 11.2 ns for two
 * copies of one 8-lane build (20 interleaved rounds, BENCH_isa.json). The
 * caller sizes the scratch by it (crngame_lane_width). */
#define WIDTH 8

const int64_t crngame_lane_width = WIDTH;

#define INLINE static inline __attribute__((always_inline))

/* GCC compiles a CLONES function once per x86-64 level (v4: AVX-512, v3:
 * AVX2, default: the SSE2 baseline), and glibc picks the copy for the CPU by
 * cpuid when the library is loaded (an ifunc), so the library runs on any
 * x86-64 CPU. Elsewhere (another architecture or C library, clang, GCC
 * before 12) there is one copy, the default. Only run_wide has copies: the
 * width-1 drain measured no faster in them. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) \
    && !defined(__clang__) && __GNUC__ >= 12
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                                            "default")))
#else
#define CLONES
#endif

enum {
    TERMINAL = 0, TIME_EXHAUSTED = 1, EVENT_CEILING = 2, EARLY_STOP = 3,
    OVERFLOW = 4
};

/* One call: the CRN, the lanes' inputs and outputs, and the scratch. */
struct run {
    int64_t lanes, nspecies, nreactions;
    const int64_t *fstart, *fspecies;
    const double *fshift;
    const int64_t *dstart, *dspecies, *dchange;
    const int64_t *watch;
    int64_t nwatch;
    const double *kv;
    double max_time;
    int64_t ceiling;
    int sojourn;
    uint64_t *rng;
    int64_t *counts, *reasons, *events;
    double *elapsed;
    double *x;    /* counts as doubles, species x slots */
    double *cum;  /* running sums, reactions x slots */
    int64_t next; /* the next lane to load */
};

/* The lanes in flight; a step of width W uses the first W slots. */
struct slots {
    int64_t lane[WIDTH];
    int64_t *c[WIDTH]; /* the lane's row of counts */
    double t[WIDTH];
    int64_t ev[WIDTH];
    uint64_t s[4][WIDTH];
};

static inline uint64_t rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

static inline double next_u01(uint64_t s[4])
{
    uint64_t result = rotl(s[1] * 5, 7) * 9;
    uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return (double)((result >> 11) + 1) * 0x1.0p-53;
}

INLINE void finish(struct run *k, const struct slots *sl, int l, int64_t reason)
{
    int64_t lane = sl->lane[l];
    k->reasons[lane] = reason;
    k->events[lane] = sl->ev[l];
    k->elapsed[lane] = sl->t[l];
    for (int i = 0; i < 4; i++)
        k->rng[i * k->lanes + lane] = sl->s[i][l];
}

/* Writes slot l's counts into the width-W mirror. */
INLINE void mirror(const int W, struct run *k, const struct slots *sl, int l)
{
    for (int64_t sp = 0; sp < k->nspecies; sp++)
        k->x[sp * W + l] = (double)sl->c[l][sp];
}

/* Loads the next lane into slot l; a lane with a watched count at zero
 * stops there with no event, and the one after it is loaded. Returns 0 if
 * no lane is left. */
INLINE int load(const int W, struct run *k, struct slots *sl, int l)
{
    while (k->next < k->lanes) {
        int64_t lane = k->next++;
        int64_t *c = k->counts + lane * k->nspecies;
        int zero = 0;
        sl->lane[l] = lane;
        sl->c[l] = c;
        sl->t[l] = 0.0;
        sl->ev[l] = 0;
        for (int i = 0; i < 4; i++)
            sl->s[i][l] = k->rng[i * k->lanes + lane];
        for (int64_t w = 0; w < k->nwatch; w++)
            zero |= c[k->watch[w]] == 0;
        if (!zero) {
            mirror(W, k, sl, l);
            return 1;
        }
        finish(k, sl, l, EARLY_STOP);
    }
    return 0;
}

/* Draws u[l] from the stream of each slot l that goes on (why[l] < 0);
 * `some_stopped` is whether any has stopped. */
INLINE void draw(const int W, struct slots *sl, const int64_t *why,
                 int some_stopped, double *u)
{
    if (!some_stopped) {
        for (int l = 0; l < W; l++) {
            uint64_t s[4] = {sl->s[0][l], sl->s[1][l], sl->s[2][l], sl->s[3][l]};
            u[l] = next_u01(s);
            for (int i = 0; i < 4; i++)
                sl->s[i][l] = s[i];
        }
        return;
    }
    for (int l = 0; l < W; l++) {
        if (why[l] >= 0) {
            u[l] = 1.0; /* not read: the lane does not fire */
            continue;
        }
        uint64_t s[4] = {sl->s[0][l], sl->s[1][l], sl->s[2][l], sl->s[3][l]};
        u[l] = next_u01(s);
        for (int i = 0; i < 4; i++)
            sl->s[i][l] = s[i];
    }
}

/* One event of each of the W slots. why[l] is the stop code of slot l, or
 * -1 if it goes on; returns nonzero if any slot stopped. */
INLINE int step(const int W, const struct run *k, struct slots *sl, int64_t *why)
{
    const int64_t nr = k->nreactions, nwatch = k->nwatch, ceiling = k->ceiling;
    const int64_t *restrict fstart = k->fstart, *restrict fspecies = k->fspecies;
    const int64_t *restrict dstart = k->dstart, *restrict dspecies = k->dspecies;
    const int64_t *restrict dchange = k->dchange, *restrict watch = k->watch;
    const double *restrict fshift = k->fshift, *restrict kv = k->kv;
    const double max_time = k->max_time;
    const int sojourn = k->sojourn;
    double *restrict x = k->x, *restrict cum = k->cum;
    double total[WIDTH], next[WIDTH], threshold[WIDTH], u1[WIDTH], u2[WIDTH];
    int64_t chosen[WIDTH], zero[WIDTH];
    int stopped = 0, hit = 0;

    for (int l = 0; l < W; l++)
        total[l] = 0.0;
    for (int64_t r = 0; r < nr; r++) {
        double p[WIDTH];
        for (int l = 0; l < W; l++)
            p[l] = kv[r];
        for (int64_t f = fstart[r]; f < fstart[r + 1]; f++) {
            const double *xs = x + fspecies[f] * W;
            const double shift = fshift[f];
            for (int l = 0; l < W; l++)
                p[l] *= xs[l] - shift;
        }
        for (int l = 0; l < W; l++) {
            total[l] += p[l];
            cum[r * W + l] = total[l];
        }
    }

    /* The draws follow the scalar engine: u1 for a lane whose exit rate is
     * finite and positive, u2 for one that does not then run out of time. */
    for (int l = 0; l < W; l++) {
        why[l] = -1;
        stopped |= !(total[l] < INFINITY) | (total[l] == 0.0);
    }
    if (stopped) {
        for (int l = 0; l < W; l++) {
            if (!(total[l] < INFINITY))
                why[l] = OVERFLOW;
            else if (total[l] == 0.0)
                why[l] = TERMINAL;
        }
    }
    draw(W, sl, why, stopped, u1);
    if (sojourn) {
        int late = 0;
        for (int l = 0; l < W; l++)
            next[l] = sl->t[l] - log(u1[l]) / total[l];
        for (int l = 0; l < W; l++)
            late |= next[l] > max_time;
        if (late) {
            for (int l = 0; l < W; l++)
                if (why[l] < 0 && next[l] > max_time) {
                    why[l] = TIME_EXHAUSTED;
                    sl->t[l] = max_time;
                }
            stopped = 1;
        }
        for (int l = 0; l < W; l++)
            if (why[l] < 0)
                sl->t[l] = next[l];
    }
    draw(W, sl, why, stopped, u2);

    /* Every propensity is >= 0 or -0.0: a falling factor reaches 0 before
     * it can go negative, and a lane whose sum is not finite stopped above.
     * So a lane's running sums never decrease, the r with cum < threshold
     * are a prefix, and their count is the first r whose running sum
     * reaches the threshold. */
    for (int l = 0; l < W; l++) {
        threshold[l] = u2[l] * total[l];
        chosen[l] = 0;
    }
    for (int64_t r = 0; r < nr - 1; r++)
        for (int l = 0; l < W; l++)
            chosen[l] += cum[r * W + l] < threshold[l];
    for (int l = 0; l < W; l++) {
        if (why[l] >= 0)
            continue;
        int64_t *c = sl->c[l];
        const int64_t end = dstart[chosen[l] + 1];
        for (int64_t d = dstart[chosen[l]]; d < end; d++) {
            int64_t sp = dspecies[d];
            c[sp] += dchange[d];
            x[sp * W + l] = (double)c[sp];
        }
        sl->ev[l]++;
    }

    for (int l = 0; l < W; l++)
        zero[l] = 0;
    for (int64_t w = 0; w < nwatch; w++)
        for (int l = 0; l < W; l++)
            zero[l] |= sl->c[l][watch[w]] == 0;
    for (int l = 0; l < W; l++)
        hit |= zero[l] | (sl->ev[l] >= ceiling);
    if (hit) {
        for (int l = 0; l < W; l++) {
            if (why[l] >= 0)
                continue;
            if (zero[l])
                why[l] = EARLY_STOP;
            else if (sl->ev[l] >= ceiling)
                why[l] = EVENT_CEILING;
        }
        stopped = 1;
    }
    return stopped;
}

/* Steps the W slots, each loaded with a lane, and refills each slot that
 * stops. Returns once a slot cannot be refilled; live[l] is then whether
 * slot l still holds a lane. */
INLINE void run(const int W, struct run *k, struct slots *sl, int *live)
{
    /* local copies, which no store through a counts row can alias */
    const struct run fixed = *k;
    struct slots in = *sl;
    for (;;) {
        int64_t why[WIDTH];
        int full = 1;
        if (!step(W, &fixed, &in, why))
            continue;
        for (int l = 0; l < W; l++) {
            if (why[l] < 0)
                continue;
            finish(k, &in, l, why[l]);
            live[l] = load(W, k, &in, l);
            full &= live[l];
        }
        if (!full)
            break;
    }
    *sl = in;
}

CLONES static void run_wide(struct run *k, struct slots *sl, int *live)
{
    run(WIDTH, k, sl, live);
}

static void run_one(struct run *k, struct slots *sl)
{
    int live;
    run(1, k, sl, &live);
}

/* Runs every lane to its stop.
 *
 * Lane i's initial counts are row i of `counts` (lanes x species), which
 * holds its final counts on return; its stream is column i of `rng`
 * (4 x lanes), advanced in place. Every lane shares `kv`, the rate
 * constants times volume scale. Reaction r's falling factors are
 * (fspecies[k], fshift[k]) for k in [fstart[r], fstart[r + 1]), and its
 * changes (dspecies[k], dchange[k]) for k in [dstart[r], dstart[r + 1]).
 * `x` and `cum` are scratch of crngame_lane_width * nspecies and
 * crngame_lane_width * nreactions doubles (at least one each).
 *
 * A lane whose exit rate is not finite stops with OVERFLOW: its counts row
 * is left at that state, and events[lane] is the index of the event it
 * could not take. The other lanes are not affected.
 *
 * elapsed[lane] is the lane's time if `timed` is nonzero or max_time is
 * finite, else 0.
 */
void crngame_run_lanes(
    int64_t lanes, int64_t nspecies, int64_t nreactions,
    const int64_t *fstart, const int64_t *fspecies, const double *fshift,
    const int64_t *dstart, const int64_t *dspecies, const int64_t *dchange,
    const int64_t *watch, int64_t nwatch,
    const double *kv, double max_time, int64_t ceiling, int64_t timed,
    uint64_t *rng, int64_t *counts,
    int64_t *reasons, int64_t *events, double *elapsed,
    double *x, double *cum)
{
    struct run k = {
        lanes, nspecies, nreactions, fstart, fspecies, fshift,
        dstart, dspecies, dchange, watch, nwatch, kv, max_time, ceiling,
        timed || max_time < INFINITY, rng, counts, reasons, events, elapsed,
        x, cum, 0,
    };
    struct slots wide, one;
    int live[WIDTH] = {0};

    if (lanes >= WIDTH) {
        int full = 1;
        for (int l = 0; l < WIDTH; l++)
            full &= live[l] = load(WIDTH, &k, &wide, l);
        if (full)
            run_wide(&k, &wide, live);
    }
    for (int l = 0; l < WIDTH; l++) {
        if (!live[l])
            continue;
        one.lane[0] = wide.lane[l];
        one.c[0] = wide.c[l];
        one.t[0] = wide.t[l];
        one.ev[0] = wide.ev[l];
        for (int i = 0; i < 4; i++)
            one.s[i][0] = wide.s[i][l];
        mirror(1, &k, &one, 0);
        run_one(&k, &one);
    }
    if (load(1, &k, &one, 0))
        run_one(&k, &one);
}
