/* Direct-method stochastic simulation of many independent lanes.
 *
 * Each lane runs to its stop, one lane after another. Per event a lane does
 * what crngame.ssa.simulate does, in the same order and with the same
 * float64 operations, so it reproduces the scalar engine bit for bit:
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
 * Two shortcuts keep that trajectory and cut the cost of an event:
 *
 *   - the fired reaction is counted, not searched for: it is the number of
 *     r < nreactions - 1 whose running sum is below u2 * total, the same r
 *     because the running sums never decrease (see the loop), found without
 *     a data-dependent branch;
 *   - the sojourn t - log(u1) / total is taken only when `timed` is set or
 *     max_time is finite. Otherwise nothing reads the time: u1 is still
 *     drawn, so the stream advances as before, and elapsed stays 0.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or reassociation would change the last bits.
 */

#include <math.h>
#include <stdint.h>

enum {
    TERMINAL = 0, TIME_EXHAUSTED = 1, EVENT_CEILING = 2, EARLY_STOP = 3,
    OVERFLOW = 4
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

static inline int watched_zero(const int64_t *counts, const int64_t *watch,
                               int64_t nwatch)
{
    for (int64_t w = 0; w < nwatch; w++)
        if (counts[watch[w]] == 0)
            return 1;
    return 0;
}

/* Runs every lane to its stop.
 *
 * Lane i's initial counts are row i of `counts` (lanes x species), which
 * holds its final counts on return; its stream is column i of `rng`
 * (4 x lanes), advanced in place. Every lane shares `kv`, the rate
 * constants times volume scale. Reaction r's falling factors are
 * (fspecies[k], fshift[k]) for k in [fstart[r], fstart[r + 1]), and its
 * changes (dspecies[k], dchange[k]) for k in [dstart[r], dstart[r + 1]).
 * `cum` is scratch for the running sums, one slot per reaction.
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
    uint64_t *rng, int64_t *counts, double *cum,
    int64_t *reasons, int64_t *events, double *elapsed)
{
    const int sojourn = timed || max_time < INFINITY;

    for (int64_t lane = 0; lane < lanes; lane++) {
        int64_t *c = counts + lane * nspecies;
        uint64_t s[4] = {rng[lane], rng[lanes + lane], rng[2 * lanes + lane],
                         rng[3 * lanes + lane]};
        double t = 0.0;
        int64_t ev = 0;
        int64_t reason;

        if (nreactions == 0) {
            reason = TERMINAL;
            goto stop;
        }
        if (watched_zero(c, watch, nwatch)) {
            reason = EARLY_STOP;
            goto stop;
        }
        for (;;) {
            double total = 0.0;
            for (int64_t r = 0; r < nreactions; r++) {
                double p = kv[r];
                for (int64_t f = fstart[r]; f < fstart[r + 1]; f++)
                    p *= (double)c[fspecies[f]] - fshift[f];
                total += p;
                cum[r] = total;
            }
            if (!(total < INFINITY)) {
                reason = OVERFLOW;
                goto stop;
            }
            if (total == 0.0) {
                reason = TERMINAL;
                goto stop;
            }
            double u1 = next_u01(s);
            double u2 = next_u01(s);
            if (sojourn) {
                double next = t - log(u1) / total;
                if (next > max_time) {
                    reason = TIME_EXHAUSTED;
                    t = max_time;
                    goto stop;
                }
                t = next;
            }
            /* Every propensity is >= 0 or -0.0: a falling factor reaches 0
             * before it can go negative, and a sum that is not finite
             * stopped the lane above. So the running sums never decrease,
             * the r with cum[r] < threshold are a prefix, and their count
             * is the first r whose running sum reaches the threshold. */
            double threshold = u2 * total;
            int64_t chosen = 0;
            for (int64_t r = 0; r < nreactions - 1; r++)
                chosen += cum[r] < threshold;
            for (int64_t d = dstart[chosen]; d < dstart[chosen + 1]; d++)
                c[dspecies[d]] += dchange[d];
            ev++;
            if (watched_zero(c, watch, nwatch)) {
                reason = EARLY_STOP;
                goto stop;
            }
            if (ev >= ceiling) {
                reason = EVENT_CEILING;
                goto stop;
            }
        }
    stop:
        reasons[lane] = reason;
        events[lane] = ev;
        elapsed[lane] = t;
        rng[lane] = s[0];
        rng[lanes + lane] = s[1];
        rng[2 * lanes + lane] = s[2];
        rng[3 * lanes + lane] = s[3];
    }
}
