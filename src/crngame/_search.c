/* Breadth-first search of the states a CRN reaches from one state.
 *
 * The search takes one state at a time, in the order the states were
 * found, and each state's reactions in reaction order; a state's number is
 * its order of first discovery. It keeps the states' int64 count vectors in
 * one growing buffer and finds a successor's number in an open-addressing
 * hash of them. For each state it computes, in float64:
 *
 *   - reaction r's propensity, kv[r] * (double)(c - m) * ..., multiplied
 *     left to right over the falling factors (count c, shift m), as
 *     crngame.core.CompiledCrn.propensity does with Python ints;
 *   - one transition per successor: reactions with the same change lead to
 *     one successor, and their nonzero propensities are summed in reaction
 *     order (0.0 + p_a + p_b ...) into the entry of the first of them.
 *
 * A state where a watched species is zero is stopped, as a lane is: it gets
 * no transitions, and none of its propensities or successors is computed,
 * so it raises neither error below.
 *
 * The first of these, in search order, stops the search with an error:
 *
 *   - a propensity that is not finite (SEARCH_NONFINITE, its reaction);
 *   - a successor count above 2^63 - 1 (SEARCH_COUNT, its reaction and
 *     species), which in C would be undefined behaviour;
 *   - a new state beyond `cap` states; the initial state never counts
 *     (SEARCH_CAP).
 *
 * Nothing is sized from `cap`: every buffer starts small and doubles when
 * full, so a search pays only for the states it finds.
 *
 * Given a permutation of the species (the oracle passes a symmetry of the
 * CRN), a finished search also records each state's mirror: the number of
 * the state whose counts are the state's, permuted, or -1 if the search did
 * not reach it. That is one hash lookup per state, made before the hash is
 * freed.
 *
 * crngame_stranded checks a found space for the oracle: a breadth-first
 * search of the reversed transitions from every absorbing state finds the
 * states that can reach one, and the lowest state that cannot is returned.
 *
 * Build with -ffp-contract=off and without -ffast-math, as for the lane
 * loop: a fused multiply-add or reassociation would change the last bits.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    SEARCH_DONE = 0, SEARCH_CAP = 1, SEARCH_NONFINITE = 2, SEARCH_COUNT = 3,
    SEARCH_MEMORY = 4
};

/* crngame_stranded's codes besides a state number */
enum { STRANDED_NONE = -1, STRANDED_MEMORY = -2 };

/* What a search found. On return the buffers hold `nstates` states
 * (nstates x nspecies counts), their nstates + 1 row offsets into
 * `successors` and `rates`, `ntransitions` transitions and, if a species
 * permutation was given, the `nstates` mirrors; whatever the status, the
 * caller releases them with crngame_free_space. */
struct crngame_space {
    int64_t nstates, ntransitions;
    int64_t *states, *indptr, *successors;
    double *rates;
    int64_t reaction, species; /* where a search stopped with an error */
    int64_t *mirror;           /* NULL unless a permutation was given */
};

/* The growing buffers and the hash of one search.
 *
 * A state's hash is fmix(sum of c[s] * key[s]) modulo 2^64, with one fixed
 * pseudo-random odd key per species, so a reaction moves the sum by a
 * constant: the sum of its changes times their keys. */
struct search {
    int64_t nspecies;
    const uint64_t *key;
    int64_t state_room, transition_room;
    uint64_t mask;  /* hash slots - 1; the slot count is a power of two */
    int64_t *slots; /* state numbers, -1 where empty */
    struct crngame_space *out;
};

/* The 64-bit finaliser of MurmurHash3. */
static uint64_t fmix(uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdu;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53u;
    return h ^ (h >> 33);
}

static uint64_t key_sum(const struct search *sr, const int64_t *c)
{
    uint64_t sum = 0;
    for (int64_t s = 0; s < sr->nspecies; s++)
        sum += (uint64_t)c[s] * sr->key[s];
    return sum;
}

static int same_counts(const int64_t *a, const int64_t *b, int64_t nspecies)
{
    for (int64_t s = 0; s < nspecies; s++)
        if (a[s] != b[s])
            return 0;
    return 1;
}

/* The slot that holds counts `c`, whose key sum is `sum`, or the empty slot
 * where they belong. */
static int64_t *find(const struct search *sr, const int64_t *c, uint64_t sum)
{
    const int64_t nspecies = sr->nspecies;
    uint64_t at = fmix(sum) & sr->mask;
    for (;;) {
        int64_t *slot = sr->slots + at;
        if (*slot < 0 || same_counts(sr->out->states + *slot * nspecies, c, nspecies))
            return slot;
        at = (at + 1) & sr->mask;
    }
}

/* Doubles the hash and places every state again. */
static int grow_hash(struct search *sr)
{
    const uint64_t size = 2 * (sr->mask + 1);
    int64_t *slots = malloc(size * sizeof *slots);
    if (!slots)
        return 0;
    free(sr->slots);
    sr->slots = slots;
    sr->mask = size - 1;
    memset(slots, 0xff, size * sizeof *slots);
    for (int64_t i = 0; i < sr->out->nstates; i++) {
        const int64_t *c = sr->out->states + i * sr->nspecies;
        *find(sr, c, key_sum(sr, c)) = i;
    }
    return 1;
}

/* Resizes *buffer to `count` items of `size` bytes; 0 if out of memory. */
static int resize(void *buffer, int64_t count, size_t size)
{
    void *grown = realloc(*(void **)buffer, (size_t)count * size);
    if (!grown)
        return 0;
    *(void **)buffer = grown;
    return 1;
}

/* Appends counts `c` as a new state; 0 if out of memory. */
static int add_state(struct search *sr, const int64_t *c, int64_t *slot)
{
    struct crngame_space *out = sr->out;
    if (out->nstates == sr->state_room) {
        sr->state_room *= 2;
        /* one count at least: realloc may free a buffer resized to 0 */
        if (!resize(&out->states, sr->state_room * (sr->nspecies ? sr->nspecies : 1),
                    sizeof *c)
                || !resize(&out->indptr, sr->state_room + 1, sizeof *out->indptr))
            return 0;
    }
    memcpy(out->states + out->nstates * sr->nspecies, c,
           (size_t)sr->nspecies * sizeof *c);
    *slot = out->nstates++;
    /* at most half the slots full */
    return 2 * (uint64_t)out->nstates <= sr->mask + 1 || grow_hash(sr);
}

/* Searches from `initial`.
 *
 * Reaction r's falling factors are (fspecies[k], fshift[k]) for k in
 * [fstart[r], fstart[r + 1]), and its changes (dspecies[k], dchange[k]) for
 * k in [dstart[r], dstart[r + 1]). group[r] is the first reaction whose
 * changes equal r's. The watched species are watch[0..nwatch). If `nimage`
 * is nspecies, species s's image under the permutation is image[s], and
 * `out` gets the mirrors; if it is 0, it gets none. Returns a SEARCH_
 * status; `out` holds what was found.
 */
int64_t crngame_search(
    int64_t nspecies, int64_t nreactions,
    const int64_t *fstart, const int64_t *fspecies, const int64_t *fshift,
    const int64_t *dstart, const int64_t *dspecies, const int64_t *dchange,
    const int64_t *group, const double *kv, const int64_t *watch, int64_t nwatch,
    const int64_t *image, int64_t nimage,
    const int64_t *initial, int64_t cap, struct crngame_space *out)
{
    const size_t row = (size_t)(nspecies ? nspecies : 1) * sizeof *initial;
    const size_t per_reaction = (size_t)(nreactions ? nreactions : 1) * sizeof *initial;
    struct search sr = {nspecies, NULL, 1024, 1024, 2047, NULL, out};
    /* where each change group's transition of the current state is; an
     * entry before the state's first transition is from an earlier state */
    int64_t *at = malloc(per_reaction);
    uint64_t *step = malloc(per_reaction), *key = malloc(row); /* see struct search */
    int64_t *cur = malloc(row), *next = malloc(row);
    int64_t status = SEARCH_MEMORY;

    memset(out, 0, sizeof *out);
    out->states = malloc((size_t)sr.state_room * row);
    out->indptr = malloc((size_t)(sr.state_room + 1) * sizeof *out->indptr);
    out->successors = malloc((size_t)sr.transition_room * sizeof *out->successors);
    out->rates = malloc((size_t)sr.transition_room * sizeof *out->rates);
    sr.slots = malloc((sr.mask + 1) * sizeof *sr.slots);
    if (!at || !step || !key || !cur || !next || !out->states || !out->indptr
            || !out->successors || !out->rates || !sr.slots)
        goto done;
    memset(sr.slots, 0xff, (sr.mask + 1) * sizeof *sr.slots);
    for (int64_t s = 0; s < nspecies; s++)
        key[s] = fmix(0x9e3779b97f4a7c15u * (uint64_t)(s + 1)) | 1;
    sr.key = key;
    for (int64_t r = 0; r < nreactions; r++) {
        at[r] = -1;
        step[r] = 0;
        for (int64_t d = dstart[r]; d < dstart[r + 1]; d++)
            step[r] += (uint64_t)dchange[d] * key[dspecies[d]];
    }
    if (!add_state(&sr, initial, find(&sr, initial, key_sum(&sr, initial))))
        goto done;

    out->indptr[0] = 0;
    for (int64_t i = 0; i < out->nstates; i++) {
        const int64_t first = out->ntransitions;
        /* a copy: adding a state may move the states buffer */
        memcpy(cur, out->states + i * nspecies, (size_t)nspecies * sizeof *cur);
        const uint64_t sum = key_sum(&sr, cur);
        /* a stopped state, a watched count at zero, tries no reaction */
        int64_t live = nreactions;
        for (int64_t w = 0; w < nwatch; w++)
            if (cur[watch[w]] == 0)
                live = 0;
        for (int64_t r = 0; r < live; r++) {
            double p = kv[r];
            for (int64_t f = fstart[r]; f < fstart[r + 1]; f++)
                p *= (double)(cur[fspecies[f]] - fshift[f]);
            if (p == 0.0)
                continue;
            if (!isfinite(p)) {
                out->reaction = r;
                status = SEARCH_NONFINITE;
                goto done;
            }
            const int64_t g = group[r];
            if (at[g] >= first) {
                out->rates[at[g]] += p;
                continue;
            }
            memcpy(next, cur, (size_t)nspecies * sizeof *next);
            for (int64_t d = dstart[r]; d < dstart[r + 1]; d++) {
                const int64_t sp = dspecies[d];
                if (__builtin_add_overflow(next[sp], dchange[d], &next[sp])) {
                    out->reaction = r;
                    out->species = sp;
                    status = SEARCH_COUNT;
                    goto done;
                }
            }
            int64_t *slot = find(&sr, next, sum + step[r]), j = *slot;
            if (j < 0) {
                if (out->nstates >= cap) {
                    status = SEARCH_CAP;
                    goto done;
                }
                j = out->nstates;
                if (!add_state(&sr, next, slot))
                    goto done;
            }
            if (out->ntransitions == sr.transition_room) {
                sr.transition_room *= 2;
                if (!resize(&out->successors, sr.transition_room,
                            sizeof *out->successors)
                        || !resize(&out->rates, sr.transition_room, sizeof *out->rates))
                    goto done;
            }
            at[g] = out->ntransitions;
            out->successors[out->ntransitions] = j;
            out->rates[out->ntransitions++] = p;
        }
        out->indptr[i + 1] = out->ntransitions;
    }
    if (nimage) {
        out->mirror = malloc((size_t)out->nstates * sizeof *out->mirror);
        if (!out->mirror)
            goto done;
        for (int64_t i = 0; i < out->nstates; i++) {
            const int64_t *c = out->states + i * nspecies;
            for (int64_t s = 0; s < nspecies; s++)
                next[image[s]] = c[s];
            out->mirror[i] = *find(&sr, next, key_sum(&sr, next));
        }
    }
    status = SEARCH_DONE;

done:
    free(at);
    free(step);
    free(key);
    free(cur);
    free(next);
    free(sr.slots);
    return status;
}

void crngame_free_space(struct crngame_space *out)
{
    free(out->states);
    free(out->indptr);
    free(out->successors);
    free(out->rates);
    free(out->mirror);
    memset(out, 0, sizeof *out);
}

/* The lowest state of the `n` states with transitions successors[k], k in
 * [indptr[i], indptr[i + 1]), that reaches no absorbing state (one without
 * transitions): a state number, STRANDED_NONE if every state reaches one,
 * or STRANDED_MEMORY if out of memory. */
int64_t crngame_stranded(int64_t n, const int64_t *indptr, const int64_t *successors)
{
    const int64_t m = indptr[n];
    /* the reversed transitions in CSR: state j's predecessors are
     * from[start[j]..start[j + 1]) */
    int64_t *start = calloc((size_t)n + 1, sizeof *start);
    int64_t *from = malloc((size_t)(m ? m : 1) * sizeof *from);
    int64_t *queue = malloc((size_t)(n ? n : 1) * sizeof *queue);
    unsigned char *reached = calloc((size_t)(n ? n : 1), 1);
    int64_t stranded = STRANDED_MEMORY;
    if (!start || !from || !queue || !reached)
        goto done;

    for (int64_t k = 0; k < m; k++)
        start[successors[k]]++;
    for (int64_t j = 1; j < n; j++)  /* start[j]: the end of j's predecessors */
        start[j] += start[j - 1];
    start[n] = m;
    /* filled back to front, so each start[j] ends at the first of them */
    for (int64_t i = 0; i < n; i++)
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
            from[--start[successors[k]]] = i;

    int64_t tail = 0;
    for (int64_t i = 0; i < n; i++)
        if (indptr[i] == indptr[i + 1]) {
            reached[i] = 1;
            queue[tail++] = i;
        }
    for (int64_t head = 0; head < tail; head++) {
        const int64_t j = queue[head];
        for (int64_t k = start[j]; k < start[j + 1]; k++)
            if (!reached[from[k]]) {
                reached[from[k]] = 1;
                queue[tail++] = from[k];
            }
    }
    stranded = STRANDED_NONE;
    if (tail < n)
        for (stranded = 0; reached[stranded]; stranded++)
            ;

done:
    free(start);
    free(from);
    free(queue);
    free(reached);
    return stranded;
}
